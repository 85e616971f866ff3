"""Layer-graph data model, file format and the float inference engine.

A model is an immutable, topologically ordered list of layer specs plus a
parameter store. Transforms (fusion, pruning, quantization) consume one
model and produce a new one; nothing is mutated in place.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ModelFormatError, ShapeError, file_content
from .tensor import (
    DTYPE_FLOAT32,
    DTYPE_INT16,
    BatchNormParams,
    FeatureMap,
    FilterBank,
    _NUMPY_DTYPES,
    _atomic_write,
    batchnorm_forward,
    concat,
    conv2d,
    conv_output_shape,
    leaky_relu,
    maxpool,
    split_batch,
    upsample_nearest,
)

MANIFEST_VERSION = 1
_WEIGHTS_MAGIC = b"CNNW"
_WEIGHTS_VERSION = 1

# kind -> (number of inputs, the integer fields it needs positive, its other
# fields), the fields in the order the manifest writes them. A layer may set
# no field its kind does not list.
_KINDS = {
    "input": (0, ("height", "width", "channels"), ()),
    "conv": (1, ("num_filters", "kernel_h", "kernel_w", "stride"),
             ("padding", "has_bias", "has_batchnorm", "activation", "fused",
              "act_exponent", "epsilon")),
    "maxpool": (1, ("size", "stride"), ()),
    "upsample": (1, ("factor",), ()),
    "concat": (2, (), ()),
    "output_marker": (1, (), ()),
}
# each kind's fields in manifest order
_KIND_FIELDS = {kind: required + other for kind, (_, required, other) in _KINDS.items()}
# conv fields that only some convs own
_OWNED_IF = {"act_exponent": lambda l: l.activation == "leaky",
             "epsilon": lambda l: l.has_batchnorm}
# a tuple, not a set, so the first bad field reported does not depend on hashing
_INT_FIELDS = tuple(dict.fromkeys(
    name for _, required, _ in _KINDS.values() for name in required)) + ("act_exponent",)
_BOOL_FIELDS = ("has_bias", "has_batchnorm", "fused")
# Largest leaky slope exponent: an int16 right shift by more bits is constant.
MAX_ACT_EXPONENT = 15


@dataclass(frozen=True)
class LayerSpec:
    """One node of the layer DAG; kind-specific attributes are optional fields,
    and ``_KINDS`` names the ones each kind requires."""

    id: str
    kind: str
    inputs: tuple[str, ...] = ()
    num_filters: Optional[int] = None
    kernel_h: Optional[int] = None
    kernel_w: Optional[int] = None
    stride: Optional[int] = None
    padding: Optional[str] = None
    has_bias: bool = False
    has_batchnorm: bool = False
    activation: Optional[str] = None        # "linear" | "leaky"
    act_exponent: Optional[int] = None      # negative-slope exponent for leaky
    fused: bool = False
    epsilon: Optional[float] = None         # stored batchnorm epsilon
    size: Optional[int] = None
    factor: Optional[int] = None
    height: Optional[int] = None
    width: Optional[int] = None
    channels: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        for name in _INT_FIELDS:
            v = getattr(self, name)
            if v is not None and (not isinstance(v, int) or isinstance(v, bool)):
                raise ModelFormatError(f"layer {self.id!r}: {name} must be an integer, got {v!r}")
        for name in _BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise ModelFormatError(
                    f"layer {self.id!r}: {name} must be true or false, got {getattr(self, name)!r}")
        if self.epsilon is not None and (
                not isinstance(self.epsilon, (int, float)) or isinstance(self.epsilon, bool)):
            raise ModelFormatError(f"layer {self.id!r}: epsilon must be a number, "
                                   f"got {self.epsilon!r}")
        if not self.id or any(c in self.id for c in "/\\\0"):
            raise ModelFormatError(f"layer id {self.id!r} must be a non-empty file name "
                                   "without '/', '\\' or NUL")
        if self.kind not in _KINDS:
            raise ModelFormatError(f"layer {self.id!r}: unknown kind {self.kind!r}")
        n_inputs, required, _ = _KINDS[self.kind]
        if len(self.inputs) != n_inputs:
            raise ModelFormatError(
                f"layer {self.id!r}: kind {self.kind} takes {n_inputs} inputs, got {len(self.inputs)}")
        for name in required:
            v = getattr(self, name)
            if v is None or v < 1:
                raise ModelFormatError(
                    f"layer {self.id!r}: {self.kind} needs positive {name}, got {v}")
        if self.kind == "conv":
            if self.padding not in ("same", "valid"):
                raise ModelFormatError(f"layer {self.id!r}: bad padding {self.padding!r}")
            if self.activation not in ("linear", "leaky"):
                raise ModelFormatError(f"layer {self.id!r}: bad activation {self.activation!r}")
            if self.activation == "leaky" and (
                    self.act_exponent is None or not 0 <= self.act_exponent <= MAX_ACT_EXPONENT):
                raise ModelFormatError(f"layer {self.id!r}: leaky activation needs act_exponent "
                                       f"in [0, {MAX_ACT_EXPONENT}], got {self.act_exponent}")
        for name, default in _FIELD_DEFAULTS.items():
            if getattr(self, name) != default and not self._owns(name):
                raise ModelFormatError(
                    f"layer {self.id!r}: {name} is set, but this {self.kind} does not use it")

    def _owns(self, name: str) -> bool:
        """Whether this layer's kind lists ``name`` and, where ``_OWNED_IF``
        names it, this layer owns it."""
        return name in _KIND_FIELDS[self.kind] and (name not in _OWNED_IF or _OWNED_IF[name](self))

    @property
    def bn_epsilon(self) -> float:
        """Batchnorm epsilon as the manifest stores it; a missing one reads as
        ``BatchNormParams``' default."""
        return BatchNormParams.epsilon if self.epsilon is None else self.epsilon

    @property
    def leaky_alpha(self) -> float:
        """Negative slope 2^-act_exponent of a leaky conv."""
        return 2.0 ** -self.act_exponent

    def to_json_dict(self) -> dict:
        d = {"id": self.id, "kind": self.kind, "inputs": list(self.inputs)}
        d.update((name, getattr(self, name)) for name in _KIND_FIELDS[self.kind]
                 if self._owns(name))
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "LayerSpec":
        if not isinstance(d, dict):
            raise ModelFormatError(f"layer entry must be a JSON object, got {d!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ModelFormatError(f"layer {d.get('id')!r}: unknown attributes {sorted(unknown)}")
        if not (isinstance(d.get("id"), str) and isinstance(d.get("kind"), str)):
            raise ModelFormatError(f"layer object needs a string id and kind: {d}")
        inputs = d.get("inputs", [])
        if not (isinstance(inputs, list) and all(isinstance(i, str) for i in inputs)):
            raise ModelFormatError(f"layer {d['id']!r}: inputs must be a list of layer ids")
        return cls(**{k: (tuple(v) if k == "inputs" else v) for k, v in d.items()})


# every LayerSpec field after id, kind and inputs, with its default; built
# once, since tuples built per layer would linger on the interpreter's free lists
_FIELD_DEFAULTS = {f.name: f.default for f in fields(LayerSpec)[3:]}


@dataclass(frozen=True)
class ConvParams:
    filters: FilterBank
    batchnorm: Optional[BatchNormParams] = None


@dataclass(frozen=True)
class LayerGraph:
    """Topologically ordered layer specs: unique ids, exactly one input, and
    every input before its consumer. ``Model`` and the quantized model add a
    ``FilterBank`` per conv layer and check the banks with ``_check_weights``."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        ids = [l.id for l in self.layers]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ModelFormatError(f"duplicate layer ids: {dupes}")
        n_inputs = sum(1 for l in self.layers if l.kind == "input")
        if n_inputs != 1:
            raise ModelFormatError(f"model must have exactly one input layer, found {n_inputs}")
        seen: set[str] = set()
        for layer in self.layers:
            for src in layer.inputs:
                if src not in seen:
                    raise ModelFormatError(
                        f"layer {layer.id!r} consumes {src!r} which does not precede it")
            seen.add(layer.id)

    def _check_weights(self, banks: Mapping[str, FilterBank], dtype: type) -> None:
        """Banks of the model's ``dtype`` for exactly the conv layers and under
        no other key, with the kernel and filter count of the spec and the
        input channels that ``shape_infer`` gives upstream."""
        shapes = shape_infer(self)
        for layer in self.layers:
            if layer.kind == "conv":
                if layer.id not in banks:
                    raise ModelFormatError(f"conv layer {layer.id!r} has no parameters")
                weights = banks[layer.id].weights
                if weights.dtype != dtype:
                    raise ModelFormatError(f"layer {layer.id!r}: filter bank holds "
                                           f"{weights.dtype}, this model {np.dtype(dtype)}")
                shape = weights.shape
                if (shape[0], shape[1], shape[3]) != (
                        layer.kernel_h, layer.kernel_w, layer.num_filters):
                    raise ShapeError(
                        f"layer {layer.id!r}: filter bank {shape} does not match "
                        f"spec ({layer.kernel_h}x{layer.kernel_w}, nf={layer.num_filters})")
                c = shapes[layer.inputs[0]][2]
                if shape[2] != c:
                    raise ShapeError(
                        f"layer {layer.id!r}: filters expect {shape[2]} input channels, "
                        f"upstream provides {c}")
            elif layer.id in banks:
                raise ModelFormatError(f"non-conv layer {layer.id!r} has parameters attached")
        stray = set(banks) - {l.id for l in self.layers}
        if stray:
            raise ModelFormatError(f"parameters for unknown layers: {sorted(stray)}")

    @property
    def input_layer(self) -> LayerSpec:
        return next(l for l in self.layers if l.kind == "input")

    @property
    def input_shape(self) -> tuple[int, int, int]:
        l = self.input_layer
        return l.height, l.width, l.channels

    def layer(self, layer_id: str) -> LayerSpec:
        for l in self.layers:
            if l.id == layer_id:
                return l
        raise KeyError(layer_id)

    def conv_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.kind == "conv"]

    def output_ids(self) -> list[str]:
        """Ids whose outputs the model exposes: output markers, else the last layer."""
        marked = [l.id for l in self.layers if l.kind == "output_marker"]
        return marked if marked else [self.layers[-1].id]


@dataclass(frozen=True)
class Model(LayerGraph):
    """Topologically ordered layer specs plus per-conv float32 parameters."""

    params: dict[str, ConvParams] = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        self._check_weights({lid: p.filters for lid, p in self.params.items()}, np.float32)
        for layer in self.conv_layers():
            p = self.params[layer.id]
            if layer.has_batchnorm != (p.batchnorm is not None):
                raise ModelFormatError(
                    f"layer {layer.id!r}: has_batchnorm flag disagrees with stored parameters")
            if p.batchnorm is not None and p.batchnorm.num_filters != layer.num_filters:
                raise ShapeError(
                    f"layer {layer.id!r}: batchnorm length {p.batchnorm.num_filters} "
                    f"!= {layer.num_filters} filters")
            if p.batchnorm is not None and p.batchnorm.epsilon != layer.bn_epsilon:
                raise ModelFormatError(
                    f"layer {layer.id!r}: batchnorm epsilon {p.batchnorm.epsilon} "
                    f"!= layer epsilon {layer.bn_epsilon}")

    def has_batchnorm(self) -> bool:
        return any(l.has_batchnorm for l in self.conv_layers())


# InferenceTrace: ordered mapping layer id -> FeatureMap
InferenceTrace = dict[str, FeatureMap]


def shape_infer(graph: LayerGraph) -> dict[str, tuple[int, int, int]]:
    """Static (h, w, c) for every layer, from the layer specs alone; fails
    instead of guessing on mismatch."""
    shapes: dict[str, tuple[int, int, int]] = {}
    for layer in graph.layers:
        if layer.kind == "input":
            shapes[layer.id] = (layer.height, layer.width, layer.channels)
        elif layer.kind == "conv":
            h, w, _ = shapes[layer.inputs[0]]
            oh, ow = conv_output_shape(h, w, layer.kernel_h, layer.kernel_w,
                                       layer.stride, layer.padding)
            shapes[layer.id] = (oh, ow, layer.num_filters)
        elif layer.kind == "maxpool":
            h, w, c = shapes[layer.inputs[0]]
            oh, ow = conv_output_shape(h, w, layer.size, layer.size, layer.stride, "same")
            shapes[layer.id] = (oh, ow, c)
        elif layer.kind == "upsample":
            h, w, c = shapes[layer.inputs[0]]
            shapes[layer.id] = (h * layer.factor, w * layer.factor, c)
        elif layer.kind == "concat":
            ha, wa, ca = shapes[layer.inputs[0]]
            hb, wb, cb = shapes[layer.inputs[1]]
            if (ha, wa) != (hb, wb):
                raise ShapeError(
                    f"layer {layer.id!r}: concat spatial mismatch {ha}x{wa} vs {hb}x{wb}")
            shapes[layer.id] = (ha, wa, ca + cb)
        else:  # output_marker
            shapes[layer.id] = shapes[layer.inputs[0]]
    return shapes


def execute(graph: LayerGraph, maps: Sequence[FeatureMap], conv,
            taps: bool = False) -> dict[str, FeatureMap]:
    """Run ``graph`` in topological order on same-shaped maps of one dtype.

    The maps run as one batch, stacked along the height (see ``tensor``).
    ``conv(layer, fm, batch)`` computes each conv layer; pool, upsample and
    concat keep the maps' dtype. Returns the stacked output of every layer
    when taps is set, otherwise of the model outputs.
    """
    expected = graph.input_shape
    if not maps:
        raise ValueError("inference needs at least one input map")
    for fm in maps:
        if fm.shape != expected:
            raise ShapeError(f"input shape {fm.shape} != model input {expected}")
        if fm.data.dtype != maps[0].data.dtype:
            raise ValueError(f"batch dtype mismatch: {maps[0].data.dtype} vs {fm.data.dtype}")
    n = len(maps)

    acts = {}
    for layer in graph.layers:
        src = [acts[i] for i in layer.inputs]
        if layer.kind == "input":
            out = maps[0] if n == 1 else replace(
                maps[0], data=np.concatenate([m.data for m in maps]))
        elif layer.kind == "conv":
            out = conv(layer, src[0], n)
        elif layer.kind == "maxpool":
            out = maxpool(src[0], layer.size, layer.stride, batch=n)
        elif layer.kind == "upsample":
            out = upsample_nearest(src[0], layer.factor)
        elif layer.kind == "concat":
            out = concat(*src)
        else:  # output_marker
            out = src[0]
        acts[layer.id] = out

    kept = [layer.id for layer in graph.layers] if taps else graph.output_ids()
    return {lid: acts[lid] for lid in kept}


def float_infer(model: Model, input: FeatureMap | Sequence[FeatureMap],
                taps: bool = False) -> InferenceTrace | list[InferenceTrace]:
    """Run the float engine through ``execute``.

    A conv layer is one ``conv2d`` call, activation included, unless it has
    batchnorm: then the reference ops ``batchnorm_forward`` and ``leaky_relu``
    follow. The trace holds every layer output when taps is set, otherwise only
    the model outputs. ``input`` is one FeatureMap, which gives one trace, or a
    list of them, which run as one batch and give one trace per map. A batch
    computes the same bits as running its maps one at a time.
    """
    def conv(layer, fm, batch):
        p = model.params[layer.id]
        alpha = layer.leaky_alpha if layer.activation == "leaky" else None
        if p.batchnorm is None:
            return conv2d(fm, p.filters, layer.stride, layer.padding, batch, leaky_alpha=alpha)
        out = batchnorm_forward(conv2d(fm, p.filters, layer.stride, layer.padding, batch),
                                p.batchnorm)
        return out if alpha is None else leaky_relu(out, alpha)

    if isinstance(input, FeatureMap):
        return execute(model, [input], conv, taps)
    maps = list(input)
    per_map = {lid: split_batch(fm, len(maps))
               for lid, fm in execute(model, maps, conv, taps).items()}
    return [{lid: fms[i] for lid, fms in per_map.items()} for i in range(len(maps))]


def randomize_weights(model: Model, rng: np.random.Generator,
                      weight_scale: float = 0.5) -> Model:
    """Test utility: fresh model with weights drawn uniformly from [-scale, scale]."""
    new_params = {}
    for lid, p in model.params.items():
        fb = p.filters
        w = rng.uniform(-weight_scale, weight_scale, size=fb.weights.shape)
        b = rng.uniform(-weight_scale, weight_scale, size=fb.biases.shape)
        layer = model.layer(lid)
        if not layer.has_bias:
            b = np.zeros_like(b)
        bn = p.batchnorm
        if bn is not None:
            bn = BatchNormParams(
                mu=rng.uniform(-1, 1, size=bn.mu.shape),
                sigma2=rng.uniform(0.1, 4.0, size=bn.sigma2.shape),
                gamma=rng.uniform(0.5, 1.5, size=bn.gamma.shape),
                beta=rng.uniform(-1, 1, size=bn.beta.shape),
                epsilon=bn.epsilon,
            )
        new_params[lid] = ConvParams(FilterBank(w, b), bn)
    return Model(model.layers, new_params)


# ---------------------------------------------------------------------------
# Manifest + weights blob serialization
# ---------------------------------------------------------------------------

_BN_SUFFIXES = ("gamma", "beta", "mu", "sigma2")


def record_chunks(records: Iterable[tuple[str, np.ndarray]],
                  dtype_code: int) -> Iterator[bytes | memoryview]:
    """Encode ``records`` (name, array) as a weights blob, one chunk at a time.

    Yields the blob header, then per record its head (name length, UTF-8
    name, dtype code, rank, dims) and its payload as a memoryview. The
    payload is the array itself when it is already C-contiguous in the record
    dtype, so concatenating the chunks gives the blob without copying it.
    """
    dtype = _NUMPY_DTYPES[dtype_code]
    yield _WEIGHTS_MAGIC + struct.pack("<I", _WEIGHTS_VERSION)
    for name, arr in records:
        encoded = name.encode("utf-8")
        yield (struct.pack("<H", len(encoded)) + encoded
               + struct.pack(f"<BB{arr.ndim}I", dtype_code, arr.ndim, *arr.shape))
        yield memoryview(np.ascontiguousarray(arr, dtype=dtype).reshape(-1)).cast("B")


def conv_records(layer_id: str, filters: FilterBank, batchnorm: Optional[BatchNormParams] = None
                 ) -> Iterator[tuple[str, np.ndarray]]:
    """A conv layer's (name, array) weight records in blob order."""
    yield f"{layer_id}.W", filters.weights
    yield f"{layer_id}.b", filters.biases
    if batchnorm is not None:
        for suffix in _BN_SUFFIXES:
            yield f"{layer_id}.{suffix}", getattr(batchnorm, suffix)


def _weight_records(model: Model) -> Iterator[tuple[str, np.ndarray]]:
    for layer in model.conv_layers():
        p = model.params[layer.id]
        yield from conv_records(layer.id, p.filters, p.batchnorm)


def manifest_dict(model: Model, weights_rel: str) -> dict:
    in_layer = model.input_layer
    return {
        "format_version": MANIFEST_VERSION,
        "input": {"h": in_layer.height, "w": in_layer.width, "c": in_layer.channels},
        "layers": [l.to_json_dict() for l in model.layers],
        "weights": weights_rel,
    }


def model_digest(model: Model) -> str:
    """Stable identity hash over structure and parameters.

    sha256 of the sorted-key manifest JSON (with an empty weights path)
    followed by the weights blob, which is hashed as it is encoded.
    """
    h = hashlib.sha256()
    h.update(json.dumps(manifest_dict(model, ""), sort_keys=True).encode())
    for chunk in record_chunks(_weight_records(model), DTYPE_FLOAT32):
        h.update(chunk)
    return h.hexdigest()


def write_model_files(model, manifest_path, records: Iterable[tuple[str, np.ndarray]],
                      dtype_code: int, **extra) -> None:
    """Write the weights blob of ``records``, then the manifest naming it.

    ``model`` supplies the layers and the input block (a Model or a
    QuantizedModel); ``extra`` adds top-level manifest blocks after
    ``weights``. Both files are written through ``_atomic_write``; a failed
    blob write is named by the manifest path, then the blob's name, as a
    failed read is.
    """
    manifest_path = os.fspath(manifest_path)
    weights_rel = os.path.splitext(os.path.basename(manifest_path))[0] + ".weights"
    weights_path = os.path.join(os.path.dirname(manifest_path) or ".", weights_rel)
    manifest = {**manifest_dict(model, weights_rel), **extra}
    _atomic_write(weights_path, record_chunks(records, dtype_code),
                  f"{manifest_path}: {weights_rel}")
    _atomic_write(manifest_path, [(json.dumps(manifest, indent=2) + "\n").encode()])


def save_model(model: Model, manifest_path) -> None:
    """Write manifest JSON plus the weights blob next to it (atomic rename)."""
    write_model_files(model, manifest_path, _weight_records(model), DTYPE_FLOAT32)


def read_model_files(manifest_path, dtype_code: int
                     ) -> tuple[dict, tuple[LayerSpec, ...], dict[str, ConvParams]]:
    """Read a manifest and its weights blob; returns (manifest, layers,
    {conv id: ConvParams}).

    The manifest must be quantized (carry a ``quantization`` block) exactly
    when ``dtype_code`` is int16, and its layers must form a ``LayerGraph``;
    both are checked before the blob is opened. The blob is read record by
    record, each payload straight into its array once its header gives
    ``dtype_code`` and its size fits in the rest of the file. A conv layer's
    records are those ``conv_records`` writes: each must be present, any
    other record is stray, and a name may name one record only. These rules
    of the file container raise ModelFormatError without the manifest path,
    which the loaders' ``file_content`` adds; a blob fault, a missing or
    unreadable blob included, is prefixed by the blob's name as the manifest
    gives it. Once every record is placed, each conv's ``ConvParams`` is
    built from its records, whose shapes and values its constructors check;
    a fault there is prefixed by the layer.
    """
    manifest_path = os.fspath(manifest_path)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
        raise ModelFormatError(f"invalid JSON ({e})") from e
    if not isinstance(manifest, dict):
        raise ModelFormatError("manifest must be a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != MANIFEST_VERSION:  # true and 1.0 equal 1
        raise ModelFormatError(f"unsupported format_version {version!r}")
    for key in ("input", "layers", "weights"):
        if key not in manifest:
            raise ModelFormatError(f"missing {key!r} block")
    if not isinstance(manifest["layers"], list):
        raise ModelFormatError("'layers' must be a list")
    if not isinstance(manifest["weights"], str):
        raise ModelFormatError("'weights' must be a file name")
    if dtype_code == DTYPE_FLOAT32 and "quantization" in manifest:
        raise ModelFormatError("quantized model; use the quantized-model loader")
    if dtype_code == DTYPE_INT16 and "quantization" not in manifest:
        raise ModelFormatError("not a quantized model (missing quantization block)")
    graph = LayerGraph([LayerSpec.from_json_dict(d) for d in manifest["layers"]])
    actual = dict(zip("hwc", graph.input_shape))
    if manifest["input"] != actual:
        raise ModelFormatError(
            f"top-level input {manifest['input']} disagrees with input layer {actual}")

    blob = manifest["weights"]
    dtype = _NUMPY_DTYPES[dtype_code]
    records: dict[str, np.ndarray] = {}
    arrays: dict[str, dict[str, np.ndarray]] = {}
    with file_content(blob):
        with open(os.path.join(os.path.dirname(manifest_path) or ".", blob), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def take(n: int, what: str) -> bytes:
                data = fh.read(n)
                if len(data) < n:
                    raise ModelFormatError(f"truncated {what}")
                return data

            head = fh.read(8)
            if head[:4] != _WEIGHTS_MAGIC:
                raise ModelFormatError("not a weights blob (bad magic)")
            if len(head) < 8:
                raise ModelFormatError(f"truncated weights header ({len(head)} bytes)")
            (version,) = struct.unpack_from("<I", head, 4)
            if version != _WEIGHTS_VERSION:
                raise ModelFormatError(f"unsupported weights version {version}")
            while fh.tell() < size:
                (name_len,) = struct.unpack("<H", take(2, "record header"))
                head = take(name_len + 2, "record header")
                try:
                    name = head[:name_len].decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ModelFormatError(f"record name is not UTF-8 ({e})") from e
                code, rank = head[name_len:]
                if code != dtype_code:
                    raise ModelFormatError(f"record {name!r} is not {dtype.name}")
                if name in records:
                    raise ModelFormatError(f"repeated weight record {name!r}")
                dims = struct.unpack(f"<{rank}I", take(4 * rank, f"record {name!r} dims"))
                # a forged dims header must not make it allocate more than the file holds
                if math.prod(dims) * dtype.itemsize > size - fh.tell():
                    raise ModelFormatError(f"truncated record {name!r} payload")
                records[name] = np.empty(dims, dtype)
                fh.readinto(records[name])

        for layer in graph.conv_layers():
            arrays[layer.id] = {}
            for suffix in ("W", "b") + (_BN_SUFFIXES if layer.has_batchnorm else ()):
                name = f"{layer.id}.{suffix}"
                if name not in records:
                    raise ModelFormatError(f"missing weight record {name!r} "
                                           f"for layer {layer.id!r}")
                arrays[layer.id][suffix] = records.pop(name)
        if records:
            raise ModelFormatError(f"records for unknown layers: {sorted(records)}")
    params = {}
    for layer in graph.conv_layers():
        a = arrays[layer.id]
        with file_content(f"layer {layer.id!r}"):
            bn = BatchNormParams(a["mu"], a["sigma2"], a["gamma"], a["beta"],
                                 layer.bn_epsilon) if layer.has_batchnorm else None
            params[layer.id] = ConvParams(FilterBank(a["W"], a["b"]), bn)
    return manifest, graph.layers, params


def load_model(manifest_path) -> Model:
    """Load a float model; load(save(m)) round-trips every bit. A refusal
    names the manifest, and also the layer for a fault in one conv's arrays."""
    with file_content(manifest_path):
        _, layers, params = read_model_files(manifest_path, DTYPE_FLOAT32)
        return Model(layers, params)


def zero_filter_bank(kernel_h: int, kernel_w: int, in_channels: int,
                     num_filters: int) -> FilterBank:
    return FilterBank(
        np.zeros((kernel_h, kernel_w, in_channels, num_filters), dtype=np.float32),
        np.zeros(num_filters, dtype=np.float32),
    )


def replace_layer(model: Model, layer_id: str, **changes) -> Model:
    """New model with one layer spec changed (parameters untouched)."""
    layers = tuple(replace(l, **changes) if l.id == layer_id else l for l in model.layers)
    return Model(layers, dict(model.params))
