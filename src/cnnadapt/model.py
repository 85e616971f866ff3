"""Layer-graph data model, file format and the float inference engine.

A model is an immutable, topologically ordered list of layer specs plus a
parameter store. Transforms (fusion, pruning, quantization) consume one
model and produce a new one; nothing is mutated in place.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ModelFormatError, ShapeError
from .tensor import (
    DTYPE_FLOAT32,
    DTYPE_INT16,
    BatchNormParams,
    FeatureMap,
    FilterBank,
    batchnorm_forward,
    concat,
    conv2d,
    conv_output_shape,
    leaky_relu,
    maxpool,
    maxpool_output_shape,
    split_batch,
    upsample_nearest,
)

MANIFEST_VERSION = 1
_WEIGHTS_MAGIC = b"CNNW"
_WEIGHTS_VERSION = 1

LAYER_KINDS = ("input", "conv", "maxpool", "upsample", "concat", "output_marker")


@dataclass(frozen=True)
class LayerSpec:
    """One node of the layer DAG; kind-specific attributes are optional fields."""

    id: str
    kind: str
    inputs: tuple[str, ...] = ()
    # conv
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
    # maxpool
    size: Optional[int] = None
    # upsample
    factor: Optional[int] = None
    # input
    height: Optional[int] = None
    width: Optional[int] = None
    channels: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.kind not in LAYER_KINDS:
            raise ModelFormatError(f"layer {self.id!r}: unknown kind {self.kind!r}")
        n_inputs = {"input": 0, "concat": 2}.get(self.kind, 1)
        if len(self.inputs) != n_inputs:
            raise ModelFormatError(
                f"layer {self.id!r}: kind {self.kind} takes {n_inputs} inputs, got {len(self.inputs)}")
        if self.kind == "conv":
            for name in ("num_filters", "kernel_h", "kernel_w", "stride"):
                v = getattr(self, name)
                if not isinstance(v, int) or v < 1:
                    raise ModelFormatError(f"layer {self.id!r}: conv needs positive {name}, got {v}")
            if self.padding not in ("same", "valid"):
                raise ModelFormatError(f"layer {self.id!r}: bad padding {self.padding!r}")
            if self.activation not in ("linear", "leaky"):
                raise ModelFormatError(f"layer {self.id!r}: bad activation {self.activation!r}")
            if self.activation == "leaky" and (self.act_exponent is None or self.act_exponent < 0):
                raise ModelFormatError(f"layer {self.id!r}: leaky activation needs act_exponent >= 0")
        elif self.kind == "maxpool":
            if not self.size or self.size < 1 or not self.stride or self.stride < 1:
                raise ModelFormatError(f"layer {self.id!r}: maxpool needs positive size and stride")
        elif self.kind == "upsample":
            if not self.factor or self.factor < 1:
                raise ModelFormatError(f"layer {self.id!r}: upsample needs positive factor")
        elif self.kind == "input":
            for name in ("height", "width", "channels"):
                v = getattr(self, name)
                if not isinstance(v, int) or v < 1:
                    raise ModelFormatError(f"layer {self.id!r}: input needs positive {name}, got {v}")

    @property
    def leaky_alpha(self) -> float:
        """Negative slope 2^-act_exponent of a leaky conv."""
        return 2.0 ** -self.act_exponent

    def to_json_dict(self) -> dict:
        d = {"id": self.id, "kind": self.kind, "inputs": list(self.inputs)}
        if self.kind == "conv":
            d.update(num_filters=self.num_filters, kernel_h=self.kernel_h,
                     kernel_w=self.kernel_w, stride=self.stride, padding=self.padding,
                     has_bias=self.has_bias, has_batchnorm=self.has_batchnorm,
                     activation=self.activation, fused=self.fused)
            if self.activation == "leaky":
                d["act_exponent"] = self.act_exponent
            if self.has_batchnorm:
                d["epsilon"] = self.epsilon
        elif self.kind == "maxpool":
            d.update(size=self.size, stride=self.stride)
        elif self.kind == "upsample":
            d.update(factor=self.factor)
        elif self.kind == "input":
            d.update(height=self.height, width=self.width, channels=self.channels)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "LayerSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ModelFormatError(f"layer {d.get('id')!r}: unknown attributes {sorted(unknown)}")
        if "id" not in d or "kind" not in d:
            raise ModelFormatError(f"layer object missing id or kind: {d}")
        return cls(**{k: (tuple(v) if k == "inputs" else v) for k, v in d.items()})


@dataclass(frozen=True)
class ConvParams:
    filters: FilterBank
    batchnorm: Optional[BatchNormParams] = None


@dataclass(frozen=True)
class Model:
    """Topologically ordered layer specs plus per-conv parameters."""

    layers: tuple[LayerSpec, ...]
    params: dict[str, ConvParams] = field(default_factory=dict)

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
        for layer in self.layers:
            if layer.kind == "conv":
                if layer.id not in self.params:
                    raise ModelFormatError(f"conv layer {layer.id!r} has no parameters")
                p = self.params[layer.id]
                fb = p.filters
                if (fb.kernel_h, fb.kernel_w, fb.num_filters) != (
                        layer.kernel_h, layer.kernel_w, layer.num_filters):
                    raise ShapeError(
                        f"layer {layer.id!r}: filter bank {fb.weights.shape} does not match "
                        f"spec ({layer.kernel_h}x{layer.kernel_w}, nf={layer.num_filters})")
                if layer.has_batchnorm != (p.batchnorm is not None):
                    raise ModelFormatError(
                        f"layer {layer.id!r}: has_batchnorm flag disagrees with stored parameters")
                if p.batchnorm is not None and p.batchnorm.num_filters != layer.num_filters:
                    raise ShapeError(
                        f"layer {layer.id!r}: batchnorm length {p.batchnorm.num_filters} "
                        f"!= {layer.num_filters} filters")
            elif layer.id in self.params:
                raise ModelFormatError(f"non-conv layer {layer.id!r} has parameters attached")
        shape_infer(self)  # channel bookkeeping must be consistent before any use

    @property
    def input_layer(self) -> LayerSpec:
        return next(l for l in self.layers if l.kind == "input")

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

    def has_batchnorm(self) -> bool:
        return any(l.kind == "conv" and l.has_batchnorm for l in self.layers)


# InferenceTrace: ordered mapping layer id -> FeatureMap
InferenceTrace = dict[str, FeatureMap]


def shape_infer(model: Model) -> dict[str, tuple[int, int, int]]:
    """Static (h, w, c) for every layer; fails instead of guessing on mismatch."""
    shapes: dict[str, tuple[int, int, int]] = {}
    for layer in model.layers:
        if layer.kind == "input":
            shapes[layer.id] = (layer.height, layer.width, layer.channels)
        elif layer.kind == "conv":
            h, w, c = shapes[layer.inputs[0]]
            fb = model.params[layer.id].filters
            if fb.in_channels != c:
                raise ShapeError(
                    f"layer {layer.id!r}: filters expect {fb.in_channels} input channels, "
                    f"upstream provides {c}")
            oh, ow = conv_output_shape(h, w, layer.kernel_h, layer.kernel_w,
                                       layer.stride, layer.padding)
            shapes[layer.id] = (oh, ow, layer.num_filters)
        elif layer.kind == "maxpool":
            h, w, c = shapes[layer.inputs[0]]
            oh, ow = maxpool_output_shape(h, w, layer.stride)
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


def float_infer(model: Model, input: FeatureMap | Sequence[FeatureMap],
                taps: bool = False) -> InferenceTrace | list[InferenceTrace]:
    """Run the float engine in topological order.

    Conv layers apply convolution, then batchnorm if present, then the
    activation. The trace holds every layer output when taps is set,
    otherwise only the model outputs. ``input`` is one FeatureMap, which
    gives one trace, or a list of them, which run as one batch (stacked
    along the height, see ``tensor``) and give one trace per map. A batch
    computes the same bits as running its maps one at a time.
    """
    shapes = shape_infer(model)
    in_layer = model.input_layer
    maps = [input] if isinstance(input, FeatureMap) else list(input)
    if not maps:
        raise ValueError("float_infer needs at least one input map")
    for fm in maps:
        if fm.shape != shapes[in_layer.id]:
            raise ShapeError(f"input shape {fm.shape} != model input {shapes[in_layer.id]}")
    n = len(maps)

    acts: dict[str, FeatureMap] = {}
    for layer in model.layers:
        if layer.kind == "input":
            out = maps[0] if n == 1 else FeatureMap(np.concatenate([m.data for m in maps]))
        elif layer.kind == "conv":
            p = model.params[layer.id]
            out = conv2d(acts[layer.inputs[0]], p.filters, layer.stride, layer.padding, batch=n)
            if p.batchnorm is not None:
                out = batchnorm_forward(out, p.batchnorm)
            if layer.activation == "leaky":
                out = leaky_relu(out, layer.leaky_alpha)
        elif layer.kind == "maxpool":
            out = maxpool(acts[layer.inputs[0]], layer.size, layer.stride, batch=n)
        elif layer.kind == "upsample":
            out = upsample_nearest(acts[layer.inputs[0]], layer.factor)
        elif layer.kind == "concat":
            out = concat(acts[layer.inputs[0]], acts[layer.inputs[1]])
        else:  # output_marker
            out = acts[layer.inputs[0]]
        acts[layer.id] = out

    kept = [layer.id for layer in model.layers] if taps else model.output_ids()
    if isinstance(input, FeatureMap):
        return {lid: acts[lid] for lid in kept}
    per_map = {lid: split_batch(acts[lid], n) for lid in kept}
    return [{lid: per_map[lid][i] for lid in kept} for i in range(n)]


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

_RECORD_DTYPES = {DTYPE_FLOAT32: np.dtype("<f4"), DTYPE_INT16: np.dtype("<i2")}
_BN_SUFFIXES = ("gamma", "beta", "mu", "sigma2")


def pack_record(name: str, arr: np.ndarray, dtype_code: int) -> bytes:
    encoded = name.encode("utf-8")
    dtype = _RECORD_DTYPES[dtype_code]
    payload = np.ascontiguousarray(arr.astype(dtype)).tobytes()
    head = struct.pack("<H", len(encoded)) + encoded
    head += struct.pack("<BB", dtype_code, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + payload


def iter_records(blob: bytes, path) :
    """Yield (name, ndarray, dtype_code) records from a weights blob body."""
    off = 0
    while off < len(blob):
        if off + 2 > len(blob):
            raise ModelFormatError(f"{path}: truncated record header")
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off:off + name_len].decode("utf-8")
        off += name_len
        dtype_code, rank = struct.unpack_from("<BB", blob, off)
        off += 2
        if dtype_code not in _RECORD_DTYPES:
            raise ModelFormatError(f"{path}: record {name!r} has unknown dtype {dtype_code}")
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        dtype = _RECORD_DTYPES[dtype_code]
        nbytes = int(np.prod(dims)) * dtype.itemsize if rank else dtype.itemsize
        if off + nbytes > len(blob):
            raise ModelFormatError(f"{path}: record {name!r} payload truncated")
        arr = np.frombuffer(blob[off:off + nbytes], dtype=dtype).reshape(dims)
        off += nbytes
        yield name, arr, dtype_code


def _weight_records(model: Model) -> list[tuple[str, np.ndarray]]:
    records = []
    for layer in model.layers:
        if layer.kind != "conv":
            continue
        p = model.params[layer.id]
        records.append((f"{layer.id}.W", p.filters.weights))
        records.append((f"{layer.id}.b", p.filters.biases))
        if p.batchnorm is not None:
            for suffix in _BN_SUFFIXES:
                records.append((f"{layer.id}.{suffix}", getattr(p.batchnorm, suffix)))
    return records


def weights_blob(model: Model) -> bytes:
    body = b"".join(pack_record(name, arr, DTYPE_FLOAT32)
                    for name, arr in _weight_records(model))
    return _WEIGHTS_MAGIC + struct.pack("<I", _WEIGHTS_VERSION) + body


def manifest_dict(model: Model, weights_rel: str) -> dict:
    in_layer = model.input_layer
    return {
        "format_version": MANIFEST_VERSION,
        "input": {"h": in_layer.height, "w": in_layer.width, "c": in_layer.channels},
        "layers": [l.to_json_dict() for l in model.layers],
        "weights": weights_rel,
    }


def model_digest(model: Model) -> str:
    """Stable identity hash over structure and parameters."""
    h = hashlib.sha256()
    h.update(json.dumps(manifest_dict(model, ""), sort_keys=True).encode())
    h.update(weights_blob(model))
    return h.hexdigest()


def _atomic_write(path, data: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_model(model: Model, manifest_path) -> None:
    """Write manifest JSON plus the weights blob next to it (atomic rename)."""
    manifest_path = os.fspath(manifest_path)
    weights_rel = os.path.splitext(os.path.basename(manifest_path))[0] + ".weights"
    weights_path = os.path.join(os.path.dirname(manifest_path) or ".", weights_rel)
    manifest = manifest_dict(model, weights_rel)
    _atomic_write(weights_path, weights_blob(model))
    _atomic_write(manifest_path, (json.dumps(manifest, indent=2) + "\n").encode())


def read_weights_blob(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _WEIGHTS_MAGIC:
        raise ModelFormatError(f"{path}: not a weights blob (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _WEIGHTS_VERSION:
        raise ModelFormatError(f"{path}: unsupported weights version {version}")
    return raw[8:]


def load_manifest(manifest_path) -> tuple[dict, str]:
    """Parse and validate the manifest; returns (manifest, weights path)."""
    manifest_path = os.fspath(manifest_path)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{manifest_path}: invalid JSON ({e})") from e
    if not isinstance(manifest, dict) or manifest.get("format_version") != MANIFEST_VERSION:
        raise ModelFormatError(
            f"{manifest_path}: unsupported format_version {manifest.get('format_version')!r}")
    for key in ("input", "layers", "weights"):
        if key not in manifest:
            raise ModelFormatError(f"{manifest_path}: missing {key!r} block")
    weights_path = os.path.join(os.path.dirname(manifest_path) or ".", manifest["weights"])
    return manifest, weights_path


def _layers_from_manifest(manifest: dict, manifest_path) -> list[LayerSpec]:
    layers = [LayerSpec.from_json_dict(d) for d in manifest["layers"]]
    in_layers = [l for l in layers if l.kind == "input"]
    if len(in_layers) == 1:
        declared = manifest["input"]
        actual = {"h": in_layers[0].height, "w": in_layers[0].width, "c": in_layers[0].channels}
        if declared != actual:
            raise ModelFormatError(
                f"{manifest_path}: top-level input {declared} disagrees with input layer {actual}")
    return layers


def load_model(manifest_path) -> Model:
    """Load a float model; load(save(m)) round-trips every bit."""
    manifest, weights_path = load_manifest(manifest_path)
    if "quantization" in manifest:
        raise ModelFormatError(
            f"{manifest_path}: quantized model; use the quantized-model loader")
    layers = _layers_from_manifest(manifest, manifest_path)
    records = {name: (arr, code)
               for name, arr, code in iter_records(read_weights_blob(weights_path), weights_path)}

    params: dict[str, ConvParams] = {}
    for layer in layers:
        if layer.kind != "conv":
            continue
        needed = [f"{layer.id}.W", f"{layer.id}.b"]
        if layer.has_batchnorm:
            needed += [f"{layer.id}.{s}" for s in _BN_SUFFIXES]
        for name in needed:
            if name not in records:
                raise ModelFormatError(f"{weights_path}: missing weight record {name!r} "
                                       f"for layer {layer.id!r}")
            if records[name][1] != DTYPE_FLOAT32:
                raise ModelFormatError(f"{weights_path}: record {name!r} is not float32")
        w = records[f"{layer.id}.W"][0]
        expected = (layer.kernel_h, layer.kernel_w, w.shape[2] if w.ndim == 4 else -1,
                    layer.num_filters)
        if w.ndim != 4 or w.shape != expected:
            raise ModelFormatError(
                f"{weights_path}: record {layer.id}.W has shape {w.shape}, "
                f"manifest implies {expected}")
        bn = None
        if layer.has_batchnorm:
            bn = BatchNormParams(
                mu=records[f"{layer.id}.mu"][0],
                sigma2=records[f"{layer.id}.sigma2"][0],
                gamma=records[f"{layer.id}.gamma"][0],
                beta=records[f"{layer.id}.beta"][0],
                epsilon=layer.epsilon if layer.epsilon is not None else 0.001,
            )
        params[layer.id] = ConvParams(FilterBank(w, records[f"{layer.id}.b"][0]), bn)

    known = {name for l in layers if l.kind == "conv"
             for name in ([f"{l.id}.W", f"{l.id}.b"]
                          + [f"{l.id}.{s}" for s in _BN_SUFFIXES])}
    stray = set(records) - known
    if stray:
        raise ModelFormatError(f"{weights_path}: records for unknown layers: {sorted(stray)}")
    return Model(tuple(layers), params)


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
