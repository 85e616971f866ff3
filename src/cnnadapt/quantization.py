"""Integer twin of a fused model: int16 parameters, shift-based arithmetic.

Values map to integers through a power-of-two scale S = 2^P, so rescaling
after a multiplication is an arithmetic right shift by P. The quantized
convolution runs conv -> shift -> narrow to int16 -> bias add, with every
narrowing saturated and counted instead of silently wrapping.
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errors import ModelFormatError, PipelineError, ShapeError
from .model import (
    ConvParams,
    LayerSpec,
    Model,
    _atomic_write,
    iter_records,
    load_manifest,
    model_digest,
    pack_record,
    read_weights_blob,
    shape_infer,
)
from .tensor import (
    DTYPE_INT16,
    INT16_MAX,
    INT16_MIN,
    INT32_MAX,
    INT32_MIN,
    MAX_EXACT_INT_DEPTH,
    FeatureMap,
    FilterBank,
    IntFeatureMap,
    concat_int,
    conv_gemm,
    conv_input,
    maxpool_int,
    upsample_nearest_int,
)

MAX_SCALE_EXPONENT = 14  # values in [-1, 1] keep int16 headroom


@dataclass(frozen=True)
class QuantConfig:
    p: int = 8         # scale S = 2^p
    p_alpha: int = 4   # leaky slope 2^-p_alpha

    def __post_init__(self):
        if not 0 <= self.p <= MAX_SCALE_EXPONENT:
            raise ValueError(f"scale exponent must lie in [0, {MAX_SCALE_EXPONENT}], got {self.p}")
        if self.p_alpha < 0:
            raise ValueError(f"p_alpha must be >= 0, got {self.p_alpha}")

    @property
    def scale(self) -> int:
        return 2 ** self.p


def rshift(x: Union[int, np.ndarray], p: int) -> Union[int, np.ndarray]:
    """Arithmetic right shift: floor division by 2^p (rounds toward -inf)."""
    if p < 0:
        raise ValueError(f"shift amount must be >= 0, got {p}")
    if isinstance(x, np.ndarray):
        return x >> p
    return int(x) >> p


def quantize_value(v: float, p: int) -> int:
    """round(v * 2^p) half away from zero, saturated to int16."""
    scaled = float(v) * (2 ** p)
    q = int(np.floor(scaled + 0.5)) if scaled >= 0 else int(np.ceil(scaled - 0.5))
    return max(INT16_MIN, min(INT16_MAX, q))


def quantize_tensor(values: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Vectorized quantize_value; returns (int16 array, saturation count)."""
    scaled = np.asarray(values, dtype=np.float64) * (2 ** p)
    q = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5)).astype(np.int64)
    clipped = np.clip(q, INT16_MIN, INT16_MAX)
    saturated = int(np.count_nonzero(clipped != q))
    return clipped.astype(np.int16), saturated


def dequantize(values: np.ndarray, p: int) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) / (2 ** p)


@dataclass(frozen=True)
class QuantConvParams:
    weights: np.ndarray  # int16, (kh, kw, c_in, nf)
    biases: np.ndarray   # int16, (nf,)

    def __post_init__(self):
        w = np.asarray(self.weights)
        b = np.asarray(self.biases)
        if w.dtype != np.int16 or b.dtype != np.int16:
            raise ValueError("quantized parameters must be int16")
        if w.ndim != 4 or b.ndim != 1 or b.shape[0] != w.shape[3]:
            raise ShapeError(f"bad quantized parameter shapes {w.shape}, {b.shape}")
        w = np.ascontiguousarray(w)
        b = np.ascontiguousarray(b)
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)


@dataclass(frozen=True)
class QuantizedModel:
    """Same layer graph as the source model with int16 parameters."""

    layers: tuple[LayerSpec, ...]
    qparams: dict[str, QuantConvParams]
    config: QuantConfig
    source_digest: str
    param_saturations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for layer in self.layers:
            if layer.kind == "conv" and layer.has_batchnorm:
                raise PipelineError(f"layer {layer.id!r} still carries batchnorm")

    def layer(self, layer_id: str) -> LayerSpec:
        for l in self.layers:
            if l.id == layer_id:
                return l
        raise KeyError(layer_id)

    @property
    def input_layer(self) -> LayerSpec:
        return next(l for l in self.layers if l.kind == "input")

    def output_ids(self) -> list[str]:
        marked = [l.id for l in self.layers if l.kind == "output_marker"]
        return marked if marked else [self.layers[-1].id]


@dataclass
class LayerOverflow:
    acc32_saturations: int = 0
    int16_saturations: int = 0


@dataclass
class OverflowStats:
    layers: dict[str, LayerOverflow] = field(default_factory=dict)

    def record(self, layer_id: str, acc32: int, int16: int) -> None:
        entry = self.layers.setdefault(layer_id, LayerOverflow())
        entry.acc32_saturations += acc32
        entry.int16_saturations += int16

    @property
    def total(self) -> int:
        return sum(l.acc32_saturations + l.int16_saturations for l in self.layers.values())

    def to_dict(self) -> dict:
        return {
            "layers": {lid: {"acc32_saturations": l.acc32_saturations,
                             "int16_saturations": l.int16_saturations}
                       for lid, l in self.layers.items()},
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def quantize_model(model: Model, config: QuantConfig = QuantConfig()) -> QuantizedModel:
    """Quantize every weight and bias; refuses models that still carry batchnorm.

    The graph is copied with every leaky activation restamped to the
    config's slope exponent, so the twin is self-describing.
    """
    if model.has_batchnorm():
        raise PipelineError("model contains batchnorm; run fuse first")
    layers = tuple(
        replace(l, act_exponent=config.p_alpha)
        if l.kind == "conv" and l.activation == "leaky" else l
        for l in model.layers)
    qparams = {}
    saturations = 0
    for layer in model.conv_layers():
        fb = model.params[layer.id].filters
        wq, sw = quantize_tensor(fb.weights, config.p)
        bq, sb = quantize_tensor(fb.biases, config.p)
        saturations += sw + sb
        qparams[layer.id] = QuantConvParams(wq, bq)
    return QuantizedModel(layers, qparams, config,
                          source_digest=model_digest(model),
                          param_saturations=saturations)


def quantize_input(input: FeatureMap, config: QuantConfig = QuantConfig()) -> IntFeatureMap:
    """Quantize a (pre-normalized, values ~[0, 1]) input image to int16."""
    q, _ = quantize_tensor(input.data, config.p)
    return IntFeatureMap(q.astype(np.int64), 16)


def int_conv_forward(input: IntFeatureMap, weights: np.ndarray, biases: np.ndarray,
                     stride: int, padding: str,
                     config: QuantConfig) -> tuple[IntFeatureMap, int, int]:
    """Quantized convolution: conv -> sat int32 -> rshift P -> sat int16 -> bias (saturating).

    The convolution is a float64 GEMM over int16 operands (``conv_gemm``).
    Each product is an integer of magnitude at most 2^30, so with
    K = kh*kw*c_in <= 2^23 every partial sum stays below 2^53 and the sums
    are exact; larger K raises ValueError. Returns (output, acc32 saturation
    count, int16 saturation count).
    """
    if input.width_bits != 16 or weights.dtype != np.int16:
        raise ValueError("integer convolution consumes int16 activations and weights")
    kh, kw, c_in, _ = weights.shape
    if kh * kw * c_in > MAX_EXACT_INT_DEPTH:
        raise ValueError(f"conv depth kh*kw*c_in = {kh * kw * c_in} exceeds "
                         f"{MAX_EXACT_INT_DEPTH}, beyond which float64 sums are not exact")
    padded, out_h, out_w = conv_input(input.data, weights, stride, padding, np.int16)
    scale = 2.0 ** -config.p
    counts = [0, 0]  # acc32, int16 saturations

    def requantize(acc, dst, f0, f1):
        # every step is exact: acc holds integers below 2^53, scale is a power of two
        counts[0] += _saturate(acc, INT32_MIN, INT32_MAX)
        acc *= scale
        np.floor(acc, out=acc)
        counts[1] += _saturate(acc, INT16_MIN, INT16_MAX)
        acc += biases[f0:f1]
        counts[1] += _saturate(acc, INT16_MIN, INT16_MAX)
        np.copyto(dst, acc, casting="unsafe")

    out = np.empty((out_h, out_w, weights.shape[3]), dtype=np.int16)
    conv_gemm(padded, weights, stride, out_h, out_w, requantize, out)
    return IntFeatureMap(out, 16), counts[0], counts[1]


def _saturate(a: np.ndarray, lo: int, hi: int) -> int:
    """Clip ``a`` to [lo, hi] in place; returns how many entries were clipped."""
    n = int(np.count_nonzero(a < lo)) + int(np.count_nonzero(a > hi))
    np.clip(a, lo, hi, out=a)
    return n


def quant_leaky_relu(z: IntFeatureMap, p_alpha: int) -> IntFeatureMap:
    """z for positive entries, Rshift(z, p_alpha) otherwise."""
    if p_alpha < 0:
        raise ValueError(f"p_alpha must be >= 0, got {p_alpha}")
    out = np.where(z.data > 0, z.data, z.data >> p_alpha)
    return IntFeatureMap(out, z.width_bits)


def int_infer(qmodel: QuantizedModel, input: IntFeatureMap,
              taps: bool = False) -> tuple[dict[str, IntFeatureMap], OverflowStats]:
    """Run the integer engine; bit-deterministic for identical inputs."""
    in_layer = qmodel.input_layer
    if input.shape != (in_layer.height, in_layer.width, in_layer.channels):
        raise ShapeError(f"input shape {input.shape} != model input "
                         f"({in_layer.height}, {in_layer.width}, {in_layer.channels})")
    if input.width_bits != 16:
        raise ValueError("integer engine consumes int16 activations")

    stats = OverflowStats()
    acts: dict[str, IntFeatureMap] = {}
    for layer in qmodel.layers:
        if layer.kind == "input":
            out = input
        elif layer.kind == "conv":
            qp = qmodel.qparams[layer.id]
            out, n_acc, n16 = int_conv_forward(
                acts[layer.inputs[0]], qp.weights, qp.biases,
                layer.stride, layer.padding, qmodel.config)
            stats.record(layer.id, n_acc, n16)
            if layer.activation == "leaky":
                out = quant_leaky_relu(out, layer.act_exponent)
        elif layer.kind == "maxpool":
            out = maxpool_int(acts[layer.inputs[0]], layer.size, layer.stride)
        elif layer.kind == "upsample":
            out = upsample_nearest_int(acts[layer.inputs[0]], layer.factor)
        elif layer.kind == "concat":
            out = concat_int(acts[layer.inputs[0]], acts[layer.inputs[1]])
        else:  # output_marker
            out = acts[layer.inputs[0]]
        acts[layer.id] = out

    if taps:
        trace = {layer.id: acts[layer.id] for layer in qmodel.layers}
    else:
        trace = {lid: acts[lid] for lid in qmodel.output_ids()}
    return trace, stats


# ---------------------------------------------------------------------------
# Serialization: same manifest/weights container, int16 records
# ---------------------------------------------------------------------------

def save_quantized_model(qmodel: QuantizedModel, manifest_path) -> None:
    manifest_path = os.fspath(manifest_path)
    weights_rel = os.path.splitext(os.path.basename(manifest_path))[0] + ".weights"
    weights_path = os.path.join(os.path.dirname(manifest_path) or ".", weights_rel)

    in_layer = qmodel.input_layer
    manifest = {
        "format_version": 1,
        "input": {"h": in_layer.height, "w": in_layer.width, "c": in_layer.channels},
        "layers": [l.to_json_dict() for l in qmodel.layers],
        "weights": weights_rel,
        "quantization": {"p": qmodel.config.p, "p_alpha": qmodel.config.p_alpha,
                         "source_digest": qmodel.source_digest},
    }
    body = b""
    for layer in qmodel.layers:
        if layer.kind != "conv":
            continue
        qp = qmodel.qparams[layer.id]
        body += pack_record(f"{layer.id}.W", qp.weights, DTYPE_INT16)
        body += pack_record(f"{layer.id}.b", qp.biases, DTYPE_INT16)
    _atomic_write(weights_path, b"CNNW" + struct.pack("<I", 1) + body)
    _atomic_write(manifest_path, (json.dumps(manifest, indent=2) + "\n").encode())


def load_quantized_model(manifest_path) -> QuantizedModel:
    manifest, weights_path = load_manifest(manifest_path)
    if "quantization" not in manifest:
        raise ModelFormatError(f"{manifest_path}: not a quantized model "
                               "(missing quantization block)")
    quant = manifest["quantization"]
    config = QuantConfig(p=int(quant["p"]), p_alpha=int(quant["p_alpha"]))
    layers = tuple(LayerSpec.from_json_dict(d) for d in manifest["layers"])
    records = {name: (arr, code)
               for name, arr, code in iter_records(read_weights_blob(weights_path), weights_path)}
    qparams = {}
    for layer in layers:
        if layer.kind != "conv":
            continue
        for suffix in ("W", "b"):
            name = f"{layer.id}.{suffix}"
            if name not in records:
                raise ModelFormatError(f"{weights_path}: missing weight record {name!r} "
                                       f"for layer {layer.id!r}")
            if records[name][1] != DTYPE_INT16:
                raise ModelFormatError(f"{weights_path}: record {name!r} is not int16")
        qparams[layer.id] = QuantConvParams(
            np.asarray(records[f"{layer.id}.W"][0], dtype=np.int16),
            np.asarray(records[f"{layer.id}.b"][0], dtype=np.int16))
    qmodel = QuantizedModel(layers, qparams, config,
                            source_digest=quant.get("source_digest", ""))
    quant_shape_infer(qmodel)
    return qmodel


def quant_shape_infer(qmodel: QuantizedModel) -> dict[str, tuple[int, int, int]]:
    """Shape inference for the integer twin (delegates to the float graph rules)."""
    stand_in = _structural_model(qmodel)
    return shape_infer(stand_in)


def _structural_model(qmodel: QuantizedModel) -> Model:
    # Reuse Model validation/shape rules by rebuilding float-typed parameters.
    params = {}
    for layer in qmodel.layers:
        if layer.kind != "conv":
            continue
        qp = qmodel.qparams[layer.id]
        params[layer.id] = ConvParams(FilterBank(
            qp.weights.astype(np.float32), qp.biases.astype(np.float32)), None)
    return Model(qmodel.layers, params)
