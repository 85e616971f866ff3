"""Integer twin of a fused model: int16 parameters, shift-based arithmetic.

Values map to integers through a power-of-two scale S = 2^P, so rescaling
after a multiplication is an arithmetic right shift by P. The quantized
convolution runs conv -> shift -> narrow to int16 -> bias add -> leaky ReLU
in one pass over each output tile, with every narrowing saturated and
counted instead of silently wrapping (``int_conv_forward`` gives the order
in which a tile is scaled, floored and checked). Leaky ReLU is
max(z, z >> P_alpha) on the int16 tile. Activations are int16 maps from
input to output.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errors import ModelFormatError, PipelineError, ShapeError, file_content
from .model import (
    MAX_ACT_EXPONENT,
    LayerGraph,
    LayerSpec,
    Model,
    execute,
    model_digest,
    read_model_files,
    shape_infer,
    write_model_files,
)
from .tensor import (
    DTYPE_INT16,
    INT16_MAX,
    INT16_MIN,
    INT32_MAX,
    INT32_MIN,
    MAX_EXACT_INT_DEPTH,
    FeatureMap,
    IntFeatureMap,
    _freeze,
    conv_gemm,
    spent_scratch,
)

MAX_SCALE_EXPONENT = 14  # values in [-1, 1] keep int16 headroom
QUANTIZE_CHUNK = 1 << 16  # quantize_tensor's elements per pass: 512 KiB float64 buffers


@dataclass(frozen=True)
class QuantConfig:
    p: int = 8         # scale S = 2^p
    p_alpha: int = 4   # leaky slope 2^-p_alpha

    def __post_init__(self):
        for name in ("p", "p_alpha"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not 0 <= self.p <= MAX_SCALE_EXPONENT:
            raise ValueError(f"scale exponent must lie in [0, {MAX_SCALE_EXPONENT}], got {self.p}")
        if not 0 <= self.p_alpha <= MAX_ACT_EXPONENT:
            raise ValueError(f"p_alpha must lie in [0, {MAX_ACT_EXPONENT}], got {self.p_alpha}")

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
    """Vectorized quantize_value; returns (int16 array, saturation count).

    The input is processed in chunks of QUANTIZE_CHUNK elements through two
    reused float64 buffers, so no temporary is as large as the tensor.
    Together the steps give quantize_value's result exactly:
      - q = x * 2^p in float64 is exact, since 2^p is a power of two;
      - q + 0.5 for q >= 0 and q - 0.5 for q < 0 are the very additions
        quantize_value makes;
      - trunc of a sum above 0 is its floor, of a sum below 0 its ceil;
      - counting and clipping to int16 happen in float64, so a value beyond
        any integer width saturates on its own side, where an int64 cast
        would wrap it to INT64_MIN.
    """
    src = np.asarray(values)
    flat = src.reshape(-1)
    out = np.empty(src.shape, dtype=np.int16)
    out_flat = out.reshape(-1)
    buf = np.empty(min(flat.size, QUANTIZE_CHUNK), dtype=np.float64)
    half = np.empty_like(buf)
    scale = float(2 ** p)
    saturated = 0
    for start in range(0, flat.size, QUANTIZE_CHUNK):
        stop = min(start + QUANTIZE_CHUNK, flat.size)
        q, h = buf[:stop - start], half[:stop - start]
        np.multiply(flat[start:stop], scale, out=q, dtype=np.float64)
        np.subtract(0.5, q < 0, out=h)
        q += h
        np.trunc(q, out=q)
        saturated += _saturate(q, INT16_MIN, INT16_MAX)
        np.copyto(out_flat[start:stop], q, casting="unsafe")
    return out, saturated


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
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "biases", _freeze(b))


@dataclass(frozen=True)
class QuantizedModel(LayerGraph):
    """Same layer graph as the source model with int16 parameters; validated
    as ``Model`` validates its graph and shapes."""

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
        self._check_graph(self.qparams)
        shape_infer(self)

    def filter_shape(self, layer_id: str) -> tuple[int, int, int, int]:
        return self.qparams[layer_id].weights.shape


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
    return IntFeatureMap(q, 16)


def int_conv_forward(input: IntFeatureMap, weights: np.ndarray, biases: np.ndarray,
                     stride: int, padding: str, config: QuantConfig, *,
                     p_alpha: int | None = None) -> tuple[IntFeatureMap, int, int]:
    """Quantized convolution: conv -> sat int32 -> rshift P -> sat int16 -> bias
    (saturating), then, if ``p_alpha`` is given, leaky ReLU max(z, z >> p_alpha).

    The convolution is a float64 GEMM over int16 operands (``conv_gemm``).
    Each product is an integer of magnitude at most 2^30, so with
    K = kh*kw*c_in <= 2^23 every partial sum stays below 2^53 and the sums
    are exact; larger K raises ValueError.

    Each tile is scaled by 2^-P and floored first, then its minimum and
    maximum are taken once. Since x -> floor(x * 2^-P) is monotone, clipping
    the floored sums to [floor(INT32_MIN * 2^-P), floor(INT32_MAX * 2^-P)]
    gives the values of clipping the sums to int32 first, and, the sums being
    integers, clips exactly the entries that lay outside int32, so both counts
    match the saturate-then-shift order. A floored tile inside int16 has
    |sum| <= 2^(15+P) <= 2^29 and cannot have saturated int32, so neither
    scan runs; nor does the int16 scan after the bias add when the tile's range
    plus the block's bias range stays inside int16. The activation runs on
    each finished int16 tile and gives the bits of ``quant_leaky_relu``.
    Returns (output, acc32 saturation count, int16 saturation count).
    """
    if input.width_bits != 16 or weights.dtype != np.int16:
        raise ValueError("integer convolution consumes int16 activations and weights")
    if p_alpha is not None and p_alpha < 0:
        raise ValueError(f"p_alpha must be >= 0, got {p_alpha}")
    kh, kw, c_in, _ = weights.shape
    if kh * kw * c_in > MAX_EXACT_INT_DEPTH:
        raise ValueError(f"conv depth kh*kw*c_in = {kh * kw * c_in} exceeds "
                         f"{MAX_EXACT_INT_DEPTH}, beyond which float64 sums are not exact")
    scale = 2.0 ** -config.p
    acc32_lo, acc32_hi = INT32_MIN * scale, np.floor(INT32_MAX * scale)
    counts = [0, 0]  # acc32, int16 saturations

    def requantize(acc, dst, f0, f1):
        # every step is exact: acc holds integers below 2^53, scale is a power of two
        acc *= scale
        np.floor(acc, out=acc)
        lo, hi = float(acc.min()), float(acc.max())
        if lo < INT16_MIN or hi > INT16_MAX:
            counts[0] += _saturate(acc, acc32_lo, acc32_hi)
            counts[1] += _saturate(acc, INT16_MIN, INT16_MAX)
            lo, hi = max(lo, INT16_MIN), min(hi, INT16_MAX)
        bias = biases[f0:f1]
        acc += bias
        if lo + int(bias.min()) < INT16_MIN or hi + int(bias.max()) > INT16_MAX:
            counts[1] += _saturate(acc, INT16_MIN, INT16_MAX)
        np.copyto(dst, acc, casting="unsafe")
        if p_alpha is not None:
            shifted = spent_scratch(acc, dst)
            np.right_shift(dst, p_alpha, out=shifted)
            np.maximum(dst, shifted, out=dst)

    out = conv_gemm(input.data, weights, stride, padding, 1, requantize)
    return IntFeatureMap(out, 16), counts[0], counts[1]


def _saturate(a: np.ndarray, lo: int, hi: int) -> int:
    """Clip ``a`` to [lo, hi] in place; returns how many entries were clipped."""
    if not a.size or (a.min() >= lo and a.max() <= hi):
        return 0
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
    """Run the integer engine through ``execute``; bit-deterministic for
    identical inputs. Records each conv layer's saturations."""
    if input.width_bits != 16:
        raise ValueError("integer engine consumes int16 activations")
    stats = OverflowStats()

    def conv(layer, fm, batch):
        qp = qmodel.qparams[layer.id]
        out, n_acc, n16 = int_conv_forward(
            fm, qp.weights, qp.biases, layer.stride, layer.padding, qmodel.config,
            p_alpha=layer.act_exponent if layer.activation == "leaky" else None)
        stats.record(layer.id, n_acc, n16)
        return out

    return execute(qmodel, [input], conv, taps), stats


# ---------------------------------------------------------------------------
# Serialization: same manifest/weights container, int16 records
# ---------------------------------------------------------------------------

def save_quantized_model(qmodel: QuantizedModel, manifest_path) -> None:
    """Write the manifest, with its quantization block, and the int16 weights blob."""
    records = []
    for layer in qmodel.layers:
        if layer.kind == "conv":
            qp = qmodel.qparams[layer.id]
            records += [(f"{layer.id}.W", qp.weights), (f"{layer.id}.b", qp.biases)]
    write_model_files(qmodel, manifest_path, records, DTYPE_INT16,
                      quantization={"p": qmodel.config.p, "p_alpha": qmodel.config.p_alpha,
                                    "source_digest": qmodel.source_digest})


def load_quantized_model(manifest_path) -> QuantizedModel:
    """Load a quantized model written by ``save_quantized_model``."""
    with file_content(manifest_path):
        manifest, layers, arrays = read_model_files(manifest_path, DTYPE_INT16,
                                                    lambda l: ("W", "b"))
        quant = manifest["quantization"]
        if not isinstance(quant, dict):
            raise ModelFormatError(f"{manifest_path}: quantization block must be a JSON object")
        for key in ("p", "p_alpha"):
            if key not in quant:
                raise ModelFormatError(f"{manifest_path}: quantization block missing {key!r}")
        source_digest = quant.get("source_digest", "")
        if not isinstance(source_digest, str):
            raise ModelFormatError(f"{manifest_path}: source_digest must be a string")
        qparams = {lid: QuantConvParams(a["W"], a["b"]) for lid, a in arrays.items()}
        return QuantizedModel(layers, qparams, QuantConfig(p=quant["p"], p_alpha=quant["p_alpha"]),
                              source_digest=source_digest)
