"""Rank-3 feature maps and the numerical primitives both engines share.

Layout is (height, width, channels) row-major everywhere. All types are
immutable after construction; every operation is a pure function, so
results are bit-reproducible run to run.

A batch of N same-shaped maps travels as one rank-3 map with the maps
stacked along the height, (N*h, w, c): the C-order layout of (N, h, w, c);
``split_batch`` takes it apart. ``conv2d`` and ``maxpool`` take ``batch=N``
so that padding and windows stay inside each map; the pointwise ops,
``upsample_nearest`` and ``concat`` need no batch argument, since they never
mix rows of different maps.

One map type serves both engines, and its data's dtype tells them apart:
integer data is held as int16, the int engine's activation width, and any
other data as float32. ``maxpool``, ``upsample_nearest``, ``concat`` and
``split_batch`` keep their input's dtype.

Both engines convolve through ``conv_gemm``: the input windows are lowered
to rows of a (pixels, K = kh*kw*c) matrix (im2col) and multiplied with the
(K, filters) weight matrix. A float map takes a float64 GEMM: products of
float32 operands are exact in float64, and each output is rounded to
float32 once, after its bias is added.

A conv whose map or weights are integer is summed exactly or refused: both
must be int16 and K <= MAX_EXACT_INT_DEPTH = 2^23. Each product is then an
integer of at most 2^30 in magnitude, so every partial sum stays below 2^53
and a float64 GEMM is exact. Where K * max|x| * max|w| <= 2^24 (maxima over
the map and the weights) the GEMM runs in float32: every product and every
partial sum of any subset of them is then an integer float32 holds exactly,
so whatever order BLAS blocks, fuses or adds them in, and across a deep
layer's runs, it gives the float64 GEMM's integers.

The GEMM runs in tiles whose float64 scratch fits in GEMM_SCRATCH_BYTES,
by one plan for both engines that depends on sizes only (``conv_plan``).
Every tile holds all filters, and a deep layer sums each tile over runs of
its depth, as an FPGA MAC array accumulates over input-channel tiles, so the
epilogue runs once on the complete sums. Integer sums are exact in any
order. Float sums taken in runs add in another order than one GEMM over all
of K; their outputs have kept the bits of the unsplit plan in every case
tested, as float outputs have across tilings down to one pixel per tile,
which is not a proof.

Each finished GEMM tile goes through its layer's epilogue while it is still
in cache: the bias add (the integer engine's requantization) and
``leaky_step``, so a conv layer without batchnorm is one call. Leaky ReLU
with slope 0 <= alpha <= 1 is ``max(z, alpha * z)``, the same value as
``z if z > 0 else alpha * z`` for every z, signed zeros included.

Files are written through ``_atomic_write``, so a failed write leaves the
old file and is named by the path it was given.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModelFormatError, NumericalError, ShapeError, file_content, file_written

INT16_MIN, INT16_MAX = -(2**15), 2**15 - 1
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1

# dtype codes of the tensor container and the weights blob, and their dtypes
DTYPE_FLOAT32 = 0
DTYPE_INT16 = 1
_NUMPY_DTYPES = {DTYPE_FLOAT32: np.dtype("<f4"), DTYPE_INT16: np.dtype("<i2")}

_TENSOR_MAGIC = b"TNSR"
_TENSOR_VERSION = 1
_TENSOR_HEADER_BYTES = 22   # magic, version u32, dtype u8, rank u8, 3 dims u32


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)  # the flags.writeable setter may leave a small block allocated
    return a


@dataclass(frozen=True)
class FeatureMap:
    """Activation tensor of shape (height, width, channels), of either engine.

    Integer data is range-checked and held as int16, the int engine's
    activation width; any other data is cast to float32 and must be finite.
    Channels may be zero (the empty map is a valid concat operand); spatial
    dims must be positive.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        integer = arr.dtype.kind in "iu"
        if not integer:
            arr = np.asarray(arr, dtype=np.float32)
        if arr.ndim != 3:
            raise ShapeError(f"feature map must be rank 3, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"feature map spatial dims must be positive, got {arr.shape}")
        if integer and arr.dtype != np.int16:
            if arr.size and (int(arr.min()) < INT16_MIN or int(arr.max()) > INT16_MAX):
                raise ValueError("values exceed int16 range")
            arr = arr.astype(np.int16)
        elif not integer and arr.size and not np.isfinite(arr).all():
            raise ValueError("feature map contains NaN or infinite values")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class FilterBank:
    """Convolution weights (kernel_h, kernel_w, in_channels, num_filters) plus biases.

    Weights and biases that are both int16 stay int16; any other input is
    cast to float32 and must be finite. Each model fixes its banks' dtype.
    The bias vector is always materialized; bias-free layers carry zeros and
    the owning layer records whether it is semantically present.
    """

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        w, b = np.asarray(self.weights), np.asarray(self.biases)
        floating = not w.dtype == b.dtype == np.int16
        if floating:
            w, b = np.asarray(w, dtype=np.float32), np.asarray(b, dtype=np.float32)
        if w.ndim != 4:
            raise ShapeError(f"weights must be rank 4 (kh, kw, c_in, nf), got {w.shape}")
        if b.ndim != 1 or b.shape[0] != w.shape[3]:
            raise ShapeError(f"biases must have one entry per filter: {b.shape} vs nf={w.shape[3]}")
        if min(w.shape) < 1:
            raise ShapeError(f"all filter dims must be positive, got {w.shape}")
        if floating and not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("filter bank contains NaN or infinite values")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "biases", _freeze(b))

    def select(self, channels: np.ndarray, filters: np.ndarray) -> "FilterBank":
        """The bank of the given input ``channels`` and ``filters`` (non-empty
        integer index arrays, in their order), gathered by one ``take``.

        Every kernel position's channels x filters block comes from one take
        over a (kh*kw, c_in*nf) view, or over (kh*kw, c_in, nf) when every
        filter stays in order; a bank that keeps both whole is returned as
        is. The indices are checked here, so the takes clip rather than check
        each one again. The result skips the constructor's finite scan: it
        holds values of this bank, which passed it."""
        kh, kw, c_in, nf = self.weights.shape
        channels, filters = np.asarray(channels, np.intp), np.asarray(filters, np.intp)
        for idx, size, what in ((channels, c_in, "input channel"), (filters, nf, "filter")):
            if idx.ndim != 1 or not idx.size:
                raise ShapeError(f"select needs a non-empty vector of {what} indices")
            if idx.min() < 0 or idx.max() >= size:
                raise IndexError(f"{what} index out of range [0, {size})")
        all_in = np.array_equal(channels, np.arange(c_in))
        all_f = np.array_equal(filters, np.arange(nf))
        if all_in and all_f:
            return self
        if all_f:
            w = self.weights.reshape(kh * kw, c_in, nf).take(channels, axis=1, mode="clip")
        else:
            w = self.weights.reshape(kh * kw, c_in * nf).take(
                np.add.outer(channels * nf, filters).reshape(-1), axis=1, mode="clip")
        bank = object.__new__(FilterBank)
        object.__setattr__(bank, "weights", _freeze(w.reshape(kh, kw, len(channels), len(filters))))
        object.__setattr__(bank, "biases", _freeze(self.biases[filters]))
        return bank

    @property
    def num_filters(self) -> int:
        return self.weights.shape[3]


@dataclass(frozen=True)
class BatchNormParams:
    """Per-filter normalization statistics and affine terms.

    Vector length equals the filter count of the preceding convolution.
    """

    mu: np.ndarray
    sigma2: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    epsilon: float = 0.001

    def __post_init__(self):
        vecs = {}
        for name in ("mu", "sigma2", "gamma", "beta"):
            v = np.asarray(getattr(self, name), dtype=np.float32)
            if v.ndim != 1:
                raise ShapeError(f"batchnorm {name} must be a vector, got shape {v.shape}")
            if not np.isfinite(v).all():
                raise ValueError(f"batchnorm {name} contains NaN or infinite values")
            vecs[name] = _freeze(v)
        lengths = {v.shape[0] for v in vecs.values()}
        if len(lengths) != 1:
            raise ShapeError(f"batchnorm vectors must share one length, got {sorted(lengths)}")
        if (vecs["sigma2"] < 0).any():
            raise ValueError("batchnorm variance must be non-negative")
        if not np.isfinite(self.epsilon):
            raise ValueError(f"batchnorm epsilon must be finite, got {self.epsilon}")
        if ((vecs["sigma2"] + np.float32(self.epsilon)) <= 0).any():
            raise ValueError("variance + epsilon must be positive")
        for name, v in vecs.items():
            object.__setattr__(self, name, v)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def num_filters(self) -> int:
        return self.mu.shape[0]

    @property
    def scale(self) -> np.ndarray:
        """gamma / sqrt(sigma2 + eps) per channel, in float64."""
        return self.gamma / np.sqrt(self.sigma2.astype(np.float64) + self.epsilon)


# Budget for conv_gemm's float64 scratch per call (see conv_plan). A tile
# takes at least one pixel and a run one weight row, so only a layer with
# more filters than a third of the budget's float64 elements goes over it.
# At 8 MiB TinyYOLOv3-416's conv_7 (K = 4608, 1024 filters at 13x13) runs as
# one pixel tile in 9 runs of one kernel position each.
GEMM_SCRATCH_BYTES = 8 << 20
# Largest exact integer GEMM depth: K * 2^30 <= 2^53 (see module docstring).
MAX_EXACT_INT_DEPTH = 2**23
# Largest K * max|x| * max|w| of an integer conv that a float32 GEMM sums
# exactly: float32 holds every integer of magnitude up to 2^24.
MAX_EXACT_FLOAT32_SUM = 2**24


def _same_padding(in_dim: int, kernel: int, stride: int) -> tuple[int, int]:
    """Pad amounts (begin, end) so that out = ceil(in / stride)."""
    out_dim = -(-in_dim // stride)
    total = max((out_dim - 1) * stride + kernel - in_dim, 0)
    return total // 2, total - total // 2


def conv_output_shape(in_h: int, in_w: int, kernel_h: int, kernel_w: int,
                      stride: int, padding: str) -> tuple[int, int]:
    """Spatial output size of a convolution; raises if the kernel cannot fit."""
    if padding == "same":
        return -(-in_h // stride), -(-in_w // stride)
    if padding == "valid":
        out_h = (in_h - kernel_h) // stride + 1
        out_w = (in_w - kernel_w) // stride + 1
        if out_h < 1 or out_w < 1:
            raise ShapeError(
                f"kernel {kernel_h}x{kernel_w} larger than {in_h}x{in_w} input under valid padding")
        return out_h, out_w
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


def _batch_view(data: np.ndarray, batch: int) -> np.ndarray:
    """(N*h, w, c) stacked maps as an (N, h, w, c) view."""
    rows, width, channels = data.shape
    if batch < 1 or rows % batch:
        raise ShapeError(f"{rows} rows do not split into {batch} stacked maps")
    return data.reshape(batch, rows // batch, width, channels)


def _pad_maps(maps: np.ndarray, top: int, bottom: int, left: int, right: int,
              fill) -> np.ndarray:
    """Each of the (N, h, w, c) ``maps`` bordered by the given amounts of
    ``fill``, as one new array; the maps themselves when every amount is 0."""
    if not (top or bottom or left or right):
        return maps
    n, h, w, c = maps.shape
    padded = np.empty((n, top + h + bottom, left + w + right, c), maps.dtype)
    padded[:, :top] = padded[:, top + h:] = fill
    padded[:, top:top + h, :left] = padded[:, top:top + h, left + w:] = fill
    padded[:, top:top + h, left:left + w] = maps
    return padded


def conv_plan(n: int, out_h: int, out_w: int, kh: int, kw: int, c_in: int,
              nf: int) -> tuple[tuple[int, int, int], int]:
    """The GEMM tile plan of a conv of ``n`` maps with out_h x out_w outputs
    and (kh, kw, c_in, nf) weights: the output tile (maps, rows, cols) and
    ``run``, the number of the K = kh*kw*c_in weight rows each GEMM takes.

    The plan reads GEMM_SCRATCH_BYTES at call time and depends on sizes
    only, never on the dtype, so both engines share it. A tile's float64
    scratch holds a run's weight rows, the tile's im2col columns for that
    run, the tile's sums and, when K takes several runs, the partial sums of
    each later run. Every tile holds all filters, as an FPGA MAC array keeps
    all output filters and accumulates over input-channel tiles, and a run's
    weights never take more than half the budget:

    - if all of K fits in half the budget, it is one run, cast once for all
      tiles, and the tile takes as many pixels as fit beside it;
    - otherwise the tile takes as many pixels as fit beside the weights and
      columns of the shortest run the cut below can leave, one kernel
      position or half the budget's rows if fewer (at least one pixel), and
      the run as many weight rows as fit beside the tile within half the
      budget, cut to whole kernel rows if one row fits, else to whole kernel
      positions within one row, else to channels within one row.

    So a run is whole kernel rows or part of one row, and its weight rows
    are contiguous. A tile takes whole maps while they fit, else whole rows
    of one map, else columns of one row.
    """
    budget = GEMM_SCRATCH_BYTES // 8
    depth, row = kh * kw * c_in, kw * c_in
    half = budget // 2 // nf   # the most weight rows a run may take
    if depth <= half:
        run = depth
        pixels = max(1, (budget - depth * nf) // (depth + nf))
    else:
        least = min(c_in, half)
        pixels = min(n * out_h * out_w, max(1, (budget - least * nf) // (2 * nf + least)))
        run = max(1, min(half, (budget - 2 * pixels * nf) // (nf + pixels)))
        run -= run % (row if run >= row else c_in if run >= c_in else 1)
    tile_w = min(out_w, pixels)
    tile_h = max(1, min(out_h, pixels // tile_w))
    tile_n = max(1, min(n, pixels // (tile_h * tile_w)))
    return (tile_n, tile_h, tile_w), run


def peak_magnitude(a: np.ndarray) -> int:
    """max|a| of an integer array as a Python int (0 when empty)."""
    return max(-int(a.min(initial=0)), int(a.max(initial=0)))


def _gemm_dtype(data: np.ndarray, weights: np.ndarray) -> np.dtype:
    """The dtype ``conv_gemm`` sums a conv of the map ``data`` with (kh, kw,
    c_in, nf) ``weights`` in, K = kh*kw*c_in: float32 for an integer conv with
    K * max|x| * max|w| <= MAX_EXACT_FLOAT32_SUM, else float64. A conv is
    integer if either operand is; one that breaks the module docstring's
    contract raises ValueError."""
    if data.dtype.kind not in "iu" and weights.dtype.kind not in "iu":
        return np.dtype(np.float64)
    if data.dtype != np.int16 or weights.dtype != np.int16:
        raise ValueError("integer convolution consumes int16 activations and weights")
    depth = int(np.prod(weights.shape[:3]))
    if depth > MAX_EXACT_INT_DEPTH:
        raise ValueError(f"conv depth kh*kw*c_in = {depth} exceeds "
                         f"{MAX_EXACT_INT_DEPTH}, beyond which float64 sums are not exact")
    peak = peak_magnitude(data) * peak_magnitude(weights)
    return np.dtype(np.float32 if depth * peak <= MAX_EXACT_FLOAT32_SUM else np.float64)


def conv_gemm(data: np.ndarray, weights: np.ndarray, stride: int, padding: str, batch: int,
              epilogue) -> np.ndarray:
    """Convolve each of the ``batch`` (h, w, c) maps stacked in ``data`` with
    (kh, kw, c, nf) weights as GEMMs in ``_gemm_dtype``, exact for an integer
    conv or refused, by the module docstring's contract. Returns the outputs
    stacked, (batch * out_h, out_w, nf), in the dtype of ``data``.

    Same padding pads each map with zeros; a map that needs no padding is
    read in place. The GEMMs run ``conv_plan``'s plan: for each output tile,
    each run copies its im2col columns from the map, casts its weight rows
    to the GEMM dtype (a single run once for all tiles) and adds its product
    to the tile's sums.

    Each call allocates its own scratch in the GEMM dtype. For each tile,
    ``epilogue(acc, dst)`` receives the complete sums ``acc`` of shape
    (maps, rows, cols, nf) in the GEMM dtype, a contiguous buffer it may
    overwrite, and must write the finished values into ``dst``, the tile's
    slice of the output.
    """
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    maps = _batch_view(data, batch)
    n, in_h, in_w, c_in = maps.shape
    kh, kw, _, nf = weights.shape
    if c_in != weights.shape[2]:
        raise ShapeError(
            f"input has {c_in} channels but filters expect {weights.shape[2]}")
    out_h, out_w = conv_output_shape(in_h, in_w, kh, kw, stride, padding)
    pads = (_same_padding(in_h, kh, stride) + _same_padding(in_w, kw, stride)
            if padding == "same" else (0, 0, 0, 0))
    (tile_n, tile_h, tile_w), run = conv_plan(n, out_h, out_w, kh, kw, c_in, nf)
    row = kw * c_in
    # runs (r0, r1, q0, q1): kernel rows r0:r1, and q0:q1 of each row's kw*c_in
    run_h, run_w = (run // row, row) if run >= row else (1, run)
    runs = [(r0, min(r0 + run_h, kh), q0, min(q0 + run_w, row))
            for r0 in range(0, kh, run_h) for q0 in range(0, row, run_w)]
    last = len(runs) - 1
    pixels = tile_n * tile_h * tile_w
    acc_dtype = _gemm_dtype(data, weights)

    # a run's weight rows, sums, partial sums (if several runs), im2col columns
    w_end = run * nf
    acc_end = w_end + pixels * nf
    partial_end = acc_end + (pixels * nf if last else 0)
    need = partial_end + pixels * run
    scratch = np.empty(need, acc_dtype)
    wblk = scratch[:w_end].reshape(run, nf)
    acc, partial, cols = scratch[w_end:acc_end], scratch[acc_end:partial_end], scratch[partial_end:]
    # (n, out_h, out_w, kh, kw * c), a view: window element order matches
    # weights.reshape(K, nf)
    windows = sliding_window_view(_pad_maps(maps, *pads, 0), (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride][:, :out_h, :out_w].transpose(0, 1, 2, 4, 5, 3)
    windows = windows.reshape(n, out_h, out_w, kh, row)
    w2d = weights.reshape(kh * row, nf)
    out = np.empty((n * out_h, out_w, nf), dtype=data.dtype)
    dst = out.reshape(n, out_h, out_w, nf)
    for t, (n0, i0, j0) in enumerate(product(range(0, n, tile_n), range(0, out_h, tile_h),
                                             range(0, out_w, tile_w))):
        n1, i1, j1 = min(n0 + tile_n, n), min(i0 + tile_h, out_h), min(j0 + tile_w, out_w)
        tile = (n1 - n0, i1 - i0, j1 - j0)
        rows = tile[0] * tile[1] * tile[2]
        sums = acc[:rows * nf].reshape(rows, nf)
        for g, (r0, r1, q0, q1) in enumerate(runs):
            k0 = r0 * row + q0
            k1 = k0 + (r1 - r0) * (q1 - q0)
            a = cols[:rows * (k1 - k0)].reshape(*tile, r1 - r0, q1 - q0)
            np.copyto(a, windows[n0:n1, i0:i1, j0:j1, r0:r1, q0:q1])
            a = a.reshape(rows, k1 - k0)
            b = wblk[:k1 - k0]
            if last or t == 0:   # a single run stays cast across tiles
                np.copyto(b, w2d[k0:k1])
            if g == 0:
                np.matmul(a, b, out=sums)
            else:
                sums += np.matmul(a, b, out=partial[:sums.size].reshape(sums.shape))
        epilogue(sums.reshape(*tile, nf), dst[n0:n1, i0:i1, j0:j1])
    return out


def leaky_step(acc: np.ndarray, dst: np.ndarray, op, k) -> None:
    """Leaky ReLU of a finished tile ``dst`` in place, dst = max(dst, op(dst, k)),
    with op(dst, k) written into the memory of the tile's spent sums ``acc``
    (float64 or float32), whose items are no narrower than those of ``dst``."""
    scaled = acc.reshape(-1).view(dst.dtype)[:dst.size].reshape(dst.shape)
    op(dst, k, out=scaled)
    np.maximum(dst, scaled, out=dst)


def _check_float(fm: FeatureMap, op: str) -> None:
    """Refuse a map that is not float32 in a float-engine op, before its work."""
    if fm.data.dtype != np.float32:
        raise ValueError(f"{op} takes a float32 feature map, got {fm.data.dtype}")


def conv2d(input: FeatureMap, filters: FilterBank, stride: int = 1,
           padding: str = "same", batch: int = 1, *,
           leaky_alpha: float | None = None) -> FeatureMap:
    """2-D convolution over (h, w, c) with per-filter bias, of each of the
    ``batch`` maps stacked in ``input``, then optionally leaky ReLU with
    slope ``leaky_alpha`` in [0, 1].

    Same padding pads each map with zeros. Products and sums run in float64
    through ``conv_gemm`` and each output is rounded to float32 once, after
    the bias add, so identical inputs always produce identical bits. The
    activation runs on each finished tile in float32 and gives the bits of
    ``leaky_relu`` on the whole map; an output beyond float32 raises NumericalError.
    """
    _check_float(input, "conv2d")
    if leaky_alpha is not None:
        if not 0 <= leaky_alpha <= 1:
            raise ValueError(f"fused leaky slope must lie in [0, 1], got {leaky_alpha}")
        alpha = np.float32(leaky_alpha)
    bias = filters.biases

    def epilogue(acc, dst):
        np.add(acc, bias, out=dst, casting="same_kind")
        if leaky_alpha is not None:
            leaky_step(acc, dst, np.multiply, alpha)

    with np.errstate(over="ignore", invalid="ignore"):
        out = conv_gemm(input.data, filters.weights, stride, padding, batch, epilogue)
    try:
        return FeatureMap(out)
    except ValueError as e:   # finite operands, so an output left float32's range
        raise NumericalError(f"conv output overflowed float32: {e}") from e


def batchnorm_forward(z: FeatureMap, params: BatchNormParams) -> FeatureMap:
    """Per-channel normalization: gamma * (z - mu) / sqrt(sigma2 + eps) + beta
    in float32; an output beyond the float32 range raises NumericalError."""
    _check_float(z, "batchnorm_forward")
    if z.channels != params.num_filters:
        raise ShapeError(
            f"feature map has {z.channels} channels but batchnorm has {params.num_filters}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = params.scale.astype(np.float32) * (z.data - params.mu) + params.beta
    try:
        return FeatureMap(out)
    except ValueError as e:   # finite operands, so an output left float32's range
        raise NumericalError(f"batchnorm output overflowed float32: {e}") from e


def leaky_relu(z: FeatureMap, alpha: float) -> FeatureMap:
    """z for positive entries, alpha * z otherwise."""
    _check_float(z, "leaky_relu")
    if alpha < 0:
        raise ValueError(f"negative slope must be >= 0, got {alpha}")
    out = np.where(z.data > 0, z.data, np.float32(alpha) * z.data)
    return FeatureMap(out)


def maxpool(input: FeatureMap, size: int, stride: int, batch: int = 1) -> FeatureMap:
    """Channelwise window maximum with ceil-mode output (out = ceil(in / stride)),
    of each of the ``batch`` maps stacked in a float or integer ``input``."""
    if size < 1 or stride < 1:
        raise ValueError(f"pool size and stride must be positive, got {size}, {stride}")
    if input.channels == 0:
        raise ShapeError("cannot pool a zero-channel feature map")
    maps = _batch_view(input.data, batch)
    _, in_h, in_w, c = maps.shape
    out_h, out_w = conv_output_shape(in_h, in_w, size, size, stride, "same")
    # Pad each map's bottom/right with a never-selected sentinel so edge windows
    # that overhang (stride-1 pooling at the border) only see its own elements.
    dtype = maps.dtype
    sentinel = np.iinfo(dtype).min if dtype.kind == "i" else dtype.type(-np.inf)
    padded = _pad_maps(maps, 0, sum(_same_padding(in_h, size, stride)),
                       0, sum(_same_padding(in_w, size, stride)), sentinel)
    windows = [padded[:, r:r + out_h * stride:stride, s:s + out_w * stride:stride, :]
               for r in range(size) for s in range(size)]
    # windows in row-major order, so equal maxima of opposite sign keep their
    # sign; a 1x1 pool takes the maximum of its one window with itself
    out = np.maximum(windows[0], windows[1 % len(windows)])
    for window in windows[2:]:
        np.maximum(out, window, out=out)
    return replace(input, data=out.reshape(batch * out_h, out_w, c))


def upsample_nearest(input: FeatureMap, factor: int) -> FeatureMap:
    if factor < 1:
        raise ValueError(f"upsample factor must be positive, got {factor}")
    return replace(input, data=np.repeat(np.repeat(input.data, factor, axis=0), factor, axis=1))


def concat(a: FeatureMap, b: FeatureMap) -> FeatureMap:
    """Channel concatenation of two maps of one dtype, a's channels first."""
    if (a.height, a.width) != (b.height, b.width):
        raise ShapeError(f"concat spatial mismatch: {a.shape} vs {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"concat dtype mismatch: {a.data.dtype} vs {b.data.dtype}")
    return replace(a, data=np.concatenate([a.data, b.data], axis=2))


def split_batch(stacked: FeatureMap, batch: int) -> list[FeatureMap]:
    """The ``batch`` maps stacked in a batch map, as views of its data."""
    return [replace(stacked, data=m) for m in _batch_view(stacked.data, batch)]


# ---------------------------------------------------------------------------
# Tensor container file ("TNSR")
# ---------------------------------------------------------------------------

def _atomic_write(path, chunks: Iterable[bytes | memoryview], where=None) -> None:
    """Write ``chunks`` to a temp file, then rename it over ``path``.

    If a write or the chunk iterator raises, the temp file is removed and
    ``path`` keeps its old content. An OSError is named by ``where``, by
    default ``path`` (see ``file_written``).
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with file_written(path if where is None else where):
        try:
            with open(tmp, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def save_tensor(path, fm: FeatureMap) -> None:
    """Write a feature map: magic, version u32, dtype u8, rank u8, dims u32, raw data."""
    if not isinstance(fm, FeatureMap):
        raise TypeError(f"cannot serialize {type(fm).__name__}")
    code = DTYPE_INT16 if fm.data.dtype == np.int16 else DTYPE_FLOAT32
    header = _TENSOR_MAGIC + struct.pack("<IBB3I", _TENSOR_VERSION, code, 3, *fm.shape)
    payload = np.ascontiguousarray(fm.data, dtype=_NUMPY_DTYPES[code])
    _atomic_write(path, [header, memoryview(payload.reshape(-1)).cast("B")])


def load_tensor(path) -> FeatureMap:
    """Read a tensor file; the payload is read straight into its final array."""
    with file_content(path), open(path, "rb") as fh:
        head = fh.read(_TENSOR_HEADER_BYTES)
        if len(head) < _TENSOR_HEADER_BYTES:
            raise ModelFormatError(f"truncated tensor header ({len(head)} bytes, "
                                   f"need {_TENSOR_HEADER_BYTES})")
        if head[:4] != _TENSOR_MAGIC:
            raise ModelFormatError("not a tensor container (bad magic)")
        version, code, rank = struct.unpack_from("<IBB", head, 4)
        if version != _TENSOR_VERSION:
            raise ModelFormatError(f"unsupported tensor format version {version}")
        if rank != 3 or code not in _NUMPY_DTYPES:
            raise ModelFormatError(f"unsupported rank {rank} or dtype {code}")
        dims = struct.unpack_from("<3I", head, 10)
        dtype = _NUMPY_DTYPES[code]
        expected = dims[0] * dims[1] * dims[2] * dtype.itemsize
        payload = os.fstat(fh.fileno()).st_size - _TENSOR_HEADER_BYTES
        if payload != expected:
            raise ModelFormatError(f"payload is {payload} bytes, expected {expected}")
        data = np.empty(dims, dtype)
        got = fh.readinto(data)
        if got != expected:
            raise ModelFormatError(f"payload is {got} bytes, expected {expected}")
        return FeatureMap(data)
