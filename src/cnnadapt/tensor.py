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

``maxpool``, ``upsample_nearest``, ``concat`` and ``split_batch`` serve both
map types: each result is the input map with new data, so an integer map
keeps its width. The ``_int`` names are aliases of the same functions.

Both engines convolve through ``conv_gemm``: the input windows are lowered
to rows of a (pixels, kh*kw*c) matrix (im2col) and multiplied with the
(kh*kw*c, filters) weight matrix in float64. Float products of float32
operands are exact in float64 and each output is rounded to float32 once,
after its bias is added. Integer products of int16 operands are integers of
at most 2^30 in magnitude, so every partial sum of K <= 2^23 of them stays
below 2^53 and the float64 GEMM computes the integer result exactly.

The GEMM runs in tiles of output pixels and blocks of filters whose float64
scratch (im2col rows, the weight block cast to float64, and the sums) fits
in GEMM_SCRATCH_BYTES. A layer whose weights fill more than half the budget
is split into filter blocks; if its pixels are split too, each weight block
is cast again for each pixel tile. So when the im2col rows of every output
pixel of the batch fit together with a block of at least 32 filters (or all
of them), such a layer runs as one pixel tile with the widest filter block
that fits, and each weight is cast to float64 exactly once. The scratch is
one thread-local buffer that grows to the largest layer's need:
``model.execute`` holds it open for a whole graph walk (``gemm_scratch``),
and a conv call outside a walk opens and releases its own. Integer sums are
exact, so the tiling cannot change them; float outputs have matched across
tilings in every case tested, down to one pixel and one filter per tile.

Each finished GEMM tile goes through its layer's epilogue while it is still
in cache: the bias add (the integer engine's requantization), batchnorm if
the float layer has one, and leaky ReLU, so a conv layer is one call. Leaky
ReLU with slope 0 <= alpha <= 1 is ``max(z, alpha * z)``, the same value as
``z if z > 0 else alpha * z`` for every z, signed zeros included.

Integer maps are stored in their declared width, int16 or int32. Files
are written through ``_atomic_write``, so a failed write leaves the old file.
"""
from __future__ import annotations

import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModelFormatError, ShapeError, file_content

INT16_MIN, INT16_MAX = -(2**15), 2**15 - 1
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1

# dtype codes used by the tensor container and the weights blob
DTYPE_FLOAT32 = 0
DTYPE_INT16 = 1
DTYPE_INT32 = 2

_TENSOR_MAGIC = b"TNSR"
_TENSOR_VERSION = 1
_TENSOR_HEADER_BYTES = 22   # magic, version u32, dtype u8, rank u8, 3 dims u32


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class _Map:
    """Shape accessors and the rank and spatial checks of both map types."""

    data: np.ndarray

    @staticmethod
    def _check_rank(arr: np.ndarray) -> None:
        if arr.ndim != 3:
            raise ShapeError(f"feature map must be rank 3, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"feature map spatial dims must be positive, got {arr.shape}")

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


MapT = TypeVar("MapT", bound=_Map)


@dataclass(frozen=True)
class FeatureMap(_Map):
    """Float activation tensor of shape (height, width, channels).

    Channels may be zero (the empty map is a valid concat operand);
    spatial dims must be positive and every value finite.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        self._check_rank(arr)
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("feature map contains NaN or infinite values")
        object.__setattr__(self, "data", _freeze(arr))


@dataclass(frozen=True)
class IntFeatureMap(_Map):
    """Integer activation tensor with a declared storage width (16 or 32 bits).

    Data is held as int16 or int32, the declared two's-complement width.
    Integer data of any other dtype is range-checked, then cast.
    """

    data: np.ndarray
    width_bits: int = 16

    def __post_init__(self):
        arr = np.asarray(self.data)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"integer feature map requires integer data, got {arr.dtype}")
        self._check_rank(arr)
        if self.width_bits not in (16, 32):
            raise ValueError(f"width_bits must be 16 or 32, got {self.width_bits}")
        dtype = np.dtype(np.int16 if self.width_bits == 16 else np.int32)
        if arr.dtype != dtype:
            info = np.iinfo(dtype)
            if arr.size and (int(arr.min()) < info.min or int(arr.max()) > info.max):
                raise ValueError(f"values exceed int{self.width_bits} range")
            arr = arr.astype(dtype)
        object.__setattr__(self, "data", _freeze(arr))


@dataclass(frozen=True)
class FilterBank:
    """Convolution weights (kernel_h, kernel_w, in_channels, num_filters) plus biases.

    The bias vector is always materialized; bias-free layers carry zeros and
    the owning layer records whether it is semantically present.
    """

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float32)
        b = np.asarray(self.biases, dtype=np.float32)
        if w.ndim != 4:
            raise ShapeError(f"weights must be rank 4 (kh, kw, c_in, nf), got {w.shape}")
        if b.ndim != 1 or b.shape[0] != w.shape[3]:
            raise ShapeError(f"biases must have one entry per filter: {b.shape} vs nf={w.shape[3]}")
        if min(w.shape) < 1:
            raise ShapeError(f"all filter dims must be positive, got {w.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("filter bank contains NaN or infinite values")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "biases", _freeze(b))

    @property
    def kernel_h(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel_w(self) -> int:
        return self.weights.shape[1]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[2]

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
        if ((vecs["sigma2"] + np.float32(self.epsilon)) <= 0).any():
            raise ValueError("variance + epsilon must be positive")
        for name, v in vecs.items():
            object.__setattr__(self, name, v)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def num_filters(self) -> int:
        return self.mu.shape[0]


# Budget for conv_gemm's float64 scratch per call (window rows, weight block
# and products); only a layer whose single window row exceeds it goes over.
# At 8 MiB TinyYOLOv3-416's conv_7 (K = 4608, 1024 filters at 13x13) runs as
# one pixel tile and 19 blocks of 56 filters, casting each weight once.
GEMM_SCRATCH_BYTES = 8 << 20
# Smallest filter block worth keeping the whole im2col for (see conv_gemm).
_ONE_TILE_MIN_FILTERS = 32
# Largest exact integer GEMM depth: K * 2^30 <= 2^53 (see module docstring).
MAX_EXACT_INT_DEPTH = 2**23


def _same_padding(in_dim: int, kernel: int, stride: int) -> tuple[int, int]:
    """Zero-pad amounts (begin, end) so that out = ceil(in / stride)."""
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


class _ThreadScratch(threading.local):
    buf: np.ndarray | None = None   # None while no gemm_scratch block is open


_SCRATCH = _ThreadScratch()


@contextmanager
def gemm_scratch():
    """Keep one float64 scratch buffer for every ``conv_gemm`` call on this
    thread until the outermost such block exits; nested blocks share it.

    ``conv_gemm`` takes its scratch before it allocates its padded input and
    its output, so the buffer, which a walk holds while the maps it keeps
    pile up, does not sit above them in the heap.
    """
    if _SCRATCH.buf is not None:
        yield
        return
    _SCRATCH.buf = np.empty(0)
    try:
        yield
    finally:
        _SCRATCH.buf = None


def _take_scratch(size: int) -> np.ndarray:
    """``size`` float64 elements of this thread's open scratch, grown to fit."""
    if _SCRATCH.buf.size < size:
        _SCRATCH.buf = None   # free the smaller buffer before allocating
        _SCRATCH.buf = np.empty(size)
    return _SCRATCH.buf[:size]


def conv_gemm(data: np.ndarray, weights: np.ndarray, stride: int, padding: str, batch: int,
              epilogue) -> np.ndarray:
    """Convolve each of the ``batch`` (h, w, c) maps stacked in ``data`` with
    (kh, kw, c, nf) weights as float64 GEMMs; returns the outputs stacked,
    (batch * out_h, out_w, nf), in the dtype of ``data``.

    Same padding pads each map with zeros. The output is tiled into pixel
    blocks (outer loop: several whole maps while they fit, else rows and
    columns of one map) and filter blocks (inner loop) sized so that the
    scratch stays within GEMM_SCRATCH_BYTES: the filter block takes up to
    half of it, the pixel block the rest. Where that would cast the weights
    to float64 again for each of several pixel blocks, but the im2col rows
    of all output pixels fit with a block of at least 32 filters (or of all
    of them), there is one pixel block and the widest filter block that
    fits, so each weight is cast once. The scratch comes from
    ``gemm_scratch``. For each tile, ``epilogue(acc, dst, f0, f1)`` receives
    the float64 sums ``acc`` of shape (maps, rows, cols, f1 - f0), a
    contiguous buffer it may overwrite, and must write the finished values
    into ``dst``, the tile's slice of the output.
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
    if padding == "same":
        pt, pb = _same_padding(in_h, kh, stride)
        pl, pr = _same_padding(in_w, kw, stride)
    else:
        pt = pb = pl = pr = 0
    depth = kh * kw * c_in
    budget = GEMM_SCRATCH_BYTES // 8
    fb = nf if depth * nf <= budget // 2 else max(1, budget // 2 // depth)
    pixels = max(1, (budget - depth * fb) // (depth + fb))
    total = n * out_h * out_w
    if fb < nf and pixels < total:
        # this split casts every weight once per pixel tile; keep the im2col
        # of all pixels instead if a useful filter block still fits beside it
        one_tile_fb = min(nf, (budget - total * depth) // (depth + total))
        if one_tile_fb >= min(nf, _ONE_TILE_MIN_FILTERS):
            fb, pixels = one_tile_fb, total
    tile_w = min(out_w, pixels)
    tile_h = max(1, min(out_h, pixels // tile_w))
    tile_n = max(1, min(n, pixels // (tile_h * tile_w)))
    pixels = tile_n * tile_h * tile_w

    with gemm_scratch():
        scratch = _take_scratch((pixels + depth) * fb + pixels * depth)
        wblk = scratch[:depth * fb].reshape(depth, fb)
        acc = scratch[depth * fb:(depth + pixels) * fb]
        cols = scratch[(depth + pixels) * fb:]
        padded = np.zeros((n, in_h + pt + pb, in_w + pl + pr, c_in), dtype=data.dtype)
        padded[:, pt:pt + in_h, pl:pl + in_w, :] = maps
        # (n, out_h, out_w, kh, kw, c): window element order matches weights.reshape(depth, nf)
        windows = sliding_window_view(padded, (kh, kw), axis=(1, 2))
        windows = windows[:, ::stride, ::stride][:, :out_h, :out_w].transpose(0, 1, 2, 4, 5, 3)
        w2d = weights.reshape(depth, nf)
        out = np.empty((n * out_h, out_w, nf), dtype=data.dtype)
        dst = out.reshape(n, out_h, out_w, nf)
        if fb == nf:
            np.copyto(wblk, w2d)
        for n0 in range(0, n, tile_n):
            n1 = min(n0 + tile_n, n)
            for i0 in range(0, out_h, tile_h):
                i1 = min(i0 + tile_h, out_h)
                for j0 in range(0, out_w, tile_w):
                    j1 = min(j0 + tile_w, out_w)
                    tile = (n1 - n0, i1 - i0, j1 - j0)
                    rows = tile[0] * tile[1] * tile[2]
                    a = cols[:rows * depth].reshape(*tile, kh, kw, c_in)
                    np.copyto(a, windows[n0:n1, i0:i1, j0:j1])
                    a = a.reshape(rows, depth)
                    for f0 in range(0, nf, fb):
                        f1 = min(f0 + fb, nf)
                        b = wblk[:, :f1 - f0]
                        if fb < nf:
                            np.copyto(b, w2d[:, f0:f1])
                        prod = np.matmul(a, b,
                                         out=acc[:rows * (f1 - f0)].reshape(rows, f1 - f0))
                        epilogue(prod.reshape(*tile, f1 - f0),
                                 dst[n0:n1, i0:i1, j0:j1, f0:f1], f0, f1)
    return out


def spent_scratch(acc: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The memory of a tile's float64 sums ``acc``, once spent, as an array of
    the shape and dtype of ``like`` (whose items are no wider than 8 bytes)."""
    return acc.reshape(-1).view(like.dtype)[:like.size].reshape(like.shape)


def conv2d(input: FeatureMap, filters: FilterBank, stride: int = 1,
           padding: str = "same", batch: int = 1, *,
           batchnorm: BatchNormParams | None = None,
           leaky_alpha: float | None = None) -> FeatureMap:
    """2-D convolution over (h, w, c) with per-filter bias, of each of the
    ``batch`` maps stacked in ``input``, then optionally batchnorm and leaky
    ReLU with slope ``leaky_alpha`` in [0, 1].

    Same padding pads each map with zeros. Products and sums run in float64
    through ``conv_gemm`` and each output is rounded to float32 once, after
    the bias add, so identical inputs always produce identical bits. The
    batchnorm and the activation run on each finished tile in float32 and
    give the bits of ``batchnorm_forward`` and ``leaky_relu`` applied to the
    whole map.
    """
    nf = filters.num_filters
    if batchnorm is not None:
        if batchnorm.num_filters != nf:
            raise ShapeError(
                f"feature map has {nf} channels but batchnorm has {batchnorm.num_filters}")
        bn_scale = _batchnorm_scale(batchnorm)
    if leaky_alpha is not None:
        if not 0 <= leaky_alpha <= 1:
            raise ValueError(f"fused leaky slope must lie in [0, 1], got {leaky_alpha}")
        alpha = np.float32(leaky_alpha)
    bias = filters.biases

    def epilogue(acc, dst, f0, f1):
        np.add(acc, bias[f0:f1], out=dst, casting="same_kind")
        if batchnorm is not None:
            dst -= batchnorm.mu[f0:f1]
            dst *= bn_scale[f0:f1]
            dst += batchnorm.beta[f0:f1]
        if leaky_alpha is not None:
            scaled = spent_scratch(acc, dst)
            np.multiply(dst, alpha, out=scaled)
            np.maximum(dst, scaled, out=dst)

    return FeatureMap(conv_gemm(input.data, filters.weights, stride, padding, batch, epilogue))


def _batchnorm_scale(params: BatchNormParams) -> np.ndarray:
    """gamma / sqrt(sigma2 + eps) per channel, computed in float64, as float32."""
    denom = np.sqrt(params.sigma2.astype(np.float64) + params.epsilon)
    return (params.gamma / denom).astype(np.float32)


def batchnorm_forward(z: FeatureMap, params: BatchNormParams) -> FeatureMap:
    """Per-channel normalization: gamma * (z - mu) / sqrt(sigma2 + eps) + beta."""
    if z.channels != params.num_filters:
        raise ShapeError(
            f"feature map has {z.channels} channels but batchnorm has {params.num_filters}")
    out = _batchnorm_scale(params) * (z.data - params.mu) + params.beta
    return FeatureMap(out)


def leaky_relu(z: FeatureMap, alpha: float) -> FeatureMap:
    """z for positive entries, alpha * z otherwise."""
    if alpha < 0:
        raise ValueError(f"negative slope must be >= 0, got {alpha}")
    out = np.where(z.data > 0, z.data, np.float32(alpha) * z.data)
    return FeatureMap(out)


def maxpool_output_shape(in_h: int, in_w: int, stride: int) -> tuple[int, int]:
    return -(-in_h // stride), -(-in_w // stride)


def maxpool(input: MapT, size: int, stride: int, batch: int = 1) -> MapT:
    """Channelwise window maximum with ceil-mode output (out = ceil(in / stride)),
    of each of the ``batch`` maps stacked in a float or integer ``input``."""
    if size < 1 or stride < 1:
        raise ValueError(f"pool size and stride must be positive, got {size}, {stride}")
    if input.channels == 0:
        raise ShapeError("cannot pool a zero-channel feature map")
    maps = _batch_view(input.data, batch)
    _, in_h, in_w, c = maps.shape
    out_h, out_w = maxpool_output_shape(in_h, in_w, stride)
    pad_h = max((out_h - 1) * stride + size - in_h, 0)
    pad_w = max((out_w - 1) * stride + size - in_w, 0)
    padded = maps
    if pad_h or pad_w:
        # Pad each map's bottom/right with a never-selected sentinel so edge windows
        # that overhang (stride-1 pooling at the border) only see its own elements.
        dtype = maps.dtype
        sentinel = np.iinfo(dtype).min if dtype.kind == "i" else dtype.type(-np.inf)
        padded = np.full((batch, in_h + pad_h, in_w + pad_w, c), sentinel, dtype=dtype)
        padded[:, :in_h, :in_w, :] = maps
    windows = [padded[:, r:r + out_h * stride:stride, s:s + out_w * stride:stride, :]
               for r in range(size) for s in range(size)]
    # windows in row-major order, so equal maxima of opposite sign keep their
    # sign; a 1x1 pool takes the maximum of its one window with itself
    out = np.maximum(windows[0], windows[1 % len(windows)])
    for window in windows[2:]:
        np.maximum(out, window, out=out)
    return replace(input, data=out.reshape(batch * out_h, out_w, c))


def upsample_nearest(input: MapT, factor: int) -> MapT:
    if factor < 1:
        raise ValueError(f"upsample factor must be positive, got {factor}")
    return replace(input, data=np.repeat(np.repeat(input.data, factor, axis=0), factor, axis=1))


def concat(a: MapT, b: MapT) -> MapT:
    """Channel concatenation of two maps of one dtype, a's channels first."""
    if (a.height, a.width) != (b.height, b.width):
        raise ShapeError(f"concat spatial mismatch: {a.shape} vs {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"concat dtype mismatch: {a.data.dtype} vs {b.data.dtype}")
    return replace(a, data=np.concatenate([a.data, b.data], axis=2))


maxpool_int, upsample_nearest_int, concat_int = maxpool, upsample_nearest, concat


def split_batch(stacked: MapT, batch: int) -> list[MapT]:
    """The ``batch`` maps stacked in a batch map, as views of its data."""
    return [replace(stacked, data=m) for m in _batch_view(stacked.data, batch)]


# ---------------------------------------------------------------------------
# Tensor container file ("TNSR")
# ---------------------------------------------------------------------------

_NUMPY_DTYPES = {
    DTYPE_FLOAT32: np.dtype("<f4"),
    DTYPE_INT16: np.dtype("<i2"),
    DTYPE_INT32: np.dtype("<i4"),
}


def _atomic_write(path, chunks: Iterable[bytes | memoryview]) -> None:
    """Write ``chunks`` to a temp file, then rename it over ``path``.

    If a write or the chunk iterator raises, the temp file is removed and
    ``path`` keeps its old content.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_tensor(path, fm: FeatureMap | IntFeatureMap) -> None:
    """Write a feature map: magic, version u32, dtype u8, rank u8, dims u32, raw data."""
    if isinstance(fm, FeatureMap):
        code = DTYPE_FLOAT32
    elif isinstance(fm, IntFeatureMap):
        code = DTYPE_INT16 if fm.width_bits == 16 else DTYPE_INT32
    else:
        raise TypeError(f"cannot serialize {type(fm).__name__}")
    header = _TENSOR_MAGIC + struct.pack("<IBB3I", _TENSOR_VERSION, code, 3, *fm.shape)
    payload = np.ascontiguousarray(fm.data, dtype=_NUMPY_DTYPES[code])
    _atomic_write(path, [header, memoryview(payload.reshape(-1)).cast("B")])


def load_tensor(path) -> FeatureMap | IntFeatureMap:
    """Read a tensor file; the payload is read straight into its final array."""
    with open(path, "rb") as fh:
        head = fh.read(_TENSOR_HEADER_BYTES)
        if len(head) < _TENSOR_HEADER_BYTES:
            raise ModelFormatError(f"{path}: truncated tensor header ({len(head)} bytes, "
                                   f"need {_TENSOR_HEADER_BYTES})")
        if head[:4] != _TENSOR_MAGIC:
            raise ModelFormatError(f"{path}: not a tensor container (bad magic)")
        version, code, rank = struct.unpack_from("<IBB", head, 4)
        if version != _TENSOR_VERSION:
            raise ModelFormatError(f"{path}: unsupported tensor format version {version}")
        if rank != 3 or code not in _NUMPY_DTYPES:
            raise ModelFormatError(f"{path}: unsupported rank {rank} or dtype {code}")
        dims = struct.unpack_from("<3I", head, 10)
        dtype = _NUMPY_DTYPES[code]
        expected = dims[0] * dims[1] * dims[2] * dtype.itemsize
        payload = os.fstat(fh.fileno()).st_size - _TENSOR_HEADER_BYTES
        if payload != expected:
            raise ModelFormatError(f"{path}: payload is {payload} bytes, expected {expected}")
        data = np.empty(dims, dtype)
        got = fh.readinto(data)
        if got != expected:
            raise ModelFormatError(f"{path}: payload is {got} bytes, expected {expected}")
    with file_content(path):
        if code == DTYPE_FLOAT32:
            return FeatureMap(data)
        return IntFeatureMap(data, 16 if code == DTYPE_INT16 else 32)
