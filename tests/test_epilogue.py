"""The conv epilogue and native integer storage.

``conv2d`` and ``int_conv_forward`` apply leaky ReLU to each finished GEMM
tile. Both must give the bits of the separate passes (``leaky_relu``,
``quant_leaky_relu``), which stay as the reference implementations. Bits are
compared as bytes, so a -0.0 where the reference has +0.0 fails.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cnnadapt import tensor
from cnnadapt.fusion import fuse_model
from cnnadapt.model import ConvParams, Model, float_infer, replace_layer
from cnnadapt.quantization import (
    QuantConfig,
    _saturate,
    int_conv_forward,
    int_infer,
    quant_leaky_relu,
    quantize_input,
    quantize_model,
)
from cnnadapt.tensor import (
    INT16_MAX,
    INT16_MIN,
    INT32_MAX,
    INT32_MIN,
    BatchNormParams,
    FeatureMap,
    FilterBank,
    concat,
    conv2d,
    leaky_relu,
    load_tensor,
    maxpool,
    save_tensor,
    upsample_nearest,
)
from cnnadapt.tinyyolo import build_tinyyolov3
from util import feature_map, random_bank

# A scratch budget this small splits a 9x9 output of 12 filters into several
# pixel tiles, so the epilogue sees partial tiles. Under the tiny one, not
# even one kernel position of 5 channels and 12 filters fits in half the
# budget, so the plan sums each tile over runs of channels within a kernel
# row, some of which straddle two kernel positions. That input keeps the id
# filter_blocks, the plan it selected before channel runs, so that the ids
# of these tests stay stable.
SMALL_SCRATCH = 2048
TINY_SCRATCH = 512


@pytest.fixture(params=["one_tile", "many_tiles", "filter_blocks"])
def scratch(request, monkeypatch):
    if request.param == "many_tiles":
        monkeypatch.setattr(tensor, "GEMM_SCRATCH_BYTES", SMALL_SCRATCH)
    if request.param == "filter_blocks":
        monkeypatch.setattr(tensor, "GEMM_SCRATCH_BYTES", TINY_SCRATCH)


def _separate_float(fm, fb, stride, padding, exponent):
    out = conv2d(fm, fb, stride, padding)
    if exponent is not None:
        out = leaky_relu(out, 2.0 ** -exponent)
    return out.data


@pytest.mark.parametrize("exponent", [None, 0, 4, 15])
@pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "valid")])
def test_float_epilogue_equals_separate_passes(rng, scratch, exponent, stride, padding):
    fm = feature_map(rng, 9, 9, 5, lo=-1.0, hi=1.0)
    fb = random_bank(rng, 3, 5, 12)
    fused = conv2d(fm, fb, stride, padding,
                   leaky_alpha=None if exponent is None else 2.0 ** -exponent)
    assert fused.data.tobytes() == _separate_float(fm, fb, stride, padding, exponent).tobytes()


def test_float_epilogue_keeps_negative_zero_from_underflow(rng, scratch):
    # outputs are +-1e-42 (subnormal); times 2^-15 the negative ones underflow to -0.0
    fm = feature_map(rng, 9, 9, 2)
    bias = np.where(np.arange(12) % 2 == 0, -1e-42, 1e-42).astype(np.float32)
    fb = FilterBank(np.zeros((3, 3, 2, 12), dtype=np.float32), bias)
    fused = conv2d(fm, fb, leaky_alpha=2.0 ** -15).data
    assert (np.signbit(fused) & (fused == 0)).any()
    assert fused.tobytes() == _separate_float(fm, fb, 1, "same", 15).tobytes()


def test_float_epilogue_validates_its_arguments(rng):
    fm = feature_map(rng, 4, 4, 2)
    fb = random_bank(rng, 3, 2, 3)
    for alpha in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="slope"):
            conv2d(fm, fb, leaky_alpha=alpha)


@pytest.mark.parametrize("p_alpha", [0, 4, 15])
@pytest.mark.parametrize("p", [0, 8])
def test_int_epilogue_equals_separate_leaky_pass(rng, scratch, p_alpha, p):
    # full-range inputs, and filters 0-5 with full-range weights: at p = 0 their
    # tiles saturate the int32 accumulator and int16; filters 6-11 stay small
    x = FeatureMap(rng.integers(INT16_MIN, INT16_MAX + 1, size=(9, 9, 5)))
    w = rng.integers(-4, 5, size=(3, 3, 5, 12))
    w[..., :6] = rng.integers(INT16_MIN, INT16_MAX + 1, size=(3, 3, 5, 6))
    w = w.astype(np.int16)
    b = rng.integers(-1000, 1000, size=12).astype(np.int16)
    config = QuantConfig(p=p)
    ref, ref_acc, ref_16 = int_conv_forward(x, w, b, 1, "same", config)
    ref = quant_leaky_relu(ref, p_alpha)
    out, n_acc, n16 = int_conv_forward(x, w, b, 1, "same", config, p_alpha=p_alpha)
    assert out.data.dtype == np.int16
    assert out.data.tobytes() == ref.data.tobytes()
    assert (n_acc, n16) == (ref_acc, ref_16)
    if p == 0:
        assert n_acc > 0 and n16 > 0


def test_int_epilogue_rejects_negative_shift(rng):
    x = FeatureMap(np.zeros((2, 2, 1), dtype=np.int16))
    w = np.zeros((1, 1, 1, 1), dtype=np.int16)
    with pytest.raises(ValueError, match="p_alpha"):
        int_conv_forward(x, w, np.zeros(1, dtype=np.int16), 1, "same", QuantConfig(),
                         p_alpha=-1)


# ---------------------------------------------------------------------------
# requantize: floor first, one min/max, then the scans it cannot rule out
# ---------------------------------------------------------------------------

def _requantize_in_old_order(x, w, b, p):
    """1x1 conv in int64 with the original step order: sat int32 -> *2^-P and
    floor -> sat int16 -> +bias -> sat int16; returns (out, n_acc, n16)."""
    acc = x.astype(np.int64) @ w.reshape(w.shape[2:]).astype(np.int64)
    sat32 = np.clip(acc, INT32_MIN, INT32_MAX)
    n_acc = int(np.count_nonzero(sat32 != acc))
    shifted = sat32 >> p
    narrowed = np.clip(shifted, INT16_MIN, INT16_MAX)
    summed = narrowed + b.astype(np.int64)
    out = np.clip(summed, INT16_MIN, INT16_MAX)
    n16 = int(np.count_nonzero(narrowed != shifted)) + int(np.count_nonzero(out != summed))
    return out, n_acc, n16


def _assert_requantize_matches_old_order(x, w, b, p):
    want, want_acc, want_16 = _requantize_in_old_order(x, w, b, p)
    got, n_acc, n16 = int_conv_forward(FeatureMap(x), w, b, 1, "same",
                                       QuantConfig(p=p))
    np.testing.assert_array_equal(got.data, want)
    assert (n_acc, n16) == (want_acc, want_16)


# Every pixel's sum is -32768 * (c0 + c1 + c2) + c3 under this weight column.
_EDGE_WEIGHTS = (INT16_MIN, INT16_MIN, INT16_MIN, 1)


def _channels_summing_to(total):
    """int16 channels (c0, c1, c2, c3) whose sum under _EDGE_WEIGHTS is ``total``."""
    q, c3 = divmod(total, 2**15)
    rest, parts = -q, []
    for _ in range(3):
        parts.append(min(max(rest, INT16_MIN), INT16_MAX))
        rest -= parts[-1]
    assert rest == 0
    return parts + [c3]


@pytest.mark.parametrize("p", [0, 1, 8, 14])
def test_requantize_edges_match_the_old_step_order(scratch, p):
    sums = [INT32_MAX, INT32_MAX + 1, INT32_MIN, INT32_MIN - 1, 0, -1]
    # sums whose floor(sum * 2^-P) lands on and beyond both int16 edges
    for floored in (INT16_MAX, -INT16_MAX, INT16_MIN, INT16_MAX + 2, INT16_MIN - 1,
                    INT16_MAX + 1, INT16_MIN + 1):
        sums += [floored * 2**p, floored * 2**p + 2**p - 1]
    x = np.array([[_channels_summing_to(t) for t in sums]], dtype=np.int16)
    x64 = x.astype(np.int64) @ np.array(_EDGE_WEIGHTS, dtype=np.int64)
    assert x64.tolist() == [sums]
    # biases that push floored values across both int16 edges, or keep them inside
    b = np.array([0, 1, -1, 2, -2, INT16_MAX, INT16_MIN, 100, -100], dtype=np.int16)
    w = np.tile(np.array(_EDGE_WEIGHTS, dtype=np.int16), (b.size, 1)).T.reshape(1, 1, 4, b.size)
    # each sum alone, so no other value of its tile decides which scans run,
    # then all of them in one map
    for pixels in [x[:, i:i + 1] for i in range(len(sums))] + [x]:
        _assert_requantize_matches_old_order(pixels, w, b, p)
    _, n_acc, n16 = _requantize_in_old_order(x, w, b, p)
    assert n_acc > 0 and n16 > 0


_EXTREME_INT16 = st.one_of(
    st.sampled_from([INT16_MIN, INT16_MIN + 1, -1, 0, 1, INT16_MAX - 1, INT16_MAX]),
    st.integers(INT16_MIN, INT16_MAX))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=st.sampled_from([0, 1, 8, 14]), depth=st.integers(1, 6),
       pixels=st.integers(1, 5), nf=st.integers(1, 4), data=st.data())
def test_requantize_matches_old_step_order_on_extreme_operands(p, depth, pixels, nf, data):
    x = data.draw(arrays(np.int16, (1, pixels, depth), elements=_EXTREME_INT16))
    w = data.draw(arrays(np.int16, (1, 1, depth, nf), elements=_EXTREME_INT16))
    b = data.draw(arrays(np.int16, (nf,), elements=_EXTREME_INT16))
    _assert_requantize_matches_old_order(x, w, b, p)


# ---------------------------------------------------------------------------
# native integer storage
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width, dtype", [(16, np.int16)])
def test_int_map_stores_its_declared_width(width, dtype):
    info = np.iinfo(dtype)
    for src in (np.int8, np.int16, np.int32, np.int64, np.uint8):
        assert FeatureMap(np.ones((2, 2, 1), dtype=src)).data.dtype == dtype
    edges = np.array([[[info.min, info.max]]], dtype=np.int64)
    np.testing.assert_array_equal(FeatureMap(edges).data, edges)
    for bad in (info.min - 1, info.max + 1):
        with pytest.raises(ValueError, match=f"int{width} range"):
            FeatureMap(np.array([[[0, bad]]], dtype=np.int64))
    with pytest.raises(ValueError, match=f"int{width} range"):
        FeatureMap(np.array([[[np.iinfo(np.uint64).max]]], dtype=np.uint64))


def test_int_map_ops_keep_the_storage_dtype(tmp_path):
    low = INT16_MIN
    fm = FeatureMap(np.full((3, 3, 2), low, dtype=np.int16))
    pooled = maxpool(fm, 2, 1)
    assert pooled.data.dtype == np.int16 and (pooled.data == low).all()
    assert upsample_nearest(fm, 2).data.dtype == np.int16
    assert concat(fm, fm).data.dtype == np.int16
    save_tensor(tmp_path / "m.tnsr", fm)
    loaded = load_tensor(tmp_path / "m.tnsr")
    assert loaded.data.dtype == np.int16
    assert quantize_input(FeatureMap(np.ones((2, 2, 1), dtype=np.float32))).data.dtype \
        == np.int16


@pytest.mark.parametrize("values", [
    [0.0, 5.0, -5.0, 7.0],            # in range: nothing clipped
    [-9.0, 0.0, 9.0, 12.0, -7.0],     # out of range on both sides
    [-9.0, -8.0, 0.0],                # below the range only
    [8.0, 0.0],                       # above the range only
    [-1e30, 1e30],
])
def test_saturate_counts_and_clips(values):
    a = np.array(values)
    expected = int(np.count_nonzero(a < -7)) + int(np.count_nonzero(a > 7))
    clipped = np.clip(a, -7, 7)
    assert _saturate(a, -7, 7) == expected
    np.testing.assert_array_equal(a, clipped)
    assert _saturate(np.empty(0), -7, 7) == 0


# ---------------------------------------------------------------------------
# TinyYOLOv3 taps, frozen before the epilogue existed
# ---------------------------------------------------------------------------

def _seeded_yolo(seed, size=96):
    """Unfused TinyYOLOv3 (2 classes) with fan-in weights, and one input image."""
    rng = np.random.default_rng(seed)
    model = replace_layer(build_tinyyolov3(num_classes=2), "input", height=size, width=size)
    params = {}
    for layer in model.conv_layers():
        kh, kw, c_in, nf = model.params[layer.id].filters.weights.shape
        a = np.sqrt(3.0 / (kh * kw * c_in))
        w = rng.uniform(-a, a, (kh, kw, c_in, nf))
        b = rng.uniform(-0.1, 0.1, nf) if layer.has_bias else np.zeros(nf)
        bn = None
        if layer.has_batchnorm:
            bn = BatchNormParams(mu=rng.uniform(-0.1, 0.1, nf),
                                 sigma2=rng.uniform(0.5, 2.0, nf),
                                 gamma=rng.uniform(0.8, 1.2, nf),
                                 beta=rng.uniform(-0.1, 0.1, nf))
        params[layer.id] = ConvParams(FilterBank(w, b), bn)
    image = FeatureMap(rng.uniform(0.0, 1.0, (size, size, 3)).astype(np.float32))
    return Model(model.layers, params), image


def _trace_digest(trace) -> str:
    """sha256 over layer ids and data; integer taps hashed as little-endian int16."""
    h = hashlib.sha256()
    for lid, fm in trace.items():
        h.update(lid.encode())
        dtype = np.float32 if fm.data.dtype == np.float32 else "<i2"
        h.update(np.ascontiguousarray(fm.data, dtype=dtype).tobytes())
    return h.hexdigest()


def test_tinyyolo_taps_match_frozen_digests():
    model, image = _seeded_yolo(3)
    fused = fuse_model(model)
    assert _trace_digest(float_infer(model, image, taps=True)) == \
        "b45548dd7083b08e6616db17919d28dd1470894e4a5ac5dbac600a0c89adc703"
    assert _trace_digest(float_infer(fused, image, taps=True)) == \
        "262fc8c3bee946ccf4c0d731804d622d8aa0a37a2fcf4db611ea180d5b0b81d5"
    # P = 14 leaves one integer bit of headroom, so some layers saturate
    for p, digest, saturations in (
            (8, "ef1c2190b80f21fee807c28f1aa077967983e7bdd9124ddcdc10c49a41d742ce", 0),
            (14, "cd817c9fe9a475190390b4c9f64f0c95aae64d328860bdeef197ae5a14f9c43f", 277)):
        qmodel = quantize_model(fused, QuantConfig(p=p))
        trace, stats = int_infer(qmodel, quantize_input(image, qmodel.config), taps=True)
        assert _trace_digest(trace) == digest
        assert stats.total == saturations
