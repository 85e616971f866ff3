"""Numerical primitives: convolution, batchnorm, activations, pooling, container IO."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnadapt.errors import ModelFormatError, ShapeError
from cnnadapt.tensor import (
    BatchNormParams,
    FeatureMap,
    FilterBank,
    IntFeatureMap,
    batchnorm_forward,
    concat,
    concat_int,
    conv2d,
    conv_output_shape,
    leaky_relu,
    load_tensor,
    maxpool,
    maxpool_int,
    save_tensor,
    split_batch,
    upsample_nearest,
    upsample_nearest_int,
)
from util import bank, identity_bank


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_scalar_multiply_add():
    fm = FeatureMap(np.array([[[2.0]]], dtype=np.float32))
    fb = bank(np.array([[[[3.0]]]]), [1.0])
    out = conv2d(fm, fb, stride=1, padding="same")
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 7.0


def test_conv_identity_kernel_preserves_input(rng):
    fm = FeatureMap(rng.uniform(-1, 1, size=(5, 7, 3)).astype(np.float32))
    out = conv2d(fm, identity_bank(3, kernel=3), stride=1, padding="same")
    np.testing.assert_array_equal(out.data, fm.data)


def test_conv_valid_all_ones_sums_elements():
    fm = FeatureMap(np.array([[[1.0], [2.0]], [[3.0], [4.0]]], dtype=np.float32))
    fb = bank(np.ones((2, 2, 1, 1)))
    out = conv2d(fm, fb, stride=1, padding="valid")
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 10.0


def test_conv_channel_mismatch_raises(rng):
    fm = FeatureMap(rng.random((4, 4, 3)).astype(np.float32))
    fb = bank(np.ones((1, 1, 2, 1)))
    with pytest.raises(ShapeError):
        conv2d(fm, fb)


def test_conv_kernel_larger_than_valid_input_raises():
    fm = FeatureMap(np.zeros((2, 2, 1), dtype=np.float32))
    fb = bank(np.ones((3, 3, 1, 1)))
    with pytest.raises(ShapeError):
        conv2d(fm, fb, padding="valid")


def _reference_conv(data, weights, biases, stride, padding):
    """Straight triple-loop oracle, no vectorization tricks."""
    kh, kw, c_in, nf = weights.shape
    in_h, in_w = data.shape[0], data.shape[1]
    if padding == "same":
        out_h = -(-in_h // stride)
        out_w = -(-in_w // stride)
        pad_h = max((out_h - 1) * stride + kh - in_h, 0)
        pad_w = max((out_w - 1) * stride + kw - in_w, 0)
        pt, pl = pad_h // 2, pad_w // 2
        padded = np.zeros((in_h + pad_h, in_w + pad_w, c_in), dtype=np.float64)
        padded[pt:pt + in_h, pl:pl + in_w] = data
    else:
        out_h = (in_h - kh) // stride + 1
        out_w = (in_w - kw) // stride + 1
        padded = data.astype(np.float64)
    out = np.zeros((out_h, out_w, nf))
    for i in range(out_h):
        for j in range(out_w):
            for n in range(nf):
                acc = 0.0
                for r in range(kh):
                    for s in range(kw):
                        for c in range(c_in):
                            acc += padded[i * stride + r, j * stride + s, c] * weights[r, s, c, n]
                out[i, j, n] = acc + biases[n]
    return out


@pytest.mark.parametrize("padding,stride,hw,kernel", [
    ("same", 1, 5, 3), ("same", 2, 6, 3), ("same", 1, 4, 1),
    ("valid", 1, 5, 3), ("valid", 2, 7, 2), ("same", 2, 5, 2),
])
def test_conv_matches_bruteforce_oracle(rng, padding, stride, hw, kernel):
    data = rng.uniform(-1, 1, size=(hw, hw, 3)).astype(np.float32)
    w = rng.uniform(-1, 1, size=(kernel, kernel, 3, 4)).astype(np.float32)
    b = rng.uniform(-1, 1, size=4).astype(np.float32)
    got = conv2d(FeatureMap(data), bank(w, b), stride=stride, padding=padding)
    want = _reference_conv(data, w, b, stride, padding)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-5)


def test_conv_same_output_shape_is_ceil_division():
    assert conv_output_shape(13, 13, 3, 3, 1, "same") == (13, 13)
    assert conv_output_shape(13, 13, 3, 3, 2, "same") == (7, 7)
    assert conv_output_shape(5, 5, 3, 3, 1, "valid") == (3, 3)


@given(k=st.floats(min_value=-4, max_value=4, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_conv_linearity_in_weights(k, seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1, 1, size=(4, 4, 2)).astype(np.float32)
    w = rng.uniform(-1, 1, size=(3, 3, 2, 3)).astype(np.float32)
    b = rng.uniform(-1, 1, size=3).astype(np.float32)
    base = conv2d(FeatureMap(data), bank(w, b))
    scaled = conv2d(FeatureMap(data), bank(np.float32(k) * w, np.float32(k) * b))
    # 1e-6 relative to the output scale; element-wise rtol would blow up
    # wherever float32 cancellation leaves a near-zero entry
    want = k * base.data
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(scaled.data / scale, want / scale, rtol=0, atol=1e-6)


@given(k=st.floats(min_value=-2, max_value=2, allow_nan=False),
       h=st.floats(min_value=-1, max_value=1, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_affine_commutes_with_conv(k, h, seed):
    # k * conv(A; W, b) + h == conv(A; k*W, k*b + h), values in [-1, 1]
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1, 1, size=(4, 4, 2)).astype(np.float32)
    w = rng.uniform(-1, 1, size=(3, 3, 2, 3)).astype(np.float32)
    b = rng.uniform(-1, 1, size=3).astype(np.float32)
    outside = k * conv2d(FeatureMap(data), bank(w, b)).data + h
    inside = conv2d(FeatureMap(data),
                    bank(np.float32(k) * w, np.float32(k) * b + np.float32(h)))
    np.testing.assert_allclose(inside.data, outside, atol=1e-5)


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

def test_batchnorm_identity_statistics(rng):
    z = FeatureMap(rng.uniform(-2, 2, size=(3, 3, 2)).astype(np.float32))
    params = BatchNormParams(mu=[0, 0], sigma2=[1, 1], gamma=[1, 1],
                             beta=[0, 0], epsilon=0.0)
    np.testing.assert_array_equal(batchnorm_forward(z, params).data, z.data)


def test_batchnorm_hand_example():
    # denominator sqrt(3.99 + 0.01) = 2, so 2*(3-1)/2 + 0.5 = 2.5
    z = FeatureMap(np.full((1, 1, 1), 3.0, dtype=np.float32))
    params = BatchNormParams(mu=[1.0], sigma2=[3.99], gamma=[2.0],
                             beta=[0.5], epsilon=0.01)
    assert batchnorm_forward(z, params).data[0, 0, 0] == pytest.approx(2.5, abs=1e-6)


def test_batchnorm_constant_input_equal_to_mean_gives_beta(rng):
    mu = rng.uniform(-1, 1, size=3)
    z = FeatureMap(np.broadcast_to(mu.astype(np.float32), (4, 5, 3)).copy())
    params = BatchNormParams(mu=mu, sigma2=rng.uniform(0.1, 4, 3),
                             gamma=rng.uniform(0.5, 1.5, 3), beta=[0.3, -0.7, 2.0])
    out = batchnorm_forward(z, params)
    np.testing.assert_allclose(out.data, np.broadcast_to(
        np.array([0.3, -0.7, 2.0], dtype=np.float32), (4, 5, 3)), atol=1e-6)


def test_batchnorm_matches_affine_form(rng):
    z = FeatureMap(rng.uniform(-3, 3, size=(5, 5, 4)).astype(np.float32))
    params = BatchNormParams(mu=rng.uniform(-1, 1, 4), sigma2=rng.uniform(0.1, 4, 4),
                             gamma=rng.uniform(0.5, 1.5, 4), beta=rng.uniform(-1, 1, 4))
    scale = params.gamma / np.sqrt(params.sigma2.astype(np.float64) + params.epsilon)
    shift = params.beta - scale * params.mu
    np.testing.assert_allclose(batchnorm_forward(z, params).data,
                               scale * z.data + shift, atol=1e-6)


def test_batchnorm_length_mismatch_raises(rng):
    z = FeatureMap(rng.random((2, 2, 3)).astype(np.float32))
    params = BatchNormParams(mu=[0, 0], sigma2=[1, 1], gamma=[1, 1], beta=[0, 0])
    with pytest.raises(ShapeError):
        batchnorm_forward(z, params)


def test_batchnorm_rejects_negative_variance():
    with pytest.raises(ValueError):
        BatchNormParams(mu=[0], sigma2=[-0.5], gamma=[1], beta=[0])


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_leaky_relu_branches():
    z = FeatureMap(np.array([[[5.0, -16.0, -3.0]]], dtype=np.float32))
    out = leaky_relu(z, 0.0625)
    assert out.data[0, 0, 0] == 5.0
    assert out.data[0, 0, 1] == -1.0  # -16 * 2^-4
    out0 = leaky_relu(z, 0.0)  # plain ReLU
    assert out0.data[0, 0, 2] == 0.0
    with pytest.raises(ValueError):
        leaky_relu(z, -0.1)


# ---------------------------------------------------------------------------
# maxpool / upsample / concat
# ---------------------------------------------------------------------------

def test_maxpool_two_by_two():
    fm = FeatureMap(np.array([[[1.0], [2.0]], [[3.0], [4.0]]], dtype=np.float32))
    out = maxpool(fm, size=2, stride=2)
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 4.0


def test_maxpool_constant_input_unchanged():
    fm = FeatureMap(np.full((4, 4, 2), 1.5, dtype=np.float32))
    out = maxpool(fm, size=2, stride=2)
    np.testing.assert_array_equal(out.data, np.full((2, 2, 2), 1.5, dtype=np.float32))


def test_maxpool_stride1_edge_padding_never_selected():
    fm = FeatureMap(np.array([[[7.0]]], dtype=np.float32))
    out = maxpool(fm, size=2, stride=1)
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 7.0
    # negative values must also survive the sentinel padding
    fm2 = FeatureMap(np.full((3, 3, 1), -5.0, dtype=np.float32))
    out2 = maxpool(fm2, size=2, stride=1)
    assert out2.shape == (3, 3, 1)
    np.testing.assert_array_equal(out2.data, np.full((3, 3, 1), -5.0, dtype=np.float32))


def test_maxpool_size1_stride1_idempotent(rng):
    fm = FeatureMap(rng.uniform(-1, 1, size=(5, 4, 3)).astype(np.float32))
    once = maxpool(fm, 1, 1)
    twice = maxpool(once, 1, 1)
    np.testing.assert_array_equal(once.data, fm.data)
    np.testing.assert_array_equal(twice.data, fm.data)


def test_maxpool_int_matches_float_semantics(rng):
    vals = rng.integers(-1000, 1000, size=(5, 5, 2))
    got = maxpool_int(IntFeatureMap(vals, 16), 2, 2)
    want = maxpool(FeatureMap(vals.astype(np.float32)), 2, 2)
    np.testing.assert_array_equal(got.data.astype(np.float32), want.data)


def test_upsample_factor_one_is_identity(rng):
    fm = FeatureMap(rng.random((3, 4, 2)).astype(np.float32))
    np.testing.assert_array_equal(upsample_nearest(fm, 1).data, fm.data)


def test_upsample_replicates_pixels():
    fm = FeatureMap(np.array([[[5.0]]], dtype=np.float32))
    out = upsample_nearest(fm, 2)
    np.testing.assert_array_equal(out.data, np.full((2, 2, 1), 5.0, dtype=np.float32))

    col = FeatureMap(np.array([[[1.0]], [[2.0]]], dtype=np.float32))  # 2x1x1
    out2 = upsample_nearest(col, 2)
    assert out2.shape == (4, 2, 1)
    np.testing.assert_array_equal(
        out2.data[:, :, 0],
        np.array([[1, 1], [1, 1], [2, 2], [2, 2]], dtype=np.float32))


def test_concat_with_empty_map_is_identity(rng):
    x = FeatureMap(rng.random((3, 3, 2)).astype(np.float32))
    empty = FeatureMap(np.zeros((3, 3, 0), dtype=np.float32))
    np.testing.assert_array_equal(concat(x, empty).data, x.data)


def test_concat_orders_a_channels_first():
    a = FeatureMap(np.array([[[1.0]]], dtype=np.float32))
    b = FeatureMap(np.array([[[2.0, 3.0]]], dtype=np.float32))
    out = concat(a, b)
    np.testing.assert_array_equal(out.data[0, 0], [1.0, 2.0, 3.0])


@given(ca=st.integers(min_value=0, max_value=5), cb=st.integers(min_value=0, max_value=5),
       h=st.integers(min_value=1, max_value=4), w=st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_concat_channel_additivity(ca, cb, h, w):
    a = FeatureMap(np.zeros((h, w, ca), dtype=np.float32))
    b = FeatureMap(np.ones((h, w, cb), dtype=np.float32))
    assert concat(a, b).channels == ca + cb


def test_concat_spatial_mismatch_raises():
    a = FeatureMap(np.zeros((2, 2, 1), dtype=np.float32))
    b = FeatureMap(np.zeros((3, 2, 1), dtype=np.float32))
    with pytest.raises(ShapeError):
        concat(a, b)


def test_int_op_names_are_the_generic_ops():
    assert maxpool_int is maxpool
    assert upsample_nearest_int is upsample_nearest
    assert concat_int is concat


@pytest.mark.parametrize("width", [16, 32])
def test_map_ops_keep_the_integer_map_type(rng, width):
    fm = IntFeatureMap(rng.integers(-1000, 1000, size=(4, 4, 2)), width)
    results = [maxpool(fm, 2, 2), upsample_nearest(fm, 2), concat(fm, fm),
               *split_batch(fm, 2)]
    for out in results:
        assert isinstance(out, IntFeatureMap) and out.width_bits == width
    assert [out.shape for out in results] == [(2, 2, 2), (8, 8, 2), (4, 4, 4),
                                              (2, 4, 2), (2, 4, 2)]


def test_concat_rejects_operands_of_different_dtypes():
    f = FeatureMap(np.zeros((2, 2, 1), dtype=np.float32))
    i16 = IntFeatureMap(np.zeros((2, 2, 1), dtype=np.int16), 16)
    i32 = IntFeatureMap(np.zeros((2, 2, 1), dtype=np.int32), 32)
    for a, b in ((f, i16), (i16, f), (i16, i32), (i32, i16)):
        with pytest.raises(ValueError, match="dtype mismatch"):
            concat(a, b)


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

def test_feature_map_validation():
    with pytest.raises(ShapeError):
        FeatureMap(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        FeatureMap(np.array([[[np.nan]]], dtype=np.float32))
    zero_ch = FeatureMap(np.zeros((2, 2, 0), dtype=np.float32))
    assert zero_ch.channels == 0
    fm = FeatureMap(np.zeros((1, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError):
        fm.data[0, 0, 0] = 1.0  # frozen


def test_int_feature_map_range_checks():
    IntFeatureMap(np.array([[[32767, -32768]]]), 16)
    with pytest.raises(ValueError):
        IntFeatureMap(np.array([[[32768]]]), 16)
    IntFeatureMap(np.array([[[2**31 - 1]]]), 32)
    with pytest.raises(ValueError):
        IntFeatureMap(np.array([[[1.5]]]).astype(np.float64), 16)
    with pytest.raises(ValueError):
        IntFeatureMap(np.array([[[1]]]), 8)


def test_filter_bank_validation():
    with pytest.raises(ShapeError):
        FilterBank(np.zeros((3, 3, 2), dtype=np.float32), np.zeros(2, dtype=np.float32))
    with pytest.raises(ShapeError):
        FilterBank(np.zeros((3, 3, 2, 4), dtype=np.float32), np.zeros(3, dtype=np.float32))
    fb = FilterBank(np.zeros((3, 3, 2, 4), dtype=np.float32), np.zeros(4, dtype=np.float32))
    assert (fb.kernel_h, fb.kernel_w, fb.in_channels, fb.num_filters) == (3, 3, 2, 4)


# ---------------------------------------------------------------------------
# tensor container round-trip
# ---------------------------------------------------------------------------

def test_tensor_container_roundtrip_float(tmp_path, rng):
    fm = FeatureMap(rng.uniform(-1, 1, size=(4, 5, 3)).astype(np.float32))
    path = tmp_path / "x.tnsr"
    save_tensor(path, fm)
    back = load_tensor(path)
    assert isinstance(back, FeatureMap)
    np.testing.assert_array_equal(back.data, fm.data)


def test_tensor_container_roundtrip_int(tmp_path, rng):
    for bits in (16, 32):
        fm = IntFeatureMap(rng.integers(-30000, 30000, size=(3, 3, 2)), bits)
        path = tmp_path / f"x{bits}.tnsr"
        save_tensor(path, fm)
        back = load_tensor(path)
        assert isinstance(back, IntFeatureMap) and back.width_bits == bits
        np.testing.assert_array_equal(back.data, fm.data)


def test_tensor_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ModelFormatError):
        load_tensor(path)


def test_tensor_container_rejects_truncated_payload(tmp_path, rng):
    fm = FeatureMap(rng.random((4, 4, 2)).astype(np.float32))
    path = tmp_path / "t.tnsr"
    save_tensor(path, fm)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ModelFormatError):
        load_tensor(path)


@pytest.mark.parametrize("extra", [-8, -1, 1, 8])
def test_tensor_container_names_payload_size(tmp_path, rng, extra):
    # a cut payload and trailing bytes both report the byte counts
    path = tmp_path / "t.tnsr"
    save_tensor(path, FeatureMap(rng.random((4, 4, 2)).astype(np.float32)))
    raw = path.read_bytes()
    path.write_bytes(raw[:extra] if extra < 0 else raw + b"\x00" * extra)
    with pytest.raises(ModelFormatError, match=f"payload is {128 + extra} bytes, expected 128"):
        load_tensor(path)


def test_load_tensor_holds_its_payload_once(tmp_path, rng):
    fm = FeatureMap(rng.random((416, 416, 3)).astype(np.float32))
    path = tmp_path / "image.tnsr"
    save_tensor(path, fm)
    tracemalloc.start()
    try:
        back = load_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.data.tobytes() == fm.data.tobytes()
    assert peak < 1.5 * fm.data.nbytes


@pytest.mark.parametrize("fm", [FeatureMap(np.zeros((4, 4, 0), np.float32)),
                                IntFeatureMap(np.zeros((4, 4, 0), np.int16), 16)],
                         ids=["float", "int16"])
def test_zero_channel_map_roundtrips(tmp_path, fm):
    save_tensor(tmp_path / "t.tnsr", fm)
    back = load_tensor(tmp_path / "t.tnsr")
    assert type(back) is type(fm)
    assert back.shape == (4, 4, 0) and back.data.dtype == fm.data.dtype
