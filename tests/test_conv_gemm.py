"""The shared im2col + float64-GEMM convolution kernel at realistic sizes.

The other test modules use toy nets with K = kh*kw*c_in <= 36. Pruning
exactness and integer exactness only become fragile at TinyYOLOv3 depths
(K up to 9216), so these tests run there.
"""
import os
import subprocess
import sys

import numpy as np
import pytest

import cnnadapt
from cnnadapt import quantization, tensor
from cnnadapt.evaluation import ordered_map
from cnnadapt.fusion import fuse_model
from cnnadapt.model import (
    ConvParams,
    LayerSpec,
    Model,
    float_infer,
    randomize_weights,
    replace_layer,
    shape_infer,
)
from cnnadapt.pruning import PruneConfig, compute_metric_table, prune_below
from cnnadapt.quantization import (
    QuantConfig,
    int_conv_forward,
    int_infer,
    quantize_input,
    quantize_model,
)
from cnnadapt.tensor import (
    INT16_MAX,
    INT16_MIN,
    INT32_MAX,
    INT32_MIN,
    MAX_EXACT_INT_DEPTH,
    FeatureMap,
    FilterBank,
    IntFeatureMap,
    conv2d,
    conv_gemm,
)
from cnnadapt.tinyyolo import build_tinyyolov3
from util import conv_spec, feature_map


def _fan_in_bank(rng, kernel, c_in, nf) -> FilterBank:
    bound = np.sqrt(3.0 / (kernel * kernel * c_in))
    w = rng.uniform(-bound, bound, size=(kernel, kernel, c_in, nf)).astype(np.float32)
    return FilterBank(w, rng.uniform(-0.1, 0.1, size=nf).astype(np.float32))


# ---------------------------------------------------------------------------
# float: removing zero channels leaves outputs bit-identical at realistic K
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c_in,nf", [(512, 1024), (1024, 256)])  # K = 4608, 9216
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_removing_zero_weight_channels_is_bit_exact(rng, c_in, nf, frac):
    fm = feature_map(rng, 13, 13, c_in, lo=-2.0, hi=2.0)
    fb = _fan_in_bank(rng, 3, c_in, nf)
    dead = rng.permutation(c_in)[:int(frac * c_in)]
    w = np.array(fb.weights)
    w[:, :, dead, :] = 0.0
    live = np.setdiff1d(np.arange(c_in), dead)
    full = conv2d(fm, FilterBank(w, fb.biases)).data
    pruned = conv2d(FeatureMap(fm.data[:, :, live]),
                    FilterBank(w[:, :, live, :], fb.biases)).data
    assert np.array_equal(full, pruned)


@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_zero_filter_pruning_is_bit_exact_at_tinyyolo_depth(rng, frac):
    # conv_2 consumes K = 3*3*512 = 4608, as conv_7 of TinyYOLOv3-416 does;
    # conv_3's K = 3*3*1024 = 9216 is twice the deepest TinyYOLOv3 layer
    layers = (LayerSpec(id="input", kind="input", height=13, width=13, channels=64),
              conv_spec("conv_1", "input", 512, 1, act="leaky"),
              conv_spec("conv_2", "conv_1", 1024, 3, act="leaky"),
              conv_spec("conv_3", "conv_2", 256, 3))
    params = {}
    for lid, kernel, c_in, nf in (("conv_1", 1, 64, 512), ("conv_2", 3, 512, 1024),
                                  ("conv_3", 3, 1024, 256)):
        fb = _fan_in_bank(rng, kernel, c_in, nf)
        w, b = np.array(fb.weights), np.array(fb.biases)
        if lid != "conv_3":
            dead = rng.permutation(nf)[:int(frac * nf)]
            w[:, :, :, dead] = 0.0
            b[dead] = 0.0
        params[lid] = ConvParams(FilterBank(w, b), None)
    model = Model(layers, params)
    config = PruneConfig(no_prune=frozenset({"conv_3"}))
    pruned, removed = prune_below(model, compute_metric_table(model, config),
                                  config.delta_t, config)
    assert len(removed["conv_2"]) == int(frac * 1024)
    fm = feature_map(rng, 13, 13, 64, lo=-2.0, hi=2.0)
    a = float_infer(model, fm)["conv_3"].data
    b = float_infer(pruned, fm)["conv_3"].data
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# int: the GEMM kernel against the 64-bit tap-loop oracle
# ---------------------------------------------------------------------------

def _int_conv_oracle(x, weights, biases, stride, padding, p):
    """Tap-by-tap int64 accumulation with the engine's saturation rules."""
    kh, kw, c_in, nf = weights.shape
    in_h, in_w = x.shape[:2]
    if padding == "same":
        out_h, out_w = -(-in_h // stride), -(-in_w // stride)
        pad_h = max((out_h - 1) * stride + kh - in_h, 0)
        pad_w = max((out_w - 1) * stride + kw - in_w, 0)
        padded = np.zeros((in_h + pad_h, in_w + pad_w, c_in), dtype=np.int64)
        padded[pad_h // 2:pad_h // 2 + in_h, pad_w // 2:pad_w // 2 + in_w] = x
    else:
        out_h, out_w = (in_h - kh) // stride + 1, (in_w - kw) // stride + 1
        padded = x.astype(np.int64)
    w64 = weights.astype(np.int64)
    acc = np.zeros((out_h, out_w, nf), dtype=np.int64)
    for c in range(c_in):
        for r in range(kh):
            for s in range(kw):
                patch = padded[r:r + out_h * stride:stride, s:s + out_w * stride:stride, c]
                acc += patch[:, :, None] * w64[r, s, c, :]
    sat32 = np.clip(acc, INT32_MIN, INT32_MAX)
    n_acc = int(np.count_nonzero(sat32 != acc))
    shifted = sat32 >> p
    narrowed = np.clip(shifted, INT16_MIN, INT16_MAX)
    n16 = int(np.count_nonzero(narrowed != shifted))
    summed = narrowed + biases.astype(np.int64)
    out = np.clip(summed, INT16_MIN, INT16_MAX)
    n16 += int(np.count_nonzero(out != summed))
    return out, n_acc, n16


def _extreme_int16(rng, size, mix):
    """int16 values where a fraction ``mix`` sits at -32768 or 32767."""
    values = rng.integers(INT16_MIN, INT16_MAX + 1, size=size)
    extreme = rng.random(size) < mix
    values[extreme] = rng.choice([INT16_MIN, INT16_MAX], size=int(extreme.sum()))
    return values


@pytest.mark.parametrize("stride,padding,hw", [(1, "same", 5), (2, "same", 6),
                                               (2, "valid", 7)])
@pytest.mark.parametrize("p", [0, 8, 14])
def test_int_conv_matches_int64_oracle_at_worst_case_magnitudes(rng, stride, padding, hw, p):
    x = _extreme_int16(rng, (hw, hw, 512), 0.5)
    w = _extreme_int16(rng, (3, 3, 512, 6), 0.5).astype(np.int16)  # K = 4608
    b = _extreme_int16(rng, 6, 0.5).astype(np.int16)
    # all-extreme, same-sign operands drive the sums to about +-K * 2^30
    x[0, 0, :] = INT16_MIN
    w[:, :, :, 0] = INT16_MIN
    w[:, :, :, 1] = INT16_MAX
    want, want_acc, want_16 = _int_conv_oracle(x, w, b, stride, padding, p)
    got, n_acc, n16 = int_conv_forward(IntFeatureMap(x), w, b, stride, padding,
                                       QuantConfig(p=p))
    np.testing.assert_array_equal(got.data, want)
    assert (n_acc, n16) == (want_acc, want_16)
    assert n_acc > 0


def test_int_conv_matches_int64_oracle_below_acc32_saturation(rng):
    # moderate magnitudes: no acc32 clipping, but the shifted sums and the
    # bias add still overflow int16
    x = rng.integers(-4096, 4097, size=(6, 6, 512))
    w = rng.integers(-512, 513, size=(3, 3, 512, 8)).astype(np.int16)
    b = _extreme_int16(rng, 8, 0.5).astype(np.int16)
    want, want_acc, want_16 = _int_conv_oracle(x, w, b, 1, "same", 8)
    got, n_acc, n16 = int_conv_forward(IntFeatureMap(x), w, b, 1, "same", QuantConfig())
    np.testing.assert_array_equal(got.data, want)
    assert (n_acc, n16) == (want_acc, want_16)
    assert n_acc == 0 and n16 > 0


def test_int_conv_rejects_depth_beyond_exact_float64_range():
    c_in = MAX_EXACT_INT_DEPTH // 9 + 1  # 3*3*c_in > 2^23
    x = IntFeatureMap(np.zeros((1, 1, c_in), dtype=np.int16))
    w = np.zeros((3, 3, c_in, 1), dtype=np.int16)
    with pytest.raises(ValueError, match="exceeds"):
        int_conv_forward(x, w, np.zeros(1, dtype=np.int16), 1, "same", QuantConfig())


@pytest.mark.parametrize("width_bits,w_dtype", [(16, np.int32)])
def test_int_conv_requires_int16_operands(width_bits, w_dtype):
    # the exactness bound assumes every product is at most 2^30 in magnitude
    x = IntFeatureMap(np.zeros((2, 2, 1), dtype=np.dtype(f"int{width_bits}")))
    w = np.zeros((1, 1, 1, 1), dtype=w_dtype)
    with pytest.raises(ValueError, match="int16"):
        int_conv_forward(x, w, np.zeros(1, dtype=np.int16), 1, "same", QuantConfig())


def _unused_epilogue(acc, dst):
    raise AssertionError("a refused conv runs no epilogue")


def test_conv_gemm_refuses_an_int32_map():
    x = np.zeros((2, 2, 1), dtype=np.int32)
    w = np.zeros((1, 1, 1, 1), dtype=np.int16)
    with pytest.raises(ValueError, match="int16"):
        conv_gemm(x, w, 1, "same", 1, _unused_epilogue)


def test_conv_gemm_refuses_integer_depth_beyond_exact_float64_range():
    c_in = MAX_EXACT_INT_DEPTH // 9 + 1  # 3*3*c_in > 2^23
    x = np.zeros((1, 1, c_in), dtype=np.int16)
    w = np.zeros((3, 3, c_in, 1), dtype=np.int16)
    with pytest.raises(ValueError, match="exceeds"):
        conv_gemm(x, w, 1, "same", 1, _unused_epilogue)


# ---------------------------------------------------------------------------
# tile plan and the GEMM scratch
# ---------------------------------------------------------------------------

def _gemm_tiles(fm, weights, stride=1, padding="same"):
    """The (maps, rows, cols, filters) shape of every GEMM tile of a conv of a
    float or int map."""
    shapes = []
    conv_gemm(fm.data, weights, stride, padding, 1, lambda acc, dst: shapes.append(acc.shape))
    return shapes


def _gemm_dtypes(fm, weights, stride=1, padding="same"):
    """The dtypes of the GEMM sums of a conv of a float or int map."""
    dtypes = set()
    conv_gemm(fm.data, weights, stride, padding, 1, lambda acc, dst: dtypes.add(acc.dtype.type))
    return dtypes


def _conv_sizes(hw):
    """(layer id, out_h, out_w, kh, kw, c_in, nf) of each conv of TinyYOLOv3
    at an hw x hw input."""
    yolo = replace_layer(build_tinyyolov3(num_classes=80), "input", height=hw, width=hw)
    shapes = shape_infer(yolo)
    return [(layer.id, *shapes[layer.id][:2], layer.kernel_h, layer.kernel_w,
             shapes[layer.inputs[0]][2], layer.num_filters) for layer in yolo.conv_layers()]


# TinyYOLOv3-416's plan, which both engines share: the output tile and the
# run of K rows per GEMM. A run below K is one kernel row (conv_6, conv_9)
# or one kernel position (conv_7, conv_12) of all filters.
_TINYYOLO416_PLANS = {
    "conv_1": ((1, 58, 416), 27), "conv_2": ((1, 28, 208), 144),
    "conv_3": ((1, 28, 104), 288), "conv_4": ((1, 26, 52), 576),
    "conv_5": ((1, 20, 26), 1152), "conv_6": ((1, 13, 13), 768),
    "conv_7": ((1, 13, 13), 512), "conv_8": ((1, 13, 13), 1024),
    "conv_9": ((1, 13, 13), 768), "conv_10": ((1, 13, 13), 512),
    "conv_11": ((1, 13, 13), 256), "conv_12": ((1, 26, 26), 384),
    "conv_13": ((1, 26, 26), 256),
}
# at 96x96 all of K would fit beside the few pixels of conv_6, conv_9 and
# conv_12, but a run's weights stay within half the budget: one kernel row
_TINYYOLO96_PLANS = {
    1: {"conv_6": ((1, 3, 3), 768), "conv_9": ((1, 3, 3), 768),
        "conv_12": ((1, 6, 6), 1152)},
    4: {"conv_6": ((4, 3, 3), 768), "conv_9": ((4, 3, 3), 768),
        "conv_12": ((4, 6, 6), 1152)},
}


def test_tinyyolo_conv_plans():
    sizes = {hw: {lid: dims for lid, *dims in _conv_sizes(hw)} for hw in (416, 96)}
    assert set(_TINYYOLO416_PLANS) == set(sizes[416])
    plans = [(416, 1, _TINYYOLO416_PLANS)] + [(96, n, want)
                                              for n, want in _TINYYOLO96_PLANS.items()]
    for hw, n, want in plans:
        assert {lid: tensor.conv_plan(n, *sizes[hw][lid]) for lid in want} == want
        for lid, (tile, run) in want.items():
            nf = sizes[hw][lid][-1]
            assert run * nf <= tensor.GEMM_SCRATCH_BYTES // 16


@pytest.mark.parametrize("nf,tiles", [
    # 64 filters fit half the budget: two pixel tiles, the weights cast once
    (64, [(1, 12, 13, 64), (1, 1, 13, 64)]),
    # 128 do not; all 169 pixels and all filters in one tile, the depth in
    # runs of kernel positions, so each weight is cast once
    (128, [(1, 13, 13, 128)]),
])
def test_deep_layer_bytes_do_not_depend_on_the_tiling(rng, monkeypatch, nf, tiles):
    # 13x13x512 input, K = 4608, as in TinyYOLOv3-416's conv_7
    fm = feature_map(rng, 13, 13, 512, lo=-2.0, hi=2.0)
    fb = _fan_in_bank(rng, 3, 512, nf)
    xi = IntFeatureMap(_extreme_int16(rng, (13, 13, 512), 0.1))
    wi = _extreme_int16(rng, (3, 3, 512, nf), 0.1).astype(np.int16)
    bi = _extreme_int16(rng, nf, 0.1).astype(np.int16)

    def outputs():
        q, n_acc, n16 = int_conv_forward(xi, wi, bi, 1, "same", QuantConfig(p=14))
        return conv2d(fm, fb).data.tobytes(), q.data.tobytes(), n_acc, n16

    assert _gemm_tiles(fm, fb.weights) == tiles
    default = outputs()
    assert default[2] > 0 and default[3] > 0
    monkeypatch.setattr(tensor, "GEMM_SCRATCH_BYTES", 64 << 10)
    # one kernel position of all filters overflows half the budget: tiles of
    # one output row sized beside a run of half the budget's weight rows,
    # the depth in runs of channels
    assert _gemm_tiles(fm, fb.weights) == [(1, 1, 13, nf)] * 13
    assert outputs() == default


def test_one_pixel_tiles_give_the_bytes_of_one_tile(rng, monkeypatch):
    # a 4 KiB budget holds one pixel beside a run of 4 of the 144 weight rows
    fm = feature_map(rng, 6, 6, 16, lo=-2.0, hi=2.0)
    fb = _fan_in_bank(rng, 3, 16, 64)
    bi = _extreme_int16(rng, 64, 0.1).astype(np.int16)
    wide = (IntFeatureMap(_extreme_int16(rng, (6, 6, 16), 0.1)),
            _extreme_int16(rng, (3, 3, 16, 64), 0.1).astype(np.int16))
    narrow = (IntFeatureMap(rng.integers(-64, 65, size=(6, 6, 16))),
              rng.integers(-64, 65, size=(3, 3, 16, 64)).astype(np.int16))
    assert [_gemm_dtypes(*operands) for operands in (wide, narrow)] == [{np.float64},
                                                                         {np.float32}]

    def outputs():
        ints = [int_conv_forward(x, w, bi, 1, "same", QuantConfig(p=4)) for x, w in (wide, narrow)]
        return conv2d(fm, fb).data.tobytes(), [(q.data.tobytes(), a, b) for q, a, b in ints]

    assert _gemm_tiles(fm, fb.weights) == [(1, 6, 6, 64)]
    default = outputs()
    monkeypatch.setattr(tensor, "GEMM_SCRATCH_BYTES", 4 << 10)
    assert _gemm_tiles(fm, fb.weights) == [(1, 1, 1, 64)] * 36
    assert outputs() == default


# the weights of these layers fill more than half the scratch budget, so the
# plan keeps all filters in every tile and splits the depth into runs
_DEEP_LAYERS = pytest.mark.parametrize("hw,c_in,nf", [
    (13, 512, 128),    # K = 4608, as conv_7
    (26, 384, 160),    # K = 3456, as conv_12
    (5, 1024, 1024),   # K = 9216; one kernel position takes the whole budget: channel runs
])
_STRIDES = pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"),
                                                      (2, "valid")])


@_DEEP_LAYERS
@_STRIDES
@pytest.mark.parametrize("p", [8, 14])
def test_depth_split_int_conv_matches_the_unsplit_plan(rng, monkeypatch, hw, c_in, nf,
                                                       stride, padding, p):
    xi = IntFeatureMap(_extreme_int16(rng, (hw, hw, c_in), 0.1))
    wi = _extreme_int16(rng, (3, 3, c_in, nf), 0.1).astype(np.int16)
    bi = _extreme_int16(rng, nf, 0.1).astype(np.int16)

    def outputs():
        q, n_acc, n16 = int_conv_forward(xi, wi, bi, stride, padding, QuantConfig(p=p))
        return q.data.tobytes(), n_acc, n16

    assert 3 * 3 * c_in * nf * 8 > tensor.GEMM_SCRATCH_BYTES // 2
    assert {shape[3] for shape in _gemm_tiles(xi, wi, stride, padding)} == {nf}
    split = outputs()
    assert split[2] > 0
    monkeypatch.setattr(tensor, "GEMM_SCRATCH_BYTES", 1 << 30)
    assert len(_gemm_tiles(xi, wi, stride, padding)) == 1
    assert outputs() == split


@_DEEP_LAYERS
@_STRIDES
def test_depth_split_float_conv_matches_the_unsplit_plan(rng, monkeypatch, hw, c_in, nf,
                                                         stride, padding):
    # float depth groups sum in another order than one GEMM over all of K;
    # the bytes have matched in every case tested, which this pins
    fm = feature_map(rng, hw, hw, c_in, lo=-2.0, hi=2.0)
    fb = _fan_in_bank(rng, 3, c_in, nf)
    assert 3 * 3 * c_in * nf * 8 > tensor.GEMM_SCRATCH_BYTES // 2
    assert {shape[3] for shape in _gemm_tiles(fm, fb.weights, stride, padding)} == {nf}
    split = conv2d(fm, fb, stride, padding).data.tobytes()
    monkeypatch.setattr(tensor, "GEMM_SCRATCH_BYTES", 1 << 30)
    assert len(_gemm_tiles(fm, fb.weights, stride, padding)) == 1
    assert conv2d(fm, fb, stride, padding).data.tobytes() == split


def _small_yolo():
    yolo = replace_layer(build_tinyyolov3(num_classes=1), "input", height=32, width=32)
    return fuse_model(randomize_weights(yolo, np.random.default_rng(5), 0.1))


def _trace_bytes(trace):
    return {lid: fm.data.tobytes() for lid, fm in trace.items()}


def test_threaded_walks_give_the_bytes_of_serial_walks(monkeypatch):
    # each worker thread walks with its own scratch buffer; a short switch
    # interval interleaves the threads' convs as often as it can
    model = _small_yolo()
    rng = np.random.default_rng(8)
    images = [feature_map(rng, 32, 32, 3, lo=0.0, hi=1.0) for _ in range(4)]
    serial = [_trace_bytes(float_infer(model, im, taps=True)) for im in images]
    monkeypatch.setenv("CNNADAPT_THREADS", "2")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = ordered_map(lambda im: _trace_bytes(float_infer(model, im, taps=True)),
                               images)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_tinyyolo_walks_keep_the_scratch_within_its_budget(monkeypatch):
    model = fuse_model(randomize_weights(build_tinyyolov3(num_classes=80),
                                         np.random.default_rng(11), 0.1))
    qmodel = quantize_model(model)
    image = feature_map(np.random.default_rng(12), 416, 416, 3, lo=0.0, hi=1.0)
    sizes = []

    class RecordingNumpy:
        """numpy for the tensor module, recording the bytes of each flat
        np.empty: the scratch a conv_gemm call allocates."""

        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, dtype=float):
            if isinstance(shape, int):
                sizes.append(shape * np.dtype(dtype).itemsize)
            return np.empty(shape, dtype)

    monkeypatch.setattr(tensor, "np", RecordingNumpy())
    int_infer(qmodel, quantize_input(image, qmodel.config))
    assert len(sizes) == 13
    float_infer(model, image)
    assert len(sizes) == 26
    assert max(sizes) <= tensor.GEMM_SCRATCH_BYTES


# ---------------------------------------------------------------------------
# int: a float32 GEMM while K * max|x| * max|w| <= 2^24
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("max_w,dtype", [(4096, np.float32), (4097, np.float64)])
def test_int_gemm_takes_float32_up_to_the_exact_bound(sign, max_w, dtype):
    # K = 1 and max|x| = 4096: K * max|x| * max|w| is 2^24 at max|w| = 4096;
    # the largest magnitudes sit on opposite signs of x and w
    x = IntFeatureMap(sign * np.array([[[4096], [-7]], [[0], [12]]]))
    w = (-sign * np.array([max_w, 5])).reshape(1, 1, 1, 2).astype(np.int16)
    assert _gemm_dtypes(x, w) == {dtype}
    assert _gemm_dtypes(FeatureMap(x.data.astype(np.float32)), w.astype(np.float32)) == {
        np.float64}


def test_int_conv_just_past_the_bound_stays_exact():
    # 8401 * 1999 = 1025 * 2^14 - 1 lies in (2^24, 2^25], where float32 holds
    # only even integers: it would round the sum up to 1025 * 2^14
    x = IntFeatureMap(np.array([[[8401]]]))
    w = np.array([1999], dtype=np.int16).reshape(1, 1, 1, 1)
    out, _, _ = int_conv_forward(x, w, np.zeros(1, np.int16), 1, "same", QuantConfig(p=14))
    assert out.data.item() == 1024


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("p", [0, 8, 14])
@pytest.mark.parametrize("signs", ["same", "mixed"])
def test_float32_int_conv_matches_int64_oracle_at_the_bound(rng, padding, p, signs):
    # K = 2*2*64 = 256 and max|x| = max|w| = 256: K * max|x| * max|w| = 2^24
    if signs == "same":
        # every interior sum of filters 0 and 1 is +2^24 or -2^24
        x = np.full((7, 7, 64), -256)
        w = rng.integers(-256, 257, size=(2, 2, 64, 4)).astype(np.int16)
        w[..., 0], w[..., 1] = -256, 256
    else:
        x = _extreme_int16(rng, (7, 7, 64), 0.2) // 128
        w = (_extreme_int16(rng, (2, 2, 64, 4), 0.2) // 128).astype(np.int16)
        x[0, 0, 0], w[0, 0, 0, 0] = -256, -256
    b = _extreme_int16(rng, 4, 0.5).astype(np.int16)
    fm = IntFeatureMap(x)
    assert _gemm_dtypes(fm, w, 1, padding) == {np.float32}
    want, want_acc, want_16 = _int_conv_oracle(x, w, b, 1, padding, p)
    got, n_acc, n16 = int_conv_forward(fm, w, b, 1, padding, QuantConfig(p=p))
    np.testing.assert_array_equal(got.data, want)
    assert (n_acc, n16) == (want_acc, want_16) and n_acc == 0


def test_fan_in_tinyyolo_int_walk_takes_float32_on_every_layer(monkeypatch):
    # weights uniform in +-sqrt(3/K), as the benchmark's model has: at P = 8
    # every layer's K * max|x| * max|w| stays within 2^24; at P = 14 none does
    rng = np.random.default_rng(13)
    fused = fuse_model(randomize_weights(build_tinyyolov3(num_classes=80), rng, 0.1))
    params = {}
    for layer in fused.conv_layers():
        shape = fused.params[layer.id].filters.weights.shape
        bound = np.sqrt(3.0 / (shape[0] * shape[1] * shape[2]))
        w = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        params[layer.id] = ConvParams(FilterBank(w, np.zeros(shape[3], np.float32)), None)
    model = Model(fused.layers, params)
    image = feature_map(rng, 416, 416, 3, lo=0.0, hi=1.0)
    gemm, dtypes = quantization.conv_gemm, []

    def spy(data, weights, stride, padding, batch, epilogue, **kwargs):
        seen = set()
        dtypes.append(seen)

        def recording(acc, dst):
            seen.add(acc.dtype.type)
            epilogue(acc, dst)
        return gemm(data, weights, stride, padding, batch, recording, **kwargs)

    monkeypatch.setattr(quantization, "conv_gemm", spy)
    for p, dtype in ((8, np.float32), (14, np.float64)):
        qmodel = quantize_model(model, QuantConfig(p=p))
        dtypes.clear()
        int_infer(qmodel, quantize_input(image, qmodel.config))
        assert dtypes == [{dtype}] * 13


# ---------------------------------------------------------------------------
# BLAS thread count does not change any bit
# ---------------------------------------------------------------------------

_DIGEST_SCRIPT = """
import hashlib

import numpy as np
from cnnadapt.quantization import QuantConfig, int_conv_forward
from cnnadapt.tensor import FeatureMap, FilterBank, IntFeatureMap, _gemm_dtype, conv2d

rng = np.random.default_rng(7)
x = rng.uniform(-2, 2, size=(26, 26, 256)).astype(np.float32)
w = rng.uniform(-0.04, 0.04, size=(3, 3, 256, 384)).astype(np.float32)
b = rng.uniform(-0.1, 0.1, size=384).astype(np.float32)
f = conv2d(FeatureMap(x), FilterBank(w, b)).data
xi = rng.integers(-2**15, 2**15, size=(26, 26, 256))
wi = rng.integers(-2**15, 2**15, size=(3, 3, 256, 384)).astype(np.int16)
bi = rng.integers(-2**15, 2**15, size=384).astype(np.int16)
q, n_acc, n16 = int_conv_forward(IntFeatureMap(xi), wi, bi, 1, "same", QuantConfig())
# K * max|x| * max|w| = 2304 * 64 * 64 <= 2^24: a float32 GEMM (sgemm)
xs = IntFeatureMap(rng.integers(-64, 65, size=(26, 26, 256)))
ws = rng.integers(-64, 65, size=(3, 3, 256, 384)).astype(np.int16)
s, s_acc, s16 = int_conv_forward(xs, ws, bi, 1, "same", QuantConfig(p=4))
print(hashlib.sha256(f.tobytes()).hexdigest())
print(hashlib.sha256(q.data.tobytes() + repr((n_acc, n16)).encode()).hexdigest())
print(_gemm_dtype(xs.data, ws).name,
      hashlib.sha256(s.data.tobytes() + repr((s_acc, s16)).encode()).hexdigest())
"""


def _digests(blas_threads: int) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(cnnadapt.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_conv_outputs_do_not_depend_on_blas_thread_count():
    single = _digests(1)
    assert len(single.split()) == 4 and single.split()[2] == "float32"
    assert _digests(2) == single
