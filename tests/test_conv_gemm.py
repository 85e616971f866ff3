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
from cnnadapt import tensor
from cnnadapt.evaluation import ordered_map
from cnnadapt.fusion import fuse_model
from cnnadapt.model import (
    ConvParams,
    LayerSpec,
    Model,
    execute,
    float_infer,
    randomize_weights,
    replace_layer,
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
    got, n_acc, n16 = int_conv_forward(IntFeatureMap(x, 16), w, b, stride, padding,
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
    got, n_acc, n16 = int_conv_forward(IntFeatureMap(x, 16), w, b, 1, "same", QuantConfig())
    np.testing.assert_array_equal(got.data, want)
    assert (n_acc, n16) == (want_acc, want_16)
    assert n_acc == 0 and n16 > 0


def test_int_conv_rejects_depth_beyond_exact_float64_range():
    c_in = MAX_EXACT_INT_DEPTH // 9 + 1  # 3*3*c_in > 2^23
    x = IntFeatureMap(np.zeros((1, 1, c_in), dtype=np.int16), 16)
    w = np.zeros((3, 3, c_in, 1), dtype=np.int16)
    with pytest.raises(ValueError, match="exceeds"):
        int_conv_forward(x, w, np.zeros(1, dtype=np.int16), 1, "same", QuantConfig())


@pytest.mark.parametrize("width_bits,w_dtype", [(32, np.int16), (16, np.int32)])
def test_int_conv_requires_int16_operands(width_bits, w_dtype):
    # the exactness bound assumes every product is at most 2^30 in magnitude
    x = IntFeatureMap(np.zeros((2, 2, 1), dtype=np.int64), width_bits)
    w = np.zeros((1, 1, 1, 1), dtype=w_dtype)
    with pytest.raises(ValueError, match="int16"):
        int_conv_forward(x, w, np.zeros(1, dtype=np.int16), 1, "same", QuantConfig())


# ---------------------------------------------------------------------------
# tile plan and the walk's scratch buffer
# ---------------------------------------------------------------------------

def _tiles(data, weights):
    """The (maps, rows, cols, filters) shape of every GEMM tile of a conv."""
    shapes = []

    def epilogue(acc, dst, f0, f1):
        shapes.append(acc.shape)
        np.copyto(dst, acc, casting="unsafe")

    conv_gemm(data, weights, 1, "same", 1, epilogue)
    return shapes


@pytest.mark.parametrize("nf,tiles", [
    # 64 filters fit half the budget: two pixel tiles, the weights cast once
    (64, [(1, 12, 13, 64), (1, 1, 13, 64)]),
    # 128 do not; the im2col of all 169 pixels fits with 56 filters beside it,
    # so one pixel tile instead of two tiles that each cast the weights
    (128, [(1, 13, 13, 56), (1, 13, 13, 56), (1, 13, 13, 16)]),
])
def test_deep_layer_bytes_do_not_depend_on_the_tiling(rng, monkeypatch, nf, tiles):
    # 13x13x512 input, K = 4608, as in TinyYOLOv3-416's conv_7
    fm = feature_map(rng, 13, 13, 512, lo=-2.0, hi=2.0)
    fb = _fan_in_bank(rng, 3, 512, nf)
    xi = IntFeatureMap(_extreme_int16(rng, (13, 13, 512), 0.1), 16)
    wi = _extreme_int16(rng, (3, 3, 512, nf), 0.1).astype(np.int16)
    bi = _extreme_int16(rng, nf, 0.1).astype(np.int16)

    def outputs():
        q, n_acc, n16 = int_conv_forward(xi, wi, bi, 1, "same", QuantConfig(p=14))
        return conv2d(fm, fb).data.tobytes(), q.data.tobytes(), n_acc, n16

    assert _tiles(fm.data, fb.weights) == tiles
    default = outputs()
    assert default[2] > 0 and default[3] > 0
    monkeypatch.setattr(tensor, "GEMM_SCRATCH_BYTES", 64 << 10)
    assert len(_tiles(fm.data, fb.weights)) > 1000
    assert outputs() == default


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


def test_a_walk_holds_its_scratch_only_while_it_runs():
    model = _small_yolo()
    image = feature_map(np.random.default_rng(9), 32, 32, 3, lo=0.0, hi=1.0)
    held = []

    def conv(layer, fm, batch):
        out = conv2d(fm, model.params[layer.id].filters, layer.stride, layer.padding,
                     batch=batch)
        held.append(tensor._SCRATCH.buf is not None)
        return out

    execute(model, [image], conv)
    assert held and all(held)
    assert tensor._SCRATCH.buf is None
    float_infer(model, image)
    assert tensor._SCRATCH.buf is None
    qmodel = quantize_model(model)
    int_infer(qmodel, quantize_input(image, qmodel.config))
    assert tensor._SCRATCH.buf is None

    def failing(layer, fm, batch):
        raise RuntimeError("conv failed")

    with pytest.raises(RuntimeError):
        execute(model, [image], failing)
    assert tensor._SCRATCH.buf is None


# ---------------------------------------------------------------------------
# BLAS thread count does not change any bit
# ---------------------------------------------------------------------------

_DIGEST_SCRIPT = """
import hashlib

import numpy as np
from cnnadapt.quantization import QuantConfig, int_conv_forward
from cnnadapt.tensor import FeatureMap, FilterBank, IntFeatureMap, conv2d

rng = np.random.default_rng(7)
x = rng.uniform(-2, 2, size=(26, 26, 256)).astype(np.float32)
w = rng.uniform(-0.04, 0.04, size=(3, 3, 256, 384)).astype(np.float32)
b = rng.uniform(-0.1, 0.1, size=384).astype(np.float32)
f = conv2d(FeatureMap(x), FilterBank(w, b)).data
xi = rng.integers(-2**15, 2**15, size=(26, 26, 256))
wi = rng.integers(-2**15, 2**15, size=(3, 3, 256, 384)).astype(np.int16)
bi = rng.integers(-2**15, 2**15, size=384).astype(np.int16)
q, n_acc, n16 = int_conv_forward(IntFeatureMap(xi, 16), wi, bi, 1, "same", QuantConfig())
print(hashlib.sha256(f.tobytes()).hexdigest())
print(hashlib.sha256(q.data.tobytes() + repr((n_acc, n16)).encode()).hexdigest())
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
    assert len(single.split()) == 2
    assert _digests(2) == single
