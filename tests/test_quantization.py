"""Power-of-two quantization: rounding, shifts, the integer engine, serialization."""
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnadapt.errors import ModelFormatError, PipelineError, ShapeError
from cnnadapt import quantization, tensor
from cnnadapt.model import (
    ConvParams,
    Model,
    execute,
    load_model,
    model_digest,
    record_chunks,
    save_model,
)
from cnnadapt.quantization import (
    MAX_SCALE_EXPONENT,
    QUANTIZE_CHUNK,
    OverflowStats,
    QuantConfig,
    QuantizedModel,
    dequantize,
    int_conv_forward,
    int_infer,
    load_quantized_model,
    quant_leaky_relu,
    quantize_input,
    quantize_model,
    quantize_tensor,
    quantize_value,
    rshift,
    save_quantized_model,
)
from cnnadapt.tensor import (
    DTYPE_INT16,
    INT16_MAX,
    INT16_MIN,
    FeatureMap,
    FilterBank,
)
from util import chain_model, feature_map


# ---------------------------------------------------------------------------
# rshift
# ---------------------------------------------------------------------------

def test_rshift_examples():
    assert rshift(32768, 8) == 128
    assert rshift(-16, 4) == -1
    assert rshift(-17, 4) == -2
    assert rshift(0, 14) == 0


def test_rshift_array_matches_scalar():
    xs = np.array([32768, -16, -17, 1, -1], dtype=np.int64)
    np.testing.assert_array_equal(rshift(xs, 4), [x >> 4 for x in xs])


def test_rshift_rejects_negative_shift():
    with pytest.raises(ValueError):
        rshift(4, -1)


@given(st.integers(INT16_MIN, INT16_MAX), st.integers(0, 14))
def test_rshift_is_floor_division(x, p):
    assert rshift(x, p) == x // 2 ** p


# ---------------------------------------------------------------------------
# quantize / dequantize
# ---------------------------------------------------------------------------

def test_quantize_value_examples():
    assert quantize_value(0.5, 8) == 128
    assert quantize_value(0.001953125, 8) == 1     # 0.5/256 rounds away from zero
    assert quantize_value(-0.001953125, 8) == -1
    assert quantize_value(200.0, 8) == INT16_MAX   # saturates
    assert quantize_value(-200.0, 8) == INT16_MIN
    assert quantize_value(0.0, 8) == 0


def test_quantize_tensor_counts_saturations():
    arr = np.array([0.5, 200.0, -0.25, -300.0])
    q, sat = quantize_tensor(arr, 8)
    assert q.dtype == np.int16
    np.testing.assert_array_equal(q, [128, INT16_MAX, -64, INT16_MIN])
    assert sat == 2


def _scalar_reference(values, p):
    """quantize_value per element, plus how many rounded values left int16."""
    flat = np.asarray(values).reshape(-1)
    expected = [quantize_value(v, p) for v in flat]
    saturated = 0
    for v in flat:
        scaled = float(v) * 2 ** p
        r = math.floor(scaled + 0.5) if scaled >= 0 else math.ceil(scaled - 0.5)
        saturated += not INT16_MIN <= r <= INT16_MAX
    return np.array(expected, dtype=np.int16).reshape(np.shape(values)), saturated


def _edge_values(p):
    step = 2.0 ** -p
    return [1e30, -1e30, 3e38, -3e38, 1e20, -1e20,
            0.5 * step, -0.5 * step, 1.5 * step, -1.5 * step, 2.5 * step, -2.5 * step,
            32767.5 * step, -32768.5 * step, 32767.49 * step, -32768.49 * step,
            -0.0, 0.0, 5e-324, -5e-324, 1e-45, -1e-45, 1e-310, -1e-310]


@pytest.mark.parametrize("p", range(MAX_SCALE_EXPONENT + 1))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_quantize_tensor_matches_quantize_value_on_edge_values(p, dtype):
    values = np.array(_edge_values(p), dtype=dtype)
    q, sat = quantize_tensor(values, p)
    expected, expected_sat = _scalar_reference(values, p)
    assert q.dtype == np.int16
    np.testing.assert_array_equal(q, expected)
    assert sat == expected_sat


def test_quantize_tensor_saturates_huge_values_on_their_own_side():
    # beyond 2^63 an int64 cast would wrap to INT64_MIN; the result must not
    q, sat = quantize_tensor(np.array([1e30, -1e30, 3e38]), 8)
    np.testing.assert_array_equal(q, [INT16_MAX, INT16_MIN, INT16_MAX])
    assert sat == 3
    assert quantize_value(1e30, 8) == INT16_MAX


@pytest.mark.parametrize("size", [1, QUANTIZE_CHUNK, QUANTIZE_CHUNK + 7])
def test_quantize_tensor_across_chunk_boundaries(rng, size):
    values = rng.uniform(-200, 200, size).astype(np.float32)
    for i, v in zip((0, QUANTIZE_CHUNK - 1, QUANTIZE_CHUNK, size - 1),
                    (1e30, -3e38, 0.5 / 256, -1e20)):
        if i < size:
            values[i] = v
    q, sat = quantize_tensor(values, 8)
    expected, expected_sat = _scalar_reference(values, 8)
    np.testing.assert_array_equal(q, expected)
    assert sat == expected_sat > 0


def test_quantize_tensor_on_strided_view(rng):
    base = rng.uniform(-200, 200, (QUANTIZE_CHUNK // 4 + 3, 6)).astype(np.float32)
    base[5, 0] = 1e30
    view = base.T[::2]
    assert not view.flags.c_contiguous
    q, sat = quantize_tensor(view, 8)
    expected, expected_sat = _scalar_reference(view, 8)
    assert q.shape == view.shape
    np.testing.assert_array_equal(q, expected)
    assert sat == expected_sat


def test_grid_values_roundtrip_exactly():
    k = np.arange(-256, 257)
    values = k / 256.0
    q, sat = quantize_tensor(values, 8)
    assert sat == 0
    np.testing.assert_array_equal(q, k)
    np.testing.assert_array_equal(dequantize(q, 8), values)


def test_quantization_error_bound_sample(rng):
    values = rng.uniform(-1, 1, size=5000)
    q, sat = quantize_tensor(values, 8)
    assert sat == 0
    assert np.max(np.abs(dequantize(q, 8) - values)) <= 1 / 512


@given(st.floats(-1.0, 1.0, allow_nan=False))
def test_quantize_value_error_bound(x):
    q = quantize_value(x, 8)
    assert abs(q / 256.0 - x) <= 1 / 512


def test_quant_config_validation():
    assert QuantConfig().scale == 256
    assert QuantConfig(p=4).scale == 16
    QuantConfig(p=MAX_SCALE_EXPONENT)
    with pytest.raises(ValueError):
        QuantConfig(p=MAX_SCALE_EXPONENT + 1)
    with pytest.raises(ValueError):
        QuantConfig(p=-1)


def test_mul_contract_on_grid():
    # X = x*S, Y = y*S on-grid; dequant(rshift(X*Y, P)) is within 1/S of x*y
    p, s = 8, 256
    k = np.arange(-s, s + 1, 3, dtype=np.int64)
    prod = k[:, None] * k[None, :]
    approx = dequantize(rshift(prod, p), p)
    exact = (k[:, None] / s) * (k[None, :] / s)
    assert np.max(np.abs(approx - exact)) <= 1 / s


# ---------------------------------------------------------------------------
# model quantization
# ---------------------------------------------------------------------------

def test_quantize_model_refuses_batchnorm(rng):
    model = chain_model(rng, [2], hw=4, bn=True)
    with pytest.raises(PipelineError, match="fuse first"):
        quantize_model(model)


def test_quantize_model_zero_stays_zero(rng):
    model = chain_model(rng, [3, 2], hw=4, scale=0.0)
    qmodel = quantize_model(model)
    for lid in ("conv_1", "conv_2"):
        assert not qmodel.qparams[lid].weights.any()
        assert not qmodel.qparams[lid].biases.any()
    assert qmodel.param_saturations == 0
    assert qmodel.source_digest == model_digest(model)


def test_quantize_model_keeps_leaky_exponent(rng):
    model = chain_model(rng, [2], hw=4, act="leaky", act_exponent=6)
    qmodel = quantize_model(model)
    assert qmodel.layers == model.layers
    assert qmodel.layer("conv_1").act_exponent == 6


def test_quantize_model_counts_parameter_saturations(rng):
    model = chain_model(rng, [2], hw=4, scale=500.0)
    qmodel = quantize_model(model)
    assert qmodel.param_saturations > 0


def test_quantize_model_digests_beside_quantizing_and_matches_a_serial_reference(rng):
    model = chain_model(rng, [3, 4, 2], hw=4, scale=200.0)  # 200 * 2^8 > INT16_MAX
    threads = threading.active_count()
    qmodel = quantize_model(model)
    assert threading.active_count() == threads
    assert qmodel.source_digest == model_digest(model)
    saturations = 0
    for lid, p in model.params.items():
        (wq, sw), (bq, sb) = (quantize_tensor(a, 8) for a in (p.filters.weights, p.filters.biases))
        np.testing.assert_array_equal(qmodel.qparams[lid].weights, wq)
        np.testing.assert_array_equal(qmodel.qparams[lid].biases, bq)
        saturations += sw + sb
    assert qmodel.param_saturations == saturations > 0


def test_quantize_model_raises_what_its_digest_raises(rng, monkeypatch):
    def failing_digest(model):
        raise RuntimeError("digest failed")

    monkeypatch.setattr(quantization, "model_digest", failing_digest)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="digest failed"):
        quantize_model(chain_model(rng, [2], hw=4))
    assert threading.active_count() == threads


def test_quantized_model_rejects_batchnorm_layers(rng):
    model = chain_model(rng, [2], hw=4, bn=True)
    with pytest.raises(PipelineError, match="batchnorm"):
        QuantizedModel(model.layers, {}, QuantConfig(), source_digest="")


@pytest.mark.parametrize("case, error", [
    ("missing", ModelFormatError), ("attached", ModelFormatError),
    ("in_channels", ShapeError), ("num_filters", ShapeError)])
def test_quantized_model_checks_its_graph_as_model_does(rng, case, error):
    # conv_1 holds (3, 3, 2, 3) weights, conv_2 (3, 3, 3, 4)
    model = chain_model(rng, [3, 4], hw=4)
    qmodel = quantize_model(model)

    def float_params(shape):
        return ConvParams(FilterBank(np.zeros(shape), np.zeros(shape[3])))

    def int_params(shape):
        return FilterBank(np.zeros(shape, np.int16), np.zeros(shape[3], np.int16))

    for params, make, build in (
            (dict(model.params), float_params, lambda p: Model(model.layers, p)),
            (dict(qmodel.qparams), int_params,
             lambda p: QuantizedModel(qmodel.layers, p, qmodel.config, source_digest=""))):
        if case == "missing":
            del params["conv_2"]
        elif case == "attached":
            params["input"] = params["conv_1"]
        elif case == "in_channels":
            params["conv_2"] = make((3, 3, 2, 4))
        else:
            params["conv_1"] = make((3, 3, 2, 5))
        with pytest.raises(error):
            build(params)


def test_an_int16_bank_stays_int16_and_other_inputs_become_float32():
    w = np.arange(-4, 4, dtype=np.int16).reshape(1, 1, 2, 4)
    b = np.array([1, -2, 3, -4], dtype=np.int16)
    fb = FilterBank(w, b)
    assert fb.weights.dtype == fb.biases.dtype == np.int16
    assert fb.weights.tobytes() == w.tobytes() and fb.biases.tobytes() == b.tobytes()
    for weights, biases in ((w.astype(np.int32), b), (w, b.astype(np.int32)),
                            (w, b.astype(np.float32))):
        cast = FilterBank(weights, biases)
        assert cast.weights.dtype == cast.biases.dtype == np.float32
        np.testing.assert_array_equal(cast.weights, w)
        np.testing.assert_array_equal(cast.biases, b)
    with pytest.raises(ShapeError, match="one entry per filter"):
        FilterBank(w, np.zeros(3, dtype=np.int16))


def test_each_model_refuses_a_bank_of_the_other_dtype(rng):
    model = chain_model(rng, [3, 2], hw=4)
    qmodel = quantize_model(model)
    with pytest.raises(ModelFormatError,
                       match="layer 'conv_2': filter bank holds int16, this model float32"):
        Model(model.layers, {**model.params, "conv_2": ConvParams(qmodel.qparams["conv_2"])})
    with pytest.raises(ModelFormatError,
                       match="layer 'conv_2': filter bank holds float32, this model int16"):
        QuantizedModel(qmodel.layers, {**qmodel.qparams, "conv_2": model.params["conv_2"].filters},
                       qmodel.config, source_digest="")


def test_quantize_input_examples():
    fm = FeatureMap(np.array([[[0.0, 1.0, 0.299]]], dtype=np.float32))
    q = quantize_input(fm)
    assert q.data.dtype == np.int16
    np.testing.assert_array_equal(q.data[0, 0], [0, 256, 77])


# ---------------------------------------------------------------------------
# integer kernels
# ---------------------------------------------------------------------------

def _one_cell(value):
    return FeatureMap(np.array([[[value]]], dtype=np.int64))


def test_int_conv_single_tap_example():
    # x=1.0 -> 256, w=0.5 -> 128, b=0.1 -> 26; acc 32768 >> 8 = 128; +26 = 154
    w = np.array([[[[128]]]], dtype=np.int16)
    b = np.array([26], dtype=np.int16)
    out, n_acc, n16 = int_conv_forward(_one_cell(256), w, b, 1, "same", QuantConfig())
    assert out.data[0, 0, 0] == 154          # float math gives 153.6
    assert n_acc == 0 and n16 == 0


def test_int_conv_zero_input_broadcasts_bias():
    w = np.zeros((1, 1, 2, 3), dtype=np.int16)
    b = np.array([5, -7, 0], dtype=np.int16)
    x = FeatureMap(np.zeros((2, 2, 2), dtype=np.int64))
    out, _, _ = int_conv_forward(x, w, b, 1, "same", QuantConfig())
    np.testing.assert_array_equal(out.data, np.broadcast_to([5, -7, 0], (2, 2, 3)))


def test_int_conv_identity_weight(rng):
    # w = 1.0 -> 256; (X * 256) >> 8 == X exactly
    w = np.array([[[[256]]]], dtype=np.int16)
    b = np.zeros(1, dtype=np.int16)
    x = FeatureMap(rng.integers(-256, 257, size=(3, 3, 1)))
    out, n_acc, n16 = int_conv_forward(x, w, b, 1, "same", QuantConfig())
    np.testing.assert_array_equal(out.data, x.data)
    assert n_acc == 0 and n16 == 0


def test_int_conv_counts_int16_saturation():
    w = np.array([[[[INT16_MAX]]]], dtype=np.int16)
    b = np.zeros(1, dtype=np.int16)
    out, n_acc, n16 = int_conv_forward(_one_cell(INT16_MAX), w, b, 1, "same", QuantConfig())
    assert out.data[0, 0, 0] == INT16_MAX
    assert n16 == 1


def test_int_conv_channel_mismatch():
    w = np.zeros((1, 1, 3, 1), dtype=np.int16)
    with pytest.raises(ShapeError, match="channels"):
        int_conv_forward(_one_cell(1), w, np.zeros(1, dtype=np.int16), 1, "same", QuantConfig())


def test_quant_leaky_examples():
    z = FeatureMap(np.array([[[100, -32, -17, 0]]], dtype=np.int64))
    out = quant_leaky_relu(z, 4)
    np.testing.assert_array_equal(out.data[0, 0], [100, -2, -2, 0])
    with pytest.raises(ValueError):
        quant_leaky_relu(z, -1)


def test_quant_leaky_zero_exponent_is_identity_on_negatives():
    z = FeatureMap(np.array([[[-5, 7]]], dtype=np.int64))
    np.testing.assert_array_equal(quant_leaky_relu(z, 0).data[0, 0], [-5, 7])


# ---------------------------------------------------------------------------
# integer engine
# ---------------------------------------------------------------------------

def test_int_infer_runs_and_is_deterministic(rng):
    model = chain_model(rng, [3, 2], hw=5, in_channels=2, scale=0.3)
    qmodel = quantize_model(model)
    x = quantize_input(feature_map(rng, 5, 5, 2))
    first, stats_a = int_infer(qmodel, x)
    second, stats_b = int_infer(qmodel, x)
    for lid in first:
        assert first[lid].data.tobytes() == second[lid].data.tobytes()
    assert stats_a.to_dict() == stats_b.to_dict()


def test_int_infer_validates_input(rng):
    model = chain_model(rng, [2], hw=4, in_channels=1)
    qmodel = quantize_model(model)
    wrong_shape = FeatureMap(np.zeros((3, 3, 1), dtype=np.int64))
    with pytest.raises(ShapeError, match="input shape"):
        int_infer(qmodel, wrong_shape)


def test_int_infer_taps_cover_every_layer(rng):
    model = chain_model(rng, [2, 2], hw=4, scale=0.3)
    qmodel = quantize_model(model)
    x = quantize_input(feature_map(rng, 4, 4, 2))
    trace, _ = int_infer(qmodel, x, taps=True)
    assert set(trace) == {"input", "conv_1", "conv_2"}
    outputs, _ = int_infer(qmodel, x)
    assert set(outputs) == {"conv_2"}


def test_int_infer_scans_each_layer_weights_once(rng, monkeypatch):
    # weights of 4 at P = 12 saturate, and make every layer sum in float64
    model = chain_model(rng, [4, 3], hw=5, in_channels=2, scale=4.0)
    qmodel = quantize_model(model, QuantConfig(p=12))
    x = quantize_input(feature_map(rng, 5, 5, 2, lo=-4, hi=4), qmodel.config)
    want_stats = OverflowStats()

    def scanning_conv(layer, fm, batch):
        qp = qmodel.qparams[layer.id]
        out, n_acc, n16 = int_conv_forward(
            fm, qp.weights, qp.biases, layer.stride, layer.padding, qmodel.config,
            p_alpha=layer.act_exponent if layer.activation == "leaky" else None)
        want_stats.record(layer.id, n_acc, n16)
        return out

    want = execute(qmodel, [x], scanning_conv, taps=True)
    assert want_stats.total > 0
    scanned, peak = [], tensor.peak_magnitude
    monkeypatch.setattr(tensor, "peak_magnitude", lambda a: scanned.append(a.ndim) or peak(a))
    for _ in range(2):
        got, stats = int_infer(qmodel, x, taps=True)
        assert {lid: m.data.tobytes() for lid, m in got.items()} == {
            lid: m.data.tobytes() for lid, m in want.items()}
        assert stats.to_dict() == want_stats.to_dict()
    # each conv of each walk scanned its map, then its weights, once
    assert scanned == [3, 4] * 4


def test_int_engine_tracks_float_engine(rng):
    # moderate weights, inputs in [0, 1]: integer outputs land within a few
    # quantization steps of the float engine
    model = chain_model(rng, [3, 2], hw=5, in_channels=2, scale=0.2)
    fm = feature_map(rng, 5, 5, 2)
    qmodel = quantize_model(model)
    float_out = __import__("cnnadapt").float_infer(model, fm)["conv_2"]
    int_out, stats = int_infer(qmodel, quantize_input(fm))
    approx = dequantize(int_out["conv_2"].data, 8)
    assert np.max(np.abs(approx - float_out.data)) < 0.05
    assert stats.total == 0


def test_overflow_stats_bookkeeping():
    stats = OverflowStats()
    stats.record("conv_1", 2, 3)
    stats.record("conv_1", 1, 0)
    stats.record("conv_2", 0, 4)
    assert stats.total == 10
    d = stats.to_dict()
    assert d["total"] == 10
    assert d["layers"]["conv_1"] == {"acc32_saturations": 3, "int16_saturations": 3}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_quantized_roundtrip_is_bit_exact(tmp_path, rng):
    model = chain_model(rng, [3, 2], hw=4, scale=0.4, act_exponent=3)
    qmodel = quantize_model(model, QuantConfig(p=7))
    path = tmp_path / "model.q.json"
    save_quantized_model(qmodel, path)
    again = load_quantized_model(path)
    assert again.config == QuantConfig(p=7)
    assert again.source_digest == qmodel.source_digest
    for lid in ("conv_1", "conv_2"):
        np.testing.assert_array_equal(again.qparams[lid].weights,
                                      qmodel.qparams[lid].weights)
        np.testing.assert_array_equal(again.qparams[lid].biases,
                                      qmodel.qparams[lid].biases)
        assert again.layer(lid).act_exponent == 3
    x = quantize_input(feature_map(rng, 4, 4, 2), again.config)
    a, _ = int_infer(qmodel, x)
    b, _ = int_infer(again, x)
    assert a["conv_2"].data.tobytes() == b["conv_2"].data.tobytes()


def test_quantized_loader_accepts_an_earlier_files_agreeing_p_alpha(tmp_path, rng):
    # files of earlier versions carry p_alpha; test_cli's table of malformed
    # quantized manifests holds those whose p_alpha disagrees with the layers
    qmodel = quantize_model(chain_model(rng, [3, 2], hw=4, act_exponent=3))
    path = tmp_path / "model.q.json"
    save_quantized_model(qmodel, path)
    manifest = json.loads(path.read_text())
    assert "p_alpha" not in manifest["quantization"]
    manifest["quantization"]["p_alpha"] = 3
    path.write_text(json.dumps(manifest))
    again = load_quantized_model(path)
    assert again.layers == qmodel.layers and again.config == qmodel.config
    for lid, qp in qmodel.qparams.items():
        np.testing.assert_array_equal(again.qparams[lid].weights, qp.weights)
        np.testing.assert_array_equal(again.qparams[lid].biases, qp.biases)


def test_float_loader_rejects_quantized_manifest(tmp_path, rng):
    model = chain_model(rng, [2], hw=4)
    path = tmp_path / "model.q.json"
    save_quantized_model(quantize_model(model), path)
    with pytest.raises(ModelFormatError, match="quantized"):
        load_model(path)


def test_quantized_loader_rejects_float_manifest(tmp_path, rng):
    model = chain_model(rng, [2], hw=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(ModelFormatError, match="not a quantized model"):
        load_quantized_model(path)


def test_quantized_loader_rejects_stray_records(tmp_path, rng):
    save_quantized_model(quantize_model(chain_model(rng, [3], hw=4)), tmp_path / "q.json")
    weights = tmp_path / "q.weights"
    # the ghost record's chunks, without the blob header
    ghost = list(record_chunks([("ghost.W", np.zeros((1, 1, 2, 3), np.int16))], DTYPE_INT16))
    weights.write_bytes(weights.read_bytes() + b"".join(bytes(c) for c in ghost[1:]))
    with pytest.raises(ModelFormatError, match="unknown layers.*ghost.W"):
        load_quantized_model(tmp_path / "q.json")
