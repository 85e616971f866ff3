"""FLOP/parameter accounting and float-vs-integer deviation reports."""
import json

import numpy as np
import pytest

from cnnadapt.analysis import (
    compare_traces,
    count_flops,
    count_params,
    flop_reduction_pct,
    reduction_pct,
    write_json_report,
)
from cnnadapt.errors import ShapeError
from cnnadapt.fusion import fuse_model
from cnnadapt.model import (
    ConvParams,
    LayerGraph,
    LayerSpec,
    Model,
    float_infer,
    randomize_weights,
)
from cnnadapt.pruning import PruneConfig, compute_metric_table, prune_below
from cnnadapt.quantization import int_infer, quantize_input, quantize_model
from cnnadapt.tensor import FeatureMap
from cnnadapt.tinyyolo import build_tinyyolov3
from util import bank, chain_model, conv_spec, feature_map

EXPECTED = json.loads(open("tests/fixtures/tinyyolov3_expected.json").read())


def _unit_conv_model(h=1, w=1, c_in=1, nf=1, kernel=1, has_bias=True,
                     has_batchnorm=False):
    layers = (
        LayerSpec(id="input", kind="input", height=h, width=w, channels=c_in),
        conv_spec("conv_1", "input", nf, kernel,
                  has_bias=has_bias, has_batchnorm=has_batchnorm),
    )
    from util import random_bn
    weights = np.zeros((kernel, kernel, c_in, nf), dtype=np.float32)
    bn = random_bn(np.random.default_rng(0), nf) if has_batchnorm else None
    params = {"conv_1": ConvParams(bank(weights), bn)}
    return Model(layers, params)


# ---------------------------------------------------------------------------
# FLOPs
# ---------------------------------------------------------------------------

def test_smallest_conv_costs_two_flops():
    report = count_flops(_unit_conv_model())
    assert report.layers[0].conv_flops == 2  # one MAC
    assert report.total == 2


def test_batchnorm_adds_four_flops_per_element():
    plain = count_flops(_unit_conv_model(h=2, w=3, nf=2))
    bn = count_flops(_unit_conv_model(h=2, w=3, nf=2, has_bias=False,
                                      has_batchnorm=True))
    assert bn.layers[0].batchnorm_flops == 4 * 2 * 3 * 2
    assert bn.conv_total == plain.conv_total
    assert bn.total == plain.total + 4 * 2 * 3 * 2


def test_tinyyolo_flops_match_fixture():
    report = count_flops(build_tinyyolov3(num_classes=80))
    per_layer = {l.layer_id: l for l in report.layers}
    for lid, entry in EXPECTED["layers"].items():
        assert per_layer[lid].conv_flops == entry["conv_flops"], lid
        assert per_layer[lid].batchnorm_flops == entry["batchnorm_flops"], lid
    assert report.conv_total == EXPECTED["total_conv_flops"]
    assert report.batchnorm_total == EXPECTED["total_batchnorm_flops"]


def test_pool_upsample_concat_cost_nothing():
    report = count_flops(build_tinyyolov3(num_classes=1))
    assert {l.layer_id for l in report.layers} == \
           {l.id for l in build_tinyyolov3(1).conv_layers()}


def test_fusion_flop_identity(rng):
    model = randomize_weights(build_tinyyolov3(num_classes=80), rng)
    before = count_flops(model)
    after = count_flops(fuse_model(model))
    assert after.conv_total == before.conv_total
    assert after.batchnorm_total == 0
    assert before.batchnorm_total == EXPECTED["total_batchnorm_flops"]


def test_reduction_percentage_and_table(rng):
    model = build_tinyyolov3(num_classes=80)
    before = count_flops(model)
    after = count_flops(fuse_model(model))
    pct = flop_reduction_pct(before, after)
    assert pct == pytest.approx(100 * 23_795_200 / before.total)
    assert round(pct, 1) == 0.4
    table = after.format_table(reference=before)
    assert "(0.4%)" in table
    assert "23,795,200" in table
    assert "5.56" in table  # conv GFLOPs line


def test_reduction_against_a_reference_of_zero_flops_reads_zero():
    layers = (LayerSpec(id="input", kind="input", height=4, width=4, channels=2),
              LayerSpec(id="pool", kind="maxpool", inputs=("input",), size=2, stride=2))
    empty = count_flops(Model(layers, {}))
    assert empty.total == 0
    assert reduction_pct(0, 0) == flop_reduction_pct(empty, empty) == 0.0
    assert empty.to_dict(empty)["reduction_pct"] == 0.0
    assert empty.format_table(empty).endswith("reduction vs reference: 0 FLOPs (0.0%)")
    assert reduction_pct(8, 6) == 25.0


def test_flop_report_dict_shape():
    report = count_flops(_unit_conv_model())
    d = report.to_dict()
    assert d["report_version"] == 1
    assert d["total"] == 2
    assert d["conv_total"] == 2 and d["batchnorm_total"] == 0
    assert d["layers"][0]["layer_id"] == "conv_1"


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_param_count_example():
    report = count_params(_unit_conv_model(c_in=4, nf=2))
    entry = report.layers[0]
    assert entry.weights == 8 and entry.biases == 2 and entry.batchnorm == 0
    assert entry.total == 10
    assert report.total == 10


def test_batchnorm_counts_four_per_filter():
    report = count_params(_unit_conv_model(nf=3, has_bias=False,
                                           has_batchnorm=True))
    entry = report.layers[0]
    assert entry.biases == 0 and entry.batchnorm == 12


def test_tinyyolo_params_match_fixture():
    report = count_params(build_tinyyolov3(num_classes=80))
    per_layer = {l.layer_id: l.weights for l in report.layers}
    assert per_layer["conv_7"] == 4_718_592
    for lid, entry in EXPECTED["layers"].items():
        assert per_layer[lid] == entry["weights"], lid
    assert report.weights_total == 8_845_488


def test_percentages_accumulate_to_hundred(rng):
    model = chain_model(rng, [4, 3, 2], hw=5)
    rows = count_params(model).percentages()
    cumulative = [c for _, _, c in rows]
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == pytest.approx(100.0)
    shares = [s for _, s, _ in rows]
    assert sum(shares) == pytest.approx(100.0)


def test_pruning_shrinks_both_reports(rng):
    model = chain_model(rng, [6, 4], hw=6)
    config = PruneConfig()
    table = compute_metric_table(model, config)
    t = float(np.median(np.concatenate(list(table.values()))))
    pruned, removed = prune_below(model, table, t, config)
    assert sum(len(v) for v in removed.values()) > 0
    assert count_params(pruned).total < count_params(model).total
    assert count_flops(pruned).total < count_flops(model).total


@pytest.mark.parametrize("num_classes", [80, 1])
def test_reports_come_from_the_layer_specs_alone(rng, num_classes):
    model = randomize_weights(build_tinyyolov3(num_classes=num_classes), rng)
    fused = fuse_model(model)
    config = PruneConfig()
    table = compute_metric_table(fused, config)
    t = float(np.median(np.concatenate(list(table.values()))))
    candidate, removed = prune_below(fused, table, t, config)
    assert sum(len(v) for v in removed.values()) > 0
    for m in (model, fused, candidate):
        graph = LayerGraph(m.layers)
        assert count_flops(graph) == count_flops(m)
        assert count_params(graph) == count_params(m)


# ---------------------------------------------------------------------------
# deviation reports
# ---------------------------------------------------------------------------

def test_mse_zero_when_integers_sit_on_grid():
    fm = FeatureMap(np.array([[[0.5, -0.25, 1.0]]], dtype=np.float32))
    im = FeatureMap(np.array([[[128, -64, 256]]], dtype=np.int64))
    report = compare_traces({"conv_1": fm}, {"conv_1": im}, p=8)
    assert report.entries[0].mse == 0.0
    assert report.max_mse == 0.0


def test_mse_single_element_example():
    fm = FeatureMap(np.array([[[1.0]]], dtype=np.float32))
    im = FeatureMap(np.array([[[255]]], dtype=np.int64))
    report = compare_traces({"conv_1": fm}, {"conv_1": im}, p=8)
    assert report.entries[0].mse == pytest.approx((1 / 256) ** 2)
    assert report.entries[0].mse == pytest.approx(1.52587890625e-05)
    assert report.entries[0].n_elements == 1


def test_mse_has_the_bits_of_np_mean(rng):
    shapes = [(1, 1, 1), (13, 13, 255),
              (181, 181, 1), (1, 32768, 1), (1, 32769, 1),  # around one summation block
              (1, 65537, 1), (208, 208, 32), (416, 416, 16),
              # halves that are not multiples of 8 at several levels
              (97, 89, 61), (333, 333, 7), (201, 203, 29), (1, 100003, 1), (1, 123457, 1),
              (1, 262147, 1), (1, 654321, 1), (1, 1000001, 1)]
    float_trace, int_trace = {}, {}
    for k, shape in enumerate(shapes):
        float_trace[f"conv_{k}"] = FeatureMap(rng.uniform(-2.0, 2.0, size=shape).astype(np.float32))
        int_trace[f"conv_{k}"] = FeatureMap(rng.integers(-600, 600, size=shape))
    report = compare_traces(float_trace, int_trace, p=8)
    for entry in report.entries:
        fm, im = float_trace[entry.layer_id], int_trace[entry.layer_id]
        want = np.mean((fm.data - im.data * 2.0 ** -8) ** 2)
        assert np.float64(entry.mse).tobytes() == want.tobytes(), entry.layer_id


def test_mse_of_an_empty_layer_is_nan():
    fm = FeatureMap(np.zeros((2, 2, 0), dtype=np.float32))
    im = FeatureMap(np.zeros((2, 2, 0), dtype=np.int16))
    entry = compare_traces({"conv_1": fm}, {"conv_1": im}, p=8).entries[0]
    assert entry.n_elements == 0 and np.isnan(entry.mse)


def test_compare_traces_validates_layers_and_shapes():
    fm = FeatureMap(np.zeros((1, 1, 1), dtype=np.float32))
    im = FeatureMap(np.zeros((1, 1, 1), dtype=np.int64))
    with pytest.raises(ShapeError, match="different layers"):
        compare_traces({"conv_1": fm}, {"conv_2": im}, p=8)
    im_bad = FeatureMap(np.zeros((2, 1, 1), dtype=np.int64))
    with pytest.raises(ShapeError, match="shapes differ"):
        compare_traces({"conv_1": fm}, {"conv_1": im_bad}, p=8)


def test_mse_report_csv_and_json(tmp_path, rng):
    model = chain_model(rng, [3, 2], hw=4, scale=0.2)
    fm = feature_map(rng, 4, 4, 2)
    qmodel = quantize_model(model)
    float_trace = float_infer(model, fm, taps=True)
    int_trace, _ = int_infer(qmodel, quantize_input(fm), taps=True)
    report = compare_traces(float_trace, int_trace, p=8)

    csv_path = tmp_path / "mse.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "layer_id,n_elements,mse"
    assert len(lines) == 1 + len(report.entries)

    d = report.to_dict()
    assert d["report_version"] == 1
    assert d["max_mse"] == report.max_mse
    json_path = tmp_path / "mse.json"
    write_json_report(json_path, d)
    assert json.loads(json_path.read_text())["max_mse"] == report.max_mse
    assert "conv_2" in report.format_table()
