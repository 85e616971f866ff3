"""Filter metrics, structural removal with channel propagation, threshold sweep."""
from dataclasses import replace

import numpy as np
import pytest

from cnnadapt.analysis import count_flops, count_params
from cnnadapt.errors import EvaluatorError, PipelineError, ShapeError
from cnnadapt.fusion import fuse_model
from cnnadapt.model import (
    ConvParams,
    LayerSpec,
    Model,
    float_infer,
    model_digest,
    randomize_weights,
    replace_layer,
    shape_infer,
)
from cnnadapt.pruning import (
    PruneConfig,
    compute_metric_table,
    filter_sparsity,
    frobenius_norms,
    prune_below,
    prune_routine,
)
from cnnadapt.quantization import quantize_model, quantize_tensor
from cnnadapt.tensor import FeatureMap, FilterBank
from cnnadapt.tinyyolo import build_tinyyolov3
from util import bank, chain_model, conv_spec, feature_map


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_frobenius_examples():
    w = np.zeros((3, 3, 1, 3), dtype=np.float32)
    w[:, :, 0, 1] = 1.0                    # 3x3 all-ones -> sqrt(9) = 3
    w[0, 0, 0, 2] = 3.0                    # [3, 4] -> 5
    w = np.array(w)
    fb_345 = bank(np.array([[[[0.0, 3.0]], [[0.0, 4.0]]]], dtype=np.float32).reshape(1, 2, 1, 2))
    norms = frobenius_norms(bank(w))
    assert norms[0] == 0.0
    assert norms[1] == pytest.approx(3.0)
    np.testing.assert_allclose(frobenius_norms(fb_345), [0.0, 5.0])


def test_frobenius_excludes_bias():
    fb = bank(np.zeros((1, 1, 1, 1), dtype=np.float32), [42.0])
    assert frobenius_norms(fb)[0] == 0.0


def test_frobenius_scale_law(rng):
    w = rng.uniform(-1, 1, size=(3, 3, 2, 4)).astype(np.float32)
    for c in (-2.0, 0.5, 3.0):
        np.testing.assert_allclose(frobenius_norms(bank(c * w)),
                                   abs(c) * frobenius_norms(bank(w)), rtol=1e-6)


def test_sparsity_examples():
    w = np.array([0.001, 0.5, 0.002, 1.0], dtype=np.float32).reshape(1, 1, 4, 1)
    assert filter_sparsity(bank(w), eps=0.003)[0] == pytest.approx(0.5)
    zeros = bank(np.zeros((2, 2, 1, 1), dtype=np.float32))
    assert filter_sparsity(zeros, eps=0.003)[0] == 0.0
    assert filter_sparsity(zeros, eps=0.0)[0] == 1.0  # strict |w| < 0 never holds


def test_sparsity_refuses_a_negative_eps():
    with pytest.raises(ValueError, match="eps must be >= 0"):
        filter_sparsity(bank(np.ones((1, 1, 1, 1), dtype=np.float32)), eps=-0.1)


def test_metric_table_skips_no_prune(rng):
    model = chain_model(rng, [3, 2], hw=4)
    config = PruneConfig(no_prune=frozenset({"conv_2"}))
    table = compute_metric_table(model, config)
    assert set(table) == {"conv_1"}
    assert len(table["conv_1"]) == 3


def test_prune_config_validation():
    with pytest.raises(ValueError):
        PruneConfig(metric="l1")
    with pytest.raises(ValueError):
        PruneConfig(delta_map=1.5)
    with pytest.raises(ValueError):
        PruneConfig(delta_t=0.0)
    with pytest.raises(ValueError):
        PruneConfig(min_filters_per_layer=0)
    # a NaN step makes every threshold NaN and the sweep never ends
    for bad, message in (({"delta_t": np.nan}, "finite"), ({"delta_t": np.inf}, "finite"),
                         ({"t_start": np.nan}, "finite"), ({"t_start": np.inf}, "finite"),
                         ({"sparsity_eps": np.nan}, "finite"),
                         ({"t_start": -0.5}, "t_start must be >= 0"),
                         ({"sparsity_eps": -1e-3}, "sparsity_eps must be >= 0")):
        with pytest.raises(ValueError, match=message):
            PruneConfig(**bad)


# ---------------------------------------------------------------------------
# prune_below
# ---------------------------------------------------------------------------

def test_threshold_zero_removes_nothing(rng):
    model = chain_model(rng, [4, 3], hw=5)
    config = PruneConfig()
    table = compute_metric_table(model, config)
    pruned, removed = prune_below(model, table, 0.0, config)
    assert all(len(v) == 0 for v in removed.values())
    assert [l.num_filters for l in pruned.conv_layers()] == [4, 3]


def test_prune_refuses_unfused_model(rng):
    model = chain_model(rng, [2], hw=4, bn=True)
    with pytest.raises(PipelineError, match="fuse first"):
        prune_below(model, {}, 0.1, PruneConfig())


def test_zero_filter_removal_is_bit_exact(rng):
    model = chain_model(rng, [4, 3], hw=6, in_channels=3, scale=0.8)
    # zero out filter 2 of conv_1 (weights and bias)
    fb = model.params["conv_1"].filters
    w = np.array(fb.weights)
    b = np.array(fb.biases)
    w[:, :, :, 2] = 0.0
    b[2] = 0.0
    model = Model(model.layers, {
        "conv_1": ConvParams(FilterBank(w, b), None),
        "conv_2": model.params["conv_2"],
    })
    config = PruneConfig()
    table = compute_metric_table(model, config)
    pruned, removed = prune_below(model, table, 1e-6, config)
    assert removed["conv_1"] == [2]
    assert pruned.layer("conv_1").num_filters == 3
    for _ in range(20):
        fm = feature_map(rng, 6, 6, 3, lo=-1, hi=1)
        a = float_infer(model, fm)["conv_2"]
        b_ = float_infer(pruned, fm)["conv_2"]
        assert a.data.tobytes() == b_.data.tobytes()


def test_two_conv_chain_drops_downstream_slice(rng):
    model = chain_model(rng, [3, 2], hw=5)
    config = PruneConfig()
    table = dict(compute_metric_table(model, config))
    # force exactly filter 1 of conv_1 below threshold
    table["conv_1"] = np.array([10.0, 0.1, 10.0])
    table["conv_2"] = np.array([10.0, 10.0])
    pruned, removed = prune_below(model, table, 1.0, config)
    assert removed == {"conv_1": [1], "conv_2": []}
    w_old = model.params["conv_2"].filters.weights
    w_new = pruned.params["conv_2"].filters.weights
    assert w_new.shape[2] == 2
    np.testing.assert_array_equal(w_new, w_old[:, :, [0, 2], :])
    shape_infer(pruned)  # shape bookkeeping stays valid


def _branchy_model(rng):
    """input -> conv_1 -> {conv_a, conv_b} -> concat -> conv_c."""
    layers = (
        LayerSpec(id="input", kind="input", height=4, width=4, channels=2),
        conv_spec("conv_1", "input", 3, 1),
        conv_spec("conv_a", "conv_1", 3, 1),
        conv_spec("conv_b", "conv_1", 2, 1),
        LayerSpec(id="cat", kind="concat", inputs=("conv_a", "conv_b")),
        conv_spec("conv_c", "cat", 2, 1),
    )
    params = {
        "conv_1": ConvParams(bank(rng.uniform(-1, 1, (1, 1, 2, 3)).astype(np.float32),
                                  rng.uniform(-1, 1, 3)), None),
        "conv_a": ConvParams(bank(rng.uniform(-1, 1, (1, 1, 3, 3)).astype(np.float32),
                                  rng.uniform(-1, 1, 3)), None),
        "conv_b": ConvParams(bank(rng.uniform(-1, 1, (1, 1, 3, 2)).astype(np.float32),
                                  rng.uniform(-1, 1, 2)), None),
        "conv_c": ConvParams(bank(rng.uniform(-1, 1, (1, 1, 5, 2)).astype(np.float32),
                                  rng.uniform(-1, 1, 2)), None),
    }
    return Model(layers, params)


def test_concat_propagation_uses_branch_offsets(rng):
    model = _branchy_model(rng)
    config = PruneConfig(no_prune=frozenset({"conv_1", "conv_c"}))
    table = {
        "conv_a": np.array([0.1, 5.0, 5.0]),   # drop original channel 0
        "conv_b": np.array([5.0, 0.1]),        # drop original channel 1 (offset 3)
    }
    pruned, removed = prune_below(model, table, 1.0, config)
    assert removed["conv_a"] == [0] and removed["conv_b"] == [1]
    w_old = model.params["conv_c"].filters.weights
    w_new = pruned.params["conv_c"].filters.weights
    # concat channels were [a0 a1 a2 b0 b1]; survivors are [a1 a2 b0]
    np.testing.assert_array_equal(w_new, w_old[:, :, [1, 2, 3], :])
    assert shape_infer(pruned)["cat"] == (4, 4, 3)


def test_no_prune_layer_keeps_filters_but_shrinks_inputs(rng):
    model = chain_model(rng, [4, 3], hw=5)
    config = PruneConfig(no_prune=frozenset({"conv_2"}))
    table = {"conv_1": np.array([0.1, 5.0, 0.2, 5.0])}
    pruned, removed = prune_below(model, table, 1.0, config)
    assert removed == {"conv_1": [0, 2], "conv_2": []}
    assert pruned.layer("conv_2").num_filters == 3
    assert pruned.params["conv_2"].filters.weights.shape[2] == 2


def test_min_filters_floor_keeps_strongest(rng):
    model = chain_model(rng, [4], hw=4)
    config = PruneConfig(min_filters_per_layer=1)
    table = {"conv_1": np.array([0.4, 0.1, 0.3, 0.2])}
    pruned, removed = prune_below(model, table, 10.0, config)
    # lowest metrics go first; the single survivor is the largest (index 0)
    assert removed["conv_1"] == [1, 2, 3]
    assert pruned.layer("conv_1").num_filters == 1
    np.testing.assert_array_equal(pruned.params["conv_1"].filters.weights,
                                  model.params["conv_1"].filters.weights[:, :, :, [0]])


def test_missing_metric_entry_raises(rng):
    model = chain_model(rng, [2, 2], hw=4)
    with pytest.raises(ShapeError, match="conv_2"):
        prune_below(model, {"conv_1": np.array([1.0, 1.0])}, 0.5, PruneConfig())


@pytest.mark.parametrize("key", ["ghost", "input"])
def test_metric_key_that_names_no_conv_layer_raises(rng, key):
    model = chain_model(rng, [2], hw=4)
    table = {"conv_1": np.array([1.0, 1.0]), key: np.array([1.0, 1.0])}
    with pytest.raises(ShapeError, match=f"metric table for '{key}' names no conv layer"):
        prune_below(model, table, 0.5, PruneConfig())


def test_wrong_metric_length_raises(rng):
    model = chain_model(rng, [3], hw=4)
    with pytest.raises(ShapeError, match="entries"):
        prune_below(model, {"conv_1": np.array([1.0, 1.0])}, 0.5, PruneConfig())


def test_removal_sets_are_monotone_in_threshold(rng):
    model = chain_model(rng, [6, 5], hw=5)
    config = PruneConfig()
    table = compute_metric_table(model, config)
    previous: dict[str, set] = {}
    for t in np.linspace(0.0, 3.0, 13):
        _, removed = prune_below(model, table, float(t), config)
        for lid, idx in removed.items():
            assert previous.get(lid, set()) <= set(idx)
            previous[lid] = set(idx)


def test_params_and_flops_never_increase_under_pruning(rng):
    model = chain_model(rng, [5, 4], hw=6)
    config = PruneConfig()
    table = compute_metric_table(model, config)
    p0, f0 = count_params(model).total, count_flops(model).total
    for t in (0.2, 0.6, 1.2):
        pruned, _ = prune_below(model, table, t, config)
        assert count_params(pruned).total <= p0
        assert count_flops(pruned).total <= f0


# ---------------------------------------------------------------------------
# one gather per layer: parity with per-axis takes and sorted-list removals
# ---------------------------------------------------------------------------

def _reference_removals(metric, threshold, min_keep):
    nf = len(metric)
    below = [i for i in range(nf) if metric[i] < threshold]
    cap = max(nf - min_keep, 0)
    if len(below) > cap:
        by_importance = sorted(below, key=lambda i: (metric[i], i))
        below = sorted(by_importance[:cap])
    return below


def _reference_prune_below(model, metrics, threshold, config):
    """prune_below with Python index lists and one take per axis that loses
    an index, each result rebuilt through the checked FilterBank constructor."""
    orig_shapes = shape_infer(model)
    kept, removed, layers, params = {}, {}, [], {}
    for layer in model.layers:
        if layer.kind == "input":
            kept[layer.id] = list(range(layer.channels))
        elif layer.kind == "conv":
            fb = model.params[layer.id].filters
            kept_in = kept[layer.inputs[0]]
            removed_idx = ([] if layer.id in config.no_prune else
                           _reference_removals(metrics[layer.id], threshold,
                                               config.min_filters_per_layer))
            keep_f = [i for i in range(fb.num_filters) if i not in set(removed_idx)]
            w = fb.weights
            if len(kept_in) < fb.weights.shape[2]:
                w = w.take(kept_in, axis=2)
            if len(keep_f) < fb.num_filters:
                w = w.take(keep_f, axis=3)
            params[layer.id] = ConvParams(FilterBank(w, fb.biases[keep_f]), None)
            layer = replace(layer, num_filters=len(keep_f))
            kept[layer.id], removed[layer.id] = keep_f, removed_idx
        elif layer.kind == "concat":
            a, b = layer.inputs
            kept[layer.id] = kept[a] + [orig_shapes[a][2] + j for j in kept[b]]
        else:
            kept[layer.id] = kept[layer.inputs[0]]
        layers.append(layer)
    return Model(tuple(layers), params), removed


@pytest.fixture(scope="module")
def small_yolo():
    """Fused TinyYOLOv3 with one class at a 64x64 input: the full graph, with
    route_1's concat of the upsampled conv_11 and conv_5."""
    rng = np.random.default_rng(14)
    model = replace_layer(build_tinyyolov3(num_classes=1), "input", height=64, width=64)
    return fuse_model(randomize_weights(model, rng, 0.1))


@pytest.mark.parametrize("min_keep,extra_no_prune", [(1, ()), (24, ("conv_5",))])
def test_prune_below_matches_the_per_axis_reference(small_yolo, min_keep, extra_no_prune):
    rng = np.random.default_rng(min_keep)
    heads = {l.id for l in small_yolo.conv_layers() if l.activation == "linear"}
    config = PruneConfig(min_filters_per_layer=min_keep,
                         no_prune=frozenset(heads | set(extra_no_prune)))
    # metrics on a grid of eight values, so most filters tie with others
    metrics = {l.id: rng.integers(0, 8, l.num_filters) / 4.0
               for l in small_yolo.conv_layers() if l.id not in config.no_prune}
    seen = set()
    for t in [0.0, 0.05, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.8, 1.0, 1.1, 1.25, 1.4, 1.5,
              1.6, 1.75, 1.76, 2.0, 2.5, 3.0]:
        got, removed = prune_below(small_yolo, metrics, t, config)
        want, want_removed = _reference_prune_below(small_yolo, metrics, t, config)
        assert removed == want_removed
        assert all(type(i) is int for idx in removed.values() for i in idx)
        assert got.layers == want.layers
        for lid, p in want.params.items():
            assert got.params[lid].filters.weights.tobytes() == p.filters.weights.tobytes()
            assert got.params[lid].filters.biases.tobytes() == p.filters.biases.tobytes()
        assert model_digest(got) == model_digest(want)
        for lid, idx in removed.items():
            if lid not in config.no_prune and len(idx) < np.count_nonzero(metrics[lid] < t):
                seen.add("cap")
        if removed["conv_11"] and removed["conv_5"]:
            seen.add("both concat branches")
    # the caps bit, and route_1's offset applied to a pruned conv_5 branch
    assert "cap" in seen
    assert "both concat branches" in seen or "conv_5" in config.no_prune


@pytest.mark.parametrize("sorted_idx", [True, False])
def test_filter_bank_select_matches_the_checked_constructor(rng, sorted_idx):
    fb = bank(rng.uniform(-1, 1, (3, 2, 7, 9)), rng.uniform(-1, 1, 9))
    for channels, filters in ([[0, 3, 6], [1, 2, 8]], [list(range(7)), [0, 4]],
                              [[2, 5], list(range(9))], [[6], [8]]):
        if not sorted_idx:
            channels, filters = channels[::-1], filters[::-1]
        got = fb.select(np.array(channels), np.array(filters))
        want = FilterBank(fb.weights[:, :, channels][..., filters], fb.biases[filters])
        for a, b in ((got.weights, want.weights), (got.biases, want.biases)):
            assert a.flags.c_contiguous and not a.flags.writeable
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    assert fb.select(np.arange(7), np.arange(9)) is fb


def _int16_bank(fb: FilterBank) -> FilterBank:
    return FilterBank(quantize_tensor(fb.weights, 8)[0], quantize_tensor(fb.biases, 8)[0])


def _assert_same_int16_bank(got: FilterBank, want: FilterBank):
    for a, b in ((got.weights, want.weights), (got.biases, want.biases)):
        assert a.dtype == b.dtype == np.int16
        assert a.flags.c_contiguous and not a.flags.writeable
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_selecting_from_an_int16_bank_equals_quantizing_the_selection(rng):
    fb = bank(rng.uniform(-1, 1, (3, 2, 7, 9)), rng.uniform(-1, 1, 9))
    int_bank = _int16_bank(fb)
    assert int_bank.select(np.arange(7), np.arange(9)) is int_bank
    # everything kept, every filter kept in order, and the flat take
    for channels, filters in ([range(7), range(9)], [[0, 3, 6], range(9)],
                              [[6, 3, 0], [8, 2, 1]], [[2], [5]]):
        c, f = np.array(channels), np.array(filters)
        _assert_same_int16_bank(int_bank.select(c, f), _int16_bank(fb.select(c, f)))


def test_each_bank_of_a_quantized_prune_candidate_is_a_select(rng, monkeypatch):
    model = replace_layer(build_tinyyolov3(num_classes=80), "input", height=32, width=32)
    model = fuse_model(randomize_weights(model, rng))
    config = PruneConfig()
    table = compute_metric_table(model, config)
    threshold = float(np.median(np.concatenate(list(table.values()))))
    owner = {id(p.filters): lid for lid, p in model.params.items()}
    picks = {}
    select = FilterBank.select

    def recording_select(fb, channels, filters):
        picks[owner[id(fb)]] = (channels, filters)
        return select(fb, channels, filters)

    monkeypatch.setattr(FilterBank, "select", recording_select)
    candidate, removed = prune_below(model, table, threshold, config)
    monkeypatch.undo()
    assert len(picks) == 13 and sum(len(v) for v in removed.values()) > 0
    qmodel, qcandidate = quantize_model(model), quantize_model(candidate)
    for lid, (channels, filters) in picks.items():
        _assert_same_int16_bank(qmodel.qparams[lid].select(channels, filters),
                                qcandidate.qparams[lid])


def test_filter_bank_select_refuses_empty_or_out_of_range_indices(rng):
    fb = bank(rng.uniform(-1, 1, (1, 1, 3, 4)))
    with pytest.raises(ShapeError, match="non-empty"):
        fb.select(np.arange(0), np.arange(4))
    # filter 4 of channel 0 would alias filter 0 of channel 1 in the flat view
    for channels, filters in (([0], [4]), ([3], [0]), ([-1], [0]), ([0], [-1])):
        with pytest.raises(IndexError, match="out of range"):
            fb.select(np.array(channels), np.array(filters))


# ---------------------------------------------------------------------------
# prune_routine
# ---------------------------------------------------------------------------

def test_routine_immediate_stop_returns_unchanged_model(rng):
    model = chain_model(rng, [3, 2], hw=5)

    def evaluator(m):
        missing = sum(orig.num_filters - m.layer(orig.id).num_filters
                      for orig in model.conv_layers())
        return 1.0 if missing == 0 else 0.0

    config = PruneConfig(delta_map=0.01, t_start=0.0, delta_t=0.02)
    pruned, report = prune_routine(model, config, evaluator)
    assert [l.num_filters for l in pruned.conv_layers()] == [3, 2]
    for lid in ("conv_1", "conv_2"):
        np.testing.assert_array_equal(pruned.params[lid].filters.weights,
                                      model.params[lid].filters.weights)
    assert report.initial_score == 1.0
    # empty steps get accepted; the first step that removes a filter stops it
    assert report.steps[0].accepted
    assert not report.steps[-1].accepted
    assert sum(report.steps[-1].filters_removed.values()) > 0
    assert all(sum(s.filters_removed.values()) == 0 for s in report.steps[:-1])


def test_routine_constant_evaluator_prunes_to_max(rng):
    model = chain_model(rng, [4, 3], hw=5)
    config = PruneConfig(delta_map=0.01, delta_t=0.05)
    table = compute_metric_table(model, config)
    max_metric = max(float(v.max()) for v in table.values())

    pruned, report = prune_routine(model, config, lambda m: 1.0)
    # every step accepted; final threshold passed the largest metric
    assert all(s.accepted for s in report.steps)
    assert report.final_threshold > max_metric
    direct, _ = prune_below(model, table, report.final_threshold, config)
    assert [l.num_filters for l in pruned.conv_layers()] == \
           [l.num_filters for l in direct.conv_layers()]
    assert all(l.num_filters == 1 for l in pruned.conv_layers())


def test_routine_jumps_over_thresholds_that_cannot_change_the_candidate(rng):
    # one filter of large norm, which the one-filter floor keeps: past the
    # other norms every candidate is the same model, so the sweep goes
    # straight to the first threshold past the largest norm
    model = chain_model(rng, [3], hw=4)
    fb = model.params["conv_1"].filters
    w = fb.weights.copy()
    w[..., 0] *= 1000
    model = Model(model.layers, {"conv_1": ConvParams(FilterBank(w, fb.biases), None)})
    config = PruneConfig(delta_t=0.5)
    norms = compute_metric_table(model, config)["conv_1"]
    assert norms[0] > 2000 * config.delta_t > 40 * max(norms[1:])
    evaluated = []

    def evaluator(m):
        evaluated.append(m)
        if len(evaluated) > 40:
            raise RuntimeError("the sweep evaluates the same candidate again and again")
        return 1.0

    pruned, report = prune_routine(model, config, evaluator)
    assert all(s.accepted for s in report.steps)
    assert report.final_threshold > norms[0]
    assert report.steps[-2].threshold > max(norms[1:])
    assert report.steps[-2].filters_removed == report.steps[-1].filters_removed == {"conv_1": 2}
    assert pruned.layer("conv_1").num_filters == 1


def test_routine_thresholds_form_arithmetic_sequence(rng):
    model = chain_model(rng, [3], hw=4)
    config = PruneConfig(delta_map=1.0, t_start=0.0, delta_t=0.02)
    _, report = prune_routine(model, config, lambda m: 1.0)
    ts = [s.threshold for s in report.steps]
    np.testing.assert_allclose(ts, [0.02 * k for k in range(len(ts))], atol=1e-12)


def test_routine_metrics_frozen_before_sweep(rng):
    # evaluator counts calls; candidate at step k must come from the ORIGINAL
    # model, so the filter count at a given threshold never depends on history
    model = chain_model(rng, [5], hw=4)
    config = PruneConfig(delta_map=1.0, delta_t=0.3)
    table = compute_metric_table(model, config)
    seen = []

    def evaluator(m):
        seen.append(m.layer("conv_1").num_filters)
        return 1.0

    prune_routine(model, config, evaluator)
    # skip the initial-score call, then compare against stateless prune_below
    for k, nf in enumerate(seen[1:]):
        t = k * 0.3
        direct, _ = prune_below(model, table, t, config)
        assert nf == direct.layer("conv_1").num_filters


def test_routine_report_reductions_match_final_model(rng):
    model = chain_model(rng, [6, 4], hw=5)
    config = PruneConfig(delta_map=1.0, delta_t=0.25)
    pruned, report = prune_routine(model, config, lambda m: 1.0)
    last_accepted = [s for s in report.steps if s.accepted][-1]
    base_params = count_params(model).total
    base_flops = count_flops(model).total
    expect_p = 100.0 * (base_params - count_params(pruned).total) / base_params
    expect_f = 100.0 * (base_flops - count_flops(pruned).total) / base_flops
    assert last_accepted.param_reduction_pct == pytest.approx(expect_p)
    assert last_accepted.flop_reduction_pct == pytest.approx(expect_f)
    assert last_accepted.score >= report.initial_score - config.delta_map


def test_routine_evaluator_failure_carries_partial_state(rng):
    model = chain_model(rng, [3], hw=4)
    calls = {"n": 0}

    def evaluator(m):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise RuntimeError("dataset went away")
        return 1.0

    with pytest.raises(EvaluatorError) as exc_info:
        prune_routine(model, PruneConfig(delta_map=1.0, delta_t=0.1), evaluator)
    err = exc_info.value
    assert err.model is not None
    assert err.report is not None
    assert err.report.final_threshold == 0.0  # only t=0 was accepted


def test_routine_rejects_unfused_model(rng):
    model = chain_model(rng, [2], hw=4, bn=True)
    with pytest.raises(PipelineError, match="fuse first"):
        prune_routine(model, PruneConfig(), lambda m: 1.0)


def test_routine_oracle_matches_exhaustive_grid(rng):
    """Synthetic-importance oracle: routine == brute-force sweep-grid search."""
    # three convs with hand-placed Frobenius norms; "important" filters are
    # the ones with norm >= 1.0, and the evaluator scores the fraction alive
    norms = {
        "conv_1": [0.05, 0.31, 1.4, 2.0],
        "conv_2": [0.11, 1.1, 1.8],
        "conv_3": [0.45, 0.9, 1.3, 2.4],
    }
    layers = [LayerSpec(id="input", kind="input", height=4, width=4, channels=2)]
    params = {}
    prev, c_in = "input", 2
    for lid, layer_norms in norms.items():
        nf = len(layer_norms)
        layers.append(conv_spec(lid, prev, nf, 1))
        w = np.zeros((1, 1, c_in, nf), dtype=np.float32)
        for i, v in enumerate(layer_norms):
            w[0, 0, 0, i] = v  # single weight per filter -> norm is |v|
        params[lid] = ConvParams(bank(w), None)
        prev, c_in = lid, nf
    model = Model(tuple(layers), params)

    important = {(lid, i) for lid, ns in norms.items()
                 for i, v in enumerate(ns) if v >= 1.0}

    def survivors(m):
        alive = set()
        for lid in norms:
            w = m.params[lid].filters.weights
            present = {round(float(v), 6) for v in w[0, 0, 0, :]} | \
                      {round(float(v), 6) for v in w[0, 0, :, :].ravel()}
            for i, v in enumerate(norms[lid]):
                if round(v, 6) in present:
                    alive.add((lid, i))
        return alive

    def evaluator(m):
        return len(survivors(m) & important) / len(important)

    config = PruneConfig(delta_map=0.01, t_start=0.0, delta_t=0.02)
    table = compute_metric_table(model, config)
    pruned, report = prune_routine(model, config, evaluator)

    # brute force: walk the same grid, stop at the first out-of-budget step
    expected_t = None
    k = 0
    while True:
        t = k * config.delta_t
        cand, _ = prune_below(model, table, t, config)
        if 1.0 - evaluator(cand) > config.delta_map:
            break
        expected_t = t
        if t > max(max(v) for v in norms.values()):
            break
        k += 1

    assert report.final_threshold == pytest.approx(expected_t)
    direct, _ = prune_below(model, table, expected_t, config)
    assert [l.num_filters for l in pruned.conv_layers()] == \
           [l.num_filters for l in direct.conv_layers()]
    # the accepted model keeps every important filter
    assert survivors(pruned) >= important


def test_routine_sparsity_removes_planted_near_zero_filters_first(rng):
    """The sparsity metric through the sweep: filters whose weights are
    (partly) near zero go first, and the sweep stops where the step-by-step
    grid walk does."""
    # per layer, how many of each filter's weights are near zero (|w| < eps)
    near_zero = {"conv_1": [0, 18, 9, 0, 18, 2],   # 3x3x2 = 18 weights per filter
                 "conv_2": [40, 0, 0, 54, 0]}       # 3x3x6 = 54 weights per filter
    layers = [LayerSpec(id="input", kind="input", height=4, width=4, channels=2)]
    params = {}
    prev, c_in = "input", 2
    for n, (lid, counts) in enumerate(near_zero.items()):
        nf = len(counts)
        layers.append(conv_spec(lid, prev, nf, 3))
        shape = (3, 3, c_in, nf)
        w = rng.uniform(0.1, 0.5, size=shape) * rng.choice([-1, 1], size=shape)
        flat = w.reshape(-1, nf)
        for j, count in enumerate(counts):
            flat[:count, j] *= 1e-4
        # each filter's bias tags it, so the evaluator can tell which survive
        params[lid] = ConvParams(bank(w, 10 * n + np.arange(nf)), None)
        prev, c_in = lid, nf
    model = Model(tuple(layers), params)
    config = PruneConfig(metric="sparsity", delta_map=0.01, delta_t=0.1)
    table = compute_metric_table(model, config)
    for lid, counts in near_zero.items():
        per_filter = model.params[lid].filters.weights[..., 0].size
        np.testing.assert_allclose(table[lid], 1 - np.array(counts) / per_filter)

    def survivors(m):
        return {(lid, int(b) - 10 * n) for n, lid in enumerate(near_zero)
                for b in m.params[lid].filters.biases}

    # the dense filters and the one with 2 of 18 near zero matter
    important = {(lid, j) for lid, counts in near_zero.items()
                 for j, s in enumerate(table[lid]) if s > 0.8}

    def evaluator(m):
        return len(survivors(m) & important) / len(important)

    pruned, report = prune_routine(model, config, evaluator)
    assert report.metric == "sparsity"
    first = next(s for s in report.steps if sum(s.filters_removed.values()))
    assert first.filters_removed == {"conv_1": 2, "conv_2": 1}   # the all-near-zero filters

    expected_t = None
    k = 0
    while True:
        t = k * config.delta_t
        cand, _ = prune_below(model, table, t, config)
        if 1.0 - evaluator(cand) > config.delta_map:
            break
        expected_t = t
        if t > max(float(v.max()) for v in table.values()):
            break
        k += 1
    assert report.final_threshold == expected_t
    _, removed = prune_below(model, table, expected_t, config)
    assert removed == {"conv_1": [1, 2, 4], "conv_2": [0, 3]}
    assert survivors(pruned) == important
