"""Batched float inference: a list of maps runs as one batch stacked along the
height and must give the same bits as running each map on its own."""
import numpy as np
import pytest

from cnnadapt import evaluation
from cnnadapt.errors import ShapeError
from cnnadapt.evaluation import (
    Sample,
    accuracy_evaluator,
    decode_regression_head,
    map_evaluator,
    predict_class,
)
from cnnadapt.fusion import fuse_model
from cnnadapt.model import (
    ConvParams,
    LayerSpec,
    Model,
    float_infer,
    replace_layer,
    shape_infer,
)
from cnnadapt.pruning import PruneConfig, compute_metric_table, prune_below
from cnnadapt.tensor import BatchNormParams, FilterBank
from cnnadapt.tinyyolo import build_tinyyolov3
from util import conv_spec, feature_map, random_bank


def assert_batch_matches_single(model, maps, taps):
    batched = float_infer(model, maps, taps=taps)
    assert isinstance(batched, list) and len(batched) == len(maps)
    for fm, trace in zip(maps, batched):
        single = float_infer(model, fm, taps=taps)
        assert list(trace) == list(single)
        for lid, out in single.items():
            assert trace[lid].shape == out.shape, lid
            assert trace[lid].data.tobytes() == out.data.tobytes(), lid


def fan_in_tinyyolo(rng, size):
    """Fused TinyYOLOv3 at size x size, weights uniform in +-sqrt(3/K) so that
    activations keep a unit scale through all 13 convolutions."""
    model = build_tinyyolov3(num_classes=80)
    model = replace_layer(model, "input", height=size, width=size)
    params = {}
    for layer in model.conv_layers():
        p = model.params[layer.id]
        kh, kw, c_in, nf = p.filters.weights.shape
        a = np.sqrt(3.0 / (kh * kw * c_in))
        fb = FilterBank(rng.uniform(-a, a, (kh, kw, c_in, nf)), rng.uniform(-0.1, 0.1, nf))
        bn = None
        if p.batchnorm is not None:
            bn = BatchNormParams(mu=rng.uniform(-0.1, 0.1, nf), sigma2=rng.uniform(1, 2, nf),
                                 gamma=rng.uniform(0.9, 1.1, nf),
                                 beta=rng.uniform(-0.1, 0.1, nf))
        params[layer.id] = ConvParams(fb, bn)
    return fuse_model(Model(model.layers, params))


def pruned_candidate(model):
    """A prune_below candidate at the median filter norm, heads exempt."""
    heads = frozenset(l.id for l in model.conv_layers() if l.activation == "linear")
    config = PruneConfig(no_prune=heads)
    metrics = compute_metric_table(model, config)
    threshold = float(np.median(np.concatenate(list(metrics.values()))))
    return prune_below(model, metrics, threshold, config)[0]


@pytest.fixture(scope="module")
def yolo96():
    return fan_in_tinyyolo(np.random.default_rng(7), 96)


@pytest.mark.parametrize("taps", [True, False])
@pytest.mark.parametrize("variant", ["full", "pruned"])
def test_tinyyolo96_batch_is_bit_identical(yolo96, variant, taps):
    model = yolo96 if variant == "full" else pruned_candidate(yolo96)
    rng = np.random.default_rng(11)
    maps = [feature_map(rng, 96, 96, 3) for _ in range(3)]
    assert_batch_matches_single(model, maps, taps)


@pytest.mark.parametrize("taps", [True, False])
def test_tinyyolo32_deep_maps_stay_apart(taps):
    # At 32x32 the maps after the fifth pool are 1x1, so the stride-1 maxpool's
    # overhanging window and every 3x3 conv's padding sit where the next map
    # of the stack begins.
    model = fan_in_tinyyolo(np.random.default_rng(3), 32)
    assert shape_infer(model)["pool_6"][:2] == (1, 1)
    rng = np.random.default_rng(12)
    maps = [feature_map(rng, 32, 32, 3, lo=-1.0) for _ in range(4)]
    assert_batch_matches_single(model, maps, taps)


def toy_valid_stride2(rng):
    """Valid padding, stride 2, an overhanging 3x3 pool, upsample and concat."""
    layers = (
        LayerSpec(id="input", kind="input", height=9, width=9, channels=2),
        conv_spec("conv_1", "input", 4, 3, act="leaky", stride=2, padding="valid"),
        LayerSpec(id="pool_1", kind="maxpool", inputs=("conv_1",), size=3, stride=2),
        conv_spec("conv_2", "pool_1", 3, 1),
        LayerSpec(id="up_1", kind="upsample", inputs=("conv_2",), factor=2),
        LayerSpec(id="cat_1", kind="concat", inputs=("conv_1", "up_1")),
        conv_spec("conv_3", "cat_1", 5, 2, padding="valid"),
    )
    params = {"conv_1": ConvParams(random_bank(rng, 3, 2, 4)),
              "conv_2": ConvParams(random_bank(rng, 1, 4, 3)),
              "conv_3": ConvParams(random_bank(rng, 2, 7, 5))}
    return Model(layers, params)


@pytest.mark.parametrize("taps", [True, False])
def test_toy_valid_stride2_batch_is_bit_identical(rng, taps):
    model = toy_valid_stride2(rng)
    assert shape_infer(model)["conv_3"] == (3, 3, 5)
    maps = [feature_map(rng, 9, 9, 2, lo=-1.0) for _ in range(5)]
    assert_batch_matches_single(model, maps, taps)


def test_batch_input_validation(rng):
    model = toy_valid_stride2(rng)
    fm = feature_map(rng, 9, 9, 2)
    with pytest.raises(ValueError, match="at least one"):
        float_infer(model, [])
    with pytest.raises(ShapeError, match="input shape"):
        float_infer(model, [fm, feature_map(rng, 8, 9, 2)])
    (trace,) = float_infer(model, [fm])
    assert trace["conv_3"].data.tobytes() == float_infer(model, fm)["conv_3"].data.tobytes()


# ---------------------------------------------------------------------------
# evaluators: scores do not depend on how the samples are split into batches
# ---------------------------------------------------------------------------

def head_model(rng):
    """7-channel regression head (x, y, w, h, score, c0, c1) over a 3x3 map,
    biased towards boxes of positive extent."""
    layers = (
        LayerSpec(id="input", kind="input", height=3, width=3, channels=2),
        conv_spec("conv_1", "input", 6, 3, act="leaky"),
        conv_spec("conv_2", "conv_1", 7, 1),
    )
    head = random_bank(rng, 1, 6, 7, scale=1.0)
    head = FilterBank(head.weights, head.biases + np.array([0, 0, 3, 3, 0, 0, 0]))
    params = {"conv_1": ConvParams(random_bank(rng, 3, 2, 6)), "conv_2": ConvParams(head)}
    return Model(layers, params)


def _count_batches(monkeypatch):
    calls = []
    real = evaluation.float_infer

    def counting(model, inputs, taps=False):
        calls.append(len(inputs))
        return real(model, inputs, taps)
    monkeypatch.setattr(evaluation, "float_infer", counting)
    return calls


def _scores_by_budget(monkeypatch, model, make_evaluator):
    """Evaluator score and batch sizes with one batch, two maps a batch, one map a batch."""
    shapes = shape_infer(model)
    sample_bytes = 4 * sum(int(np.prod(shapes[l.id])) for l in model.layers)
    calls = _count_batches(monkeypatch)
    results = []
    for budget in (1 << 30, 2 * sample_bytes, 1):
        monkeypatch.setattr(evaluation, "EVAL_BATCH_BYTES", budget)
        calls.clear()
        results.append((make_evaluator()(model), list(calls)))
    return results


def test_accuracy_evaluator_is_independent_of_batching(monkeypatch, rng):
    model = head_model(rng)
    maps = [feature_map(rng, 3, 3, 2, lo=-1.0) for _ in range(5)]
    # labels: the model's own top-1 on three samples, another class on two
    labels = [predict_class(model, fm) for fm in maps]
    labels[1] = (labels[1] + 1) % 7
    labels[4] = (labels[4] + 2) % 7
    samples = [Sample(f"s{i}", fm, {"class": c}) for i, (fm, c) in enumerate(zip(maps, labels))]
    results = _scores_by_budget(monkeypatch, model, lambda: accuracy_evaluator(samples))
    assert [batches for _, batches in results] == [[5], [2, 2, 1], [1, 1, 1, 1, 1]]
    assert [score for score, _ in results] == [0.6] * 3


def test_map_evaluator_is_independent_of_batching(monkeypatch, rng):
    model = head_model(rng)
    maps = [feature_map(rng, 3, 3, 2, lo=-1.0) for _ in range(5)]
    samples = []
    for i, fm in enumerate(maps):
        dets = decode_regression_head(float_infer(model, fm)["conv_2"])
        # ground truth: this sample's own first detection, shifted away on odd samples
        boxes = [{"x": d.x + 10.0 * (i % 2), "y": d.y, "w": d.w, "h": d.h,
                  "class": d.class_id} for d in dets[:1]]
        samples.append(Sample(f"s{i}", fm, {"boxes": boxes}))
    assert any(s.label["boxes"] for s in samples)
    results = _scores_by_budget(monkeypatch, model, lambda: map_evaluator(samples))
    assert [batches for _, batches in results] == [[5], [2, 2, 1], [1, 1, 1, 1, 1]]
    scores = [score for score, _ in results]
    assert scores[0] == scores[1] == scores[2]
    assert 0.0 < scores[0] < 1.0

