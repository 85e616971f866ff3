"""IoU / mAP scoring, dataset loading, and the evaluator factories."""
import json

import numpy as np
import pytest

from cnnadapt.errors import ModelFormatError
from cnnadapt.evaluation import (
    Detection,
    GroundTruthBox,
    accuracy_evaluator,
    decode_regression_head,
    evaluate_map,
    iou,
    load_dataset,
    map_evaluator,
    ordered_map,
    worker_count,
)
from cnnadapt.model import ConvParams, LayerSpec, Model
from cnnadapt.tensor import FeatureMap, save_tensor
from util import bank, conv_spec, feature_map


def box(x, y, w, h, cls=0):
    return GroundTruthBox(x=x, y=y, w=w, h=h, class_id=cls)


def det(x, y, w, h, cls=0, score=1.0):
    return Detection(x=x, y=y, w=w, h=h, class_id=cls, score=score)


# ---------------------------------------------------------------------------
# iou / evaluate_map
# ---------------------------------------------------------------------------

def test_iou_identical_boxes():
    assert iou(box(1, 2, 3, 4), box(1, 2, 3, 4)) == 1.0


def test_iou_disjoint_boxes():
    assert iou(box(0, 0, 1, 1), box(5, 5, 1, 1)) == 0.0


def test_iou_partial_overlap():
    # 1x1 intersection, union 4 + 4 - 1 = 7
    assert iou(box(0, 0, 2, 2), box(1, 1, 2, 2)) == pytest.approx(1 / 7)


def test_iou_degenerate_union_is_zero():
    assert iou(box(0, 0, 0, 0), box(0, 0, 0, 0)) == 0.0


def test_box_validation():
    with pytest.raises(ValueError):
        box(0, 0, -1, 2)
    with pytest.raises(ValueError):
        det(0, 0, 1, 1, score=1.5)


def test_map_perfect_detector():
    truths = [[box(0, 0, 4, 4, 0), box(10, 10, 2, 2, 1)], [box(3, 3, 5, 5, 1)]]
    preds = [[det(0, 0, 4, 4, 0), det(10, 10, 2, 2, 1)], [det(3, 3, 5, 5, 1)]]
    assert evaluate_map(preds, truths) == 1.0


def test_map_no_predictions():
    truths = [[box(0, 0, 4, 4)], [box(1, 1, 2, 2)]]
    assert evaluate_map([[], []], truths) == 0.0


def test_map_tp_before_fp_still_perfect():
    # one GT; ranked detections [TP @ .9, FP @ .5]: precision reaches 1
    # at recall 1 before the false positive shows up
    truths = [[box(0, 0, 4, 4)]]
    preds = [[det(0, 0, 4, 4, score=0.9), det(20, 20, 4, 4, score=0.5)]]
    assert evaluate_map(preds, truths) == pytest.approx(1.0)


def test_map_fp_before_tp_halves_ap():
    truths = [[box(0, 0, 4, 4)]]
    preds = [[det(20, 20, 4, 4, score=0.9), det(0, 0, 4, 4, score=0.5)]]
    assert evaluate_map(preds, truths) == pytest.approx(0.5)


def test_map_empty_truths_scores_zero():
    assert evaluate_map([[det(0, 0, 1, 1)]], [[]]) == 0.0


def test_map_second_match_to_same_gt_is_fp():
    truths = [[box(0, 0, 4, 4)]]
    preds = [[det(0, 0, 4, 4, score=0.9), det(0.5, 0.5, 4, 4, score=0.8)]]
    # duplicate hit on an already-matched GT counts against precision
    assert evaluate_map(preds, truths) == pytest.approx(1.0)
    preds_swapped = [[det(0.5, 0.5, 4, 4, score=0.9), det(0, 0, 4, 4, score=0.8)]]
    assert evaluate_map(preds_swapped, truths, iou_threshold=0.9) == pytest.approx(0.5)


def test_map_mean_runs_over_truth_classes_only():
    truths = [[box(0, 0, 4, 4, cls=0), box(8, 8, 4, 4, cls=3)]]
    preds = [[det(0, 0, 4, 4, cls=0, score=0.9),
              det(50, 50, 4, 4, cls=7, score=0.9)]]  # class 7 absent from GT
    # class 0 -> AP 1, class 3 -> AP 0, class 7 ignored
    assert evaluate_map(preds, truths) == pytest.approx(0.5)


def test_map_is_deterministic_under_score_ties():
    truths = [[box(0, 0, 4, 4)], [box(0, 0, 4, 4)]]
    preds = [[det(0, 0, 4, 4, score=0.5)], [det(9, 9, 4, 4, score=0.5)]]
    values = {evaluate_map(preds, truths) for _ in range(5)}
    assert len(values) == 1


def test_map_input_validation():
    with pytest.raises(ValueError, match="iou_threshold"):
        evaluate_map([[]], [[]], iou_threshold=0.0)
    with pytest.raises(ValueError, match="lists"):
        evaluate_map([[], []], [[]])


# ---------------------------------------------------------------------------
# decode_regression_head
# ---------------------------------------------------------------------------

def _head_map(cells):
    """cells: (h, w, ch) nested lists -> FeatureMap"""
    return FeatureMap(np.array(cells, dtype=np.float32))


def test_decode_needs_six_channels():
    with pytest.raises(ValueError, match="6 channels"):
        decode_regression_head(_head_map([[[1.0] * 5]]))


def test_decode_thresholds_and_classifies():
    fm = _head_map([
        [[1, 2, 3, 4, 0.9, 0.1, 0.8], [0, 0, 1, 1, 0.2, 1.0, 0.0]],
    ])
    dets = decode_regression_head(fm, score_threshold=0.5)
    assert len(dets) == 1
    d = dets[0]
    assert (d.x, d.y, d.w, d.h) == (1.0, 2.0, 3.0, 4.0)
    assert d.class_id == 1  # argmax over [0.1, 0.8]
    assert d.score == pytest.approx(0.9)


def test_decode_clamps_negative_extent():
    fm = _head_map([[[0, 0, -3, 2, 0.9, 1, 0]]])
    d = decode_regression_head(fm)[0]
    assert d.w == 0.0 and d.h == 2.0


def test_decode_scans_row_major():
    cell = [0, 0, 1, 1, 0.9, 1, 0]
    fm = _head_map([[cell, cell], [cell, cell]])
    assert len(decode_regression_head(fm)) == 4


# ---------------------------------------------------------------------------
# dataset directory
# ---------------------------------------------------------------------------

def _write_sample(directory, name, arr, label):
    save_tensor(directory / f"{name}.tnsr", FeatureMap(arr))
    (directory / f"{name}.json").write_text(json.dumps(label))


def test_load_dataset_pairs_and_sorts(tmp_path, rng):
    for i, name in enumerate(["b_img", "a_img"]):
        _write_sample(tmp_path, name, rng.random((3, 3, 2), dtype=np.float32),
                      {"class": i})
    samples = load_dataset(tmp_path)
    assert [s.name for s in samples] == ["a_img", "b_img"]
    assert samples[0].label == {"class": 1}
    assert samples[0].input.data.shape == (3, 3, 2)


def test_load_dataset_errors(tmp_path, rng):
    with pytest.raises(ModelFormatError, match="no .tnsr"):
        load_dataset(tmp_path)
    save_tensor(tmp_path / "x.tnsr", FeatureMap(rng.random((2, 2, 1), dtype=np.float32)))
    with pytest.raises(ModelFormatError, match="label"):
        load_dataset(tmp_path)
    (tmp_path / "x.json").write_text(json.dumps({"score": 1}))
    with pytest.raises(ModelFormatError, match="'class' or 'boxes'"):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# evaluator factories
# ---------------------------------------------------------------------------

def _constant_model(out_channels, values, hw=2, in_channels=1):
    """1x1 conv with zero weights: output is the bias vector at every cell."""
    layers = (
        LayerSpec(id="input", kind="input", height=hw, width=hw, channels=in_channels),
        conv_spec("conv_1", "input", out_channels, 1),
    )
    w = np.zeros((1, 1, in_channels, out_channels), dtype=np.float32)
    params = {"conv_1": ConvParams(bank(w, values), None)}
    return Model(layers, params)


def test_accuracy_evaluator_counts_argmax_hits(tmp_path, rng):
    # constant model always predicts class 2
    model = _constant_model(4, [0.0, 0.1, 0.9, 0.2])
    for i, cls in enumerate([2, 2, 0]):
        _write_sample(tmp_path, f"s{i}", rng.random((2, 2, 1), dtype=np.float32),
                      {"class": cls})
    evaluate = accuracy_evaluator(load_dataset(tmp_path))
    assert evaluate(model) == pytest.approx(2 / 3)


def test_accuracy_evaluator_rejects_box_labels(tmp_path, rng):
    _write_sample(tmp_path, "s0", rng.random((2, 2, 1), dtype=np.float32),
                  {"boxes": []})
    with pytest.raises(ModelFormatError, match="class"):
        accuracy_evaluator(load_dataset(tmp_path))


def test_map_evaluator_scores_constant_box_head(tmp_path, rng):
    # head emits (x, y, w, h, score, c0, c1) = (1, 1, 2, 2, 0.9, 0, 1) per cell;
    # with a 1x1 spatial head that is exactly one detection of class 1
    model = _constant_model(7, [1, 1, 2, 2, 0.9, 0.0, 1.0], hw=1)
    label = {"boxes": [{"x": 1, "y": 1, "w": 2, "h": 2, "class": 1}]}
    _write_sample(tmp_path, "s0", rng.random((1, 1, 1), dtype=np.float32), label)
    evaluate = map_evaluator(load_dataset(tmp_path))
    assert evaluate(model) == pytest.approx(1.0)
    # move the ground truth away and the same detector scores zero
    miss = {"boxes": [{"x": 50, "y": 50, "w": 2, "h": 2, "class": 1}]}
    (tmp_path / "s0.json").write_text(json.dumps(miss))
    evaluate = map_evaluator(load_dataset(tmp_path))
    assert evaluate(model) == 0.0


def test_map_evaluator_rejects_class_labels(tmp_path, rng):
    _write_sample(tmp_path, "s0", rng.random((2, 2, 1), dtype=np.float32),
                  {"class": 3})
    with pytest.raises(ModelFormatError, match="box"):
        map_evaluator(load_dataset(tmp_path))


def test_evaluators_refuse_an_empty_sample_list():
    # with no samples accuracy would divide by zero and mAP would score every
    # model 0.0, so a prune sweep would accept every step
    for factory in (accuracy_evaluator, map_evaluator):
        with pytest.raises(ValueError, match=f"{factory.__name__} needs at least one sample"):
            factory([])


# ---------------------------------------------------------------------------
# worker plumbing
# ---------------------------------------------------------------------------

def test_worker_count_env_parsing(monkeypatch):
    monkeypatch.setenv("CNNADAPT_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("CNNADAPT_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.delenv("CNNADAPT_THREADS")
    assert worker_count() >= 1
    monkeypatch.setenv("CNNADAPT_THREADS", "two")
    with pytest.raises(ValueError, match="integer"):
        worker_count()
    monkeypatch.setenv("CNNADAPT_THREADS", "-1")
    with pytest.raises(ValueError, match=">= 0"):
        worker_count()


@pytest.mark.parametrize("threads", ["1", "4"])
def test_ordered_map_preserves_input_order(monkeypatch, threads):
    monkeypatch.setenv("CNNADAPT_THREADS", threads)
    items = list(range(40))
    assert ordered_map(lambda x: x * x, items) == [x * x for x in items]


def test_ordered_map_empty_sequence():
    assert ordered_map(lambda x: x, []) == []
