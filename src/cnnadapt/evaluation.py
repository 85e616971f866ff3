"""Detection/classification evaluators used by the pruning sweep.

The mAP computation is VOC-style: per class, detections are ranked by
score across all images, greedily matched to unmatched ground truth at an
IoU threshold, and AP is the area under the all-point interpolated
precision-recall curve. The mean runs over classes present in the truths.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ModelFormatError, file_content
from .model import Model, float_infer, shape_infer
from .tensor import FeatureMap, load_tensor

THREADS_ENV = "CNNADAPT_THREADS"

# Evaluators run their samples through float_infer in batches whose summed
# float32 activations (every layer output, as shape_infer sizes it) stay
# within this budget; a sample over budget on its own runs alone. A batch
# holds two TinyYOLOv3-416 images (~31 MB each) or ~38 at 96x96.
EVAL_BATCH_BYTES = 64 << 20


def worker_count() -> int:
    """Worker cap from CNNADAPT_THREADS (0 or unset = auto)."""
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError(f"{THREADS_ENV} must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def ordered_map(fn: Callable, items: Sequence):
    """Apply fn over items, possibly threaded; results keep input order."""
    workers = min(worker_count(), len(items)) or 1
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class GroundTruthBox:
    """Axis-aligned box in pixels, top-left origin."""

    x: float
    y: float
    w: float
    h: float
    class_id: int

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box extents must be non-negative, got w={self.w}, h={self.h}")


@dataclass(frozen=True)
class Detection(GroundTruthBox):
    score: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


def iou(a: GroundTruthBox, b: GroundTruthBox) -> float:
    """Intersection over union; 0 when the union is empty."""
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def _interpolated_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    # all-point interpolation: integrate max precision to the right of each recall level
    mrec = np.concatenate(([0.0], recall, [recall[-1] if recall.size else 0.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    changed = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))


def evaluate_map(predictions: Sequence[Sequence[Detection]],
                 truths: Sequence[Sequence[GroundTruthBox]],
                 iou_threshold: float = 0.5) -> float:
    """Mean average precision over the classes present in the ground truth.

    Score ties break by stable input order (image, then within-image order),
    so the result is deterministic for a fixed input.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    if len(predictions) != len(truths):
        raise ValueError(f"{len(predictions)} prediction lists vs {len(truths)} truth lists")

    classes = sorted({box.class_id for img in truths for box in img})
    if not classes:
        return 0.0

    aps = []
    for cls in classes:
        gt_per_image = [[b for b in img if b.class_id == cls] for img in truths]
        n_gt = sum(len(g) for g in gt_per_image)
        dets = [(det.score, img_idx, det)
                for img_idx, img in enumerate(predictions)
                for det in img if det.class_id == cls]
        dets.sort(key=lambda t: -t[0])  # stable: ties keep input order
        if not dets:
            aps.append(0.0)
            continue

        matched: set[tuple[int, int]] = set()
        tp = np.zeros(len(dets))
        for i, (_, img_idx, det) in enumerate(dets):
            best_iou, best_j = 0.0, -1
            for j, gt in enumerate(gt_per_image[img_idx]):
                if (img_idx, j) in matched:
                    continue
                v = iou(det, gt)
                if v > best_iou:
                    best_iou, best_j = v, j
            if best_j >= 0 and best_iou >= iou_threshold:
                matched.add((img_idx, best_j))
                tp[i] = 1.0

        cum_tp = np.cumsum(tp)
        recall = cum_tp / n_gt
        precision = cum_tp / np.arange(1, len(dets) + 1)
        aps.append(_interpolated_ap(recall, precision))
    return float(np.mean(aps))


def decode_regression_head(output: FeatureMap, score_threshold: float = 0.5) -> list[Detection]:
    """Toy direct-regression decode for desk-scale detection tests.

    Each cell predicts one box over channels [x, y, w, h, score,
    class_0 .. class_k]; cells whose score exceeds the threshold emit a
    detection with the argmax class. Cells scan in row-major order.
    """
    if output.channels < 6:
        raise ValueError(
            f"regression head needs >= 6 channels (x, y, w, h, score, classes), got {output.channels}")
    dets = []
    data = output.data
    for r in range(output.height):
        for c in range(output.width):
            cell = data[r, c]
            score = float(cell[4])
            if score <= score_threshold:
                continue
            w, h = max(float(cell[2]), 0.0), max(float(cell[3]), 0.0)
            dets.append(Detection(x=float(cell[0]), y=float(cell[1]), w=w, h=h,
                                  class_id=int(np.argmax(cell[5:])),
                                  score=min(max(score, 0.0), 1.0)))
    return dets


# ---------------------------------------------------------------------------
# Pruning dataset directory: pairs <name>.tnsr + <name>.json
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    name: str
    input: FeatureMap
    label: dict


def load_dataset(directory) -> list[Sample]:
    directory = os.fspath(directory)
    with file_content(directory):
        names = sorted(f[:-5] for f in os.listdir(directory) if f.endswith(".tnsr"))
        if not names:
            raise ModelFormatError("no .tnsr inputs found")
    samples = []
    for name in names:
        label_path = os.path.join(directory, f"{name}.json")
        if not os.path.exists(label_path):
            raise ModelFormatError(f"{directory}: {name}.tnsr has no {name}.json label")
        fm = load_tensor(os.path.join(directory, f"{name}.tnsr"))
        if not isinstance(fm, FeatureMap):
            raise ModelFormatError(f"{directory}: {name}.tnsr is not a float tensor")
        with file_content(label_path):
            try:
                with open(label_path) as fh:
                    label = json.load(fh)
            except (ValueError, RecursionError) as e:  # invalid, too deeply nested or not UTF-8
                raise ModelFormatError(f"invalid JSON ({e})") from e
            if not isinstance(label, dict):
                raise ModelFormatError("label must be a JSON object")
            if "class" not in label and "boxes" not in label:
                raise ModelFormatError("label needs 'class' or 'boxes'")
        samples.append(Sample(name, fm, label))
    return samples


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _batched_outputs(model: Model, inputs: Sequence[FeatureMap]) -> list[list[FeatureMap]]:
    """Per input, the model outputs, computed in batches of at most EVAL_BATCH_BYTES."""
    shapes = shape_infer(model)
    sample_bytes = 4 * sum(int(np.prod(shapes[l.id])) for l in model.layers
                           if l.kind != "output_marker")
    size = max(1, EVAL_BATCH_BYTES // sample_bytes)
    out_ids = model.output_ids()
    outputs = []
    for i in range(0, len(inputs), size):
        for trace in float_infer(model, inputs[i:i + size]):
            outputs.append([trace[lid] for lid in out_ids])
    return outputs


def _top1(output: FeatureMap) -> int:
    """Argmax of the channel means, taken in float32; if a float32 sum
    overflows, every mean is taken again in float64, where the mean of
    finite float32 values is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = output.data.mean(axis=(0, 1))
    if not np.isfinite(means).all():
        means = output.data.mean(axis=(0, 1), dtype=np.float64)
    return int(np.argmax(means))


def predict_class(model: Model, fm: FeatureMap) -> int:
    """Top-1 class: argmax over channels of the spatially averaged last output."""
    return _top1(float_infer(model, fm)[model.output_ids()[-1]])


def accuracy_evaluator(samples: Iterable[Sample]) -> Callable[[Model], float]:
    """Top-1 accuracy over {"class": int} labels."""
    samples = list(samples)
    bad = [s.name for s in samples if "class" not in s.label]
    if bad:
        raise ModelFormatError(f"samples without class labels: {bad}")
    bad = [s.name for s in samples if not _is_int(s.label["class"])]
    if bad:
        raise ModelFormatError(f"samples whose class label is not an integer: {bad}")
    inputs = [s.input for s in samples]

    def evaluate(model: Model) -> float:
        outputs = _batched_outputs(model, inputs)
        hits = sum(_top1(outs[-1]) == s.label["class"] for outs, s in zip(outputs, samples))
        return hits / len(samples)

    return evaluate


_BOX_KEYS = ("x", "y", "w", "h", "class")


def _truth_boxes(sample: Sample) -> list[GroundTruthBox]:
    boxes = sample.label["boxes"]
    if not isinstance(boxes, list):
        raise ModelFormatError(f"sample {sample.name}: 'boxes' must be a list")
    truths = []
    for b in boxes:
        if not (isinstance(b, dict) and all(k in b for k in _BOX_KEYS)
                and all(_is_number(b[k]) for k in _BOX_KEYS) and _is_int(b["class"])):
            raise ModelFormatError(f"sample {sample.name}: box {b!r} needs numbers "
                                   f"{', '.join(_BOX_KEYS)}, with an integer class")
        try:
            truths.append(GroundTruthBox(x=b["x"], y=b["y"], w=b["w"], h=b["h"],
                                         class_id=b["class"]))
        except ValueError as e:
            raise ModelFormatError(f"sample {sample.name}: {e}") from e
    return truths


def map_evaluator(samples: Iterable[Sample], iou_threshold: float = 0.5,
                  score_threshold: float = 0.5) -> Callable[[Model], float]:
    """mAP over {"boxes": [...]} labels, decoding raw head outputs with
    ``decode_regression_head``."""
    samples = list(samples)
    bad = [s.name for s in samples if "boxes" not in s.label]
    if bad:
        raise ModelFormatError(f"samples without box labels: {bad}")
    truths = [_truth_boxes(s) for s in samples]
    inputs = [s.input for s in samples]

    def evaluate(model: Model) -> float:
        predictions = [[det for out in outs for det in decode_regression_head(out, score_threshold)]
                       for outs in _batched_outputs(model, inputs)]
        return evaluate_map(predictions, truths, iou_threshold)

    return evaluate
