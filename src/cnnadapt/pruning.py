"""Filter-importance metrics, structural filter removal and the threshold sweep.

Pruning operates on fused models only. Metrics are computed once up front;
each sweep step prunes from the original model (thresholding is monotone,
so the routine is stateless and restartable) and is accepted while the
evaluation score stays within the allowed budget of the initial score.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .analysis import count_flops, count_params
from .errors import EvaluatorError, PipelineError, ShapeError
from .model import ConvParams, Model, shape_infer
from .tensor import FilterBank

log = logging.getLogger(__name__)

REPORT_VERSION = 1

METRIC_FROBENIUS = "frobenius"
METRIC_SPARSITY = "sparsity"

# Sp_eps default: weights below 0.003 in magnitude count as near-zero
DEFAULT_SPARSITY_EPS = 0.003


@dataclass(frozen=True)
class PruneConfig:
    metric: str = METRIC_FROBENIUS
    sparsity_eps: float = DEFAULT_SPARSITY_EPS
    delta_map: float = 0.01
    t_start: float = 0.0
    delta_t: float = 0.02
    min_filters_per_layer: int = 1
    no_prune: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.metric not in (METRIC_FROBENIUS, METRIC_SPARSITY):
            raise ValueError(f"unknown metric {self.metric!r}")
        for name in ("t_start", "delta_t", "sparsity_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.delta_map <= 1.0:
            raise ValueError(f"delta_map must lie in [0, 1], got {self.delta_map}")
        if self.delta_t <= 0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")
        if self.t_start < 0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if self.sparsity_eps < 0:
            raise ValueError(f"sparsity_eps must be >= 0, got {self.sparsity_eps}")
        if self.min_filters_per_layer < 1:
            raise ValueError(f"min_filters_per_layer must be >= 1, got {self.min_filters_per_layer}")
        object.__setattr__(self, "no_prune", frozenset(self.no_prune))


def frobenius_norms(filters: FilterBank) -> np.ndarray:
    """Per-filter sqrt of the sum of squared weights; biases excluded."""
    w2d = filters.weights.reshape(-1, filters.num_filters)
    return np.sqrt(np.einsum("kf,kf->f", w2d, w2d, dtype=np.float64))


def filter_sparsity(filters: FilterBank, eps: float) -> np.ndarray:
    """Per-filter 1 - (count |w| < eps) / (weight count); low means prunable."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    w = filters.weights
    below = (np.abs(w) < eps).sum(axis=(0, 1, 2))
    count = w.shape[0] * w.shape[1] * w.shape[2]
    return 1.0 - below / count


# FilterMetricTable: layer id -> per-filter metric values
FilterMetricTable = dict[str, np.ndarray]


def compute_metric_table(model: Model, config: PruneConfig) -> FilterMetricTable:
    """Metric vector for every prunable conv (computed once, before any removal)."""
    table: FilterMetricTable = {}
    for layer in model.conv_layers():
        if layer.id in config.no_prune:
            continue
        fb = model.params[layer.id].filters
        if config.metric == METRIC_FROBENIUS:
            table[layer.id] = frobenius_norms(fb)
        else:
            table[layer.id] = filter_sparsity(fb, config.sparsity_eps)
    return table


def _select_removals(metric: np.ndarray, threshold: float, min_keep: int) -> np.ndarray:
    """Sorted indices of the filters whose metric lies strictly below the
    threshold; past the cap of nf - min_keep, the least important by
    (metric, index)."""
    below = np.flatnonzero(metric < threshold)
    cap = max(len(metric) - min_keep, 0)
    if len(below) > cap:
        below = np.sort(below[np.lexsort((below, metric[below]))[:cap]])
    return below


def prune_below(model: Model, metrics: FilterMetricTable, threshold: float,
                config: PruneConfig) -> tuple[Model, dict[str, list[int]]]:
    """Remove filters with metric strictly below the threshold.

    Channel removal propagates downstream: consumers drop the matching
    input slices, concat consumers account for per-branch offsets, and
    no-prune layers keep their filters but shrink input channels.
    """
    if model.has_batchnorm():
        raise PipelineError("model contains batchnorm; run fuse first")
    for lid, metric in metrics.items():
        nf = model.layer(lid).num_filters
        if len(metric) != nf:
            raise ShapeError(f"metric table for {lid!r} has {len(metric)} entries, "
                             f"layer has {nf} filters")
    orig_shapes = shape_infer(model)

    kept: dict[str, np.ndarray] = {}    # surviving ORIGINAL output-channel indices, sorted
    removed: dict[str, list[int]] = {}
    layers = []
    params: dict[str, ConvParams] = {}
    for layer in model.layers:
        if layer.kind == "input":
            kept[layer.id] = np.arange(layer.channels)
        elif layer.kind == "conv":
            fb = model.params[layer.id].filters
            if layer.id in config.no_prune:
                removed_idx = np.arange(0)
            elif layer.id not in metrics:
                raise ShapeError(f"metric table is missing prunable layer {layer.id!r}")
            else:
                removed_idx = _select_removals(metrics[layer.id], threshold,
                                               config.min_filters_per_layer)
            keep_f = np.delete(np.arange(fb.num_filters), removed_idx)
            params[layer.id] = ConvParams(fb.select(kept[layer.inputs[0]], keep_f), None)
            kept[layer.id] = keep_f
            removed[layer.id] = removed_idx.tolist()
            layer = replace(layer, num_filters=len(keep_f))
        elif layer.kind == "concat":
            a, b = layer.inputs
            kept[layer.id] = np.concatenate([kept[a], orig_shapes[a][2] + kept[b]])
        else:  # maxpool, upsample, output_marker
            kept[layer.id] = kept[layer.inputs[0]]
        layers.append(layer)
    return Model(tuple(layers), params), removed


@dataclass(frozen=True)
class PruneStep:
    threshold: float
    filters_removed: dict[str, int]
    score: float
    param_reduction_pct: float
    flop_reduction_pct: float
    accepted: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PruneReport:
    metric: str
    initial_score: float
    steps: tuple[PruneStep, ...]
    final_threshold: Optional[float]

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "metric": self.metric,
            "initial_score": self.initial_score,
            "final_threshold": self.final_threshold,
            "steps": [s.to_dict() for s in self.steps],
        }


def prune_routine(model: Model, config: PruneConfig,
                  evaluator: Callable[[Model], float]) -> tuple[Model, PruneReport]:
    """Threshold sweep: accept candidates while the score drop stays in budget.

    Metrics and the initial score are computed once beforehand. Thresholds
    form the arithmetic sequence t_start + k * delta_t; the sweep stops at
    the first rejected step, or once the threshold passes the largest
    metric value. Past the largest metric of a filter a layer may still
    lose, no candidate changes, so an accepted step there jumps to the last.
    """
    if model.has_batchnorm():
        raise PipelineError("model contains batchnorm; run fuse first")
    metrics = compute_metric_table(model, config)
    max_metric = max((float(v.max()) for v in metrics.values() if v.size), default=0.0)
    keep = config.min_filters_per_layer
    last_change = max((float(v[_select_removals(v, np.inf, keep)].max(initial=0.0))
                       for v in metrics.values()), default=0.0)
    k_last = (max_metric - config.t_start) // config.delta_t + 1
    initial = float(evaluator(model))
    base_params = count_params(model).total
    base_flops = count_flops(model).total

    steps: list[PruneStep] = []
    accepted_model, accepted_t = model, None
    k = 0
    while True:
        t = config.t_start + k * config.delta_t
        candidate, removed = prune_below(model, metrics, t, config)
        try:
            score = float(evaluator(candidate))
        except Exception as e:
            report = PruneReport(config.metric, initial, tuple(steps), accepted_t)
            raise EvaluatorError(f"evaluator failed at threshold {t}: {e}",
                                 model=accepted_model, report=report) from e
        accepted = (initial - score) <= config.delta_map
        step = PruneStep(
            threshold=t,
            filters_removed={lid: len(idx) for lid, idx in removed.items()},
            score=score,
            param_reduction_pct=100.0 * (base_params - count_params(candidate).total) / base_params,
            flop_reduction_pct=100.0 * (base_flops - count_flops(candidate).total) / base_flops,
            accepted=accepted,
        )
        steps.append(step)
        log.info("threshold %.6g: removed %d filters, score %.4f (%s)",
                 t, sum(step.filters_removed.values()), score,
                 "accepted" if accepted else "rejected, stopping")
        if not accepted:
            break
        accepted_model, accepted_t = candidate, t
        if t > max_metric or k == k_last and t > last_change:
            break
        k = max(k + 1, k_last) if t > last_change else k + 1

    report = PruneReport(config.metric, initial, tuple(steps), accepted_t)
    return accepted_model, report
