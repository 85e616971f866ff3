"""FLOP/parameter accounting and float-vs-integer deviation reports.

Conventions (fixed so reduction percentages are reproducible): one
multiply-accumulate costs 2 FLOPs with the bias add absorbed, and a
batchnorm sublayer costs 4 FLOPs per output element (subtract, divide,
scale, shift). Pooling, upsampling and concatenation count as zero.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ShapeError
from .model import InferenceTrace, Model, shape_infer
from .tensor import IntFeatureMap, _atomic_write

REPORT_VERSION = 1
# Elements per block of compare_traces' squared deviations (256 KiB of float64)
_PAIRWISE_LEAF = 1 << 15


@dataclass(frozen=True)
class LayerFlops:
    layer_id: str
    conv_flops: int
    batchnorm_flops: int

    @property
    def total(self) -> int:
        return self.conv_flops + self.batchnorm_flops


@dataclass(frozen=True)
class FlopReport:
    layers: tuple[LayerFlops, ...]

    @property
    def conv_total(self) -> int:
        return sum(l.conv_flops for l in self.layers)

    @property
    def batchnorm_total(self) -> int:
        return sum(l.batchnorm_flops for l in self.layers)

    @property
    def total(self) -> int:
        return self.conv_total + self.batchnorm_total

    def to_dict(self, reference: "FlopReport | None" = None) -> dict:
        d = {
            "report_version": REPORT_VERSION,
            "layers": [{**asdict(l), "total": l.total} for l in self.layers],
            "conv_total": self.conv_total,
            "batchnorm_total": self.batchnorm_total,
            "total": self.total,
        }
        if reference is not None:
            d["reference_total"] = reference.total
            d["reduction"] = reference.total - self.total
            d["reduction_pct"] = flop_reduction_pct(reference, self)
        return d

    def format_table(self, reference: "FlopReport | None" = None,
                     per_layer: bool = True) -> str:
        lines = []
        if per_layer:
            lines.append(f"{'layer':<12} {'conv FLOPs':>16} {'batchnorm FLOPs':>16} {'total':>16}")
            for l in self.layers:
                lines.append(f"{l.layer_id:<12} {l.conv_flops:>16,} "
                             f"{l.batchnorm_flops:>16,} {l.total:>16,}")
        lines.append(f"{'total':<12} {self.conv_total:>16,} "
                     f"{self.batchnorm_total:>16,} {self.total:>16,}"
                     f"   ({self.conv_total / 1e9:.2f} GFLOPs conv, "
                     f"{self.total / 1e9:.2f} GFLOPs total)")
        if reference is not None:
            delta = reference.total - self.total
            lines.append(f"reduction vs reference: {delta:,} FLOPs "
                         f"({flop_reduction_pct(reference, self):.1f}%)")
        return "\n".join(lines)


def flop_reduction_pct(reference: FlopReport, this: FlopReport) -> float:
    return 100.0 * (reference.total - this.total) / reference.total


def count_flops(model: Model) -> FlopReport:
    """Per-conv FLOPs (2 * kh * kw * c_in * out_h * out_w * nf, plus batchnorm)."""
    shapes = shape_infer(model)
    layers = []
    for layer in model.conv_layers():
        fb = model.params[layer.id].filters
        oh, ow, _ = shapes[layer.id]
        conv = 2 * fb.kernel_h * fb.kernel_w * fb.in_channels * oh * ow * fb.num_filters
        bn = 4 * oh * ow * fb.num_filters if layer.has_batchnorm else 0
        layers.append(LayerFlops(layer.id, conv, bn))
    return FlopReport(tuple(layers))


@dataclass(frozen=True)
class LayerParamCount:
    layer_id: str
    weights: int
    biases: int
    batchnorm: int

    @property
    def total(self) -> int:
        return self.weights + self.biases + self.batchnorm


@dataclass(frozen=True)
class ParamReport:
    layers: tuple[LayerParamCount, ...]

    @property
    def total(self) -> int:
        return sum(l.total for l in self.layers)

    @property
    def weights_total(self) -> int:
        return sum(l.weights for l in self.layers)

    def percentages(self) -> list[tuple[str, float, float]]:
        """(layer_id, share %, cumulative %) in layer order; cumulative ends at 100."""
        total = self.total
        out, cum = [], 0.0
        for l in self.layers:
            share = 100.0 * l.total / total if total else 0.0
            cum += share
            out.append((l.layer_id, share, cum))
        return out

    def to_dict(self) -> dict:
        pct = {lid: (share, cum) for lid, share, cum in self.percentages()}
        return {
            "report_version": REPORT_VERSION,
            "layers": [{**asdict(l), "total": l.total, "pct_of_model": pct[l.layer_id][0],
                        "cumulative_pct": pct[l.layer_id][1]} for l in self.layers],
            "total": self.total,
        }

    def format_table(self, per_layer: bool = True) -> str:
        lines = []
        if per_layer:
            lines.append(f"{'layer':<12} {'weights':>12} {'biases':>8} {'batchnorm':>10} "
                         f"{'share':>7} {'cumul':>7}")
            for (l, (lid, share, cum)) in zip(self.layers, self.percentages()):
                lines.append(f"{l.layer_id:<12} {l.weights:>12,} {l.biases:>8,} "
                             f"{l.batchnorm:>10,} {share:>6.1f}% {cum:>6.1f}%")
        lines.append(f"{'total':<12} {self.total:>12,} parameters")
        return "\n".join(lines)


def count_params(model: Model) -> ParamReport:
    layers = []
    for layer in model.conv_layers():
        fb = model.params[layer.id].filters
        layers.append(LayerParamCount(
            layer_id=layer.id,
            weights=int(fb.weights.size),
            biases=fb.num_filters if layer.has_bias else 0,
            batchnorm=4 * fb.num_filters if layer.has_batchnorm else 0,
        ))
    return ParamReport(tuple(layers))


@dataclass(frozen=True)
class MseEntry:
    layer_id: str
    n_elements: int
    mse: float


@dataclass(frozen=True)
class MseReport:
    entries: tuple[MseEntry, ...]

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "layers": [asdict(e) for e in self.entries],
            "max_mse": self.max_mse,
        }

    def write_csv(self, path) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["layer_id", "n_elements", "mse"])
        for e in self.entries:
            writer.writerow([e.layer_id, e.n_elements, f"{e.mse:.10e}"])
        _atomic_write(path, [buf.getvalue().encode()])

    def format_table(self) -> str:
        lines = [f"{'layer':<12} {'elements':>10} {'MSE':>14}"]
        for e in self.entries:
            lines.append(f"{e.layer_id:<12} {e.n_elements:>10,} {e.mse:>14.3e}")
        return "\n".join(lines)

    @property
    def max_mse(self) -> float:
        return max((e.mse for e in self.entries), default=0.0)


def compare_traces(float_trace: InferenceTrace,
                   int_trace: dict[str, IntFeatureMap], p: int) -> MseReport:
    """Per-layer mean squared deviation, dequantizing integers by 2^-p.

    A layer's squared deviations are computed one cache-sized block at a
    time and summed in numpy's pairwise order, so each MSE has the bits of
    ``np.mean`` over the whole layer; an empty layer's MSE is NaN.
    """
    if set(float_trace) != set(int_trace):
        missing = set(float_trace) ^ set(int_trace)
        raise ShapeError(f"traces cover different layers: {sorted(missing)}")
    scale = 2.0 ** -p
    buf = np.empty(_PAIRWISE_LEAF)
    entries = []
    for lid, fm in float_trace.items():
        im = int_trace[lid]
        if fm.shape != im.shape:
            raise ShapeError(f"layer {lid!r}: trace shapes differ, {fm.shape} vs {im.shape}")
        f, q = fm.data.reshape(-1), im.data.reshape(-1)

        def squared_sum(start, stop):
            # fm - im * 2^-p, squared; scaling by a power of two is exact,
            # as dividing by 2^p was
            diff = buf[:stop - start]
            np.multiply(q[start:stop], scale, out=diff, dtype=np.float64)
            np.subtract(f[start:stop], diff, out=diff)
            diff *= diff
            return np.add.reduce(diff)

        n = f.size
        mse = float(_pairwise_sum(squared_sum, 0, n) / n) if n else float("nan")
        entries.append(MseEntry(lid, int(n), mse))
    return MseReport(tuple(entries))


def _pairwise_sum(leaf_sum, start: int, n: int):
    """The float64 sum of n elements from ``start`` in the order of numpy's
    pairwise summation, which splits a contiguous run of more than 128 at
    n // 2 rounded down to a multiple of 8. Runs of at most _PAIRWISE_LEAF
    elements are summed by ``leaf_sum(start, stop)`` with ``np.add.reduce``,
    which continues the same recursion inside the run."""
    if n <= _PAIRWISE_LEAF:
        return leaf_sum(start, start + n)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(leaf_sum, start, half) + _pairwise_sum(leaf_sum, start + half, n - half)


def write_json_report(path, payload: dict) -> None:
    _atomic_write(path, [(json.dumps(payload, indent=2) + "\n").encode()])
