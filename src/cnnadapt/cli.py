"""Command-line surface: fuse -> prune -> quantize -> infer/compare/report.

Exit codes: 0 success, 1 validation error (bad arguments or pipeline
preconditions), 2 numerical/IO failure. Every output file (models, tensors,
JSON and CSV reports) is written via temp + atomic rename, so a failing run
never leaves a partial file.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from . import analysis, evaluation, fusion, pruning, quantization
from .errors import CnnAdaptError, ModelFormatError, PipelineError
from .model import float_infer, load_model, save_model
from .tensor import FeatureMap, load_tensor, save_tensor

log = logging.getLogger("cnnadapt")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cnnadapt",
                     description="Adapt a float CNN for integer inference: "
                                 "fuse batchnorm, prune filters, quantize.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fold batchnorm into conv weights")
    p.add_argument("-i", "--input-model", required=True)
    p.add_argument("-o", "--output-model", required=True)

    p = sub.add_parser("prune", help="threshold-sweep filter pruning")
    p.add_argument("-i", "--input-model", required=True)
    p.add_argument("-o", "--output-model", required=True)
    p.add_argument("--metric", choices=[pruning.METRIC_FROBENIUS, pruning.METRIC_SPARSITY],
                   default=pruning.METRIC_FROBENIUS)
    p.add_argument("--eps", type=float, default=pruning.DEFAULT_SPARSITY_EPS,
                   help="near-zero cutoff for the sparsity metric")
    p.add_argument("--delta-map", type=float, default=pruning.DEFAULT_DELTA_MAP,
                   help="maximum allowed score drop")
    p.add_argument("--delta-t", type=float, default=pruning.DEFAULT_DELTA_T,
                   help="threshold increment")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--min-filters", type=int, default=1)
    p.add_argument("--no-prune", default="",
                   help="comma-separated layer ids to exempt (heads are always exempt)")
    p.add_argument("--data", required=True, help="dataset dir of <name>.tnsr + <name>.json")
    p.add_argument("--eval", choices=["accuracy", "map"], default="accuracy")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--score-threshold", type=float, default=0.5)
    p.add_argument("--report", help="write the sweep report as JSON")

    p = sub.add_parser("quantize", help="build the int16 twin")
    p.add_argument("-i", "--input-model", required=True)
    p.add_argument("-o", "--output-model", required=True)
    p.add_argument("--p", type=int, default=8, help="scale exponent, S = 2^p")
    p.add_argument("--p-alpha", type=int, default=4, help="leaky slope exponent")

    p = sub.add_parser("infer", help="run one input through an engine")
    p.add_argument("-i", "--input-model", required=True)
    p.add_argument("--input", required=True, help="input .tnsr feature map")
    p.add_argument("--engine", choices=["float", "int"], default="float")
    p.add_argument("--taps", required=True, help="directory for per-layer .tnsr outputs")
    p.add_argument("--tap-all", action="store_true",
                   help="dump every layer, not just the model outputs")
    p.add_argument("--report", help="(int engine) write overflow stats JSON")

    p = sub.add_parser("compare", help="per-layer float-vs-integer deviation")
    p.add_argument("--float-model", required=True)
    p.add_argument("--quant-model", required=True)
    p.add_argument("--input", required=True, help="float input .tnsr")
    p.add_argument("--report", help="write the MSE report as JSON")
    p.add_argument("--csv", help="write per-layer MSE as CSV")

    p = sub.add_parser("flops", help="FLOP accounting")
    p.add_argument("-i", "--input-model", required=True)
    p.add_argument("--per-layer", action="store_true")
    p.add_argument("--ref", help="reference model for reduction percentages")
    p.add_argument("--report", help="write the report as JSON")

    p = sub.add_parser("params", help="parameter accounting")
    p.add_argument("-i", "--input-model", required=True)
    p.add_argument("--per-layer", action="store_true")
    p.add_argument("--report", help="write the report as JSON")
    return parser


def _load_float_model(path):
    if not os.path.exists(path):
        raise ModelFormatError(f"{path}: no such file")
    return load_model(path)


def _require_fused(model, what: str):
    if model.has_batchnorm():
        raise PipelineError(f"model contains batchnorm; run fuse before {what}")


def _load_input_map(path, graph) -> FeatureMap:
    """The float input tensor at ``path``, checked against ``graph``'s input."""
    fm = load_tensor(path)
    if not isinstance(fm, FeatureMap):
        raise ModelFormatError(f"{path}: expected a float32 tensor")
    if fm.shape != graph.input_shape:
        raise ModelFormatError(f"{path}: tensor shape {fm.shape} != model input "
                               f"{graph.input_shape}")
    return fm


def _cmd_fuse(args) -> int:
    model = _load_float_model(args.input_model)
    fused = fusion.fuse_model(model)
    save_model(fused, args.output_model)
    n = sum(1 for l in fused.conv_layers() if l.fused)
    log.info("fused %d conv layers -> %s", n, args.output_model)
    return EXIT_OK


def _build_evaluator(args, model):
    samples = evaluation.load_dataset(args.data)
    expected = model.input_shape
    for sample in samples:
        if sample.input.shape != expected:
            raise ModelFormatError(f"{args.data}: sample {sample.name!r} has shape "
                                   f"{sample.input.shape}, model input is {expected}")
    if args.eval == "accuracy":
        return evaluation.accuracy_evaluator(samples)
    return evaluation.map_evaluator(samples, iou_threshold=args.iou,
                                    score_threshold=args.score_threshold)


def _cmd_prune(args) -> int:
    model = _load_float_model(args.input_model)
    _require_fused(model, "prune")
    no_prune = {s for s in args.no_prune.split(",") if s}
    # detection heads keep their filter count: it encodes the output structure
    no_prune |= {l.id for l in model.conv_layers() if l.activation == "linear"}
    config = pruning.PruneConfig(
        metric=args.metric, sparsity_eps=args.eps, delta_map=args.delta_map,
        t_start=args.t_start, delta_t=args.delta_t,
        min_filters_per_layer=args.min_filters, no_prune=frozenset(no_prune))
    evaluator = _build_evaluator(args, model)
    pruned, report = pruning.prune_routine(model, config, evaluator)
    save_model(pruned, args.output_model)
    if args.report:
        analysis.write_json_report(args.report, report.to_dict())
    accepted = [s for s in report.steps if s.accepted]
    if accepted:
        last = accepted[-1]
        log.info("accepted threshold %g; params -%.1f%%, flops -%.1f%% -> %s",
                 report.final_threshold, last.param_reduction_pct,
                 last.flop_reduction_pct, args.output_model)
    else:
        log.info("no threshold accepted; model unchanged -> %s", args.output_model)
    return EXIT_OK


def _cmd_quantize(args) -> int:
    model = _load_float_model(args.input_model)
    _require_fused(model, "quantize")
    config = quantization.QuantConfig(p=args.p, p_alpha=args.p_alpha)
    qmodel = quantization.quantize_model(model, config)
    quantization.save_quantized_model(qmodel, args.output_model)
    if qmodel.param_saturations:
        log.warning("%d parameter values saturated during quantization",
                    qmodel.param_saturations)
    log.info("quantized with S=2^%d -> %s", config.p, args.output_model)
    return EXIT_OK


def _cmd_infer(args) -> int:
    load = _load_float_model if args.engine == "float" else quantization.load_quantized_model
    model = load(args.input_model)
    fm = _load_input_map(args.input, model)
    os.makedirs(args.taps, exist_ok=True)
    if args.engine == "float":
        trace = float_infer(model, fm, taps=args.tap_all)
    else:
        q_in = quantization.quantize_input(fm, model.config)
        trace, stats = quantization.int_infer(model, q_in, taps=args.tap_all)
        if args.report:
            analysis.write_json_report(args.report, stats.to_dict())
    for lid, out in trace.items():
        save_tensor(os.path.join(args.taps, f"{lid}.tnsr"), out)
    log.info("wrote %d tensors to %s", len(trace), args.taps)
    return EXIT_OK


def _cmd_compare(args) -> int:
    model = _load_float_model(args.float_model)
    _require_fused(model, "compare")
    qmodel = quantization.load_quantized_model(args.quant_model)
    fm = _load_input_map(args.input, model)
    float_trace = float_infer(model, fm, taps=True)
    q_in = quantization.quantize_input(fm, qmodel.config)
    int_trace, stats = quantization.int_infer(qmodel, q_in, taps=True)
    report = analysis.compare_traces(float_trace, int_trace, qmodel.config.p)
    print(report.format_table())
    if stats.total:
        log.warning("integer engine saturated %d values", stats.total)
    if args.report:
        analysis.write_json_report(args.report, report.to_dict())
    if args.csv:
        report.write_csv(args.csv)
    return EXIT_OK


def _cmd_flops(args) -> int:
    model = _load_float_model(args.input_model)
    report = analysis.count_flops(model)
    reference = analysis.count_flops(_load_float_model(args.ref)) if args.ref else None
    print(report.format_table(reference, per_layer=args.per_layer))
    if args.report:
        analysis.write_json_report(args.report, report.to_dict(reference))
    return EXIT_OK


def _cmd_params(args) -> int:
    model = _load_float_model(args.input_model)
    report = analysis.count_params(model)
    print(report.format_table(per_layer=args.per_layer))
    if args.report:
        analysis.write_json_report(args.report, report.to_dict())
    return EXIT_OK


_COMMANDS = {
    "fuse": _cmd_fuse,
    "prune": _cmd_prune,
    "quantize": _cmd_quantize,
    "infer": _cmd_infer,
    "compare": _cmd_compare,
    "flops": _cmd_flops,
    "params": _cmd_params,
}


def run(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ModelFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE
    except (PipelineError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CnnAdaptError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
