"""The benchmark's three workloads: seeded inputs, the timed operation, its checks.

Constructing a workload from a seed and a size mode is its set-up: it
builds everything the timed operation needs from the seed alone. ``op(i)`` performs
one unit of user-visible work in a closed loop and returns its named stage
metrics and its outputs; ``check(i, outputs)`` and ``finish()`` return lists
of failed correctness checks and run outside the timed region.

The program only ever sees the generated models and inputs; every call goes
through the public ``cnnadapt`` API, looked up at call time so that the
tracer's wrappers (see spans.py) are the ones called in a traced operation.
"""
from __future__ import annotations

import hashlib
import os
import time

import numpy as np

import cnnadapt as ca
from cnnadapt.evaluation import Sample, predict_class
from cnnadapt.model import replace_layer

# Batchnorm statistics are mild so the fused scale stays near 1: with fan-in
# weights every activation then stays well inside the int16 range at P = 8.
BN_MU = 0.1
BN_SIGMA2 = (1.0, 2.0)
BN_GAMMA = (0.9, 1.1)
BN_BETA = 0.1

MSE_BOUND = 1e-3       # acceptance check 8's bound on float-vs-int deviation
FUSION_TOLERANCE = 1e-4


def fan_in_weights(model: ca.Model, rng: np.random.Generator) -> ca.Model:
    """Weights uniform in +-sqrt(3/K) (K = kh*kw*c_in, unit output variance),
    zero biases and mild batchnorm statistics.

    ``randomize_weights``' fixed +-0.5 range is not used: on a 416 input it
    drives the int engine into saturation on most of its outputs.
    """
    params = {}
    for layer in model.conv_layers():
        p = model.params[layer.id]
        shape = p.filters.weights.shape
        nf = shape[3]
        a = np.sqrt(3.0 / (shape[0] * shape[1] * shape[2]))
        w = rng.uniform(-a, a, size=shape)
        bn = None
        if p.batchnorm is not None:
            bn = ca.BatchNormParams(
                mu=rng.uniform(-BN_MU, BN_MU, nf),
                sigma2=rng.uniform(*BN_SIGMA2, nf),
                gamma=rng.uniform(*BN_GAMMA, nf),
                beta=rng.uniform(-BN_BETA, BN_BETA, nf),
                epsilon=p.batchnorm.epsilon)
        params[layer.id] = ca.ConvParams(ca.FilterBank(w, np.zeros(nf)), bn)
    return ca.Model(model.layers, params)


def seeded_model(rng: np.random.Generator, size: int) -> ca.Model:
    """Unfused TinyYOLOv3 (80 classes) with fan-in weights at a size x size input."""
    model = fan_in_weights(ca.build_tinyyolov3(80), rng)
    if size != model.input_layer.height:
        model = replace_layer(model, "input", height=size, width=size)
    return model


def seeded_images(rng: np.random.Generator, size: int, n: int) -> list[ca.FeatureMap]:
    return [ca.FeatureMap(rng.uniform(0.0, 1.0, (size, size, 3)).astype(np.float32))
            for _ in range(n)]


def _digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Infer416:
    """One image at a time through the fused float engine, the int engine and
    ``compare_traces``: the work of the ``compare`` command, taps on."""

    min_ops = 4   # each of the two images runs at least twice
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        size = 32 if smoke else 416
        rng = np.random.default_rng(seed)
        self.fused = ca.fuse_model(seeded_model(rng, size))
        self.qmodel = ca.quantize_model(self.fused)
        self.images = seeded_images(rng, size, 2)
        self.int_digests: dict[int, str] = {}
        self.passes = 0

    def op(self, i: int) -> tuple[dict, tuple]:
        image = self.images[i % len(self.images)]
        t0 = time.perf_counter()
        ftrace = ca.float_infer(self.fused, image, taps=True)
        t1 = time.perf_counter()
        q_in = ca.quantize_input(image, self.qmodel.config)
        itrace, stats = ca.int_infer(self.qmodel, q_in, taps=True)
        t2 = time.perf_counter()
        report = ca.compare_traces(ftrace, itrace, self.qmodel.config.p)
        t3 = time.perf_counter()
        stages = {"float_infer_s": t1 - t0, "int_infer_s": t2 - t1, "compare_s": t3 - t0,
                  "max_layer_mse": report.max_mse, "int_saturations": stats.total}
        return stages, (ftrace, itrace, report)

    def check(self, i: int, outputs) -> list[str]:
        ftrace, itrace, report = outputs
        self.passes += 1
        failures = []
        image = i % len(self.images)
        digest = _digest_arrays(itrace[lid].data for lid in sorted(itrace))
        if self.int_digests.setdefault(image, digest) != digest:
            failures.append(f"image {image}: int outputs differ between passes")
        if not report.max_mse < MSE_BOUND:
            failures.append(f"image {image}: max layer MSE {report.max_mse} >= {MSE_BOUND}")
        if not all(np.isfinite(ftrace[lid].data).all() for lid in self.fused.output_ids()):
            failures.append(f"image {image}: non-finite float output")
        return failures

    def expected_conv_flops(self) -> dict[str, int]:
        """Conv FLOPs of one operation per engine, as ``analysis`` counts them."""
        flops = ca.count_flops(self.fused).conv_total
        return {"float": flops, "int": flops}

    def finish(self) -> list[str]:
        if self.passes < 2 * len(self.images):
            return [f"{self.passes} passes over {len(self.images)} images: "
                    "not every image ran twice, so determinism is unchecked"]
        return []


# Filter-norm ladder for the prune sweep. Thresholds are T_START + k * DELTA_T.
LADDER_T_START = 0.75
LADDER_DELTA_T = 0.05
LADDER_TIERS = 5         # steps 0..4 remove one tier each and are accepted
LADDER_TIER_SHARE = 10   # each tier holds nf // 10 filters of every prunable layer
SWEEP_DELTA_MAP = 0.3


def _channel_origins(model: ca.Model) -> dict[str, list]:
    """For every layer output, the (conv id, filter index) that made each channel."""
    origins: dict[str, list] = {}
    for layer in model.layers:
        if layer.kind == "input":
            origins[layer.id] = [None] * layer.channels
        elif layer.kind == "conv":
            origins[layer.id] = [(layer.id, j) for j in range(layer.num_filters)]
        elif layer.kind == "concat":
            origins[layer.id] = origins[layer.inputs[0]] + origins[layer.inputs[1]]
        else:
            origins[layer.id] = origins[layer.inputs[0]]
    return origins


def plant_norm_ladder(model: ca.Model, prunable: list[str],
                      rng: np.random.Generator) -> tuple[ca.Model, dict[str, int]]:
    """Fix the fused filter norms so the sweep takes the same steps on every seed.

    With plain random weights the step at which the sweep first rejects
    depends on the seed (3 to 10 steps in a probe), so the sweep's time would
    too. Here, in every prunable layer, tier k (k < LADDER_TIERS) holds
    nf // LADDER_TIER_SHARE dead filters: every consumer's weights on their
    output channel are zero, so removing them leaves every output unchanged,
    and their norms sit just below threshold k. The remaining live filters
    sit just below threshold LADDER_TIERS, so that step cuts every prunable
    layer to one filter and the score collapses.

    Returns the model and, per prunable layer, the tier size.
    """
    weights = {l.id: model.params[l.id].filters.weights.astype(np.float64)
               for l in model.conv_layers()}
    targets, tier_size, dead = {}, {}, set()
    for lid in prunable:
        nf = weights[lid].shape[3]
        size = nf // LADDER_TIER_SHARE
        top = LADDER_T_START + LADDER_TIERS * LADDER_DELTA_T
        target = top - rng.uniform(0.01, 0.04, nf)
        order = rng.permutation(nf)
        for k in range(LADDER_TIERS):
            tier = order[k * size:(k + 1) * size]
            target[tier] -= (LADDER_TIERS - k) * LADDER_DELTA_T
            dead.update((lid, int(j)) for j in tier)
        targets[lid], tier_size[lid] = target, size
    origins = _channel_origins(model)
    for layer in model.conv_layers():
        for i, origin in enumerate(origins[layer.inputs[0]]):
            if origin in dead:
                weights[layer.id][:, :, i, :] = 0.0
    params = {}
    for lid, w in weights.items():
        if lid in targets:
            w *= targets[lid] / np.sqrt((w * w).sum(axis=(0, 1, 2)))
        params[lid] = ca.ConvParams(ca.FilterBank(w, model.params[lid].filters.biases), None)
    return ca.Model(model.layers, params), tier_size


class PruneSweep:
    """``prune_routine`` with ``accuracy_evaluator`` over seeded samples labelled
    with the unpruned model's own top-1, heads exempt as ``cnnadapt prune``
    exempts them. The input is reduced to a multiple of 32 so route_1's
    concat lines up."""

    min_ops = 2
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        size = 32 if smoke else 96
        self.n_samples = 2 if smoke else 4
        self.outcome = None
        rng = np.random.default_rng(seed)
        fused = ca.fuse_model(seeded_model(rng, size))
        heads = [l.id for l in fused.conv_layers() if l.activation == "linear"]
        prunable = [l.id for l in fused.conv_layers() if l.id not in heads]
        self.model, self.tier_size = plant_norm_ladder(fused, prunable, rng)
        self.config = ca.PruneConfig(
            t_start=LADDER_T_START, delta_t=LADDER_DELTA_T, delta_map=SWEEP_DELTA_MAP,
            no_prune=frozenset(heads))
        self.samples = [Sample(f"s{i}", im, {"class": predict_class(self.model, im)})
                        for i, im in enumerate(seeded_images(rng, size, self.n_samples))]

    def op(self, i: int) -> tuple[dict, tuple]:
        t0 = time.perf_counter()
        evaluator = ca.accuracy_evaluator(self.samples)
        pruned, report = ca.prune_routine(self.model, self.config, evaluator)
        elapsed = time.perf_counter() - t0
        accepted = [s for s in report.steps if s.accepted]
        stages = {"prune_sweep_s": elapsed,
                  "eval_samples_per_s": self.n_samples * (len(report.steps) + 1) / elapsed,
                  "prune_flop_reduction_pct":
                      accepted[-1].flop_reduction_pct if accepted else 0.0,
                  "steps": len(report.steps), "accepted_steps": len(accepted)}
        return stages, (pruned, report)

    def check(self, i: int, outputs) -> list[str]:
        pruned, report = outputs
        failures = []
        outcome = (report.final_threshold, ca.model_digest(pruned))
        if self.outcome is None:
            self.outcome = outcome
            self.thresholds = [s.threshold for s in report.steps]
        elif outcome != self.outcome:
            failures.append(f"pass {i}: final threshold or pruned digest differs from pass 0")
        if len(report.steps) != LADDER_TIERS + 1:
            failures.append(f"pass {i}: {len(report.steps)} steps, the ladder has "
                            f"{LADDER_TIERS + 1}")
        accepted = [s for s in report.steps if s.accepted]
        removed = accepted[-1].filters_removed if accepted else {}
        for layer in self.model.conv_layers():
            if pruned.layer(layer.id).num_filters != layer.num_filters - removed.get(layer.id, 0):
                failures.append(f"pass {i}: {layer.id} keeps {pruned.layer(layer.id).num_filters}"
                                f" filters; the report removed {removed.get(layer.id, 0)} "
                                f"of {layer.num_filters}")
        for k, step in enumerate(report.steps[:LADDER_TIERS]):
            expected = {lid: (k + 1) * self.tier_size.get(lid, 0) for lid in step.filters_removed}
            if not (step.accepted and step.score == 1.0 and step.filters_removed == expected):
                failures.append(f"pass {i}: step {k} removed {step.filters_removed} with "
                                f"score {step.score}; only dead filters ({expected}) should go")
        return failures

    def expected_conv_flops(self) -> dict[str, int]:
        metrics = ca.compute_metric_table(self.model, self.config)
        models = [self.model] + [ca.prune_below(self.model, metrics, t, self.config)[0]
                                 for t in self.thresholds]
        flops = sum(ca.count_flops(m).conv_total for m in models)
        return {"float": self.n_samples * flops, "int": 0}

    def finish(self) -> list[str]:
        if self.outcome is None:
            return ["no sweep completed"]
        threshold, digest = self.outcome
        if threshold is None:
            return ["the sweep accepted no threshold"]
        metrics = ca.compute_metric_table(self.model, self.config)
        rebuilt, _ = ca.prune_below(self.model, metrics, threshold, self.config)
        if ca.model_digest(rebuilt) != digest:
            return [f"prune_below at the final threshold {threshold} does not rebuild "
                    "the swept model"]
        if threshold == self.config.t_start + (LADDER_TIERS - 1) * self.config.delta_t:
            # only dead filters went, so every output must be unchanged
            for sample in self.samples:
                ref = ca.float_infer(self.model, sample.input)
                out = ca.float_infer(rebuilt, sample.input)
                if not all(np.array_equal(ref[lid].data, out[lid].data) for lid in ref):
                    return [f"{sample.name}: outputs changed by removing dead filters"]
        return []


class Pipeline:
    """The full unfused model through save -> load -> fuse -> quantize -> save the
    quantized model -> load it -> digest, plus ``count_flops``/``count_params``,
    in a scratch directory. It runs no convolution."""

    min_ops = 2
    setup_repeats = 15

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        self.model = seeded_model(np.random.default_rng(seed), 416)
        self.digest = ca.model_digest(self.model)   # what every reload must reproduce
        self.float_path = os.path.join(work_dir, "model.json")
        self.quant_path = os.path.join(work_dir, "model.q.json")

    def op(self, i: int) -> tuple[dict, tuple]:
        t0 = time.perf_counter()
        ca.save_model(self.model, self.float_path)
        loaded = ca.load_model(self.float_path)
        fused = ca.fuse_model(loaded)
        qmodel = ca.quantize_model(fused)
        ca.save_quantized_model(qmodel, self.quant_path)
        reloaded = ca.load_quantized_model(self.quant_path)
        digest = ca.model_digest(loaded)
        ca.count_flops(fused)
        ca.count_params(fused)
        elapsed = time.perf_counter() - t0
        return {"pipeline_s": elapsed}, (fused, qmodel, reloaded, digest)

    def check(self, i: int, outputs) -> list[str]:
        fused, qmodel, reloaded, digest = outputs
        self.fused = fused
        failures = []
        if digest != self.digest:
            failures.append(f"pass {i}: model_digest changed across save_model/load_model")
        if reloaded.source_digest != qmodel.source_digest or reloaded.config != qmodel.config:
            failures.append(f"pass {i}: quantized reload changed source_digest or config")
        for lid, qp in qmodel.qparams.items():
            rp = reloaded.qparams.get(lid)
            if rp is None or not (np.array_equal(rp.weights, qp.weights)
                                  and np.array_equal(rp.biases, qp.biases)
                                  and rp.weights.dtype == np.int16):
                failures.append(f"pass {i}: quantized reload changed {lid}'s int16 arrays")
        return failures

    def expected_conv_flops(self) -> dict[str, int]:
        return {"float": 0, "int": 0}

    def finish(self) -> list[str]:
        """Fused and unfused float outputs agree on one small input."""
        size = 32
        small = replace_layer(self.model, "input", height=size, width=size)
        small_fused = replace_layer(self.fused, "input", height=size, width=size)
        image = seeded_images(np.random.default_rng(self.seed), size, 1)[0]
        ref = ca.float_infer(small, image)
        out = ca.float_infer(small_fused, image)
        worst = max(float(np.abs(ref[lid].data - out[lid].data).max()) for lid in ref)
        if not worst <= FUSION_TOLERANCE:
            return [f"fused and unfused outputs differ by {worst} > {FUSION_TOLERANCE}"]
        return []


WORKLOADS = {"infer416": Infer416, "prune_sweep": PruneSweep, "pipeline": Pipeline}
