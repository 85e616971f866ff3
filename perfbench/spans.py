"""Outside-in tracing: wrappers around the cnnadapt functions the program calls.

``Tracer.installed()`` replaces each target function, in every loaded
``cnnadapt`` module that binds it, with a wrapper that records a span (name,
start, end, parent span, group id, thread) and counts computed at the call
boundary (conv FLOPs and bytes, saturations). Spans stay in memory; the
runner writes them out when the run ends. Nothing under ``src/`` knows about
the tracer.

A span's self time is its duration minus the part of it that its child
spans cover (the union of their intervals, since evaluator children run on
worker threads and may overlap).
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time

class Span:
    __slots__ = ("id", "name", "parent", "group", "start", "end", "thread", "attrs",
                 "layers", "evals")

    def __init__(self, sid, name, parent, group):
        self.id, self.name, self.group = sid, name, group
        self.parent = parent.id if parent is not None else None
        self.thread = threading.get_ident()
        self.attrs: dict = {}
        self.layers = None   # walker spans: id(parameter array) -> layer id
        self.evals = None    # root spans: evaluator calls so far
        self.start = time.perf_counter()
        self.end = None

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "group": self.group, "start": self.start, "end": self.end,
                "thread": self.thread, "attrs": self.attrs}


def _conv_attrs(span, parent, fm, weights, biases, out) -> None:
    """Computed conv work: 2*kh*kw*c_in*oh*ow*nf FLOPs; bytes of the input map,
    weights, biases and output map as stored (not measured traffic)."""
    kh, kw, cin, nf = weights.shape
    oh, ow, _ = out.shape
    span.attrs.update(
        flop=2 * kh * kw * cin * oh * ow * nf,
        bytes=fm.data.nbytes + weights.nbytes + biases.nbytes + out.data.nbytes,
        layer=_layer_of(parent, weights))


def _float_conv(span, parent, args, kwargs, result):
    filters = args[1]
    _conv_attrs(span, parent, args[0], filters.weights, filters.biases, result)


def _int_conv(span, parent, args, kwargs, result):
    out, n_acc, n16 = result
    _conv_attrs(span, parent, args[0], args[1], args[2], out)
    span.attrs.update(acc32_saturations=n_acc, int16_saturations=n16)


def _layer_of(parent, param):
    if parent is None or parent.layers is None:
        return None
    return parent.layers.get(id(param))


def _float_walker(span, args, kwargs):
    model = args[0]
    span.layers = {id(model.params[l.id].filters.weights): l.id for l in model.conv_layers()}


def _int_walker(span, args, kwargs):
    qmodel = args[0]
    span.layers = {id(qp.weights): lid for lid, qp in qmodel.qparams.items()}


# (defining module, function, called on open, called after return)
TARGETS = (
    ("tensor", "conv2d", None, _float_conv),
    ("tensor", "batchnorm_forward", None, None),
    ("tensor", "leaky_relu", None, None),
    ("tensor", "maxpool", None, None),
    ("tensor", "upsample_nearest", None, None),
    ("tensor", "concat", None, None),
    ("tensor", "maxpool_int", None, None),
    ("tensor", "upsample_nearest_int", None, None),
    ("tensor", "concat_int", None, None),
    ("quantization", "int_conv_forward", None, _int_conv),
    ("quantization", "quant_leaky_relu", None, None),
    ("quantization", "quantize_input", None, None),
    ("quantization", "int_infer", _int_walker, None),
    ("quantization", "quantize_model", None, None),
    ("quantization", "save_quantized_model", None, None),
    ("quantization", "load_quantized_model", None, None),
    ("model", "float_infer", _float_walker, None),
    ("model", "shape_infer", None, None),
    ("model", "save_model", None, None),
    ("model", "load_model", None, None),
    ("model", "model_digest", None, None),
    ("fusion", "fuse_model", None, None),
    ("pruning", "compute_metric_table", None, None),
    ("pruning", "prune_below", None, None),
    ("pruning", "prune_routine", None, None),
    ("evaluation", "accuracy_evaluator", None, None),
    ("evaluation", "ordered_map", None, None),
    ("analysis", "compare_traces", None, None),
    ("analysis", "count_flops", None, None),
    ("analysis", "count_params", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, group: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if group is None and parent is not None:
            group = parent.group
        with self._lock:
            span = Span(next(self._ids), name, parent, group)
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self, group: str):
        """The span of one timed operation; its group id names the operation."""
        span = self._open("op", group)
        span.evals = itertools.count()
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, on_open, on_return):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = self._open(name)
            try:
                if on_open is not None:
                    on_open(span, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                on_return(span, parent, args, kwargs, result)
            return result
        return traced

    def _wrap_ordered_map(self, fn, name):
        """Worker threads start with an empty span stack; hand them the caller's span."""
        def traced(func, items, *args, **kwargs):
            span = self._open(name)

            def adopted(item):
                stack = self._stack()
                if stack:
                    return func(item)
                stack.append(span)
                try:
                    return func(item)
                finally:
                    stack.pop()
            try:
                return fn(adopted, items, *args, **kwargs)
            finally:
                self._close(span)
        return functools.wraps(fn)(traced)

    def _wrap_evaluator_factory(self, fn):
        """The evaluator a factory returns is what the sweep calls; each call
        starts a new group: one per sweep step."""
        def traced(*args, **kwargs):
            evaluate = fn(*args, **kwargs)

            def traced_evaluate(model):
                stack = self._stack()
                root = stack[0] if stack else None
                step = next(root.evals) if root is not None and root.evals is not None else 0
                group = f"{root.group}.eval{step}" if root is not None else None
                span = self._open("evaluation.evaluator", group)
                try:
                    return evaluate(model)
                finally:
                    self._close(span)
            return traced_evaluate
        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cnnadapt" or n.startswith("cnnadapt."))]
        patches = []
        for module_name, fn_name, on_open, on_return in TARGETS:
            name = f"{module_name}.{fn_name}"
            original = getattr(sys.modules.get(f"cnnadapt.{module_name}"), fn_name, None)
            if original is None:
                self.absent.add(name)
                continue
            if fn_name == "ordered_map":
                wrapper = self._wrap_ordered_map(original, name)
            elif fn_name == "accuracy_evaluator":
                wrapper = self._wrap_evaluator_factory(original)
            else:
                wrapper = self._wrap(original, name, on_open, on_return)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)


def _covered(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def op_profile(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self time and duration, calls, self time per conv layer, summed
    counts, and (for the float walker) calls made under an evaluator."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    profile: dict[str, dict] = {}
    for s in spans:
        kids = children.get(s.id, ())
        self_s = (s.end - s.start) - _covered([(k.start, k.end) for k in kids], s.start, s.end)
        entry = profile.setdefault(s.name, {"s": 0.0, "duration": 0.0, "calls": 0,
                                            "under_evaluator": 0, "by_layer": {},
                                            "counts": {}})
        entry["s"] += self_s
        entry["duration"] += s.end - s.start
        entry["calls"] += 1
        layer = s.attrs.get("layer")
        if layer is not None:
            entry["by_layer"][layer] = entry["by_layer"].get(layer, 0.0) + self_s
        for key, value in s.attrs.items():
            if key != "layer":
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        if _has_ancestor(s, "evaluation.evaluator", by_id):
            entry["under_evaluator"] += 1
    return profile


def _has_ancestor(span, name, by_id) -> bool:
    p = by_id.get(span.parent)
    while p is not None:
        if p.name == name:
            return True
        p = by_id.get(p.parent)
    return False
