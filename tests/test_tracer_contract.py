"""The benchmark's tracer (perfbench/spans.py) sees every op of both engines.

The tracer replaces cnnadapt functions in the module namespaces that bind
them. That reaches a call only if the caller looks the function up through
its module globals when it calls it; an ops table or a conv bound at import
time would bypass the patch, and the per-layer benchmark metrics would
read 0.
"""
import sys
from pathlib import Path

import numpy as np

from cnnadapt import fusion, model, quantization
from cnnadapt.tensor import FeatureMap
from cnnadapt.tinyyolo import build_tinyyolov3

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def _spans_under(tracer, walker_name):
    """Every span opened inside the one span named ``walker_name``."""
    (walker,) = [s for s in tracer.spans if s.name == walker_name]
    by_id = {s.id: s for s in tracer.spans}

    def inside(span):
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent is walker:
                return True
            parent = by_id.get(parent.parent)
        return False
    return [s for s in tracer.spans if inside(s)]


def test_tracer_sees_every_op_of_both_engines():
    yolo = model.replace_layer(build_tinyyolov3(num_classes=1), "input", height=32, width=32)
    fused = fusion.fuse_model(model.randomize_weights(yolo, np.random.default_rng(5), 0.1))
    qmodel = quantization.quantize_model(fused)
    image = FeatureMap(np.random.default_rng(6).uniform(0, 1, (32, 32, 3)).astype(np.float32))
    q_in = quantization.quantize_input(image, qmodel.config)

    tracer = spans.Tracer()
    with tracer.installed():
        model.float_infer(fused, image, taps=True)
        quantization.int_infer(qmodel, q_in, taps=True)

    assert tracer.absent == set()
    conv_ids = [l.id for l in fused.conv_layers()]
    assert len(conv_ids) == 13
    for walker, conv_name in (("model.float_infer", "tensor.conv2d"),
                              ("quantization.int_infer", "quantization.int_conv_forward")):
        inside = _spans_under(tracer, walker)
        convs = [s for s in inside if s.name == conv_name]
        assert [s.attrs["layer"] for s in convs] == conv_ids
        names = [s.name for s in inside]
        assert (names.count("tensor.maxpool"), names.count("tensor.upsample_nearest"),
                names.count("tensor.concat")) == (6, 1, 1)
