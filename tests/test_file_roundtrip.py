"""Property tests of the model files: a well-formed model survives a save and
a load unchanged, float and quantized alike, and the digest tells apart any
two models that differ in a spec or an array.

Each example draws a small valid graph: a chain of convolutions (batchnorm
or not, leaky with an exponent in 0..15 or linear, same or valid padding,
stride 1 or 2), max pools and 2x upsamples, with a concat of the chain's tip
and an earlier layer of the same size where one exists, and an optional
output marker. ``compare`` relies on the first property when it refuses a
quantized model whose layer specs differ from the float model's.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnadapt.fusion import fuse_model
from cnnadapt.model import (
    ConvParams,
    LayerGraph,
    LayerSpec,
    Model,
    _weight_records,
    load_model,
    model_digest,
    save_model,
    shape_infer,
)
from cnnadapt.quantization import load_quantized_model, quantize_model, save_quantized_model
from cnnadapt.tensor import FilterBank
from util import random_bank, random_bn

_MAX_HW = 12


@st.composite
def _models(draw) -> Model:
    hw = draw(st.integers(1, 6))
    channels = draw(st.integers(1, 3))
    layers = [LayerSpec(id="input", kind="input", height=hw, width=hw, channels=channels)]
    shapes = shape_infer(LayerGraph(layers))
    for i in range(draw(st.integers(1, 5))):
        tip = layers[-1].id
        h, w, _ = shapes[tip]
        lid = f"layer_{i}"
        kind = draw(st.sampled_from(["conv", "conv", "maxpool", "upsample", "concat"]))
        same_size = [l.id for l in layers[:-1] if shapes[l.id][:2] == (h, w)]
        if kind == "concat" and same_size:
            other = draw(st.sampled_from(same_size))
            layers.append(LayerSpec(id=lid, kind="concat", inputs=(tip, other)))
        elif kind == "upsample" and 2 * h <= _MAX_HW:
            layers.append(LayerSpec(id=lid, kind="upsample", inputs=(tip,), factor=2))
        elif kind == "maxpool":
            layers.append(LayerSpec(id=lid, kind="maxpool", inputs=(tip,),
                                    size=draw(st.integers(1, 3)), stride=draw(st.integers(1, 2))))
        else:
            kernel = draw(st.sampled_from([k for k in (1, 3) if k <= h]))
            leaky, bn = draw(st.booleans()), draw(st.booleans())
            layers.append(LayerSpec(
                id=lid, kind="conv", inputs=(tip,), num_filters=draw(st.integers(1, 3)),
                kernel_h=kernel, kernel_w=kernel, stride=draw(st.integers(1, 2)),
                padding=draw(st.sampled_from(["same", "valid"])),
                has_bias=not bn and draw(st.booleans()), has_batchnorm=bn,
                activation="leaky" if leaky else "linear",
                act_exponent=draw(st.integers(0, 15)) if leaky else None,
                epsilon=draw(st.sampled_from([0.001, 1e-5, 0.25])) if bn else None))
        shapes = shape_infer(LayerGraph(layers))
    if draw(st.booleans()):
        layers.append(LayerSpec(id="out", kind="output_marker", inputs=(layers[-1].id,)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = {}
    for spec in layers:
        if spec.kind != "conv":
            continue
        nf = spec.num_filters
        fb = random_bank(rng, spec.kernel_h, shapes[spec.inputs[0]][2], nf)
        if not spec.has_bias:
            fb = FilterBank(fb.weights, np.zeros(nf))
        params[spec.id] = ConvParams(fb, random_bn(rng, nf, spec.epsilon) if spec.has_batchnorm
                                     else None)
    return Model(tuple(layers), params)


def _records(model) -> dict[str, tuple]:
    """Each weight record's shape, dtype and bytes."""
    return {name: (a.shape, a.dtype, a.tobytes()) for name, a in _weight_records(model)}


def _int_records(qmodel) -> dict[str, tuple]:
    return {f"{lid}.{name}": (a.shape, a.dtype, a.tobytes())
            for lid, qp in qmodel.qparams.items()
            for name, a in (("W", qp.weights), ("b", qp.biases))}


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(model=_models())
def test_saved_models_load_unchanged(work_dir, model):
    save_model(model, work_dir / "m.json")
    loaded = load_model(work_dir / "m.json")
    assert loaded.layers == model.layers
    assert _records(loaded) == _records(model)
    assert model_digest(loaded) == model_digest(model)

    fused = fuse_model(model)
    qmodel = quantize_model(fused)
    save_quantized_model(qmodel, work_dir / "q.json")
    again = load_quantized_model(work_dir / "q.json")
    assert again.layers == fused.layers == qmodel.layers
    assert _int_records(again) == _int_records(qmodel)
    assert (again.config, again.source_digest) == (qmodel.config, model_digest(fused))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=_models(), b=_models(), data=st.data())
def test_models_that_differ_have_different_digests(a, b, data):
    same = a.layers == b.layers and _records(a) == _records(b)
    assert (model_digest(a) == model_digest(b)) == same
    if a.params:
        # the smallest change to one parameter value
        lid = data.draw(st.sampled_from(sorted(a.params)))
        w = np.array(a.params[lid].filters.weights)
        i = data.draw(st.integers(0, w.size - 1))
        w.flat[i] = np.nextafter(w.flat[i], np.float32(np.inf))
        p = a.params[lid]
        changed = Model(a.layers, {**a.params,
                                   lid: ConvParams(FilterBank(w, p.filters.biases), p.batchnorm)})
        assert model_digest(changed) != model_digest(a)
