"""Property tests of the model files: a well-formed model survives a save and
a load unchanged, float and quantized alike; the digest tells apart any two
models that differ in a spec or an array; and a file that differs from a
saved model in one conv spec field or one weight record is refused by the
loader exactly when the constructors refuse what it holds, in their words.

Each example draws a small valid graph: a chain of convolutions (batchnorm
or not, leaky with an exponent in 0..15 or linear, same or valid padding,
stride 1 or 2), max pools and 2x upsamples, with a concat of the chain's tip
and an earlier layer of the same size where one exists, and an optional
output marker. ``compare`` relies on the first property when it refuses a
quantized model whose layer specs differ from the float model's.
"""
import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnnadapt.cli import run
from cnnadapt.errors import ModelFormatError
from cnnadapt.fusion import fuse_model
from cnnadapt.model import (
    ConvParams,
    LayerGraph,
    LayerSpec,
    Model,
    _weight_records,
    load_model,
    model_digest,
    record_chunks,
    save_model,
    shape_infer,
)
from cnnadapt.quantization import (
    QuantizedModel,
    load_quantized_model,
    quantize_model,
    save_quantized_model,
)
from cnnadapt.tensor import (
    DTYPE_FLOAT32,
    DTYPE_INT16,
    BatchNormParams,
    FeatureMap,
    FilterBank,
    save_tensor,
)
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


# values each mutated conv spec field may take, valid or not
_SPEC_VALUES = {
    **dict.fromkeys(("num_filters", "kernel_h", "kernel_w", "stride"),
                    st.one_of(st.integers(-1, 5), st.sampled_from([None, True, 2.5, "2"]))),
    "padding": st.sampled_from(["same", "valid", "full", None, 1]),
}


def _resized(arr, axis, delta):
    """``arr`` with one slice more (a copy of its first) or one less along ``axis``."""
    if delta < 0:
        return np.delete(arr, -1, axis=axis)
    return np.concatenate([arr, np.take(arr, [0], axis=axis)], axis=axis)


def _mutated_records(data, layer, records, quantized):
    """``records`` with one of ``layer``'s records changed: W one input
    channel or filter more or less, a vector one shorter, or (float only)
    one value not finite."""
    suffixes = ["W", "b"] + (["gamma", "beta", "mu", "sigma2"] if layer.has_batchnorm else [])
    kinds = ["W", "short"] + ([] if quantized else ["non_finite"])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "W":
        name = f"{layer.id}.W"
        arr = _resized(records[name], data.draw(st.sampled_from([2, 3])),
                       data.draw(st.sampled_from([-1, 1])))
    elif kind == "short":
        name = f"{layer.id}.{data.draw(st.sampled_from(suffixes[1:]))}"
        arr = records[name][:-1]
    else:
        name = f"{layer.id}.{data.draw(st.sampled_from(suffixes))}"
        arr = np.array(records[name])
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return {**records, name: arr}


def _constructed(saved, edits, records):
    """What the constructors make of ``saved``'s layers, with ``edits``
    ({layer id: {field: value}}) applied, and ``records``: a model like
    ``saved``, or the refusal's message, naming the layer for one conv's
    arrays."""
    try:
        layers = tuple(replace(l, **edits[l.id]) if l.id in edits else l for l in saved.layers)
    except ModelFormatError as e:
        return str(e)
    quantized = isinstance(saved, QuantizedModel)
    params = {}
    for layer in layers:
        if layer.kind != "conv":
            continue
        r = {name.rpartition(".")[2]: a for name, a in records.items()
             if name.rpartition(".")[0] == layer.id}
        try:
            bank = FilterBank(r["W"], r["b"])
            if quantized:
                params[layer.id] = bank
            else:
                bn = (BatchNormParams(r["mu"], r["sigma2"], r["gamma"], r["beta"],
                                      layer.bn_epsilon) if layer.has_batchnorm else None)
                params[layer.id] = ConvParams(bank, bn)
        except ValueError as e:
            return f"layer {layer.id!r}: {e}"
    try:
        if quantized:
            return QuantizedModel(layers, params, saved.config, source_digest=saved.source_digest)
        return Model(layers, params)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("quantized", [False, True], ids=["float", "quantized"])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(model=_models(), data=st.data())
def test_loader_refuses_what_the_constructors_refuse(work_dir, quantized, model, data):
    assume(model.conv_layers())
    path = work_dir / ("q.json" if quantized else "m.json")
    if quantized:
        saved = quantize_model(fuse_model(model))
        save_quantized_model(saved, path)
        records = {f"{lid}.{name}": a for lid, qp in saved.qparams.items()
                   for name, a in (("W", qp.weights), ("b", qp.biases))}
    else:
        saved = model
        save_model(saved, path)
        records = dict(_weight_records(saved))
    layer = data.draw(st.sampled_from(saved.conv_layers()))
    edits = {}
    if data.draw(st.booleans()):
        field = data.draw(st.sampled_from(sorted(_SPEC_VALUES)))
        edits[layer.id] = {field: data.draw(_SPEC_VALUES[field])}
        manifest = json.loads(path.read_text())
        next(d for d in manifest["layers"] if d["id"] == layer.id).update(edits[layer.id])
        path.write_text(json.dumps(manifest))
    else:
        records = _mutated_records(data, layer, records, quantized)
        path.with_suffix(".weights").write_bytes(b"".join(bytes(c) for c in record_chunks(
            records.items(), DTYPE_INT16 if quantized else DTYPE_FLOAT32)))
    expected = _constructed(saved, edits, records)

    load = load_quantized_model if quantized else load_model
    if not isinstance(expected, str):
        loaded = load(path)
        assert loaded.layers == expected.layers
        assert (_int_records(loaded) == _int_records(expected) if quantized
                else _records(loaded) == _records(expected))
        return
    with pytest.raises(ModelFormatError) as refusal:
        load(path)
    assert str(refusal.value) == f"{path}: {expected}"

    save_tensor(work_dir / "in.tnsr", FeatureMap(np.zeros(saved.input_shape, np.float32)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(["infer", "-i", str(path), "--input", str(work_dir / "in.tnsr"),
                    "--engine", "int" if quantized else "float",
                    "--taps", str(work_dir / "taps")])
    assert code == 2
    assert err.getvalue() == f"error: {path}: {expected}\n"
