"""Layer graph validation, shape inference, the float engine and the file format."""
import hashlib
import json
import os
import re
import struct
from dataclasses import replace as replace_spec

import numpy as np
import pytest

from cnnadapt.analysis import MseEntry, MseReport, write_json_report
from cnnadapt.errors import ModelFormatError, ShapeError
from cnnadapt.fusion import fuse_model
from cnnadapt.model import (
    ConvParams,
    LayerGraph,
    LayerSpec,
    Model,
    _atomic_write,
    float_infer,
    load_model,
    manifest_dict,
    model_digest,
    randomize_weights,
    record_chunks,
    replace_layer,
    save_model,
    shape_infer,
    zero_filter_bank,
)
from cnnadapt.quantization import load_quantized_model, quantize_model, save_quantized_model
from cnnadapt.tensor import DTYPE_FLOAT32, DTYPE_INT16, BatchNormParams, FeatureMap, FilterBank, save_tensor
from cnnadapt.tinyyolo import HEAD_IDS, build_tinyyolov3, head_filters
from util import bank, chain_model, conv_spec, feature_map, identity_bank, random_bn


def _single_conv_model(fb, **spec_kwargs):
    layers = (
        LayerSpec(id="input", kind="input", height=4, width=4, channels=fb.weights.shape[2]),
        conv_spec("conv_1", "input", fb.num_filters, fb.weights.shape[0], **spec_kwargs),
    )
    return Model(layers, {"conv_1": ConvParams(fb, None)})


# ---------------------------------------------------------------------------
# graph validation
# ---------------------------------------------------------------------------

def test_duplicate_layer_ids_rejected():
    layers = (
        LayerSpec(id="input", kind="input", height=2, width=2, channels=1),
        LayerSpec(id="input", kind="input", height=2, width=2, channels=1),
    )
    with pytest.raises(ModelFormatError, match="duplicate|exactly one input"):
        Model(layers, {})


def test_exactly_one_input_required():
    with pytest.raises(ModelFormatError, match="input"):
        Model((LayerSpec(id="a", kind="maxpool", inputs=("b",), size=2, stride=2),), {})


def test_inputs_must_precede_consumers():
    layers = (
        LayerSpec(id="input", kind="input", height=2, width=2, channels=1),
        LayerSpec(id="p", kind="maxpool", inputs=("later",), size=2, stride=2),
    )
    with pytest.raises(ModelFormatError, match="precede"):
        Model(layers, {})


def test_conv_without_params_rejected():
    layers = (
        LayerSpec(id="input", kind="input", height=2, width=2, channels=1),
        conv_spec("conv_1", "input", 1, 1),
    )
    with pytest.raises(ModelFormatError, match="parameters"):
        Model(layers, {})


def test_batchnorm_flag_must_match_params():
    fb = identity_bank(1)
    layers = (
        LayerSpec(id="input", kind="input", height=2, width=2, channels=1),
        conv_spec("conv_1", "input", 1, 1, has_batchnorm=True),
    )
    with pytest.raises(ModelFormatError, match="has_batchnorm"):
        Model(layers, {"conv_1": ConvParams(fb, None)})


def test_unknown_layer_kind_rejected():
    with pytest.raises(ModelFormatError, match="unknown kind"):
        LayerSpec(id="x", kind="shortcut", inputs=("a",))


# kind, a valid set of its fields, its number of inputs, the fields it needs positive
_KIND_RULES = [
    ("input", dict(height=4, width=4, channels=2), 0, ("height", "width", "channels")),
    ("conv", dict(num_filters=3, kernel_h=3, kernel_w=1, stride=1, padding="same",
                  activation="linear"), 1, ("num_filters", "kernel_h", "kernel_w", "stride")),
    ("maxpool", dict(size=2, stride=2), 1, ("size", "stride")),
    ("upsample", dict(factor=2), 1, ("factor",)),
    ("concat", {}, 2, ()),
    ("output_marker", {}, 1, ()),
]


@pytest.mark.parametrize("kind, fields, n_inputs, required", _KIND_RULES,
                         ids=[rule[0] for rule in _KIND_RULES])
def test_layer_spec_refuses_wrong_input_count_and_missing_fields(kind, fields, n_inputs,
                                                                 required):
    def spec(n, **changes):
        return LayerSpec(id="x", kind=kind, inputs=tuple(f"src_{i}" for i in range(n)),
                         **{**fields, **changes})

    assert spec(n_inputs).to_json_dict()["kind"] == kind
    for n in {n_inputs - 1, n_inputs + 1} - {-1}:
        with pytest.raises(ModelFormatError, match=f"takes {n_inputs} inputs, got {n}"):
            spec(n)
    for name in required:
        for bad in (0, None):
            with pytest.raises(ModelFormatError,
                               match=f"layer 'x': {kind} needs positive {name}, got {bad}"):
                spec(n_inputs, **{name: bad})


# a value other than the default for every optional LayerSpec field
_SET_VALUES = dict(num_filters=99, kernel_h=3, kernel_w=3, stride=2, padding="bogus",
                   has_bias=True, has_batchnorm=True, activation="leaky", act_exponent=4,
                   fused=True, epsilon=0.001, size=2, factor=2, height=4, width=4, channels=2)
_CONV_FIELDS = ("num_filters", "kernel_h", "kernel_w", "stride", "padding", "has_bias",
                "has_batchnorm", "activation", "fused", "act_exponent", "epsilon")
_OWNED = {"input": ("height", "width", "channels"), "conv": _CONV_FIELDS,
          "maxpool": ("size", "stride"), "upsample": ("factor",), "concat": (),
          "output_marker": ()}


@pytest.mark.parametrize("kind, fields, n_inputs, required", _KIND_RULES,
                         ids=[rule[0] for rule in _KIND_RULES])
def test_layer_spec_refuses_fields_its_kind_does_not_use(kind, fields, n_inputs, required):
    inputs = tuple(f"src_{i}" for i in range(n_inputs))
    for name in (name for name in _SET_VALUES if name not in _OWNED[kind]):
        with pytest.raises(ModelFormatError,
                           match=f"layer 'x': {name} is set, but this {kind} does not use it"):
            LayerSpec(id="x", kind=kind, inputs=inputs, **{**fields, name: _SET_VALUES[name]})
    # a field left at its default is not set
    spec = LayerSpec(id="x", kind=kind, inputs=inputs, **fields, has_bias=kind == "conv")
    assert set(spec.to_json_dict()) <= {"id", "kind", "inputs", *_OWNED[kind]}


def test_conv_refuses_an_exponent_without_leaky_and_an_epsilon_without_batchnorm():
    linear = conv_spec("x", "input", 2, act="linear")
    for changes, name in [(dict(act_exponent=4), "act_exponent"), (dict(epsilon=0.01), "epsilon")]:
        with pytest.raises(ModelFormatError, match=f"{name} is set, but this conv does not"):
            replace_spec(linear, **changes)
    leaky_bn = conv_spec("x", "input", 2, act="leaky", has_batchnorm=True, epsilon=0.01)
    assert leaky_bn.to_json_dict()["act_exponent"] == 4
    assert leaky_bn.to_json_dict()["epsilon"] == 0.01
    assert "act_exponent" not in linear.to_json_dict() and "epsilon" not in linear.to_json_dict()


@pytest.mark.parametrize("layer_id", ["", "../escaped", "a/b", "/abs/path", "a\\b", "a\0b"])
def test_layer_id_must_be_a_plain_file_name(layer_id):
    with pytest.raises(ModelFormatError, match="must be a non-empty file name"):
        LayerSpec(id=layer_id, kind="upsample", inputs=("input",), factor=2)
    # the refusal reaches a manifest's layers too
    with pytest.raises(ModelFormatError, match="must be a non-empty file name"):
        LayerSpec.from_json_dict({"id": layer_id, "kind": "output_marker", "inputs": ["a"]})


def test_channel_mismatch_fails_shape_inference():
    fb = identity_bank(3)  # expects 3 input channels
    layers = (
        LayerSpec(id="input", kind="input", height=2, width=2, channels=2),
        conv_spec("conv_1", "input", 3, 1),
    )
    with pytest.raises(ShapeError, match="channels"):
        Model(layers, {"conv_1": ConvParams(fb, None)})


# ---------------------------------------------------------------------------
# shape inference
# ---------------------------------------------------------------------------

def test_shape_infer_conv_and_pool():
    rng = np.random.default_rng(0)
    layers = (
        LayerSpec(id="input", kind="input", height=416, width=416, channels=3),
        conv_spec("conv_1", "input", 16, 3, act="leaky"),
        LayerSpec(id="pool_1", kind="maxpool", inputs=("conv_1",), size=2, stride=2),
    )
    fb = FilterBank(rng.random((3, 3, 3, 16)).astype(np.float32), np.zeros(16, np.float32))
    shapes = shape_infer(Model(layers, {"conv_1": ConvParams(fb, None)}))
    assert shapes["conv_1"] == (416, 416, 16)
    assert shapes["pool_1"] == (208, 208, 16)


def test_tinyyolo_output_grids():
    shapes = shape_infer(build_tinyyolov3(num_classes=80))
    assert shapes["conv_10"] == (13, 13, 255)
    assert shapes["conv_13"] == (26, 26, 255)
    assert shapes["pool_6"] == (13, 13, 512)       # stride-1 pool keeps the grid
    assert shapes["route_1"] == (26, 26, 384)      # 128 upsampled + 256 skip


def test_layer_graph_is_shaped_and_checked_without_parameters():
    layers = build_tinyyolov3().layers
    assert shape_infer(LayerGraph(layers)) == shape_infer(build_tinyyolov3())
    with pytest.raises(ModelFormatError, match=re.escape("duplicate layer ids: ['conv_1']")):
        LayerGraph(layers[:2] + layers[1:])
    with pytest.raises(ModelFormatError,
                       match=re.escape("layer 'conv_1' consumes 'input' which does not precede it")):
        LayerGraph(layers[1:2] + layers[:1] + layers[2:])


def test_models_refuse_parameters_keyed_by_no_layer(rng):
    model = fuse_model(chain_model(rng, [2, 3], hw=4, bn=True))
    stray = re.escape("parameters for unknown layers: ['ghost']")
    with pytest.raises(ModelFormatError, match=stray):
        Model(model.layers, {**model.params, "ghost": model.params["conv_1"]})
    qmodel = quantize_model(model)
    with pytest.raises(ModelFormatError, match=stray):
        replace_spec(qmodel, qparams={**qmodel.qparams, "ghost": qmodel.qparams["conv_1"]})


# ---------------------------------------------------------------------------
# float engine
# ---------------------------------------------------------------------------

def test_identity_kernel_model_returns_input(rng):
    model = _single_conv_model(identity_bank(2, kernel=3))
    fm = feature_map(rng, 4, 4, 2, lo=-1, hi=1)
    trace = float_infer(model, fm)
    np.testing.assert_array_equal(trace["conv_1"].data, fm.data)


def test_identity_batchnorm_equals_no_batchnorm(rng):
    fb = FilterBank(rng.uniform(-1, 1, size=(3, 3, 2, 4)).astype(np.float32),
                    np.zeros(4, np.float32))
    plain = _single_conv_model(fb, act="leaky")
    nf = 4
    bn = BatchNormParams(mu=np.zeros(nf), sigma2=np.ones(nf), gamma=np.ones(nf),
                         beta=np.zeros(nf), epsilon=0.0)
    layers = (
        LayerSpec(id="input", kind="input", height=4, width=4, channels=2),
        conv_spec("conv_1", "input", 4, 3, act="leaky", has_bias=False,
                  has_batchnorm=True, epsilon=0.0),
    )
    with_bn = Model(layers, {"conv_1": ConvParams(fb, bn)})
    fm = feature_map(rng, 4, 4, 2, lo=-1, hi=1)
    a = float_infer(plain, fm, taps=True)
    b = float_infer(with_bn, fm, taps=True)
    np.testing.assert_array_equal(a["conv_1"].data, b["conv_1"].data)


def test_float_infer_taps_vs_outputs(rng):
    model = chain_model(rng, [3, 2], hw=5)
    fm = feature_map(rng, 5, 5, 2)
    full = float_infer(model, fm, taps=True)
    outs = float_infer(model, fm, taps=False)
    assert set(full) == {"input", "conv_1", "conv_2"}
    assert set(outs) == {"conv_2"}  # no output markers: last layer wins
    np.testing.assert_array_equal(full["conv_2"].data, outs["conv_2"].data)


def test_float_infer_rejects_wrong_input_shape(rng):
    model = chain_model(rng, [2], hw=5)
    with pytest.raises(ShapeError, match="input shape"):
        float_infer(model, feature_map(rng, 4, 4, 2))


def test_float_infer_deterministic(rng):
    model = chain_model(rng, [4, 3], hw=6)
    fm = feature_map(rng, 6, 6, 2, lo=-1, hi=1)
    a = float_infer(model, fm, taps=True)
    b = float_infer(model, fm, taps=True)
    for lid in a:
        assert a[lid].data.tobytes() == b[lid].data.tobytes()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_bit_exact(tmp_path, rng):
    model = chain_model(rng, [4, 3, 2], hw=6, bn=True)
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert model_digest(back) == model_digest(model)
    for lid in model.params:
        a, b = model.params[lid], back.params[lid]
        assert a.filters.weights.tobytes() == b.filters.weights.tobytes()
        assert a.filters.biases.tobytes() == b.filters.biases.tobytes()
        assert a.batchnorm.epsilon == b.batchnorm.epsilon
        for name in ("mu", "sigma2", "gamma", "beta"):
            assert getattr(a.batchnorm, name).tobytes() == getattr(b.batchnorm, name).tobytes()
    assert [l.id for l in back.layers] == [l.id for l in model.layers]


def test_batchnorm_epsilon_must_match_the_layer_epsilon(rng):
    # the manifest stores only the layer's epsilon: a model whose batchnorm
    # epsilon differs would reload as another model under the same digest
    model = chain_model(rng, [3], hw=4, bn=True, epsilon=0.001)
    fb = model.params["conv_1"].filters
    with pytest.raises(ModelFormatError, match="epsilon"):
        Model(model.layers, {"conv_1": ConvParams(fb, random_bn(rng, 3, epsilon=0.5))})
    # a layer without an epsilon reads as the loader's default, 0.001
    layers = (model.layers[0], conv_spec("conv_1", "input", 3, act="leaky", has_bias=False,
                                         has_batchnorm=True, epsilon=None))
    Model(layers, {"conv_1": ConvParams(fb, random_bn(rng, 3, epsilon=0.001))})
    with pytest.raises(ModelFormatError, match="epsilon"):
        Model(layers, {"conv_1": ConvParams(fb, random_bn(rng, 3, epsilon=0.0))})


def test_graph_lookups_and_batchnorm_lengths_are_checked(rng):
    model = chain_model(rng, [3], hw=4, bn=True)
    with pytest.raises(KeyError, match="conv_9"):
        model.layer("conv_9")
    fb = model.params["conv_1"].filters
    with pytest.raises(ShapeError, match="batchnorm length 2 != 3 filters"):
        Model(model.layers, {"conv_1": ConvParams(fb, random_bn(rng, 2))})


def test_load_error_names_missing_record(tmp_path, rng):
    model = chain_model(rng, [2, 3], hw=4)
    save_model(model, tmp_path / "m.json")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["layers"].append(conv_spec("conv_9", "conv_2", 3, 1).to_json_dict())
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="conv_9"):
        load_model(tmp_path / "m.json")


def test_load_rejects_unknown_attributes(tmp_path, rng):
    model = chain_model(rng, [2], hw=4)
    save_model(model, tmp_path / "m.json")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["layers"][1]["groups"] = 2
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="groups"):
        load_model(tmp_path / "m.json")


def test_load_rejects_bad_magic_weights(tmp_path, rng):
    model = chain_model(rng, [2], hw=4)
    save_model(model, tmp_path / "m.json")
    (tmp_path / "m.weights").write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(tmp_path / "m.json")


def test_load_rejects_unsupported_version(tmp_path, rng):
    model = chain_model(rng, [2], hw=4)
    save_model(model, tmp_path / "m.json")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(tmp_path / "m.json")


@pytest.mark.parametrize("version", [True, 1.0])
def test_load_rejects_format_version_that_only_equals_1(tmp_path, rng, version):
    save_model(chain_model(rng, [2], hw=4), tmp_path / "m.json")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["format_version"] = version
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(tmp_path / "m.json")


def test_load_rejects_stray_records(tmp_path, rng):
    model = chain_model(rng, [2, 2], hw=4)
    save_model(model, tmp_path / "full.json")
    smaller = chain_model(rng, [2], hw=4)
    save_model(smaller, tmp_path / "small.json")
    # point the small manifest at the big blob: conv_2.* records are stray
    manifest = json.loads((tmp_path / "small.json").read_text())
    manifest["weights"] = "full.weights"
    (tmp_path / "small.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="conv_2"):
        load_model(tmp_path / "small.json")


def test_load_rejects_batchnorm_record_of_plain_layer(tmp_path, rng):
    model = chain_model(rng, [2], hw=4)
    save_model(model, tmp_path / "m.json")
    extra = list(record_chunks([("conv_1.mu", np.zeros(2, np.float32))], DTYPE_FLOAT32))
    weights = tmp_path / "m.weights"
    weights.write_bytes(weights.read_bytes() + b"".join(bytes(c) for c in extra[1:]))
    with pytest.raises(ModelFormatError, match="unknown layers.*conv_1.mu"):
        load_model(tmp_path / "m.json")


@pytest.mark.parametrize("quantized", [False, True], ids=["float", "quantized"])
def test_load_rejects_a_repeated_record(tmp_path, rng, quantized):
    # the parent kept the last of the two records: a model with zero conv_1 weights
    model = chain_model(rng, [2, 2], hw=4)
    path = tmp_path / "m.json"
    if quantized:
        save_quantized_model(quantize_model(model), path)
    else:
        save_model(model, path)
    code, load = (DTYPE_INT16, load_quantized_model) if quantized else (DTYPE_FLOAT32, load_model)
    zeros = np.zeros(model.params["conv_1"].filters.weights.shape)
    repeat = list(record_chunks([("conv_1.W", zeros)], code))
    weights = tmp_path / "m.weights"
    weights.write_bytes(weights.read_bytes() + b"".join(bytes(c) for c in repeat[1:]))
    with pytest.raises(ModelFormatError, match="repeated weight record 'conv_1.W'"):
        load(path)


def test_forged_record_dims_are_truncated_not_allocated(tmp_path, rng):
    save_model(chain_model(rng, [2], hw=4), tmp_path / "m.json")
    name = b"conv_1.W"
    (tmp_path / "m.weights").write_bytes(
        b"CNNW" + struct.pack("<IH", 1, len(name)) + name
        + struct.pack("<BB4I", DTYPE_FLOAT32, 4, *[65535] * 4) + b"\x00" * 6)
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(tmp_path / "m.json")


def test_digest_tracks_weight_changes(rng):
    model = chain_model(rng, [2], hw=4)
    d0 = model_digest(model)
    fb = model.params["conv_1"].filters
    w = np.array(fb.weights)
    w[0, 0, 0, 0] += 0.25
    changed = Model(model.layers, {"conv_1": ConvParams(FilterBank(w, fb.biases), None)})
    assert model_digest(changed) != d0


# Frozen identities of a seeded model: a change to the file format or to the
# digest's definition changes them.
_FROZEN_MODEL_DIGEST = "f9bd4c3d00a8074f5bf09c8869a5d61ce9f733e55e31d995ac9a548931ea5be1"
_FROZEN_WEIGHTS_SHA256 = "dfc74792562586337b57b7efc4881ab9be3dcd2eb54b349a0239e5d0cd28da82"
_FROZEN_QUANT_WEIGHTS_SHA256 = "94d6e91e399a1c582556276eb7b0d9851d8b40dd98ffd54aa0c5e922a03f64d3"


def _sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_digest_and_saved_weights_are_frozen(tmp_path):
    model = chain_model(np.random.default_rng(7), [4, 3], hw=6, in_channels=2, bn=True)
    save_model(model, tmp_path / "m.json")
    save_quantized_model(quantize_model(fuse_model(model)), tmp_path / "q.json")
    assert model_digest(model) == _FROZEN_MODEL_DIGEST
    assert _sha256_file(tmp_path / "m.weights") == _FROZEN_WEIGHTS_SHA256
    assert _sha256_file(tmp_path / "q.weights") == _FROZEN_QUANT_WEIGHTS_SHA256


# Frozen bytes of a TinyYOLOv3 manifest, float and quantized: every layer kind's
# fields, in the order the manifest writes them.
_FROZEN_TINYYOLO_MANIFEST_SHA256 = (
    "4120d6ea8f64a886701d020684f115884097f04619ca48991e40e687d1f48afa")
_FROZEN_TINYYOLO_QUANT_MANIFEST_SHA256 = (
    "a2a338dfcfe0b5284adab044ee1aeaacf4025a0774b6b941f6f517fe043de440")


def test_saved_manifests_of_every_layer_kind_are_frozen(tmp_path):
    model = replace_layer(build_tinyyolov3(num_classes=1), "input", height=32, width=32)
    model = randomize_weights(model, np.random.default_rng(7))
    assert {l.kind for l in model.layers} == {
        "input", "conv", "maxpool", "upsample", "concat", "output_marker"}
    save_model(model, tmp_path / "m.json")
    save_quantized_model(quantize_model(fuse_model(model)), tmp_path / "q.json")
    assert _sha256_file(tmp_path / "m.json") == _FROZEN_TINYYOLO_MANIFEST_SHA256
    assert _sha256_file(tmp_path / "q.json") == _FROZEN_TINYYOLO_QUANT_MANIFEST_SHA256


def test_digest_hashes_manifest_then_saved_blob(tmp_path, rng):
    model = chain_model(rng, [4, 3], hw=6, bn=True)
    save_model(model, tmp_path / "m.json")
    h = hashlib.sha256(json.dumps(manifest_dict(model, ""), sort_keys=True).encode())
    h.update((tmp_path / "m.weights").read_bytes())
    assert model_digest(model) == h.hexdigest()


def _raises_mid_stream():
    yield b"new "
    yield memoryview(b"partial")
    raise RuntimeError("encoder failed")


def _unwritable_chunk():
    yield b"new "
    yield 12345  # not bytes-like: the write itself raises


@pytest.mark.parametrize("chunks, error", [(_raises_mid_stream, RuntimeError),
                                           (_unwritable_chunk, TypeError)])
def test_atomic_write_failure_keeps_destination(tmp_path, chunks, error):
    dest = tmp_path / "out.weights"
    dest.write_bytes(b"old content")
    with pytest.raises(error):
        _atomic_write(dest, chunks())
    assert dest.read_bytes() == b"old content"
    assert [p.name for p in tmp_path.iterdir()] == ["out.weights"]  # no temp file left


def _open_fds():
    """Names of this process's open descriptors; None off Linux."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_atomic_write_over_a_file_writes_it_and_leaks_nothing(tmp_path):
    dest = tmp_path / "out.weights"
    dest.write_bytes(b"old content" * 1000)
    before = _open_fds()
    _atomic_write(dest, [b"new ", memoryview(b"content")])
    after = _open_fds()
    assert dest.read_bytes() == b"new content"
    assert [p.name for p in tmp_path.iterdir()] == ["out.weights"]
    if before is None:
        pytest.skip("no /proc/self/fd to count descriptors in")
    assert after == before


def test_atomic_write_onto_a_directory_raises_and_leaks_nothing(tmp_path):
    dest = tmp_path / "out"
    dest.mkdir()
    before = _open_fds()
    with pytest.raises(OSError):
        _atomic_write(dest, [b"new"])
    after = _open_fds()
    assert dest.is_dir() and not any(dest.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no temp file left
    if before is None:
        pytest.skip("no /proc/self/fd to count descriptors in")
    assert after == before


# Every writer of an output file: (file name, call that writes it).
_WRITERS = [
    ("x.tnsr", lambda path: save_tensor(path, FeatureMap(np.ones((2, 2, 1), np.float32)))),
    ("r.json", lambda path: write_json_report(path, {"a": 1})),
    ("m.csv", lambda path: MseReport((MseEntry("conv_1", 4, 0.5),)).write_csv(path)),
]


@pytest.mark.parametrize("name, write", _WRITERS, ids=[n for n, _ in _WRITERS])
def test_output_writers_keep_old_file_when_rename_fails(tmp_path, monkeypatch, name, write):
    dest = tmp_path / name
    dest.write_bytes(b"old content")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write(dest)
    assert dest.read_bytes() == b"old content"
    assert [p.name for p in tmp_path.iterdir()] == [name]  # no temp file left


@pytest.mark.parametrize("write", [
    lambda path: write_json_report(path, {"a": object()}),
    lambda path: MseReport((MseEntry("conv_1", 4, 0.5), MseEntry("conv_2", 4, None)))
    .write_csv(path),
], ids=["json", "csv"])
def test_report_that_fails_to_encode_keeps_old_file(tmp_path, write):
    dest = tmp_path / "report"
    dest.write_text('{"valid": true}\n')
    with pytest.raises(TypeError):
        write(dest)
    assert dest.read_text() == '{"valid": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["report"]


def test_manifest_input_block_must_match_layer(tmp_path, rng):
    model = chain_model(rng, [2], hw=4)
    save_model(model, tmp_path / "m.json")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["input"]["h"] = 999
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="disagrees"):
        load_model(tmp_path / "m.json")


# ---------------------------------------------------------------------------
# bundled TinyYOLOv3 descriptor
# ---------------------------------------------------------------------------

def test_tinyyolo_layer_census(tmp_path):
    model = build_tinyyolov3(num_classes=80)
    save_model(model, tmp_path / "ty.json")
    back = load_model(tmp_path / "ty.json")
    kinds = {}
    for layer in back.layers:
        kinds[layer.kind] = kinds.get(layer.kind, 0) + 1
    assert kinds["conv"] == 13
    assert kinds["maxpool"] == 6
    assert kinds["upsample"] == 1
    assert kinds["concat"] == 1
    assert kinds["output_marker"] == 2


def test_tinyyolo_head_filters():
    assert head_filters(80) == 255
    assert head_filters(1) == 18
    m80 = build_tinyyolov3(num_classes=80)
    for lid in HEAD_IDS:
        layer = m80.layer(lid)
        assert layer.num_filters == 255
        assert layer.has_bias and not layer.has_batchnorm
        assert layer.activation == "linear"
    m1 = build_tinyyolov3(num_classes=1)
    assert all(m1.layer(lid).num_filters == 18 for lid in HEAD_IDS)
    with pytest.raises(ValueError):
        build_tinyyolov3(num_classes=0)


def test_tinyyolo_conv_weight_total_matches_fixture():
    import os
    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "tinyyolov3_expected.json")
    with open(fixture) as fh:
        expected = json.load(fh)
    model = build_tinyyolov3(num_classes=80)
    total = 0
    for layer in model.conv_layers():
        n = model.params[layer.id].filters.weights.size
        assert n == expected["layers"][layer.id]["weights"]
        total += n
    assert total == expected["total_weights"] == 8_845_488


def test_tinyyolo_backbone_convs_are_bias_free_leaky():
    model = build_tinyyolov3()
    for layer in model.conv_layers():
        if layer.id in HEAD_IDS:
            continue
        assert not layer.has_bias
        assert layer.has_batchnorm
        assert layer.activation == "leaky"
        assert layer.leaky_alpha == pytest.approx(0.0625)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def test_randomize_weights_respects_bias_flag(rng):
    model = randomize_weights(build_tinyyolov3(num_classes=1), rng)
    for layer in model.conv_layers():
        b = model.params[layer.id].filters.biases
        if layer.has_bias:
            assert np.any(b != 0)
        else:
            assert np.all(b == 0)


def test_randomize_weights_seed_reproducible():
    m1 = randomize_weights(build_tinyyolov3(num_classes=1), np.random.default_rng(5))
    m2 = randomize_weights(build_tinyyolov3(num_classes=1), np.random.default_rng(5))
    assert model_digest(m1) == model_digest(m2)


def test_zero_filter_bank_shapes():
    fb = zero_filter_bank(3, 3, 2, 4)
    assert fb.weights.shape == (3, 3, 2, 4)
    assert fb.biases.shape == (4,)
    assert not fb.weights.any() and not fb.biases.any()
