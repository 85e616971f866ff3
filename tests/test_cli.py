"""End-to-end checks of the command-line surface (in-process, plus one subprocess)."""
import json
import logging
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from cnnadapt.cli import run
from cnnadapt.model import (
    ConvParams,
    Model,
    _weight_records,
    load_model,
    record_chunks,
    save_model,
    write_model_files,
)
from cnnadapt.quantization import load_quantized_model
from cnnadapt.tensor import (
    DTYPE_FLOAT32,
    DTYPE_INT16,
    INT16_MAX,
    FilterBank,
    save_tensor,
)
from cnnadapt.tinyyolo import build_tinyyolov3
from util import chain_model, feature_map


@pytest.fixture()
def bn_model_path(tmp_path, rng):
    model = chain_model(rng, [4, 3], hw=6, in_channels=2, bn=True, scale=0.3)
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


@pytest.fixture()
def fused_model_path(tmp_path, bn_model_path):
    out = tmp_path / "fused.json"
    assert run(["fuse", "-i", str(bn_model_path), "-o", str(out)]) == 0
    return out


@pytest.fixture()
def input_path(tmp_path, rng):
    path = tmp_path / "input.tnsr"
    save_tensor(path, feature_map(rng, 6, 6, 2))
    return path


def _write_dataset(directory, rng, n=3, classes=3):
    directory.mkdir(exist_ok=True)
    for i in range(n):
        save_tensor(directory / f"s{i}.tnsr", feature_map(rng, 6, 6, 2))
        (directory / f"s{i}.json").write_text(json.dumps({"class": i % classes}))
    return directory


def test_fuse_drops_batchnorm(bn_model_path, fused_model_path):
    fused = load_model(fused_model_path)
    assert not fused.has_batchnorm()
    assert all(l.fused for l in fused.conv_layers())
    assert load_model(bn_model_path).has_batchnorm()  # input untouched


def test_fuse_accepts_plain_model(tmp_path, fused_model_path):
    # no-op fuse on an already-clean (never-fused) model
    model = chain_model(np.random.default_rng(7), [2], hw=4)
    path = tmp_path / "plain.json"
    save_model(model, path)
    assert run(["fuse", "-i", str(path), "-o", str(tmp_path / "plain2.json")]) == 0
    # but re-fusing a fused model is refused
    assert run(["fuse", "-i", str(fused_model_path),
                "-o", str(tmp_path / "twice.json")]) == 1


def test_quantize_requires_fusion(bn_model_path, tmp_path, capsys):
    code = run(["quantize", "-i", str(bn_model_path), "-o", str(tmp_path / "q.json")])
    assert code == 1
    assert "run fuse before quantize" in capsys.readouterr().err


def test_prune_requires_fusion(bn_model_path, tmp_path, capsys):
    code = run(["prune", "-i", str(bn_model_path), "-o", str(tmp_path / "p.json"),
                "--data", str(tmp_path)])
    assert code == 1
    assert "run fuse before prune" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["fuse", "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_model_file_is_failure(tmp_path, capsys):
    assert run(["flops", "-i", str(tmp_path / "nope.json")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_bad_quant_exponent_is_usage_error(fused_model_path, tmp_path, capsys):
    code = run(["quantize", "-i", str(fused_model_path),
                "-o", str(tmp_path / "q.json"), "--p", "99"])
    assert code == 1
    assert "scale exponent" in capsys.readouterr().err


def test_flops_table_shows_gigaflops(tmp_path, capsys):
    model = build_tinyyolov3(num_classes=80)
    path = tmp_path / "yolo.json"
    save_model(model, path)
    assert run(["flops", "-i", str(path), "--per-layer"]) == 0
    out = capsys.readouterr().out
    assert "5.56" in out
    assert "conv_7" in out


def test_flops_reduction_against_reference(tmp_path, capsys):
    model = build_tinyyolov3(num_classes=80)
    ref = tmp_path / "yolo.json"
    save_model(model, ref)
    fused = tmp_path / "yolo.fused.json"
    assert run(["fuse", "-i", str(ref), "-o", str(fused)]) == 0
    report = tmp_path / "flops.json"
    assert run(["flops", "-i", str(fused), "--ref", str(ref),
                "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "23,795,200" in out and "(0.4%)" in out
    payload = json.loads(report.read_text())
    assert payload["report_version"] == 1
    assert payload["reduction"] == 23_795_200
    assert payload["reduction_pct"] == pytest.approx(0.4258, abs=5e-4)


def test_params_report(tmp_path, fused_model_path, capsys):
    report = tmp_path / "params.json"
    assert run(["params", "-i", str(fused_model_path), "--per-layer",
                "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "conv_1" in out and "conv_2" in out
    payload = json.loads(report.read_text())
    assert payload["report_version"] == 1
    assert payload["total"] > 0


def test_prune_pipeline_with_report(tmp_path, rng, fused_model_path, caplog):
    data = _write_dataset(tmp_path / "data", rng)
    out = tmp_path / "pruned.json"
    report = tmp_path / "prune.json"
    with caplog.at_level(logging.INFO, logger="cnnadapt"):
        code = run(["prune", "-i", str(fused_model_path), "-o", str(out),
                    "--data", str(data), "--eval", "accuracy",
                    "--delta-map", "1.0", "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["report_version"] == 1
    step_lines = [r for r in caplog.records if "threshold" in r.getMessage()
                  and "removed" in r.getMessage()]
    assert len(step_lines) == len(payload["steps"])  # one log line per step
    pruned = load_model(out)
    # delta_map=1.0 accepts everything: prunable layers collapse to the floor
    assert all(l.num_filters == 1 for l in pruned.conv_layers())


def test_quantize_then_infer_and_compare(tmp_path, rng, fused_model_path, input_path, capsys):
    qpath = tmp_path / "model.q.json"
    assert run(["quantize", "-i", str(fused_model_path), "-o", str(qpath)]) == 0

    float_taps = tmp_path / "float_taps"
    assert run(["infer", "-i", str(fused_model_path), "--input", str(input_path),
                "--engine", "float", "--taps", str(float_taps)]) == 0
    assert (float_taps / "conv_2.tnsr").exists()

    overflow = tmp_path / "overflow.json"
    int_taps = tmp_path / "int_taps"
    assert run(["infer", "-i", str(qpath), "--input", str(input_path),
                "--engine", "int", "--taps", str(int_taps), "--tap-all",
                "--report", str(overflow)]) == 0
    assert (int_taps / "input.tnsr").exists()
    assert "total" in json.loads(overflow.read_text())

    mse_json = tmp_path / "mse.json"
    mse_csv = tmp_path / "mse.csv"
    assert run(["compare", "--float-model", str(fused_model_path),
                "--quant-model", str(qpath), "--input", str(input_path),
                "--report", str(mse_json), "--csv", str(mse_csv)]) == 0
    table = capsys.readouterr().out
    assert "conv_2" in table and "MSE" in table
    payload = json.loads(mse_json.read_text())
    assert payload["report_version"] == 1 and payload["max_mse"] < 0.05
    assert mse_csv.read_text().splitlines()[0] == "layer_id,n_elements,mse"


def test_int_engine_is_reproducible_through_cli(tmp_path, fused_model_path, input_path):
    qpath = tmp_path / "model.q.json"
    assert run(["quantize", "-i", str(fused_model_path), "-o", str(qpath)]) == 0
    taps = []
    for name in ("a", "b"):
        d = tmp_path / name
        assert run(["infer", "-i", str(qpath), "--input", str(input_path),
                    "--engine", "int", "--taps", str(d), "--tap-all"]) == 0
        taps.append(d)
    files = sorted(p.name for p in taps[0].iterdir())
    assert files == sorted(p.name for p in taps[1].iterdir())
    for name in files:
        assert (taps[0] / name).read_bytes() == (taps[1] / name).read_bytes()


def test_infer_rejects_engine_model_mismatch(tmp_path, fused_model_path, input_path, capsys):
    # float engine pointed at a quantized manifest and vice versa
    qpath = tmp_path / "model.q.json"
    assert run(["quantize", "-i", str(fused_model_path), "-o", str(qpath)]) == 0
    assert run(["infer", "-i", str(qpath), "--input", str(input_path),
                "--engine", "float", "--taps", str(tmp_path / "t1")]) == 2
    assert run(["infer", "-i", str(fused_model_path), "--input", str(input_path),
                "--engine", "int", "--taps", str(tmp_path / "t2")]) == 2


@pytest.mark.parametrize("command", ["infer-float", "infer-int", "compare"])
def test_input_of_wrong_shape_is_format_error(tmp_path, rng, fused_model_path, capsys, command):
    qpath = tmp_path / "model.q.json"
    assert run(["quantize", "-i", str(fused_model_path), "-o", str(qpath)]) == 0
    bad = tmp_path / "bad.tnsr"
    save_tensor(bad, feature_map(rng, 5, 6, 2))   # the model input is 6x6x2
    capsys.readouterr()
    taps = ["--taps", str(tmp_path / "taps")]
    argv = {"infer-float": ["infer", "-i", str(fused_model_path), "--engine", "float"] + taps,
            "infer-int": ["infer", "-i", str(qpath), "--engine", "int"] + taps,
            "compare": ["compare", "--float-model", str(fused_model_path),
                        "--quant-model", str(qpath)]}[command]
    assert run(argv + ["--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: tensor shape (5, 6, 2) != model input (6, 6, 2)" in err
    assert "Traceback" not in err


def test_console_script_runs_in_subprocess(tmp_path):
    exe = shutil.which("cnnadapt")
    argv = [exe] if exe else [sys.executable, "-m", "cnnadapt.cli"]
    model = build_tinyyolov3(num_classes=1)
    path = tmp_path / "yolo.json"
    save_model(model, path)
    proc = subprocess.run(argv + ["flops", "-i", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "GFLOPs" in proc.stdout


def test_truncated_tensor_is_format_error(tmp_path, fused_model_path, capsys):
    # magic, version and dtype/rank, but the header stops before its dims
    path = tmp_path / "short.tnsr"
    path.write_bytes(b"TNSR" + (1).to_bytes(4, "little") + bytes([0, 3, 6, 0]))
    assert len(path.read_bytes()) == 12
    code = run(["infer", "-i", str(fused_model_path), "--input", str(path),
                "--engine", "float", "--taps", str(tmp_path / "taps")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "truncated" in err and "Traceback" not in err


# The first record of fused.weights is conv_1.W: 8-byte blob header, name length
# (8..10), name (10..18), dtype and rank (18..20), four dims (20..36), payload.
@pytest.mark.parametrize("cut", [6, 12, 19, 23, 30])
def test_truncated_weights_blob_is_format_error(fused_model_path, capsys, cut):
    weights = fused_model_path.with_suffix(".weights")
    weights.write_bytes(weights.read_bytes()[:cut])
    code = run(["flops", "-i", str(fused_model_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "truncated" in err and "Traceback" not in err


def test_weights_record_name_not_utf8_is_format_error(fused_model_path, capsys):
    weights = fused_model_path.with_suffix(".weights")
    blob = bytearray(weights.read_bytes())
    blob[10] = 0xFF
    weights.write_bytes(bytes(blob))
    code = run(["flops", "-i", str(fused_model_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "UTF-8" in err and "Traceback" not in err


def test_quantize_saturates_huge_weight_to_positive_max(tmp_path, rng):
    model = chain_model(rng, [3], hw=4, in_channels=2)
    fb = model.params["conv_1"].filters
    w = np.array(fb.weights)
    w[0, 0, 0, 0] = 1e20
    path = tmp_path / "huge.json"
    save_model(Model(model.layers, {"conv_1": ConvParams(FilterBank(w, fb.biases))}), path)
    assert run(["quantize", "-i", str(path), "-o", str(tmp_path / "q.json")]) == 0
    assert load_quantized_model(tmp_path / "q.json").qparams["conv_1"].weights[0, 0, 0, 0] \
        == INT16_MAX


def test_prune_rejects_sample_of_wrong_shape(tmp_path, rng, fused_model_path, capsys):
    data = _write_dataset(tmp_path / "data", rng)
    save_tensor(data / "s1.tnsr", feature_map(rng, 5, 6, 2))
    code = run(["prune", "-i", str(fused_model_path), "-o", str(tmp_path / "p.json"),
                "--data", str(data)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "'s1'" in err and "(5, 6, 2)" in err and "Traceback" not in err
    assert not (tmp_path / "p.json").exists()


_GOOD_BOX = {"x": 1, "y": 1, "w": 2, "h": 2, "class": 0}


@pytest.mark.parametrize("eval_kind, label_text, message", [
    ("accuracy", '{"class": 1', "invalid JSON"),
    ("accuracy", "[1, 2]", "JSON object"),
    ("accuracy", '"class"', "JSON object"),
    ("accuracy", '{"class": "1"}', "not an integer"),
    ("accuracy", '{"class": 1.5}', "not an integer"),
    ("accuracy", '{"class": true}', "not an integer"),
    ("map", json.dumps({"boxes": [{k: v for k, v in _GOOD_BOX.items() if k != "w"}]}),
     "needs numbers"),
    ("map", json.dumps({"boxes": [dict(_GOOD_BOX, **{"class": False})]}), "needs numbers"),
    ("map", json.dumps({"boxes": [dict(_GOOD_BOX, x="1")]}), "needs numbers"),
    ("map", json.dumps({"boxes": [dict(_GOOD_BOX, h=-1)]}), "non-negative"),
    ("map", json.dumps({"boxes": {"x": 1}}), "must be a list"),
])
def test_prune_rejects_malformed_labels(tmp_path, rng, fused_model_path, capsys,
                                        eval_kind, label_text, message):
    data = _write_dataset(tmp_path / "data", rng)
    if eval_kind == "map":
        for i in range(3):
            (data / f"s{i}.json").write_text(json.dumps({"boxes": [_GOOD_BOX]}))
    (data / "s1.json").write_text(label_text)
    code = run(["prune", "-i", str(fused_model_path), "-o", str(tmp_path / "p.json"),
                "--data", str(data), "--eval", eval_kind])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and message in err and "Traceback" not in err
    assert not (tmp_path / "p.json").exists()


def _set_layer(name, key, value):
    def edit(manifest):
        next(l for l in manifest["layers"] if l["id"] == name)[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_set_layer("conv_1", "act_exponent", 4.0), "must be an integer",
                 id="float_act_exponent"),
    pytest.param(_set_layer("conv_1", "act_exponent", 1000000), "act_exponent in [0, 15]",
                 id="huge_act_exponent"),
    pytest.param(_set_layer("conv_1", "kernel_h", True), "must be an integer",
                 id="bool_kernel_h"),
    pytest.param(_set_layer("conv_1", "inputs", "input"), "list of layer ids",
                 id="string_inputs"),
    pytest.param(_set_layer("conv_1", "has_bias", "yes"), "must be true or false",
                 id="string_has_bias"),
    pytest.param(_set_layer("conv_1", "epsilon", "x"), "must be a number",
                 id="string_epsilon"),
    pytest.param(_set_layer("conv_1", "num_filters", 5), "manifest implies",
                 id="num_filters_disagrees_with_record"),
    pytest.param(lambda m: m.update(layers=[1, 2]), "JSON object", id="layers_not_objects"),
    pytest.param(lambda m: m.update(layers={"conv_1": {}}), "must be a list",
                 id="layers_not_a_list"),
    pytest.param(lambda m: m["quantization"].pop("p"), "missing 'p'", id="no_p"),
    pytest.param(lambda m: m["quantization"].update(p="8"), "must be an integer",
                 id="string_p"),
    pytest.param(lambda m: m["quantization"].update(p_alpha=16), "p_alpha must lie in [0, 15]",
                 id="p_alpha_beyond_15"),
    pytest.param(lambda m: m.update(quantization=[8, 4]), "JSON object",
                 id="quantization_not_an_object"),
])
def test_int_infer_rejects_malformed_quantized_manifest(tmp_path, fused_model_path, input_path,
                                                        capsys, edit, message):
    qpath = tmp_path / "model.q.json"
    assert run(["quantize", "-i", str(fused_model_path), "-o", str(qpath)]) == 0
    manifest = json.loads(qpath.read_text())
    edit(manifest)
    qpath.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run(["infer", "-i", str(qpath), "--input", str(input_path),
                "--engine", "int", "--taps", str(tmp_path / "taps")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and message in err and "Traceback" not in err


def test_int_infer_rejects_stray_weight_record(tmp_path, fused_model_path, input_path, capsys):
    qpath = tmp_path / "model.q.json"
    assert run(["quantize", "-i", str(fused_model_path), "-o", str(qpath)]) == 0
    weights = qpath.with_suffix(".weights")
    ghost = list(record_chunks([("ghost.W", np.zeros((3, 3, 2, 4), np.int16))], DTYPE_INT16))
    weights.write_bytes(weights.read_bytes() + b"".join(bytes(c) for c in ghost[1:]))
    capsys.readouterr()
    code = run(["infer", "-i", str(qpath), "--input", str(input_path),
                "--engine", "int", "--taps", str(tmp_path / "taps")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "ghost.W" in err and "Traceback" not in err


@pytest.mark.parametrize("engine", ["float", "int"])
def test_infer_rejects_manifest_that_is_not_an_object(tmp_path, input_path, capsys, engine):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code = run(["infer", "-i", str(path), "--input", str(input_path),
                "--engine", engine, "--taps", str(tmp_path / "taps")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "JSON object" in err and "Traceback" not in err


def test_quantize_rejects_slope_exponent_beyond_int16_shift(fused_model_path, tmp_path, capsys):
    code = run(["quantize", "-i", str(fused_model_path),
                "-o", str(tmp_path / "q.json"), "--p-alpha", "16"])
    assert code == 1
    assert "p_alpha must lie in [0, 15]" in capsys.readouterr().err


def _save_raw(path, model, replaced):
    """Save ``model`` with some records swapped for arrays its types would
    refuse; returns the argv of ``cnnadapt flops`` on it."""
    records = [(name, replaced.get(name, arr)) for name, arr in _weight_records(model)]
    write_model_files(model, path, records, DTYPE_FLOAT32)
    return ["flops", "-i", str(path)]


def _edit_manifest(path, edit):
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _set_input_size(manifest, size):
    manifest["input"].update(h=size, w=size)
    manifest["layers"][0].update(height=size, width=size)


def _nan_weight(tmp_path, rng, fused, image):
    model = chain_model(rng, [4, 3], hw=6, bn=True)
    w = np.array(model.params["conv_1"].filters.weights)
    w[0, 0, 0, 0] = np.nan
    return _save_raw(tmp_path / "m.json", model, {"conv_1.W": w})


def _negative_sigma2(tmp_path, rng, fused, image):
    model = chain_model(rng, [4, 3], hw=6, bn=True)
    return _save_raw(tmp_path / "m.json", model, {"conv_2.sigma2": -np.ones(3)})


def _in_channels_disagree(tmp_path, rng, fused, image):
    model = chain_model(rng, [4, 3], hw=6, bn=True)
    return _save_raw(tmp_path / "m.json", model, {"conv_2.W": np.zeros((3, 3, 5, 3))})


def _valid_kernel_beyond_map(tmp_path, rng, fused, image):
    def edit(manifest):
        _set_input_size(manifest, 2)
        manifest["layers"][1]["padding"] = "valid"   # conv_1's 3x3 kernel on a 2x2 map
    _edit_manifest(fused, edit)
    return ["flops", "-i", str(fused)]


def _input_breaks_concat(tmp_path, rng, fused, image):
    path = tmp_path / "yolo.json"
    save_model(build_tinyyolov3(num_classes=1), path)
    _edit_manifest(path, lambda m: _set_input_size(m, 48))
    return ["flops", "-i", str(path)]


def _quantized_with_batchnorm(tmp_path, rng, fused, image):
    qpath = tmp_path / "model.q.json"
    assert run(["quantize", "-i", str(fused), "-o", str(qpath)]) == 0
    _edit_manifest(qpath, _set_layer("conv_1", "has_batchnorm", True))
    return ["infer", "-i", str(qpath), "--input", str(image), "--engine", "int",
            "--taps", str(tmp_path / "taps")]


def _tensor(header_dims, payload):
    def case(tmp_path, rng, fused, image):
        image.write_bytes(b"TNSR" + struct.pack("<IBB3I", 1, 0, 3, *header_dims)
                          + np.asarray(payload, "<f4").tobytes())
        return ["infer", "-i", str(fused), "--input", str(image), "--engine", "float",
                "--taps", str(tmp_path / "taps")]
    return case


def _weights_not_a_name(tmp_path, rng, fused, image):
    _edit_manifest(fused, lambda m: m.update(weights=5))
    return ["flops", "-i", str(fused)]


@pytest.mark.parametrize("case", [
    _nan_weight, _negative_sigma2, _in_channels_disagree, _valid_kernel_beyond_map,
    _input_breaks_concat, _quantized_with_batchnorm, _tensor((0, 6, 2), []),
    _tensor((6, 6, 2), np.full((6, 6, 2), np.nan)), _weights_not_a_name,
], ids=["nan_weight", "negative_sigma2", "in_channels_disagree", "valid_kernel_beyond_map",
        "input_breaks_concat", "quantized_with_batchnorm", "tensor_height_0", "tensor_nan",
        "weights_not_a_name"])
def test_malformed_file_content_exits_2(tmp_path, rng, fused_model_path, input_path, capsys,
                                        case):
    argv = case(tmp_path, rng, fused_model_path, input_path)
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
