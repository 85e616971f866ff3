"""Fuzz the file contract: a damaged model, quantized model, tensor or label
file either still loads (exit 0) or is refused with exit 2 and an ``error:``
line, never with another exit code or an exception out of ``cli.run``. The
one exit 1 allowed is ``compare`` refusing a quantized model of other
weights, a usage error.

Each example takes the files of one small saved chain model, with an input
tensor or a dataset of samples, and damages one of them: a cut at any
offset, one flipped bit anywhere in a ``.weights`` or ``.tnsr`` file, or one
value of a manifest or label replaced by a value of another JSON type.
"""
import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnadapt.cli import run
from cnnadapt.fusion import fuse_model
from cnnadapt.model import save_model
from cnnadapt.quantization import quantize_model, save_quantized_model
from cnnadapt.tensor import save_tensor
from util import chain_model, feature_map

# one value of each JSON type: null, boolean, number, string, array, object
_JSON_VALUES = [None, True, 0, "x", [], {}]

# per case: the files it damages one at a time, and the command it runs; each
# of those files and of _WORK_PATHS is a path in the work dir
_CASES = {
    "float": (["m.json", "m.weights"], ["flops", "-i", "m.json"]),
    "fuse": (["m.json", "m.weights"], ["fuse", "-i", "m.json", "-o", "fz.json"]),
    "infer_float": (["m.json", "m.weights", "in.tnsr"],
                    ["infer", "-i", "m.json", "--input", "in.tnsr", "--engine", "float",
                     "--taps", "taps"]),
    "int": (["q.json", "q.weights", "in.tnsr"],
            ["infer", "-i", "q.json", "--input", "in.tnsr", "--engine", "int",
             "--taps", "taps"]),
    # a large threshold step keeps each sweep to a few steps
    "dataset": (["f.json", "f.weights", "data/s0.tnsr", "data/s0.json", "data/s1.tnsr",
                 "data/s1.json"],
                ["prune", "-i", "f.json", "-o", "p.json", "--data", "data",
                 "--delta-t", "0.5"]),
    "compare": (["f.json", "f.weights", "q.json", "q.weights", "in.tnsr"],
                ["compare", "--float-model", "f.json", "--quant-model", "q.json",
                 "--input", "in.tnsr"]),
    "quantize": (["f.json", "f.weights"], ["quantize", "-i", "f.json", "-o", "qz.json"]),
    "params": (["m.json", "m.weights"], ["params", "-i", "m.json", "--per-layer"]),
    "flops_ref": (["f.json", "f.weights", "m.json", "m.weights"],
                  ["flops", "-i", "f.json", "--ref", "m.json", "--per-layer"]),
}
_WORK_PATHS = ("taps", "data", "p.json", "fz.json", "qz.json")
# compare's exit 1: the quantized model's source digest names other weights
_OTHER_WEIGHTS = "was not quantized from"


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _value_paths(node, path=()):
    """Key/index path of every value nested in ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


@st.composite
def _damaged(draw, files: dict[str, bytes]) -> tuple[str, bytes]:
    """(file name, damaged content) for one of ``files``."""
    name = draw(st.sampled_from(sorted(files)))
    data = files[name]
    kind = draw(st.sampled_from(["cut", "retype" if name.endswith(".json") else "flip"]))
    if kind == "cut":
        return name, data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        return name, bytes(flipped)
    manifest = json.loads(data)
    path = draw(st.sampled_from(list(_value_paths(manifest))))
    parent = manifest
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = draw(st.sampled_from(
        [v for v in _JSON_VALUES if _json_type(v) != _json_type(old)]))
    return name, json.dumps(manifest).encode()


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    """Pristine float, fused and quantized files, input tensor and dataset."""
    directory = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(11)
    model = chain_model(rng, [4, 3], hw=6, in_channels=2, bn=True, scale=0.3)
    save_model(model, directory / "m.json")
    fused = fuse_model(model)
    save_model(fused, directory / "f.json")
    save_quantized_model(quantize_model(fused), directory / "q.json")
    save_tensor(directory / "in.tnsr", feature_map(rng, 6, 6, 2))
    (directory / "data").mkdir()
    for i in range(2):
        save_tensor(directory / f"data/s{i}.tnsr", feature_map(rng, 6, 6, 2))
        (directory / f"data/s{i}.json").write_text(json.dumps({"class": i}))
    return directory


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@pytest.mark.parametrize("case", sorted(_CASES))
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_damaged_files_exit_0_or_2(saved_dir, work_dir, case, data):
    names, argv = _CASES[case]
    files = {name: (saved_dir / name).read_bytes() for name in names}
    damaged_name, damaged = data.draw(_damaged(files))
    (work_dir / "data").mkdir(exist_ok=True)
    for name, content in files.items():
        (work_dir / name).write_bytes(damaged if name == damaged_name else content)
    argv = [str(work_dir / a) if a in names or a in _WORK_PATHS else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    _check_exit(code, err.getvalue(), allow_other_weights=case == "compare")


def _check_exit(code: int, err: str, allow_other_weights: bool = False) -> None:
    if allow_other_weights and code == 1:
        assert _OTHER_WEIGHTS in err, err
    else:
        assert code in (0, 2), err
    if code:
        assert "error:" in err
    assert "Traceback" not in err



def test_prune_survives_a_bias_beyond_float32_sums(saved_dir, tmp_path):
    """Bit 6 of the last byte of the fused weights makes the last bias
    -3.4e38: the float32 channel means the top-1 takes then overflow, which
    must neither warn nor escape as a traceback."""
    for name in ("f.json", "data"):
        src = saved_dir / name
        if src.is_dir():
            (tmp_path / name).mkdir()
            for f in src.iterdir():
                (tmp_path / name / f.name).write_bytes(f.read_bytes())
        else:
            (tmp_path / name).write_bytes(src.read_bytes())
    weights = bytearray((saved_dir / "f.weights").read_bytes())
    weights[-1] ^= 1 << 6
    (tmp_path / "f.weights").write_bytes(bytes(weights))
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["prune", "-i", str(tmp_path / "f.json"), "-o", str(tmp_path / "p.json"),
                        "--data", str(tmp_path / "data"), "--delta-t", "0.5"])
    _check_exit(code, err.getvalue())
