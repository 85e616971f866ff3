"""Fuzz the file contract: a damaged model, quantized model or tensor file
either still loads (exit 0) or is refused with exit 2 and an ``error:`` line,
never with another exit code or an exception out of ``cli.run``.

Each example takes the files of one small saved chain model and damages one
of them: a cut at any offset, one flipped bit anywhere in a ``.weights`` or
``.tnsr`` file, or one manifest value replaced by a value of another JSON type.
"""
import contextlib
import io
import json

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

_CASES = {
    "float": (["m.json", "m.weights"], ["flops", "-i", "m.json"]),
    "int": (["q.json", "q.weights", "in.tnsr"],
            ["infer", "-i", "q.json", "--input", "in.tnsr", "--engine", "int",
             "--taps", "taps"]),
}


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
    """Pristine float files, quantized files and input tensor."""
    directory = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(11)
    model = chain_model(rng, [4, 3], hw=6, in_channels=2, bn=True, scale=0.3)
    save_model(model, directory / "m.json")
    save_quantized_model(quantize_model(fuse_model(model)), directory / "q.json")
    save_tensor(directory / "in.tnsr", feature_map(rng, 6, 6, 2))
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
    for name, content in files.items():
        (work_dir / name).write_bytes(damaged if name == damaged_name else content)
    argv = [str(work_dir / a) if a in names or a == "taps" else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
    assert "Traceback" not in err.getvalue()
