"""No covpovm command imports numpy.ma. A plain ``np.unique`` call, and
``np.isin`` on a wide range of values, import it, which costs each CLI
process about 15 ms; each command runs here in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covpovm import iojson, position_povm_zn

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = (
    "import contextlib, io, sys\n"
    "from covpovm.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(code, 'numpy.ma' in sys.modules)\n"
)


def z12_scenario():
    """README's scalar Z_12 scenario (H = <4>)."""
    return {
        "spec_version": 1,
        "group": {"factors": [12]},
        "subgroup": {"generators": [[4]]},
        "e_dim": 1,
        "sectors": [{"f_dim": 1, "support": [[[0], 1.0]]}],
        "fields": [{"sector": 0, "matrices": [[[0], [[[1.0, 0.0]]]]]}],
    }


def z16_position_scenario():
    """The Z_16 position surrogate: 16 sectors, so the (sector, point) keys
    of the build span a range wider than numpy's table method takes."""
    rng = np.random.default_rng(16)
    raw = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    povm = position_povm_zn(16, [v / np.linalg.norm(v) for v in raw])
    return iojson.scenario_to_json(
        iojson.Scenario(povm.rep.group, povm.ctx.subgroup, povm.rep, povm.e_dim, povm.fields)
    )


def run(argv: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize(
    "scenario", [z12_scenario, z16_position_scenario], ids=["z12", "z16-position"]
)
@pytest.mark.parametrize("command", ["group", "build", "matrix", "verify", "sample"])
def test_command_does_not_import_numpy_ma(tmp_path, scenario, command):
    obj = scenario()
    dim = sum(s["f_dim"] * len(s["support"]) for s in obj["sectors"])
    files = {
        "scenario": obj,
        "spec": {"group": obj["group"], "subgroup": obj["subgroup"]},
        "state": {"state": [[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1)},
    }
    path = {}
    for name, content in files.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(json.dumps(content))
    argv = {
        "group": ["group", path["spec"]],
        "build": ["build", path["scenario"]],
        "matrix": ["matrix", path["scenario"]],
        "verify": ["verify", path["scenario"]],
        "sample": [
            "sample", path["scenario"], "--state", path["state"], "-n", "100", "--seed", "1"
        ],
    }[command]
    assert run([str(a) for a in argv]) == "0 False"


def test_overlap_rejection_does_not_import_numpy_ma(tmp_path):
    # two sectors sharing the points [0] and [255] of Z_256: build exits 4
    support = [[[0], 1.0], [[255], 1.0]]
    matrices = [[[0], [[[1.0, 0.0]]]], [[255], [[[1.0, 0.0]]]]]
    scenario = {
        "spec_version": 1,
        "group": {"factors": [256]},
        "subgroup": {"generators": []},
        "e_dim": 1,
        "sectors": [{"f_dim": 1, "support": support}] * 2,
        "fields": [{"sector": k, "matrices": matrices} for k in (0, 1)],
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(scenario))
    assert run(["build", str(path)]) == "4 False"
