"""No covpovm command imports numpy.ma. A plain ``np.unique`` call, and
``np.isin`` on a wide range of values, import it, which costs each CLI
process about 15 ms; each command runs here in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from scenarios import position, scalar_z12, scenario_json, spec_json, write

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = (
    "import contextlib, io, sys\n"
    "from covpovm.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(code, 'numpy.ma' in sys.modules)\n"
)


def z16_position_scenario():
    """The Z_16 position surrogate: 16 sectors, so the (sector, point) keys
    of the build span a range wider than numpy's table method takes."""
    return scenario_json(position(16, 16))


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
    "scenario", [scalar_z12, z16_position_scenario], ids=["z12", "z16-position"]
)
@pytest.mark.parametrize("command", ["group", "build", "matrix", "verify", "sample"])
def test_command_does_not_import_numpy_ma(tmp_path, scenario, command):
    obj = scenario()
    dim = sum(s["f_dim"] * len(s["support"]) for s in obj["sectors"])
    files = {
        "scenario": obj,
        "spec": spec_json(obj),
        "state": {"state": [[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1)},
    }
    path = {name: write(tmp_path, f"{name}.json", content) for name, content in files.items()}
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
    assert run(["build", write(tmp_path, "overlap.json", scenario)]) == "4 False"
