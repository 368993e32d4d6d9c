"""The generators of ``scenarios`` draw what the inline copies they replaced
drew; each command-line kind writes a file that reads back; and a scenario
file builds the POVM it was written from, bit for bit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covpovm import PovmBuildError, iojson, position_povm_zn
from scenarios import KINDS, fibered_z8sq, lattice_z64sq, position, position_state, scenario_json

TESTS = Path(__file__).resolve().parent


def bits(a) -> tuple:
    return a.dtype, a.shape, a.tobytes()


def stack_bits(povm) -> list:
    return [bits(w) for w in povm._isometry_stacks]


@pytest.mark.parametrize("n, seed", [(8, 8), (64, 64)])
def test_position_equals_the_inline_draw(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    want = position_povm_zn(n, [v / np.linalg.norm(v) for v in raw])
    state = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    state /= np.linalg.norm(state)
    got = position(n, seed)
    assert stack_bits(got) == stack_bits(want)
    scenario = iojson.Scenario(want.rep.group, want.ctx.subgroup, want.rep, 2, want.fields)
    assert json.dumps(scenario_json(got)) == json.dumps(iojson.scenario_to_json(scenario))
    assert bits(position_state(n, seed)) == bits(state)


# the smallest arguments that a caller passes, and the POVM of each scenario kind
SMALLEST = {"position": [8, 8], "state": [4096, 4096], "omega": [16, 816]}
POVMS = {"position": position, "fibered": fibered_z8sq, "lattice": lattice_z64sq}
# the scenario kinds whose build is rejected, and the reason
REJECTED = {"z8-overflow": "density", "z8-isometry-overflow": "not isometric"}


@pytest.mark.parametrize("kind", list(KINDS))
def test_command_line_file_reads_back(tmp_path, kind):
    args = SMALLEST.get(kind, [])
    out = tmp_path / "out.json"
    done = subprocess.run(
        [sys.executable, "-m", "scenarios", kind, *map(str, args), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": f"{TESTS.parent / 'src'}{os.pathsep}{TESTS}"},
    )
    assert done.returncode == 0, done.stderr
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(KINDS[kind](*args))
    obj = json.loads(text)
    if "state" in obj:
        assert abs(np.linalg.norm([complex(*pair) for pair in obj["state"]]) - 1.0) <= 1e-12
    elif "values" in obj:
        assert iojson.quotient_function_from_json(obj).shape == (args[0] if args else 64,)
    elif "spec_version" not in obj:
        iojson.subgroup_from_json(iojson.group_from_json(obj["group"]), obj["subgroup"])
    elif kind in REJECTED:
        with pytest.raises(PovmBuildError, match=REJECTED[kind]):
            iojson.scenario_from_json(obj).build()
    else:
        again = iojson.scenario_from_json(obj).build()
        if kind in POVMS:
            # JSON writes each float as its shortest repr, which reads back exactly
            povm = POVMS[kind](*args)
            assert stack_bits(again) == stack_bits(povm)
            assert bits(again.class_data.lifted_weights) == bits(povm.class_data.lifted_weights)
