"""CLI ``verify`` holds no q * dim^2 stack of effects: on the Z_256 position
surrogate, seeded like the CI step, a fresh interpreter's peak resident
set stays below 150 MB (a stack of the 256 singleton effects alone is
268 MB). The probe reads its own high-water mark, VmHWM in
/proc/self/status: its ru_maxrss can carry the spawning test process's
peak across vfork and exec."""

import json
import os
import subprocess
import sys
from pathlib import Path

from scenarios import position, scenario_json, write

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = (
    "import contextlib, io, json, sys\n"
    "from covpovm.cli import main\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = main(['verify', sys.argv[1]])\n"
    "with open('/proc/self/status') as status:\n"
    "    peak = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
    "passed = json.loads(out.getvalue())['pass']\n"
    "print(json.dumps({'code': code, 'pass': passed, 'peak_kb': peak}))\n"
)
LIMIT_MB = 150


def test_z256_position_verify_peak(tmp_path):
    path = write(tmp_path, "z256-position.json", scenario_json(position(256, 256)))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, path],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0 and result["pass"] is True
    # VmHWM is in kilobytes
    assert result["peak_kb"] / 1024 < LIMIT_MB, result
