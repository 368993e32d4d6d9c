"""README's library example, run exactly as written, so the public names
it imports stay importable and its assertion keeps holding."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library example", "exec"), {"__name__": "readme_example"})
