"""The README's Library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from embrobust.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    assert main(["synth", "--out-dir", str(tmp_path / "data"), "--n-bio", "4",
                 "--n-conf", "4", "--per-cell", "25", "--dim", "32"]) == 0
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert scope["report"].k == 50
    assert len(scope["conf"].k_grid) == len(scope["conf"].frac_same_center)
    assert scope["proj"].coords.shape == (400, 2)
    assert 0.0 <= scope["trust"] <= 1.0
