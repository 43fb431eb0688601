"""Every script under scripts/ imports as a module, without running its
entry point: a script that imports a name the package no longer has fails here.
The prevalence script also runs end to end, since it calls the library with
keyword arguments that an import does not check."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name
)
def test_script_imports(path, monkeypatch):
    # a script may put perfbench/ on sys.path and import its modules; undo both
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in set(sys.modules) - before:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if Path(origin).resolve().is_relative_to(ROOT / "perfbench"):
                del sys.modules[name]


def test_prevalence_sampling_runs(tmp_path):
    # the script calls sample_prevalence with keywords; run it end to end
    out = tmp_path / "prevalence.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_prevalence_sampling.py"),
         "--samples", "2", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["case", "samples", "fraction", "gamma_histogram"]
    assert [r[1] for r in rows[1:]] == ["2"] * 4
