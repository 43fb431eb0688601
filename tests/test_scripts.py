"""Every script under scripts/ imports as a module, without running its
entry point: a script that imports a name the package no longer has fails here."""

import importlib.util
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
