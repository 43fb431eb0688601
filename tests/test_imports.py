"""Every module of the package imports on its own.  The package ``__init__``
holds only its docstring, so no import of one module loads the others first,
and an import cycle would show up only for whoever imports the module at
its head; one subprocess imports each module into a fresh module table."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "driftbench"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

IMPORT_ALONE = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.partition(".")[0] == "driftbench"]:
        del sys.modules[loaded]
    importlib.import_module("driftbench." + name)
    print(name)
"""


def test_package_init_holds_only_its_docstring():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)


def test_each_module_imports_alone():
    assert len(MODULES) == 9
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALONE, *MODULES],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == MODULES
