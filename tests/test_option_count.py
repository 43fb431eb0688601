"""The package's settable-option count, as ``scripts/count_options.py``
counts it, does not grow without a stated reason."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the option count when this bound was last set
OPTION_BOUND = 320


def _load_count_options():
    path = ROOT / "scripts" / "count_options.py"
    spec = importlib.util.spec_from_file_location("count_options", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_option_count_does_not_grow():
    counter = _load_count_options()
    options = sum(counter.count_options(ast.parse(f.read_text()))
                  for f in sorted(counter.SRC.glob("*.py")))
    assert options <= OPTION_BOUND, (
        f"{options} settable options, above the bound of {OPTION_BOUND}: raising "
        "OPTION_BOUND needs a reason stated in CHANGES.md"
    )
