"""The package's settable-option count and line count, as
``scripts/count_options.py`` counts them, do not grow without a stated
reason."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the option count and the src/ line count when these bounds were last set
OPTION_BOUND = 307
LINE_BOUND = 4528


def _load_count_options():
    path = ROOT / "scripts" / "count_options.py"
    spec = importlib.util.spec_from_file_location("count_options", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_option_count_does_not_grow():
    options, _ = _load_count_options().totals()
    assert options <= OPTION_BOUND, (
        f"{options} settable options, above the bound of {OPTION_BOUND}: raising "
        "OPTION_BOUND needs a reason stated in CHANGES.md"
    )


def test_line_count_does_not_grow():
    _, lines = _load_count_options().totals()
    assert lines <= LINE_BOUND, (
        f"{lines} src lines, above the bound of {LINE_BOUND}: raising "
        "LINE_BOUND needs a reason stated in CHANGES.md"
    )
