"""Every function, class and method defined under src/driftbench/ must be
reached from the program: referenced in src/ itself, in scripts/, or in
perfbench/, whose tracer names its targets as dotted strings.  References
are read with ``ast``: names, attribute names and imported names.  Dunder
methods are called by Python and are not listed.

What only the tests reach is listed in TEST_ONLY with the reason it stays.
The test asserts that the unreached set equals TEST_ONLY's keys, so a new
piece of dead code fails it, and so does an entry whose name became reached
or was deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "driftbench"

TEST_ONLY = {
    "angle_displacement": "angle part of the transform in the energy-consistency tests",
    "check_morse_at": "single-point Morse check that the grid check is compared against",
    "evaluate": "point evaluation that the stacked and grid readers are compared against",
    "pullback_inverse": "inverse transform in the symplecticity test",
    "restrained_implies_stable": "certificate-to-confinement check in the stability tests",
    "satisfied": "verdict of the averaging smallness report in acceptance criterion 8",
    "sine": "series constructor used by the series and normal-form tests",
    "subspace_in_GL": "membership test that enumerate_GL is compared against",
    "transverse_drift": "acceptance criterion 7, transverse drift invariance",
    "truncate": "truncation used by the series tests",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined(tree):
    """Names of the module's functions and classes and of their methods."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        if isinstance(node, ast.ClassDef):
            out |= {
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_dunder(item.name)
            }
    return out


def _referenced(tree):
    """Every name, attribute name and imported name the module reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _tracer_targets(tree):
    """The dotted names of perfbench/tracing.py's TARGETS table."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return {part for _, attr, _ in ast.literal_eval(node.value)
                    for part in attr.split(".")}
    raise AssertionError("perfbench/tracing.py has no TARGETS table")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def unreached():
    defined, reached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        defined |= _defined(tree)
        reached |= _referenced(tree)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            reached |= _referenced(_parse(path))
    reached |= _tracer_targets(_parse(ROOT / "perfbench" / "tracing.py"))
    return defined - reached


def test_unreached_code_is_exactly_the_test_only_list():
    assert unreached() == set(TEST_ONLY)
    assert all(reason.strip() for reason in TEST_ONLY.values())
