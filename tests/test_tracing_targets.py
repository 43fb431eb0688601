"""The benchmark's tracer (perfbench/tracing.py) wraps every function its
TARGETS table names, reading a method as ``cls.__dict__[name]``.  A target
that is deleted or renamed, or a method a class only inherits, makes every
traced benchmark run fail, so each one must resolve in this checkout's src/.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves_in_src():
    targets = _tracing_targets()
    assert targets
    for module_name, attr, _ in targets:
        module = importlib.import_module(f"driftbench.{module_name}")
        assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr
