"""The benchmark tracer rebinds qalg names from outside the package, so a
refactor that renames one of them would only fail in the benchmark run.
This test reads the tracer's target list and checks that every target still
resolves; it changes nothing under perfbench/."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert len(targets) >= 20
    for module_name, attr, metric, kind in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            # The tracer rebinds the class attribute itself, so an inherited
            # method would not do.
            assert method in vars(getattr(module, class_name)), f"{module_name}.{attr} ({metric})"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({metric})"
