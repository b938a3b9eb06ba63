"""Recorded reports: for each input, the radical basis, its nilpotency index,
the dimension of the semisimple quotient and, per simple factor in report
order, its dimension, center dimension, degree over the center, matrix size
and central idempotent, as stored in reports.json. Rationals are recorded as
strings.

The inputs are the corpus fixtures, the benchmark's SPECS and one seeded
twist of each LIBRARY_TWISTED algebra (Twister(1), label "1"), both from
perfbench/inputs.py. To record the reports anew (only at a commit whose
reports are known to be right, or when SPECS or Twister change):

    PYTHONPATH=src python tests/test_reports.py
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qalg.corpus import fixtures
from qalg.linalg import rat_to_str
from qalg.structure import jacobson_radical, wedderburn_decomposition

HERE = Path(__file__).resolve().parent
RECORD = HERE / "reports.json"


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", HERE.parent / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


_BENCH = _perfbench_inputs()

INPUTS = {
    **{f"fixture {f.name}": f.build for f in fixtures()},
    **{f"spec {name}": spec.build for name, spec in _BENCH.SPECS.items()},
    **{
        f"twisted {name} 1": lambda name=name: _BENCH.Twister(1).draw(name, "1")[0]
        for name in _BENCH.LIBRARY_TWISTED
    },
}


def _strings(v) -> list[str]:
    return [rat_to_str(x) for x in v]


def report(a) -> dict:
    radical = jacobson_radical(a)
    w = wedderburn_decomposition(a)
    return {
        "radical": [_strings(v) for v in radical.radical.vectors()],
        "nilpotency_index": radical.nilpotency_index,
        "quotient_dim": w.semisimple_quotient.dim,
        "factors": [
            {
                "factor_dim": f.factor_dim,
                "center_dim": f.center_dim,
                "degree": f.degree_over_center,
                "matrix_size": f.matrix_size,
                "idempotent": _strings(f.central_idempotent),
            }
            for f in w.factors
        ],
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_every_input_is_recorded(recorded):
    assert list(recorded) == list(INPUTS)


@pytest.mark.parametrize("label", INPUTS)
def test_report_matches_its_record(recorded, label):
    assert report(INPUTS[label]()) == recorded[label]


if __name__ == "__main__":
    # one line per input
    lines = (f" {json.dumps(label)}: {json.dumps(report(build()))}" for label, build in INPUTS.items())
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")
