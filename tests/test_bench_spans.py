"""The traced benchmark run (``bench/run.py --trace 1``) wraps program names.

``bench/spans.py`` replaces each ``(module, attribute)`` of its ``WRAPPED``
table with a timing wrapper.  A name that is renamed or deleted in the
program would break the traced run, so each one must still resolve.  Its
sample counter reads ``len(result)`` and the arrays in ``vars(result)``,
so the samplers' results must keep both.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lypairs import fractal
from lypairs.symbolic import GapSequence, SymbolSequence

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_wrapped_names_resolve():
    spans = load_spans()
    assert spans.WRAPPED
    for module, attr, _span, _counter in spans.WRAPPED:
        target = importlib.import_module(f"lypairs.{module}")
        assert callable(getattr(target, attr, None)), f"lypairs.{module}.{attr}"


CANTOR = fractal.IfsSystem(
    (fractal.Similitude(1 / 3, [0.0]), fractal.Similitude(1 / 3, [2 / 3])),
    ((0.0, 1.0),),
)
SAMPLERS = {
    "attractor": (1, fractal.sample_attractor, (CANTOR, 300, 12)),
    "restricted": (
        1,
        fractal.sample_restricted,
        (CANTOR, SymbolSequence(2, (1, 2) * 10), GapSequence("quadratic"), 300, 12),
    ),
    "pairs": (2, fractal.sample_pair_set, (CANTOR, GapSequence("quadratic"), 300, 12)),
}


@pytest.mark.parametrize("target", list(SAMPLERS))
def test_bench_sample_counter_reads_sample_results(target):
    spans = load_spans()
    sequences_per_row, sampler, args = SAMPLERS[target]
    tracer = spans.Tracer()
    traced = tracer.wrap(sampler, "fractal.sample", spans._count_sample(sequences_per_row))
    result = traced(*args, seed=5)
    assert tracer.calls["fractal.sample"] == 1
    assert tracer.counts["fractal.points"] == 300
    assert tracer.counts["fractal.coded_digits"] == 300 * 12 * sequences_per_row
    assert tracer.counts["fractal.result_bytes"] == result.centers.nbytes
