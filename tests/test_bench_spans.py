"""The traced benchmark run (``bench/run.py --trace 1``) wraps program names.

``bench/spans.py`` replaces each ``(module, attribute)`` of its ``WRAPPED``
table with a timing wrapper.  A name that is renamed or deleted in the
program would break the traced run, so each one must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, attr, _span, _counter in spans.WRAPPED:
        target = importlib.import_module(f"lypairs.{module}")
        assert callable(getattr(target, attr, None)), f"lypairs.{module}.{attr}"
