"""Per-layer spans recorded from outside the program.

Each wrapper replaces one cross-module name (the attribute through which
one lypairs module, or the benchmark, calls another), times the call, and
adds its counts.  Spans nest on a single stack, so every layer's time is a
self time: its duration minus the time of the spans it contains.  Only the
calling thread is traced; the samplers' and box counter's worker threads
call no wrapped name.

``WRAPPED`` fixes which names are wrapped: those behind the per-layer
metrics.  A call made inside its own module (``conjugacy_defect`` calling
``code_orbit_point``) and the cheap cross-module calls (``shift`` and
``code_point`` under ``code_orbit_point``, ``verify_liyorke``,
``check_gap_condition``, ``derive_ifs``, ladder building) are not wrapped,
so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from time import perf_counter


# counters: (tracer, result, call arguments by parameter name) -> None


def _count_main(tr, result, call):
    argv = list(call["argv"] or [])
    tr.counts["cli.invocations"] += 1
    if "--out" in argv[:-1]:
        out = argv[argv.index("--out") + 1]
        if out != "-" and os.path.exists(out):
            tr.counts["cli.output_bytes"] += os.path.getsize(out)


def _count_sample(sequences_per_row):
    def count(tr, result, call):
        rows = len(result)
        tr.counts["fractal.points"] += rows
        tr.counts["fractal.coded_digits"] += rows * call["depth"] * sequences_per_row
        tr.counts["fractal.result_bytes"] += sum(
            a.nbytes for a in vars(result).values() if hasattr(a, "nbytes")
        )
    return count


def _count_box(tr, result, call):
    tr.counts["analysis.cell_assignments"] += result.sample_count * len(result.epsilons)


def _count_profile(tr, result, call):
    tr.counts["analysis.checkpoints"] += len(result.proximity) + len(result.separation)


def _count_conjugacy(tr, result, call):
    tr.counts["systems.conjugacy_trials"] += call["trials"]


# (lypairs module, attribute, span, counter); ``Tracer.metrics`` names the
# figures each span feeds
WRAPPED = (
    ("cli", "main", "cli.main", _count_main),
    ("cli", "sample_attractor", "fractal.sample", _count_sample(1)),
    ("cli", "sample_restricted", "fractal.sample", _count_sample(1)),
    ("cli", "sample_pair_set", "fractal.sample", _count_sample(2)),
    ("systems", "sample_attractor", "fractal.sample", _count_sample(1)),
    ("fractal", "code_point", "fractal.code_point", None),
    ("cli", "box_count", "analysis.box_count", _count_box),
    ("cli", "dimension_fit", "analysis.fit", None),
    ("cli", "liyorke_profile", "analysis.profile", _count_profile),
    ("cli", "build_verification_pair", "analysis.pair_build", None),
    ("cli", "break_pair_after_block", "analysis.pair_build", None),
    ("cli", "sample_invariant_set", "systems.invariant_sample", None),
    ("systems", "conjugacy_defect", "systems.conjugacy", _count_conjugacy),
    ("analysis", "code_orbit_point", "systems.code_orbit", None),
    ("cli", "code_orbit_point", "systems.code_orbit", None),
    ("analysis", "block_schedule", "symbolic.schedule", None),
    ("analysis", "schedule_roles", "symbolic.schedule", None),
    ("fractal", "schedule_roles", "symbolic.schedule", None),
    ("cli", "schedule_covering", "symbolic.schedule", None),
    ("analysis", "construct_partner", "symbolic.partner", None),
    ("analysis", "extract_filler", "symbolic.partner", None),
    ("cli", "construct_partner", "symbolic.partner", None),
    ("cli", "extract_filler", "symbolic.partner", None),
)


class Tracer:
    """Span stack plus per-span self time, total time, calls and counts."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, fn, span, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.self_s[span] += dt - children[0]
                self.total_s[span] += dt
                self.calls[span] += 1
            if counter is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                counter(self, result, call.arguments)
            return result

        return traced

    def install(self, modules) -> None:
        """Replace every ``WRAPPED`` name in ``modules`` (name -> module)."""
        for mod, attr, span, counter in WRAPPED:
            target = modules[mod]
            setattr(target, attr, self.wrap(getattr(target, attr), span, counter))

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one traced pass whose wall time was ``wall_s``."""
        s = self.self_s
        out = {
            "fractal.sample_s": s["fractal.sample"],
            "fractal.code_point_s": s["fractal.code_point"],
            "analysis.box_count_s": s["analysis.box_count"],
            "analysis.fit_s": s["analysis.fit"],
            "analysis.profile_s": s["analysis.profile"],
            "analysis.pair_build_s": s["analysis.pair_build"],
            "systems.invariant_sample_s": s["systems.invariant_sample"],
            "systems.conjugacy_s": s["systems.conjugacy"],
            "systems.code_orbit_calls": self.calls["systems.code_orbit"],
            "systems.code_orbit_s": s["systems.code_orbit"],
            "symbolic.schedule_calls": self.calls["symbolic.schedule"],
            "symbolic.schedule_s": s["symbolic.schedule"],
            "symbolic.partner_s": s["symbolic.partner"],
            "cli.main_s": self.total_s["cli.main"],
            "cli.self_s": s["cli.main"],
            "trace.unattributed_s": wall_s - sum(s.values()),
        }
        for name in (
            "fractal.points", "fractal.coded_digits", "fractal.result_bytes",
            "analysis.cell_assignments", "analysis.checkpoints",
            "systems.conjugacy_trials", "cli.invocations", "cli.output_bytes",
        ):
            out[name] = self.counts[name]
        return out
