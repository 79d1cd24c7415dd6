"""One pass of one workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR [--trace] [--setup-only]

The process imports lypairs from ``src/`` of the checkout, builds the
workload's inputs (together: ``setup_s``), then runs the timed pass, whose
wall time, user+system CPU time and the process's peak RSS it reports,
together with each operation's wall and CPU time.  Times are reported raw
and rescaled to the reference speed (see ``OpClock``).
Checks run after the timed pass, so they count in neither.  With
``--trace`` the spans of ``spans.py`` are installed before the pass and
its per-layer figures are reported too.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


REFERENCE_S = 0.005  # the reference kernel's CPU time in a fast phase of the host
SAMPLE_EVERY_S = 0.5   # reference timings inside an operation


def _reference_kernel():
    """Fixed interpreter-bound work: float arithmetic, branches, list growth."""
    acc, xs = 0.0, []
    for i in range(25000):
        x = (i * 0.6180339887) % 1.0
        xs.append(x if x < 0.5 else 1.0 - x)
        acc += xs[-1] * 3.0
    return acc


def _reference_s() -> float:
    """Least CPU time of three runs of the reference kernel, now.  CPU time,
    so that a run that waits for the pass's own threads does not count the
    wait."""
    times = []
    for _ in range(3):
        t0 = thread_time()
        _reference_kernel()
        times.append(thread_time() - t0)
    return min(times)


class OpClock:
    """``op(name, fn, *args, **kwargs)``: calls ``fn`` and keeps, under
    ``name`` (unique within a pass), its wall and CPU time and the mean
    time of the reference kernel just before, every ``SAMPLE_EVERY_S``
    during (from a SIGALRM handler on the main thread; not in a traced
    pass, whose spans would count the timings) and just after it.
    The reference timings' CPU time is taken out of the operation's wall
    and CPU time: on the main thread they delay the operation by that much,
    and while the operation's own threads work and the main thread waits
    for them, the timings may wait for the GIL, a wait that does not delay
    the operation.

    The host is shared: its CPU runs in fast and slow phases, set by other
    tenants, that last from seconds to minutes, and interpreter-bound code
    takes up to 1.6 times as long in a slow phase.  ``scaled`` rescales
    each operation's time to the reference kernel's fast-phase speed,
    which takes that factor out: the program's own cost remains.
    """

    def __init__(self, sample_during: bool):
        self.sample_during = sample_during
        self.times = {}
        self.reference_spent_s = 0.0  # CPU time of all reference timings
        self._refs = []
        self._spent = 0.0  # CPU time of the current operation's timings

    def _time_reference(self, *_signal) -> None:
        cpu0 = thread_time()
        self._refs.append(_reference_s())
        spent = thread_time() - cpu0
        self._spent += spent
        self.reference_spent_s += spent

    def __call__(self, name, fn, *args, **kwargs):
        if not self._refs:
            self._time_reference()
        self._refs, self._spent = self._refs[-1:], 0.0
        cpu0, t0 = _cpu_s(), perf_counter()
        if not self.sample_during:
            result = fn(*args, **kwargs)
        else:
            previous = signal.signal(signal.SIGALRM, self._time_reference)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            try:
                result = fn(*args, **kwargs)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - t0 - self._spent
        cpu = _cpu_s() - cpu0 - self._spent
        self._time_reference()
        self.times[name] = (wall, cpu, sum(self._refs) / len(self._refs))
        return result

    def scaled(self, column: int) -> float:
        """Sum over the operations of wall (``column`` 0) or CPU (1) time,
        each times ``REFERENCE_S`` over the reference time around it."""
        return sum(t[column] * REFERENCE_S / t[2] for t in self.times.values())


def _import_lypairs():
    sys.path.insert(0, str(ROOT / "src"))
    import lypairs
    from lypairs import analysis, cli, fractal, symbolic, systems

    if not Path(lypairs.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"lypairs imported from {lypairs.__file__}, not from the checkout")
    return argparse.Namespace(
        analysis=analysis, cli=cli, fractal=fractal, symbolic=symbolic, systems=systems
    )


def main() -> int:
    ref_before = _reference_s()
    started = perf_counter()  # before numpy, lypairs and the workload modules load
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    lp = _import_lypairs()
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS

    setup, run, units, check = WORKLOADS[args.workload]
    inputs = setup(lp, args.seed, args.workdir)
    setup_s = perf_counter() - started
    ref = (ref_before + _reference_s()) / 2
    result = {"setup_s": setup_s * REFERENCE_S / ref, "raw_setup_s": setup_s,
              "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(vars(lp))
    gc.collect()
    sink = io.StringIO()
    op = OpClock(sample_during=tracer is None)
    cpu0, t0 = _cpu_s(), perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        outputs = run(lp, inputs, op)
    wall_s = perf_counter() - t0 - op.reference_spent_s
    cpu_s = _cpu_s() - cpu0 - op.reference_spent_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    problems, attempted, failed = check(inputs, outputs)
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        scaled_wall_s=op.scaled(0),
        scaled_cpu_s=op.scaled(1),
        ops=op.times,
        peak_rss_mb=peak_rss_mb,
        items=units(inputs),
        attempted=attempted,
        failed=failed,
        problems=problems,
    )
    if tracer is not None:
        # layer times in the same reference-speed seconds as scaled_wall_s:
        # times the pass's own ratio of scaled to raw operation time
        speed = result["scaled_wall_s"] / sum(t[0] for t in op.times.values())
        result["layers"] = {
            name: value * speed if name.endswith("_s") else value
            for name, value in tracer.metrics(wall_s).items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
