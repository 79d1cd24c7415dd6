"""lypairs benchmark: closed-loop batch workloads, one caller, one job at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each pass of the workload runs in a fresh worker process (``worker.py``),
so peak RSS belongs to a process that ran only that workload.  Passes
repeat while another fits in ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics (medians over the passes):
``wall_s``, ``items_per_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``,
the last also over a few set-up-only workers.  The times are rescaled to
a fixed speed of the shared host's CPU by a reference kernel timed around
each operation (``worker.OpClock``).  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the traced passes
(times rescaled the same way) plus ``trace.overhead_s``, traced minus
untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those of ``BENCHMARK.json``.  The lines before it record every
pass and the environment (CPU count, Python and numpy versions, git
commit).  The exit code is 0 only when every pass ran; a checkout without
``src/lypairs`` gives exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


class PassFailed(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, workdir: Path, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"worker exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, workdir: Path) -> tuple[list[dict], list[float]]:
    """Rounds of passes while another round fits in ``--seconds``."""
    started = perf_counter()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(args, workdir, "--setup-only")["setup_s"])
    round_flags = [(), ("--trace",)] if args.trace else [()]
    passes = []
    longest = 0.0
    while not passes or perf_counter() - started + longest <= args.seconds:
        t0 = perf_counter()
        for flags in round_flags:
            p = run_worker(args, workdir, *flags)
            p["traced"] = bool(flags)
            passes.append(p)
            setups.append(p["setup_s"])
            print(json.dumps({"pass": len(passes), **p}), flush=True)
        longest = max(longest, perf_counter() - t0)
        round_flags.reverse()  # traced rounds alternate which pass runs first
    return passes, setups


def summarise(args, passes: list[dict], setups: list[float], units: dict) -> dict:
    """The result line; ``units`` names the metrics to report."""
    med = statistics.median
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {
            name: med(p["layers"][name] for p in traced)
            for name in units if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = med(p["scaled_wall_s"] for p in traced) - med(
            p["scaled_wall_s"] for p in plain)
    else:
        metrics = {
            "wall_s": med(p["scaled_wall_s"] for p in plain),
            "items_per_s": med(p["items"] / p["scaled_wall_s"] for p in plain),
            "cpu_s": med(p["scaled_cpu_s"] for p in plain),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
            "setup_s": med(setups),
        }
    return {
        "correct": not any(p["problems"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "lypairs" / "__init__.py").is_file():
        print(f"no lypairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        passes, setups = run_passes(args, workdir)
    except PassFailed as exc:
        print(f"pass failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": passes[0]["numpy"],
        "commit": git_commit(ROOT),
    }}))
    for p in passes:
        for problem in p["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    print(json.dumps(summarise(args, passes, setups, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
