"""The two workloads: inputs made from the seed, one timed pass, checks.

Every workload uses the middle-thirds IFS, quadratic gaps and ladders of
exact ``repr(3.0**-j)`` grid sizes, and reaches the program the way a user
does: through ``lypairs.cli.main`` with an argv list, or through the public
library function where the CLI has no command for it (``conjugacy_defect``,
the certificate audit's ``code_point``).  All calls go through module
attributes, so the spans that ``spans.Tracer`` installs see them.

A workload is four functions: ``setup(lp, seed, workdir) -> inputs``,
``run(lp, inputs, op) -> outputs`` (the timed pass, which makes each of its
operations through ``op(name, fn, *args, **kwargs)`` so that the worker
times every operation apart), ``units(inputs)`` (items of work in one
pass) and ``check(inputs, outputs) -> (problems, attempted, failed)``,
which runs outside the timed region.  An operation that fails
(a nonzero exit code, a failed audit) counts in ``failed``; the outputs of
the others are checked, and a wrong one is a problem.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracle

THIRD = repr(1 / 3)
CANTOR_IFS = {
    "w": 1,
    "K": [[0.0, 1.0]],
    "maps": [
        {"ratio": 1 / 3, "orth": [1], "t": [0.0]},
        {"ratio": 1 / 3, "orth": [1], "t": [2 / 3]},
    ],
}
SYSTEMS = (
    ({"kind": "tent", "a": 2.0}, ["--system", "tent", "--a", "2"]),
    ({"kind": "baker", "beta1": 1 / 3, "beta2": 1 / 3},
     ["--system", "baker", "--beta1", THIRD, "--beta2", THIRD]),
    ({"kind": "horseshoe", "beta": 1 / 3, "tau": 3.0},
     ["--system", "horseshoe", "--beta", THIRD, "--tau", "3"]),
    ({"kind": "solenoid", "beta1": 1 / 3, "beta2": 1 / 3},
     ["--system", "solenoid", "--beta1", THIRD, "--beta2", THIRD]),
)

POINTS = 1_000_000
DEPTH = 40
CSV_DEPTH = 30
VERIFY_SEEDS = 4          # verify runs per system and pass
VERIFY_BLOCKS = 24
CONJUGACY_CHUNKS = 8      # calls per system, each on its own seed, so each
CHUNK_TRIALS = 256        # operation is short (see worker.OpClock)
CONJUGACY_TRIALS = CONJUGACY_CHUNKS * CHUNK_TRIALS   # per system
AUDIT_PREFIXES = 500
AUDIT_SEED = 20180712     # fixed: the audit set does not depend on --seed


def _cli_seed(seed: int, k: int) -> int:
    return seed * 16 + k


def _ladder(lo: int, hi: int) -> list[str]:
    return ["--eps-max", repr(3.0**-lo), "--eps-min", repr(3.0**-hi), "--eps-ratio", "3"]


def _write_ifs(workdir: Path) -> str:
    path = workdir / "cantor.json"
    path.write_text(json.dumps(CANTOR_IFS))
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# sampling: the dimension runs and the CSV sample, one after the other


def _boxdim(ifs, target, seed, levels, out, threads, *extra):
    return ["boxdim", "--ifs", ifs, "--target", target, "--count", str(POINTS),
            "--depth", str(DEPTH), "--seed", str(seed), "--threads", str(threads),
            *_ladder(*levels), *extra, "--out", out]


def sampling_setup(lp, seed, workdir):
    ifs = _write_ifs(workdir)
    base = workdir / "base.json"
    digits = np.random.default_rng(seed).integers(1, 3, DEPTH).tolist()
    base.write_text(json.dumps({"m": 2, "side": "one", "digits": digits}))
    runs = {}
    for k, (target, levels, threads, extra) in enumerate((
        ("attractor", (3, 16), 1, ()),
        ("restricted", (15, 23), 1, ("--base", str(base))),
        ("pairs", (6, 10), 2, ()),
    )):
        out = str(workdir / f"{target}.json")
        argv = _boxdim(ifs, target, _cli_seed(seed, k), levels, out, threads, *extra)
        runs[target] = (argv, levels, out)
    csv_out = str(workdir / "baker.csv")
    csv_argv = ["sample", *SYSTEMS[1][1], "--target", "system", "--count", str(POINTS),
                "--depth", str(CSV_DEPTH), "--seed", str(_cli_seed(seed, 3)),
                "--format", "csv", "--out", csv_out]
    return {"runs": runs, "csv": (csv_argv, csv_out)}


def sampling_run(lp, inputs, op):
    rcs = {name: op(name, lp.cli.main, argv) for name, (argv, _, _) in inputs["runs"].items()}
    rcs["csv"] = op("csv", lp.cli.main, inputs["csv"][0])
    return rcs


def sampling_units(inputs):
    return POINTS * (len(inputs["runs"]) + 1)


def sampling_check(inputs, rcs):
    problems, reports = [], {}
    for name, (_, levels, out) in inputs["runs"].items():
        if rcs[name] == 0:
            reports[name] = report = _read_json(out)
            problems += oracle.check_box_counts(
                report, name, range(levels[0], levels[1] + 1), DEPTH, POINTS
            )
    slope = {name: r["slope"] for name, r in reports.items()}
    stderr = {name: r["stderr"] for name, r in reports.items()}
    for name, want, tol in (("attractor", oracle.D_CANTOR, oracle.ATTRACTOR_SLOPE_TOL),
                            ("restricted", oracle.D_CANTOR, oracle.RESTRICTED_SLOPE_TOL),
                            ("pairs", 2 * oracle.D_CANTOR, oracle.PAIRS_SLOPE_TOL)):
        if name in slope and abs(slope[name] - want) > tol:
            problems.append(f"{name} slope {slope[name]} not within {tol} of {want}")
    if {"attractor", "restricted"} <= slope.keys():
        gap = abs(slope["restricted"] - slope["attractor"])
        if gap > 2 * (stderr["attractor"] + stderr["restricted"]) + 0.05:
            problems.append(f"restricted and attractor slopes differ by {gap}")
    if rcs["csv"] == 0:
        problems += oracle.check_baker_csv(inputs["csv"][1], POINTS)
    return problems, len(rcs), sum(rc != 0 for rc in rcs.values())


# --------------------------------------------------------------------------
# certify: verdicts, negative controls, conjugacy defects, certificate audit


def certify_setup(lp, seed, workdir):
    verifies = []
    for s, (spec, flags) in enumerate(SYSTEMS):
        for k in range(VERIFY_SEEDS):
            out = str(workdir / f"verify-{spec['kind']}-{k}.json")
            argv = ["verify", *flags, "--seed", str(_cli_seed(seed, 4 * s + k)),
                    "--blocks", str(VERIFY_BLOCKS), "--depth", str(DEPTH), "--out", out]
            verifies.append((f"{spec['kind']} seed {k}", argv, out, True))
    for mode in ("identical", "eventually-equal"):
        out = str(workdir / f"control-{mode}.json")
        argv = ["verify", *SYSTEMS[0][1], "--seed", str(_cli_seed(seed, 0)),
                "--pair-mode", mode, "--blocks", str(VERIFY_BLOCKS), "--depth", str(DEPTH),
                "--out", out]
        verifies.append((f"tent {mode}", argv, out, False))
    conjugacy = [
        (spec, lp.systems.SystemSpec.from_json(spec), _cli_seed(seed, 15 - s))
        for s, (spec, _) in enumerate(SYSTEMS)
    ]
    rng = np.random.default_rng(AUDIT_SEED)
    prefixes = [tuple(row) for row in rng.integers(1, 3, (AUDIT_PREFIXES, DEPTH)).tolist()]
    return {
        "verifies": verifies,
        "conjugacy": conjugacy,
        "audit_ifs": lp.fractal.load_ifs(_write_ifs(workdir)),
        "audit_prefixes": prefixes,
    }


def certify_run(lp, inputs, op):
    rcs = [op(f"verify {name}", lp.cli.main, argv) for name, argv, _, _ in inputs["verifies"]]
    defects = [
        max(op(f"conjugacy {spec.kind} {c}", lp.systems.conjugacy_defect, spec,
               trials=CHUNK_TRIALS, prefix_len=DEPTH + 1, depth=DEPTH,
               seed=seed * CONJUGACY_CHUNKS + c)
            for c in range(CONJUGACY_CHUNKS))
        for _, spec, seed in inputs["conjugacy"]
    ]
    ifs = inputs["audit_ifs"]
    coded = op("audit", lambda: [lp.fractal.code_point(ifs, p)
                                 for p in inputs["audit_prefixes"]])
    return {"rcs": rcs, "defects": defects,
            "audit": [(float(c.center[0]), c.radius) for c in coded]}


def certify_units(inputs):
    return (len(inputs["conjugacy"]) * CONJUGACY_TRIALS
            + len(inputs["verifies"]) * 2 * VERIFY_BLOCKS)


def certify_check(inputs, outputs):
    problems = []
    for (name, _, out, expect), rc in zip(inputs["verifies"], outputs["rcs"]):
        if rc != 0:
            continue
        problems += oracle.check_verify_report(
            f"verify {name}", _read_json(out), VERIFY_BLOCKS, expect
        )
    for (spec, _, _), defect in zip(inputs["conjugacy"], outputs["defects"]):
        bound = oracle.conjugacy_bound(spec, DEPTH)
        if not 0 <= defect <= bound:
            problems.append(f"conjugacy {spec['kind']}: defect {defect} above {bound}")
    ifs = CANTOR_IFS
    maps = [(m["ratio"], m["t"][0]) for m in ifs["maps"]]
    audit_failed = sum(
        not oracle.ball_holds_box(center, radius,
                                  *oracle.exact_image_box(maps, ifs["K"][0], prefix))
        for prefix, (center, radius) in zip(inputs["audit_prefixes"], outputs["audit"])
    )
    attempted = len(outputs["rcs"]) + len(outputs["defects"]) + len(outputs["audit"])
    return problems, attempted, sum(rc != 0 for rc in outputs["rcs"]) + audit_failed


WORKLOADS = {
    "sampling": (sampling_setup, sampling_run, sampling_units, sampling_check),
    "certify": (certify_setup, certify_run, certify_units, certify_check),
}
