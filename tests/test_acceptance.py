"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Desk-scale dimension checks use grid ladders aligned
with the construction's block boundaries: at finite depth the restricted
set scales at the full rate only across the free-digit blocks, which is
exactly the regime the asymptotic statements govern.
"""

import json
import math
import time

import numpy as np
import pytest

from lypairs.analysis import (
    GridLadder,
    box_count,
    dimension_fit,
)
from lypairs.cli import main
from lypairs.fractal import (
    IfsSystem,
    Similitude,
    moran_dimension,
    sample_attractor,
    sample_pair_set,
    sample_restricted,
)
from lypairs.symbolic import (
    GapSequence,
    block_schedule,
    check_gap_condition,
    construct_partner,
    random_sequence,
    sequence_dist,
    shift,
)
from lypairs.systems import SystemSpec, coded_radius, conjugacy_defect

CANTOR_D = math.log(2) / math.log(3)


def cantor_ifs() -> IfsSystem:
    # x-direction system of the baker map with beta1 = beta2 = 1/3
    return IfsSystem(
        (Similitude(1 / 3, [0.0]), Similitude(1 / 3, [2 / 3])),
        ((0.0, 1.0),),
    )


def _report(num: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"


def test_criterion_1_moran_oracle():
    started = time.perf_counter()
    sol = moran_dimension([1 / 3, 1 / 3])
    assert abs(sol.dimension - math.log(2) / math.log(3)) < 1e-10
    golden = -math.log2((math.sqrt(5) - 1) / 2)
    sol2 = moran_dimension([0.5, 0.25])
    assert abs(sol2.dimension - golden) < 1e-10
    rng = np.random.default_rng(101)
    for _ in range(100):
        k = int(rng.integers(1, 8))
        ratios = list(rng.uniform(0.05, 0.85, size=k))
        assert moran_dimension(ratios).residual <= 1e-12
    _report(1, "Moran oracle", started, 1.0)


def test_criterion_2_symbolic_proximity_separation_bounds():
    started = time.perf_counter()
    gaps = GapSequence("quadratic")
    blocks = 15
    sched = block_schedule(gaps, blocks)
    window = 48
    need = sched[-1].start + blocks + window + 2
    trials_per_m = 500  # 1000 trials total across m in {2, 3}
    for m in (2, 3):
        rng = np.random.default_rng(200 + m)
        for _ in range(trials_per_m):
            base = random_sequence(m, need, rng)
            filler = random_sequence(m, need, rng)
            partner = construct_partner(base, gaps, filler, need)
            for blk in sched:
                i = blk.index
                tail = 2.0 / m ** (window - 1)
                prox = sequence_dist(
                    shift(base, blk.start - 1).truncated(window),
                    shift(partner, blk.start - 1).truncated(window),
                    tail,
                )
                assert prox.hi <= m ** (-i)
                sep = sequence_dist(
                    shift(base, blk.start + i).truncated(window),
                    shift(partner, blk.start + i).truncated(window),
                    tail,
                )
                assert sep.lo >= 1.0 / m
    _report(2, "finite proximity/separation bounds", started, 10.0)


def test_criterion_3_conjugacy_defects():
    started = time.perf_counter()
    systems = (
        (SystemSpec("tent", a=2.0), 40),
        (SystemSpec("baker", beta1=1 / 3, beta2=1 / 3), 30),
        (SystemSpec("horseshoe", beta=1 / 3, tau=3.0), 30),
        (SystemSpec("solenoid", beta1=1 / 3, beta2=1 / 3), 30),
    )
    for spec, depth in systems:
        defect = conjugacy_defect(
            spec, trials=1000, prefix_len=depth + 1, depth=depth, seed=300
        )
        bound = (1 + spec.lipschitz) * coded_radius(spec, depth) + 1e-10
        assert defect <= bound, (spec.kind, defect, bound)
    _report(3, "conjugacy defect, all four systems", started, 30.0)


def test_criterion_4_restricted_set_dimension():
    started = time.perf_counter()
    ifs = cantor_ifs()
    gaps = GapSequence("quadratic")
    count, depth = 1_000_000, 40
    plain = sample_attractor(ifs, count, depth, seed=400)
    est_plain = dimension_fit(box_count(plain.centers, GridLadder(3, 3, 16)))
    base = random_sequence(2, depth + 8, np.random.default_rng(401))
    restricted = sample_restricted(ifs, base, gaps, count, depth, seed=402)
    # the window 3^-15 .. 3^-23 spans one full free-digit block of the schedule
    est_res = dimension_fit(box_count(restricted.centers, GridLadder(3, 15, 23)))
    assert abs(est_res.slope - CANTOR_D) <= 0.05, est_res.slope
    combined = 2 * (est_plain.stderr + est_res.stderr) + 0.05
    assert abs(est_res.slope - est_plain.slope) <= combined
    _report(4, "restricted set keeps the Moran dimension", started, 60.0)


def test_criterion_5_pair_set_dimension():
    started = time.perf_counter()
    ifs = cantor_ifs()
    pairs = sample_pair_set(ifs, GapSequence("quadratic"), 1_000_000, 40, seed=500)
    est = dimension_fit(box_count(pairs.centers, GridLadder(3, 6, 10)))
    assert abs(est.slope - 2 * CANTOR_D) <= 0.1, est.slope
    _report(5, "pair set doubles the dimension", started, 120.0)


def test_criterion_6_cli_verdicts(capsys, tmp_path):
    started = time.perf_counter()
    system_flags = (
        ("--system", "tent", "--a", "2"),
        ("--system", "baker", "--beta1", str(1 / 3), "--beta2", str(1 / 3)),
        ("--system", "horseshoe", "--beta", str(1 / 3), "--tau", "3"),
        ("--system", "solenoid", "--beta1", str(1 / 3), "--beta2", str(1 / 3)),
    )
    for flags in system_flags:
        rc = main(["verify", *flags, "--seed", "600"])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("PASS"), (flags, out)
    for mode in ("identical", "eventually-equal"):
        rc = main(
            ["verify", "--system", "tent", "--a", "2", "--seed", "600",
             "--pair-mode", mode]
        )
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("FAIL"), (mode, out)
    with capsys.disabled():
        _report(6, "CLI Li-Yorke verdicts + negative controls", started, 10.0)


def test_criterion_7_gap_condition_checker():
    started = time.perf_counter()
    quad = check_gap_condition(GapSequence("quadratic"), 100)
    assert quad.verdict == "pass"
    assert quad.ratios[99] == pytest.approx(100**2 * 6 / (100 * 101 * 201), rel=1e-12)
    lin = check_gap_condition(GapSequence("linear"), 100)
    assert lin.verdict == "fail"
    assert lin.ratios[99] == pytest.approx(2 * 100 / 101, rel=1e-12)
    const = check_gap_condition(GapSequence("constant", c=5), 100)
    assert const.verdict == "fail"
    assert const.ratios[99] == pytest.approx(20.0, rel=1e-12)
    zero = check_gap_condition(GapSequence("constant", c=0), 100)
    assert zero.verdict == "fail"
    assert all(math.isinf(r) for r in zero.ratios)
    _report(7, "gap-condition verdicts match closed forms", started, 1.0)


def test_criterion_8_thread_determinism(capsys, tmp_path):
    started = time.perf_counter()
    path = tmp_path / "cantor.json"
    path.write_text(
        json.dumps(
            {
                "w": 1,
                "K": [[0, 1]],
                "maps": [
                    {"ratio": 1 / 3, "orth": [1], "t": [0]},
                    {"ratio": 1 / 3, "orth": [1], "t": [2 / 3]},
                ],
            }
        )
    )
    outputs = []
    for threads in ("1", "4"):
        out_file = tmp_path / f"box_{threads}.json"
        rc = main(
            ["boxdim", "--ifs", str(path), "--count", "150000", "--depth", "30",
             "--seed", "800", "--threads", threads, "--out", str(out_file)]
        )
        capsys.readouterr()
        assert rc == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    outputs = []
    for threads in ("1", "3"):
        out_file = tmp_path / f"pairs_{threads}.csv"
        rc = main(
            ["sample", "--ifs", str(path), "--target", "pairs", "--count", "80000",
             "--depth", "25", "--seed", "801", "--threads", threads,
             "--format", "csv", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert rc == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        _report(8, "byte-identical output across --threads", started, 30.0)
