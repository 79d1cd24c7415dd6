"""The open defects of ROADMAP's "Defects" section, one test each.

Each test asserts the correct behaviour and is marked a strict xfail with
the ROADMAP item that fixes it, so ``pytest -rxX`` lists the defects that
are still open.  An XPASS fails the suite: the change that fixes a defect
removes its marker, and its test then runs as a plain test.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from lypairs import cli, systems
from lypairs.analysis import build_verification_pair, liyorke_profile, verify_liyorke
from lypairs.fractal import IfsSystem, Similitude, code_point
from lypairs.symbolic import GapSequence
from lypairs.systems import SystemSpec, coded_radius, conjugacy_defect

THIRD = 0.3333333333333333


def open_defect(item: str, what: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {what}")


@open_defect("1 step 1", "a code_point radius omits the rounding of its center")
def test_code_point_ball_holds_the_exact_image():
    # 50 depth-40 prefixes drawn as the certify audit draws its 500
    ifs = IfsSystem((Similitude(THIRD, [0.0]), Similitude(THIRD, [2 / 3])), ((0.0, 1.0),))
    maps = [(Fraction(s.ratio), Fraction(s.translation[0])) for s in ifs.maps]
    missed = []
    for prefix in np.random.default_rng(20180712).integers(1, 3, (50, 40)).tolist():
        # [S(0), S(1)], the exact image of K = [0, 1] under the stored doubles,
        # by Horner with the last digit innermost
        lo, hi = Fraction(0), Fraction(1)
        for digit in reversed(prefix):
            ratio, shift = maps[digit - 1]
            lo, hi = ratio * lo + shift, ratio * hi + shift
        ball = code_point(ifs, prefix)
        center, radius = Fraction(float(ball.center[0])), Fraction(ball.radius)
        if not center - radius <= lo <= hi <= center + radius:
            missed.append(prefix)
    assert not missed, f"{len(missed)} of 50 balls miss their exact image"


RANDOM_FILLER_SYSTEMS = {
    "baker": SystemSpec("baker", beta1=THIRD, beta2=THIRD),
    "horseshoe": SystemSpec("horseshoe", beta=THIRD, tau=3.0),
    "solenoid": SystemSpec("solenoid", beta1=THIRD, beta2=THIRD),
}


@pytest.mark.parametrize("spec", [
    pytest.param(SystemSpec("tent", a=2.0), id="tent"),
    *(pytest.param(spec, id=kind, marks=open_defect(
        "2", "the front-aligned proximity time puts random filler digits in the past window"))
      for kind, spec in RANDOM_FILLER_SYSTEMS.items()),
])
def test_random_filler_pair_passes(spec):
    # the calls of ``verify --filler random --seed 5 --blocks 24 --depth 40``
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(spec, gaps, 24, 40, 5, filler_mode="random")
    verdict = verify_liyorke(liyorke_profile(spec, base, gaps, partner, 24, 40, strict=True))
    assert verdict.passed, verdict.reason


@open_defect("3", "a system's pair target samples the first coordinate block only")
def test_system_pair_target_lives_in_the_ambient_space():
    args = cli.build_parser().parse_args([
        "boxdim", "--system", "baker", "--beta1", repr(THIRD), "--beta2", repr(THIRD),
        "--target", "pairs", "--seed", "1"])
    _, box, _ = cli._target(args)  # builds the job; samples nothing
    assert len(box) == 4


@open_defect("5", "the params block of verify --out does not name the gap rule")
def test_verify_report_names_its_gap_rule(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--system", "tent", "--a", "2", "--seed", "1",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"].get("gaps") == "quadratic"


@open_defect("14", "criterion 3's absolute + 1e-10 passes a 1e-11 fault in apply_map")
def test_conjugacy_bound_rejects_a_planted_tent_fault(monkeypatch):
    spec = SystemSpec("tent", a=2.0)
    apply_map = systems.apply_map
    monkeypatch.setattr(systems, "apply_map", lambda spec, point: apply_map(spec, point) + 1e-11)
    defect = conjugacy_defect(spec, 1000, 41, 40, 300)
    # criterion 3's bound, as tests/test_acceptance.py computes it
    assert defect > (1 + spec.lipschitz) * coded_radius(spec, 40) + 1e-10
