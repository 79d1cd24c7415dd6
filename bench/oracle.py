"""Reference computations made apart from lypairs.

Nothing here imports the package: cylinder counts come from the block
schedule recomputed from its recurrence, verdicts from the envelope and
floor formulas applied to the profile JSON, defect bounds and profile
constants from the system parameters, and the certificate audit from an
exact ``Fraction`` evaluation of the same float maps.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

D_CANTOR = math.log(2) / math.log(3)

# acceptance tolerances of criteria 4 and 5
ATTRACTOR_SLOPE_TOL = 0.05
RESTRICTED_SLOPE_TOL = 0.05
PAIRS_SLOPE_TOL = 0.1

# a level whose cells each expect this many points may miss no cell
FULL_LEVEL_POINTS = 30
# Extra cells, as a share of the closed form, from float centers that round
# across a grid line into the next cell.  A center comes that close to a
# line only after a run of some 30 extreme digits.  With every digit drawn
# at random (attractor, pair set) such runs are rare, and 0.1% holds.  The
# restricted set's digits at matched and flipped positions are fixed by its
# base, and a base with extreme digits there makes the runs common.  There
# only the adjacent-cell bound holds: a cylinder adds at most its two
# neighbours (``boxdim --target restricted --seed 4833`` with the CLI's own
# random base gives 66 cells against 64 at 3^-15).
STRADDLE_EXCESS = {"attractor": 1e-3, "pairs": 1e-3, "restricted": 2.0}


def free_positions(depth: int) -> set[int]:
    """1-based free positions among the first ``depth`` digits under the
    quadratic gap rule: u_0 = 1, u_{i+1} = u_i + (i+1) + 1 + N_{i+1},
    block i holding i+1 matches, one flip, then N_{i+1} = (i+1)^2 free."""
    free = set()
    u, i = 1, 0
    while u <= depth:
        first = u + i + 2
        n_free = (i + 1) ** 2
        free.update(p for p in range(first, first + n_free) if p <= depth)
        u += (i + 1) + 1 + n_free
        i += 1
    return free


def cylinder_counts(target: str, levels, depth: int) -> list[int]:
    """Closed-form number of level-j cylinders (cells of side 3^-j) that the
    middle-thirds target occupies: 2^j, 2^{f_j} or 2^{j + f_j}."""
    free = free_positions(depth)
    out = []
    for j in levels:
        f_j = sum(1 for p in free if p <= j)
        exponent = {"attractor": j, "restricted": f_j, "pairs": j + f_j}[target]
        out.append(2**exponent)
    return out


def check_box_counts(report, target, levels, depth, points) -> list[str]:
    """Compare a boxdim JSON report with the closed-form cylinder counts."""
    problems = []
    if len(report["counts"]) != len(levels):
        return [f"{target}: {len(report['counts'])} counts for {len(levels)} levels"]
    for j, got, want in zip(levels, report["counts"], cylinder_counts(target, levels, depth)):
        if got > want * (1 + STRADDLE_EXCESS[target]):
            problems.append(f"{target}: level {j} count {got} too far above {want}")
        if points / want >= FULL_LEVEL_POINTS and got < want:
            problems.append(f"{target}: level {j} count {got} misses cells of {want}")
    if report["sample_count"] != points:
        problems.append(f"{target}: sample_count {report['sample_count']} != {points}")
    return problems


# --------------------------------------------------------------------------
# systems: profile constants and conjugacy bounds from the parameters


def system_constants(spec: dict) -> dict:
    """Lipschitz constant, largest ratio, ambient diameter and separation gap
    of the separating coordinate, from the printed branch maps."""
    kind = spec["kind"]
    if kind == "tent":
        c = 1 / (2 * spec["a"])
        return {"lipschitz": 2 * spec["a"], "max_ratio": c, "diam": 1.0, "gap": 1 - 2 * c}
    if kind == "horseshoe":
        beta, tau = spec["beta"], spec["tau"]
        return {"lipschitz": tau, "max_ratio": max(beta, 1 / tau),
                "diam": math.sqrt(2), "gap": 1 - 2 * beta}
    b1, b2 = spec["beta1"], spec["beta2"]
    w = 2 if kind == "baker" else 3
    gap = (1 - b1 - b2) * (1 if kind == "baker" else math.sqrt(2))
    return {"lipschitz": 2.0, "max_ratio": max(b1, b2, 0.5), "diam": math.sqrt(w), "gap": gap}


def conjugacy_bound(spec: dict, depth: int) -> float:
    k = system_constants(spec)
    return (1 + k["lipschitz"]) * k["max_ratio"] ** depth * k["diam"] / 2 + 1e-10


def derive_verdict(profile: dict, skip_initial: int = 2) -> bool:
    """Li-Yorke verdict recomputed from a profile: proximity bounds under
    decay^(block+1) * scale + slack, separation bounds at or above gap/2."""
    decay, scale, floor = profile["max_ratio"], profile["scale"], profile["sep_gap"] / 2
    for cp in profile["proximity"]:
        envelope = decay ** (cp["block"] + 1) * scale + cp["radius_slack"] + 1e-12
        if cp["block"] >= skip_initial and cp["bound"] > envelope:
            return False
    return all(cp["bound"] >= floor for cp in profile["separation"])


def check_verify_report(name, report, blocks, expect_pass) -> list[str]:
    problems = []
    profile = report["profile"]
    k = system_constants(report["system"])
    for key, want in (("max_ratio", k["max_ratio"]), ("scale", k["diam"]), ("sep_gap", k["gap"])):
        if not math.isclose(profile[key], want, rel_tol=1e-12):
            problems.append(f"{name}: profile {key} {profile[key]!r} != {want!r}")
    if len(profile["proximity"]) != blocks or len(profile["separation"]) != blocks:
        problems.append(f"{name}: profile has the wrong number of checkpoints")
    derived = derive_verdict(profile)
    if derived != report["verdict"]["passed"]:
        reported = report["verdict"]["passed"]
        problems.append(f"{name}: reported verdict {reported}, derived {derived}")
    if derived != expect_pass:
        problems.append(f"{name}: verdict {derived}, expected {expect_pass}")
    return problems


# --------------------------------------------------------------------------
# certificate audit: exact image box against the claimed ball


def exact_image_box(maps, box, prefix) -> tuple[Fraction, Fraction]:
    """S_{a_1} o ... o S_{a_n}([lo, hi]) in exact arithmetic, for 1-D maps
    given as float (ratio, translation) pairs with positive ratio."""
    lo, hi = Fraction(box[0]), Fraction(box[1])
    exact = [(Fraction(r), Fraction(t)) for r, t in maps]
    for d in reversed(prefix):
        r, t = exact[d - 1]
        lo, hi = r * lo + t, r * hi + t
    return lo, hi


def ball_holds_box(center: float, radius: float, lo: Fraction, hi: Fraction) -> bool:
    c, r = Fraction(center), Fraction(radius)
    return c - r <= lo and hi <= c + r


# --------------------------------------------------------------------------
# baker point cloud (beta1 = beta2 = 1/3)


def check_baker_csv(path, rows: int) -> list[str]:
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "x1,x2":
        return [f"csv header {header!r}"]
    pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if pts.shape != (rows, 2):
        return [f"csv shape {pts.shape}, expected ({rows}, 2)"]
    x, y = pts[:, 0], pts[:, 1]
    problems = []
    # middle-thirds points: no ternary digit 1 among digits 1..10
    scaled = np.floor(x * 3.0**10).astype(np.int64)
    for _ in range(10):
        if np.any(scaled % 3 == 1):
            problems.append("x has a ternary digit 1 among digits 1..10")
            break
        scaled //= 3
    if np.any(y < 0) or np.any(y > 1):
        problems.append("y outside [0, 1]")
    # natural measure: Cantor (mean 1/2, variance 1/8) times uniform (1/2, 1/12)
    for label, v, mean, var in (("x", x, 0.5, 1 / 8), ("y", y, 0.5, 1 / 12)):
        dev = v - v.mean()
        s2 = float(dev @ dev) / v.size
        se_mean = math.sqrt(s2 / v.size)
        se_var = math.sqrt(max(float(np.mean(dev**4)) - s2 * s2, 0.0) / v.size)
        if abs(v.mean() - mean) > 5 * se_mean:
            problems.append(f"{label} mean {v.mean()} not within 5 SE of {mean}")
        if abs(s2 - var) > 5 * se_var:
            problems.append(f"{label} variance {s2} not within 5 SE of {var}")
    return problems
