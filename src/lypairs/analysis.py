"""Box-counting dimension estimation and Li-Yorke pair verification.

Box counts use the grid variant of the covering number: a point cloud
occupies the cell (floor(x_1/eps), ..., floor(x_k/eps)), and N_eps is
the number of distinct occupied cells.  Grid counts are dimension-
equivalent to minimal ball covers and computable in one pass.  The
fitted slope of log N_eps against -log eps over a saturation-guarded
window estimates the box (Minkowski) dimension.

Li-Yorke verification works on certified geometric bounds: orbits are
evaluated through the symbolic coding (never by floating-point
iteration), and each scheduled block contributes

* a proximity checkpoint at the orbit time that brings the matched block
  to the front of the future -- the certified distance upper bound there
  decays like (max ratio)^(block+1) times the ambient diameter;
* a separation checkpoint at the orbit time that brings the flipped
  digit to the front (one-sided) or just into the past (two-sided) --
  the certified lower bound there stays above the separation gap of the
  coding system in the separating coordinate, minus the coded radii.

``verify_liyorke`` turns these finite families into a verdict: geometric
decay of the proximity bounds (liminf-zero surrogate) plus a uniform
positive floor on the separation bounds (limsup-positive surrogate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateFit,
    EmptyInput,
    TooFewCheckpoints,
    ValidationError,
)
from .symbolic import (
    FREE,
    ONE_SIDED,
    TWO_SIDED,
    GapSequence,
    ScheduleBlock,
    SymbolSequence,
    block_schedule,
    construct_partner,
    extract_filler,
    random_sequence,
    schedule_covering,
    schedule_roles,
)
from .systems import SystemSpec, _row_norms, _sequence_orbit, derive_ifs
from .systems import code_orbit_point  # noqa: F401  (bench/spans.py wraps this name)


# --------------------------------------------------------------------------
# box counting


@dataclass(frozen=True)
class BoxCountEstimate:
    """Occupied-cell counts over a grid-size ladder, plus the fitted slope."""

    epsilons: tuple[float, ...]
    counts: tuple[int, ...]
    sample_count: int
    slope: float | None = None
    stderr: float | None = None
    fit_range: tuple[int, ...] | None = None

    def csv_rows(self) -> list[tuple[float, float]]:
        """(-log eps, log N) pairs ready for external plotting."""
        return [(-math.log(e), math.log(n)) for e, n in zip(self.epsilons, self.counts)]


def dyadic_ladder(min_exp: int = 4, max_exp: int = 14) -> tuple[float, ...]:
    return tuple(2.0**-j for j in range(min_exp, max_exp + 1))


def ternary_ladder(min_exp: int, max_exp: int) -> tuple[float, ...]:
    return tuple(3.0**-j for j in range(min_exp, max_exp + 1))


_MAX_LADDER_LEVELS = 4096


def geometric_ladder(eps_max: float, eps_min: float, ratio: float = 2.0) -> tuple[float, ...]:
    if not (0 < eps_min <= eps_max < math.inf) or not ratio > 1.0:
        raise ValidationError("ladder needs 0 < eps_min <= eps_max < inf and ratio > 1")
    levels = math.floor((math.log(eps_max) - math.log(eps_min)) / math.log(ratio)) + 1
    if levels > _MAX_LADDER_LEVELS:
        raise ValidationError(
            f"ladder of about {levels} levels exceeds {_MAX_LADDER_LEVELS}; "
            "raise the ratio or narrow the range"
        )
    out = []
    e = eps_max
    # the level bound also ends the loop where a subnormal e / ratio rounds back to e
    while e >= eps_min * (1 - 1e-12) and len(out) <= levels:
        out.append(e)
        e /= ratio
    return tuple(out)


def _distinct_cells(points: np.ndarray, eps: float) -> int:
    """Occupied cells of a w > 1 cloud: one sort of a packed cell key.

    Cell indices are shifted to start at 0 per column and packed as mixed-
    radix digits into one int64 key; when the product of the column spans
    does not fit, the rows are sorted lexicographically instead.
    """
    cells = np.floor(points / eps).astype(np.int64)
    lo = cells.min(axis=0)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, cells.max(axis=0))]
    if math.prod(spans) >= 2**63:
        rows = cells[np.lexsort(cells.T)]
        return int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1))) + 1
    key = cells[:, 0] - lo[0]
    for j in range(1, cells.shape[1]):
        key *= spans[j]
        key += cells[:, j] - lo[j]
    key.sort()
    return int(np.count_nonzero(np.diff(key))) + 1


def box_count(points, epsilons) -> BoxCountEstimate:
    """Occupied-grid-cell counts of a point cloud over a decreasing ladder.

    1-D clouds are sorted once: floor(x / eps) is monotone in x, so each
    level counts the changes of the floored sorted values.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.size == 0:
        raise EmptyInput("box_count needs at least one point")
    if not np.isfinite(pts).all():
        raise ValidationError("box_count points must be finite")
    eps = tuple(float(e) for e in epsilons)
    if not eps or any(e <= 0 for e in eps):
        raise ValidationError("epsilon ladder must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilon ladder must be strictly decreasing")
    if not float(np.abs(pts).max()) / eps[-1] < 2.0**63:
        raise ValidationError("grid cell indices of the finest level exceed int64")
    if pts.shape[1] == 1:
        xs = np.sort(pts[:, 0])
        counts = tuple(int(np.count_nonzero(np.diff(np.floor(xs / e)))) + 1 for e in eps)
    else:
        counts = tuple(_distinct_cells(pts, e) for e in eps)
    return BoxCountEstimate(eps, counts, sample_count=pts.shape[0])


def dimension_fit(estimate: BoxCountEstimate) -> BoxCountEstimate:
    """Least-squares slope of log N against -log eps over the usable window.

    Ladder points with N below 8 or above ``sample_count / 8`` are
    saturated by finite-sample effects and dropped; fewer than four
    survivors raise ``DegenerateFit``.
    """
    cap = estimate.sample_count / 8
    keep = tuple(
        i
        for i, n in enumerate(estimate.counts)
        if 8 <= n <= cap and 1 < n < estimate.sample_count
    )
    if len(keep) < 4:
        raise DegenerateFit(f"only {len(keep)} usable ladder points between count 8 and {cap:.0f}")
    x = np.array([-math.log(estimate.epsilons[i]) for i in keep])
    y = np.array([math.log(estimate.counts[i]) for i in keep])
    xb = x - x.mean()
    sxx = float(xb @ xb)
    slope = float(xb @ (y - y.mean()) / sxx)
    resid = y - y.mean() - slope * xb
    dof = len(keep) - 2
    stderr = float(math.sqrt(float(resid @ resid) / dof / sxx))
    return replace(estimate, slope=slope, stderr=stderr, fit_range=keep)


# --------------------------------------------------------------------------
# Li-Yorke profiles


@dataclass(frozen=True)
class Checkpoint:
    """One certified orbit-distance bound."""

    block: int
    time: int
    bound: float
    radius_slack: float


@dataclass(frozen=True)
class LiYorkeProfile:
    """Certified proximity/separation bounds for one candidate pair."""

    proximity: tuple[Checkpoint, ...]
    separation: tuple[Checkpoint, ...]
    scale: float       # diameter of the ambient domain box
    sep_gap: float     # separation gap of the coding system's separating coordinate
    max_ratio: float   # largest contraction ratio over all coding directions
    side: str
    depth: int


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reason: str
    witness: Checkpoint | None = None


def _profile_parameters(spec: SystemSpec) -> tuple[float, float, float]:
    derived = derive_ifs(spec)
    exp, con = derived.expanding_inverse, derived.contracting
    if con is None:
        return spec.ambient_diam, exp.gap, max(exp.ratios)
    return spec.ambient_diam, con.gap, max(exp.ratios + con.ratios)


def _checkpoint_times(block: ScheduleBlock, side: str) -> tuple[int, int]:
    """Proximity time u_i - 1 (matched block in front) and separation time
    u_i + i (flipped digit in front) or u_i + i + 1 (most recent past digit)."""
    return block.start - 1, block.start + block.index + (side == TWO_SIDED)


def liyorke_profile(
    spec: SystemSpec,
    base: SymbolSequence,
    gaps: GapSequence,
    partner: SymbolSequence,
    block_count: int,
    depth: int,
    strict: bool = True,
) -> LiYorkeProfile:
    """Certified orbit-distance bounds for (base, partner) at every block.

    With ``strict`` the partner's future must satisfy the match/flip
    pattern of the base (NotInSubset otherwise); negative controls pass
    strict=False to profile deliberately broken pairs.
    """
    if block_count < 1:
        raise ValidationError("block_count must be >= 1")
    sched = block_schedule(gaps, block_count)
    if strict:
        # membership constrains the futures only; pasts are free
        span = min(len(base.digits), len(partner.digits), sched.span)
        extract_filler(
            SymbolSequence(partner.m, partner.digits[:span]),
            SymbolSequence(base.m, base.digits[:span]),
            gaps,
        )
    scale, gap, max_ratio = _profile_parameters(spec)
    # per block: the proximity time, then the separation time
    times = [t for b in sched.blocks for t in _checkpoint_times(b, spec.side)]
    centers_b, radii_b = _sequence_orbit(spec, base, times, depth)
    centers_p, radii_p = _sequence_orbit(spec, partner, times, depth)
    dists = _row_norms(centers_b - centers_p).tolist()
    checkpoints = ([], [])  # proximity, separation
    for k, (t, dist, r_b, r_p) in enumerate(zip(times, dists, radii_b, radii_p)):
        slack = r_b + r_p
        bound = max(0.0, dist - slack) if k % 2 else dist + slack
        checkpoints[k % 2].append(Checkpoint(sched.blocks[k // 2].index, t, bound, slack))
    return LiYorkeProfile(
        *map(tuple, checkpoints), scale, gap, max_ratio, spec.side, depth
    )


def verify_liyorke(
    profile: LiYorkeProfile,
    proximity_decay: float | None = None,
    separation_floor: float | None = None,
) -> Verdict:
    """Decide the Li-Yorke surrogate criteria on a finite profile.

    Proximity passes when every checkpoint from block 2 on obeys the
    envelope decay^(block+1) * scale + radius_slack; separation passes
    when every certified lower bound reaches the floor.  Defaults:
    decay = the profile's max ratio, floor = half the separation gap.
    Blocks 0 and 1 are exempt ("eventually"): with a two-sided coding the
    recent-past agreement only outruns the envelope once the free blocks
    are longer than the matched blocks.
    """
    if len(profile.proximity) < 3 or len(profile.separation) < 3:
        raise TooFewCheckpoints("need at least 3 checkpoints of each kind")
    decay = profile.max_ratio if proximity_decay is None else float(proximity_decay)
    floor = profile.sep_gap / 2 if separation_floor is None else float(separation_floor)
    if not 0 < decay < 1:
        raise ValidationError("proximity_decay must lie in (0,1)")
    if not floor > 0:
        raise ValidationError("separation_floor must be positive")
    for cp in profile.proximity:
        if cp.block < 2:
            continue
        envelope = decay ** (cp.block + 1) * profile.scale + cp.radius_slack + 1e-12
        if cp.bound > envelope:
            return Verdict(False, "proximity bound exceeds decay envelope", cp)
    for cp in profile.separation:
        if cp.bound < floor:
            return Verdict(False, "separation bound below floor", cp)
    return Verdict(True, "proximity decays and separation stays above floor")


# --------------------------------------------------------------------------
# pair builders for verification runs


def required_future_length(gaps: GapSequence, block_count: int, depth: int, side: str) -> int:
    """Future digits read by a profile: the last separation time plus depth."""
    last = block_schedule(gaps, block_count).blocks[-1]
    return _checkpoint_times(last, side)[1] + depth


def shadow_filler(base: SymbolSequence, gaps: GapSequence, length: int) -> SymbolSequence:
    """Filler that copies the base digits at the free positions, so the
    partner differs from the base only at the flipped positions.  Only
    stored base digits are copied, so a short base gives a short filler."""
    digits = np.asarray(base.digits[:length], dtype=np.int64)
    free = schedule_roles(gaps, length)[: digits.size] == FREE
    return SymbolSequence(base.m, tuple(digits[free].tolist()))


def build_verification_pair(
    spec: SystemSpec,
    gaps: GapSequence,
    block_count: int,
    depth: int,
    seed: int,
    filler_mode: str = "base",
) -> tuple[SymbolSequence, SymbolSequence]:
    """Random base plus constructed partner sized for a full profile.

    filler_mode "base" copies the base digits into the free positions
    (the partner differs from the base exactly at the flipped digits);
    "random" draws the filler independently.  Two-sided partners reuse
    the base's past: the certified front-aligned proximity envelope needs
    the recent past to agree.
    """
    if filler_mode not in ("base", "random"):
        raise ValidationError("filler_mode must be 'base' or 'random'")
    length = required_future_length(gaps, block_count, depth, spec.side)
    rng = np.random.default_rng(seed)
    base = random_sequence(
        2, length, rng, side=spec.side, past_length=depth if spec.side == TWO_SIDED else 0
    )
    if filler_mode == "base":
        base_future = SymbolSequence(2, base.digits)
        filler = shadow_filler(base_future, gaps, length)
    else:
        filler = random_sequence(2, length, rng)
    partner_future = construct_partner(
        SymbolSequence(2, base.digits), gaps, filler, length
    )
    if spec.side == ONE_SIDED:
        return base, partner_future
    partner = SymbolSequence.two_sided(2, base.past, partner_future.digits)
    return base, partner


def break_pair_after_block(
    base: SymbolSequence,
    partner: SymbolSequence,
    gaps: GapSequence,
    last_kept_block: int,
) -> SymbolSequence:
    """Negative control: revert the flipped digits after ``last_kept_block``,
    so the pair becomes eventually equal and separation must fail."""
    digits = list(partner.digits)
    for blk in schedule_covering(gaps, len(digits)).blocks[last_kept_block + 1 :]:
        if blk.mismatch_pos <= len(digits):
            digits[blk.mismatch_pos - 1] = base.digits[blk.mismatch_pos - 1]
    if partner.side == ONE_SIDED:
        return SymbolSequence(partner.m, tuple(digits))
    return SymbolSequence.two_sided(partner.m, partner.past, tuple(digits))
