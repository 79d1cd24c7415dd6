"""Box-counting dimension estimation and Li-Yorke pair verification.

Box counts use the grid variant of the covering number over a ladder of
grids of side b^-k: a point cloud occupies the cell
(floor(x_1 * b^k), ..., floor(x_w * b^k)), the products taken exactly,
and N_k is the number of distinct occupied cells.  Grid counts are
dimension-equivalent to minimal ball covers.  The grids nest, so only
the finest level reads the points, and each coarser level is counted
from the distinct cells of the level below.  Every level sorts one key
per cell: one int64 mixed-radix number where the level's cells fit, and
otherwise the cell's row of w int64 columns, read as one opaque value of
8 w bytes.  The fitted slope of
log N_k against k log b over a saturation-guarded window estimates the
box (Minkowski) dimension.

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

``verify_liyorke`` turns these finite families into a verdict, read from
the profile alone: geometric decay of the proximity bounds at the
profile's largest ratio (liminf-zero surrogate) plus a uniform floor of
half the separation gap on the separation bounds (limsup-positive
surrogate).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateFit,
    EmptyInput,
    TooFewCheckpoints,
    ValidationError,
)
from .fractal import _split, _two_prod_error
from .symbolic import (
    FLIP,
    FREE,
    TWO_SIDED,
    GapSequence,
    ScheduleBlock,
    SymbolSequence,
    block_schedule,
    construct_partner,
    extract_filler,
    random_sequence,
    schedule_roles,
)
from .systems import SystemSpec, _row_norms, _sequence_orbit, derive_ifs
from .systems import code_orbit_point  # noqa: F401  (bench/spans.py wraps this name)


# --------------------------------------------------------------------------
# box counting

_BLOCK = 1 << 16  # rows per block of box counting; the counts do not depend on it


@dataclass(frozen=True)
class BoxCountEstimate:
    """Occupied-cell counts over a grid-size ladder, plus the fitted slope."""

    epsilons: tuple[float, ...]
    counts: tuple[int, ...]
    sample_count: int
    slope: float | None = None
    stderr: float | None = None
    fit_range: tuple[int, ...] | None = None


@dataclass(frozen=True)
class GridLadder:
    """Nested grids of cell side base^-k, for the levels k = lo..hi.

    Level k puts x in the cell floor(x * base^k), with the product taken
    exactly.  base^hi must be an exact double (3^k is up to k = 33), so
    every level's scale is one; a cell of level k is then the cell of
    level k + 1 floor-divided by the base.
    """

    base: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not all(type(v) is int for v in (self.base, self.lo, self.hi)):
            raise ValidationError("a grid ladder is three integers: base, lo, hi")
        if self.base < 2 or not 0 <= self.lo <= self.hi:
            raise ValidationError(
                f"a grid ladder needs base >= 2 and 0 <= lo <= hi, got {self}"
            )
        top = max(self.hi, 1)
        # the first test bounds base^top from below, before it is computed
        if (self.base.bit_length() - 1) * top > 1023 or not _exact_double(self.base**top):
            raise ValidationError(f"{self.base}^{top} is not an exact double")

    @property
    def epsilons(self) -> tuple[float, ...]:
        return tuple(float(self.base) ** -k for k in range(self.lo, self.hi + 1))


def _exact_double(n: int) -> bool:
    """Whether the positive integer n converts to a double exactly."""
    odd = n >> ((n & -n).bit_length() - 1)
    return n.bit_length() <= 1024 and odd.bit_length() <= 53


def _exact_cells(x: np.ndarray, scale: float) -> np.ndarray:
    """floor(x * scale) as int64, the product taken exactly.

    floor(fl(x * scale)) can be wrong only where p = fl(x * scale) is an
    integer.  There the exact product is p + e, with e from Dekker's
    two_prod, and the cell is p + floor(e).  Below 2^53 such rows are
    rare (a product within an ulp of a grid line) and floor(e) is 0 or -1.
    The scale is at least 1, so a nonzero x never rounds to p = 0.
    """
    p = x * scale
    cells = np.floor(p)
    on_line = np.flatnonzero(cells == p)
    p = p[on_line]
    cells = cells.astype(np.int64)
    if on_line.size:
        m, e = math.frexp(scale)  # _split(scale) overflows above 2^996
        s_hi, s_lo = (math.ldexp(v, e) for v in _split(m))
        error = _two_prod_error(*_split(x[on_line]), s_hi, s_lo, p)
        cells[on_line] += np.floor(error).astype(np.int64)
    return cells


def _pack(columns, lo, spans) -> np.ndarray:
    """One key per cell of a level whose column j runs from lo[j] over
    spans[j] values; the columns are an iterable read once.  Where the
    spans' product fits int64, the key is the int64 mixed-radix number of
    digits column j minus lo[j], column 0 the most significant, built in
    the first column as the columns, shifted in place, are read.
    Otherwise it is the cell's row of w int64 columns, viewed as one
    ``np.void`` of 8 w bytes: equal cells have equal keys, and sorting
    groups them in byte order."""
    if math.prod(spans) >= 2**63:
        return np.stack(list(columns), axis=1).view(f"V{8 * len(spans)}").reshape(-1)
    key = None
    for col, low, span in zip(columns, lo, spans):
        col -= low
        if key is None:
            key = col
        else:
            key *= span
            key += col
    return key


def _unpack(key, lo, spans) -> np.ndarray:
    """The (w, n) cell columns of keys that ``_pack`` made with the same
    ``lo`` and ``spans``.  An int64 ``key`` is left zeroed; the columns of
    row keys are a view of ``key``."""
    if math.prod(spans) >= 2**63:
        return key.view(np.int64).reshape(len(key), len(spans)).T
    cells = np.empty((len(spans), len(key)), dtype=np.int64)
    for j in range(len(spans) - 1, -1, -1):
        np.divmod(key, spans[j], out=(key, cells[j]))
        cells[j] += lo[j]
    return cells


def _sort_distinct(key) -> int:
    """Sort ``key`` in place and move its distinct values, in order, to its
    front; returns how many there are.  Each block is compared with the same
    rows shifted back by one.  The write cursor never passes the row before
    the block being read, and it reaches that row only when no value has
    been dropped, so every row a comparison reads still holds its sorted
    value."""
    key.sort()
    n = 1
    for start in range(1, len(key), _BLOCK):
        block = key[start : start + _BLOCK]
        kept = block[block != key[start - 1 : start - 1 + len(block)]]
        key[n : n + len(kept)] = kept
        n += len(kept)
    return n


def _rows(points) -> np.ndarray:
    """``points`` as a float (n, w) array; a 1-D array is one column."""
    pts = np.asarray(points, dtype=float)
    return pts.reshape(-1, 1) if pts.ndim == 1 else pts


def _checked(chunks, box: np.ndarray) -> Iterator[np.ndarray]:
    """The non-empty chunks as float (n, w) arrays, each checked to be
    finite and in ``box`` (ValidationError otherwise).  min and max
    propagate NaN and reach any infinity, so they check every value
    without a full-length mask."""
    for rows in chunks:
        rows = _rows(rows)
        if not len(rows):
            continue
        if rows.ndim != 2 or rows.shape[1] != len(box):
            raise ValidationError(f"box_count chunk of shape {rows.shape} in a {len(box)}-D box")
        low, high = rows.min(axis=0), rows.max(axis=0)
        if not (np.isfinite(low).all() and np.isfinite(high).all()):
            raise ValidationError("box_count points must be finite")
        if (low < box[:, 0]).any() or (high > box[:, 1]).any():
            raise ValidationError(
                f"box_count points span {np.stack([low, high], axis=1).tolist()}, "
                f"outside the box {box.tolist()}"
            )
        yield rows


def _distinct_keys(chunks, box, scale, lo, spans):
    """(row count, key, n) of the finest level's distinct cell keys, of
    either form of ``_pack``, ``key[:n]`` sorted.  Each chunk's cells are
    packed a block of rows at a time into a key of its own, which is sorted
    and compacted; the first chunk's key then collects the distinct keys of
    the others, and is compacted when it fills and doubled when compacting
    frees less than half of it."""
    count, key, n, merged = 0, None, 0, False
    for rows in _checked(chunks, box):
        count += len(rows)
        part = None
        for start in range(0, len(rows), _BLOCK):
            block = rows[start : start + _BLOCK]
            packed = _pack((_exact_cells(col, scale) for col in block.T), lo, spans)
            if part is None:
                part = np.empty(len(rows), dtype=packed.dtype)
            part[start : start + len(block)] = packed
        m = _sort_distinct(part)
        if key is None:
            key, n = part, m
            continue
        if n + m > len(key):
            if merged:
                n, merged = _sort_distinct(key[:n]), False
            if 2 * (n + m) > len(key):
                grown = np.empty(2 * max(len(key), n + m), dtype=key.dtype)
                grown[:n] = key[:n]
                key = grown
        key[n : n + m] = part[:m]
        n, merged = n + m, True
    if merged:
        n = _sort_distinct(key[:n])
    return count, key, n


def box_count(points, ladder: GridLadder, box=None) -> BoxCountEstimate:
    """Occupied-grid-cell counts of a point cloud over a grid ladder.

    ``points`` is one (n, w) array (a 1-D array is one column), or an
    iterator of (rows, w) chunks, such as the stream of ``fractal._sample``;
    one array counts as one chunk, and any split of the rows into chunks
    gives the same counts.  ``box``, a (w, 2) array of lower and upper
    bounds, fixes the cell columns' offsets and radices; it defaults to the
    array's own bounds, and a stream must give it.  Every chunk is checked
    against it, so a NaN or a point outside raises ValidationError, as does
    a box that is not finite or has a lower bound above its upper bound.

    Only the finest level reads the points.  Each chunk's exact cells are
    packed, a block of rows at a time, into one key per row, which is
    sorted and compacted to the distinct keys and appended to the distinct
    keys of the chunks before (``_distinct_keys``).  So beside one chunk
    only the distinct keys are held, and one array costs one key per point.
    A coarser level's cells are the distinct cells of the level below
    floor-divided by the base: each block of distinct keys is unpacked,
    divided and repacked, then the keys are sorted and compacted again.  A
    key is one int64 where the level's cells fit and a row of w int64
    columns where they would pass it (``_pack``); the first level whose
    cells fit again writes its keys into a new int64 array.
    """
    if not isinstance(points, Iterator):
        pts = _rows(points)
        if not pts.size:
            raise EmptyInput("box_count needs at least one point")
        if box is None:  # min and max propagate NaN and reach any infinity
            box = np.stack([pts.min(axis=0), pts.max(axis=0)], axis=1)
            if not np.isfinite(box).all():
                raise ValidationError("box_count points must be finite")
        points = iter((pts,))
    elif box is None:
        raise ValidationError("box_count of a stream of chunks needs their box")
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValidationError(f"box_count box must be a (w, 2) array, got shape {box.shape}")
    if not (np.isfinite(box).all() and (box[:, 0] <= box[:, 1]).all()):
        raise ValidationError(
            f"box_count box must be finite with lower <= upper bounds, got {box.tolist()}"
        )
    scale = float(ladder.base**ladder.hi)
    if not float(max(-box[:, 0].min(), box[:, 1].max())) * scale < 2.0**63:
        raise ValidationError("grid cell indices of the finest level exceed int64")
    # floor division by the base is monotone, so each level's column
    # bounds are the finer level's bounds divided
    lo, hi = _exact_cells(box[:, 0], scale), _exact_cells(box[:, 1], scale)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    count, key, n = _distinct_keys(points, box, scale, lo, spans)
    if not count:
        raise EmptyInput("box_count needs at least one point")
    base, counts = ladder.base, [n]
    for level in range(ladder.hi - 1, ladder.lo - 1, -1):
        finer_lo, finer_spans = lo, spans
        lo, hi = lo // base, hi // base
        spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
        coarse = key
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            block = _unpack(key[start:stop], finer_lo, finer_spans)
            block //= base
            packed = _pack(block, lo, spans)
            if packed.dtype != coarse.dtype:  # row keys narrow to int64 keys
                coarse = np.empty(n, dtype=packed.dtype)
            coarse[start:stop] = packed
        key = coarse
        n = _sort_distinct(key[:n])
        counts.append(n)
    return BoxCountEstimate(ladder.epsilons, tuple(counts[::-1]), sample_count=count)


def dimension_fit(estimate: BoxCountEstimate) -> BoxCountEstimate:
    """Least-squares slope of log N against -log eps over the usable window.

    Ladder points with N below 8 or above ``sample_count / 8`` are
    saturated by finite-sample effects and dropped; fewer than four
    survivors raise ``DegenerateFit``.
    """
    cap = estimate.sample_count / 8
    keep = tuple(i for i, n in enumerate(estimate.counts) if 8 <= n <= cap)
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
    blocks = block_schedule(gaps, block_count)
    if strict:
        # membership constrains the futures only; pasts are free
        span = min(len(base.digits), len(partner.digits), blocks[-1].end)
        extract_filler(
            SymbolSequence(partner.m, partner.digits[:span]),
            SymbolSequence(base.m, base.digits[:span]),
            gaps,
        )
    codings = derive_ifs(spec)  # separation is read in the first block
    # per block: the proximity time, then the separation time
    times = [t for b in blocks for t in _checkpoint_times(b, spec.side)]
    centers, radii = _sequence_orbit(spec, (base, partner), times, depth)
    dists = _row_norms(centers[:, 0] - centers[:, 1]).tolist()
    checkpoints = ([], [])  # proximity, separation
    for k, (t, dist, (r_b, r_p)) in enumerate(zip(times, dists, radii)):
        slack = r_b + r_p
        bound = max(0.0, dist - slack) if k % 2 else dist + slack
        checkpoints[k % 2].append(Checkpoint(blocks[k // 2].index, t, bound, slack))
    return LiYorkeProfile(
        *map(tuple, checkpoints), spec.ambient_diam, codings[0].gap,
        max(r for ifs in codings for r in ifs.ratios), spec.side, depth,
    )


def verify_liyorke(profile: LiYorkeProfile) -> Verdict:
    """Decide the Li-Yorke surrogate criteria from a finite profile alone.

    Proximity passes when every checkpoint from block 2 on obeys the
    envelope max_ratio^(block+1) * scale + radius_slack + 1e-12; blocks 0
    and 1 are exempt ("eventually"): with a two-sided coding the
    recent-past agreement only outruns the envelope once the free blocks
    are longer than the matched blocks.  Separation passes when every
    certified lower bound reaches sep_gap / 2.
    """
    if len(profile.proximity) < 3 or len(profile.separation) < 3:
        raise TooFewCheckpoints("need at least 3 checkpoints of each kind")
    decay, floor = profile.max_ratio, profile.sep_gap / 2
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
    last = block_schedule(gaps, block_count)[-1]
    return _checkpoint_times(last, side)[1] + depth


def shadow_filler(base: SymbolSequence, gaps: GapSequence, length: int) -> SymbolSequence:
    """Filler that copies the base digits at the free positions, so the
    partner differs from the base only at the flipped positions.  Only
    stored base digits are copied, so a short base gives a short filler."""
    digits = base.digits[:length]
    free = schedule_roles(gaps, length)[: digits.size] == FREE
    return SymbolSequence(base.m, digits[free])


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
    base_future = SymbolSequence(2, base.digits)
    if filler_mode == "base":
        filler = shadow_filler(base_future, gaps, length)
    else:
        filler = random_sequence(2, length, rng)
    partner_future = construct_partner(base_future, gaps, filler, length)
    return base, SymbolSequence(2, partner_future.digits, spec.side, base.past)


def break_pair_after_block(
    base: SymbolSequence,
    partner: SymbolSequence,
    gaps: GapSequence,
    last_kept_block: int,
) -> SymbolSequence:
    """Negative control: revert the flipped digits after ``last_kept_block``,
    so the pair becomes eventually equal and separation must fail."""
    digits = partner.digits.copy()
    # the k-th FLIP is block k's flipped digit
    flips = np.flatnonzero(schedule_roles(gaps, len(digits)) == FLIP)[last_kept_block + 1 :]
    digits[flips] = base.digits[flips]
    return SymbolSequence(partner.m, digits, partner.side, partner.past)
