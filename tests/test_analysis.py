"""Tests for box counting, dimension fitting, and Li-Yorke verification."""

import json
import math
import tracemalloc

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lypairs import analysis
from lypairs.analysis import (
    _BLOCK,
    BoxCountEstimate,
    GridLadder,
    _exact_cells,
    box_count,
    break_pair_after_block,
    build_verification_pair,
    dimension_fit,
    liyorke_profile,
    required_future_length,
    verify_liyorke,
)
from lypairs.cli import _json_text
from lypairs.errors import (
    DegenerateFit,
    EmptyInput,
    InsufficientPrefix,
    NotInSubset,
    TooFewCheckpoints,
    ValidationError,
)
from lypairs.fractal import (
    _CHUNK,
    IfsSystem,
    Similitude,
    _code_batch,
    code_point,
    moran_dimension,
    sample_attractor,
    sample_restricted,
)
from lypairs.symbolic import TWO_SIDED, GapSequence, SymbolSequence, block_schedule, random_sequence
from lypairs.systems import SystemSpec, code_orbit_point

TENT2 = SystemSpec("tent", a=2.0)
BAKER3 = SystemSpec("baker", beta1=1 / 3, beta2=1 / 3)
HORSE3 = SystemSpec("horseshoe", beta=1 / 3, tau=3.0)
SOLENOID3 = SystemSpec("solenoid", beta1=1 / 3, beta2=1 / 3)

CANTOR_D = math.log(2) / math.log(3)


def cantor_ifs() -> IfsSystem:
    return IfsSystem(
        (Similitude(1 / 3, [0.0]), Similitude(1 / 3, [2 / 3])),
        ((0.0, 1.0),),
    )


# --------------------------------------------------------------------------
# box counting


def test_box_count_single_repeated_point():
    pts = np.zeros((50, 2)) + 0.3
    est = box_count(pts, GridLadder(2, 2, 8))
    assert all(n == 1 for n in est.counts)


def test_box_count_uniform_interval():
    rng = np.random.default_rng(1)
    pts = rng.random(1_000_000)
    est = box_count(pts, GridLadder(2, 10, 10))
    assert est.counts[0] == 1024


def test_box_count_cantor_ternary_counts():
    sample = sample_attractor(cantor_ifs(), 1_000_000, 30, seed=5)
    est = box_count(sample.centers, GridLadder(3, 1, 12))
    for j, n in zip(range(1, 13), est.counts):
        assert n == 2**j


def test_box_count_monotone_on_nested_ladder():
    rng = np.random.default_rng(3)
    pts = rng.random((5000, 2))
    est = box_count(pts, GridLadder(2, 1, 10))
    assert all(a <= b for a, b in zip(est.counts, est.counts[1:]))


def test_box_count_scale_covariance():
    rng = np.random.default_rng(9)
    pts = rng.random((20000, 2))
    # scaling by 4 = 2^2 moves every cell index down two levels, exactly
    base = box_count(pts, GridLadder(2, 2, 9))
    scaled = box_count(pts * 4.0, GridLadder(2, 0, 7))
    assert base.counts == scaled.counts


def exact_cells(pts, base, k) -> np.ndarray:
    """Reference cells floor(x * base^k).  fl(y) lies within |y| 2^-53 of
    the product y, so floor(fl(y)) is exact wherever fl(y) is farther than
    that from an integer; the other entries come from x's integer ratio."""
    scale = base**k
    y = pts * float(scale)
    cells = np.floor(y).astype(np.int64)
    for i in zip(*np.nonzero(np.abs(y - np.round(y)) <= np.abs(y) * 2.0**-50)):
        num, den = float(pts[i]).as_integer_ratio()
        cells[i] = (num * scale) // den
    return cells


def unique_cell_counts(pts, ladder) -> tuple[int, ...]:
    """Reference box counts: one np.unique over the exact cell rows per level."""
    pts = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    return tuple(
        np.unique(exact_cells(pts, ladder.base, k), axis=0).shape[0]
        for k in range(ladder.lo, ladder.hi + 1)
    )


def test_box_count_2d_matches_unique_reference():
    rng = np.random.default_rng(13)
    pts = rng.random((400000, 2))
    est = box_count(pts, GridLadder(2, 2, 8))
    assert est.counts == unique_cell_counts(pts, GridLadder(2, 2, 8))


@pytest.mark.parametrize(
    "shape, scale, shift, epsilons",
    [
        ((20000,), 1.0, 0.0, GridLadder(2, 1, 20)),
        ((20000, 1), 3.0, -1.5, GridLadder(3, 1, 14)),
        ((20000, 2), 1.0, 0.0, GridLadder(2, 1, 16)),
        ((20000, 2), 2.0, -1.0, GridLadder(1000, 1, 3)),   # key spans up to 4e18
        ((20000, 3), 1.0, -0.5, GridLadder(2, 1, 12)),
        ((20000, 3), 1.0, 0.0, GridLadder(10, 2, 7)),      # spans 1e21: row keys
    ],
)
def test_box_count_matches_unique_reference(shape, scale, shift, epsilons):
    rng = np.random.default_rng(sum(shape))
    pts = rng.random(shape) * scale + shift
    pts[: len(pts) // 4] = pts[len(pts) // 4 : len(pts) // 2]   # repeated points
    if pts.ndim == 2 and pts.shape[1] > 1:
        pts[:, 0] = np.round(pts[:, 0] * 4) / 4   # ties in the first column
    est = box_count(pts, epsilons)
    assert est.counts == unique_cell_counts(pts, epsilons)


def triplet_cloud(n, w, k, seed):
    """n points of [0, 1)^w, each of m = ceil(n / 3) distinct ones three
    times in a row, at the centers of random distinct cells of side 2^-k,
    drawn from the first 4 m cells in the order of their packed keys (or
    all of them, if fewer), so that coarser levels merge neighbouring
    cells.  The sorted finest keys hold runs of three starting at multiples
    of 3; as _BLOCK = 1 (mod 3), the runs at the block edges _BLOCK and
    2 _BLOCK straddle them in the sorted keys and in the row order alike."""
    rng = np.random.default_rng(seed)
    m = -(-n // 3)
    flat = rng.choice(min(2 ** (k * w), 4 * m), size=m, replace=False)
    cells = np.stack([(flat >> (k * j)) % 2**k for j in range(w)], axis=1)
    return np.repeat((cells + 0.5) / 2**k, 3, axis=0)[:n]


SMALL_BLOCK = 256  # = 1 (mod 3), as _BLOCK


def at_block(n, block):
    """The size at the same place next to a multiple of ``block`` as n is
    next to a multiple of ``_BLOCK``: q _BLOCK + r, |r| < _BLOCK / 2,
    becomes q block + r."""
    q = round(n / _BLOCK)
    return q * block + n - q * _BLOCK


# each size is named by its place at _BLOCK and runs at SMALL_BLOCK
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("w, k", [(1, 18), (2, 9), (3, 6), (3, 20)])
def test_box_count_block_edges_match_unique_reference(monkeypatch, n, w, k):
    assert _BLOCK % 3 == SMALL_BLOCK % 3 == 1
    monkeypatch.setattr(analysis, "_BLOCK", SMALL_BLOCK)
    n = at_block(n, SMALL_BLOCK)
    pts = triplet_cloud(n, w, k, seed=n + w)
    ladder = GridLadder(2, k - 1, k + 1)
    box = None
    if k == 20:
        # in the unit cube the cells of level 21 pass int64, so its keys
        # are rows; level 20's keys are int64 again, and level 19 reads them
        box = np.array([[0.0, 1.0]] * w)
        assert (2**21 + 1) ** 3 >= 2**63 > (2**20 + 1) ** 3
    assert box_count(pts, ladder, box).counts == unique_cell_counts(pts, ladder)


@pytest.mark.parametrize("w", [1, 2])
def test_box_count_holds_one_key_per_point(w):
    # one int64 key per point, built and coarsened a block of rows at a time
    pts = np.random.default_rng(w).random((1_000_000, w))
    tracemalloc.start()
    try:
        est = box_count(pts, GridLadder(3, 1, 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.counts[-1] > 500_000
    assert peak <= 8 * len(pts) + 4 * 2**20


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
@example(data=None)
def test_chunked_box_count_matches_one_array(data):
    # any split into chunks, and any box that holds the points, counts as
    # the one array does; its own bounds are the default box
    if data is None:   # w = 3 in a box of spans near 4e28: row keys
        ladder = GridLadder(10, 1, 9)
        pts = np.random.default_rng(2).uniform(-1, 1, (300, 3))
        pts[150:] = pts[:150]
        cuts, pad = [0, 7, 7, 100, 299], (1.0, 0.5)
    else:
        w = data.draw(st.integers(1, 3))
        base = data.draw(st.sampled_from([2, 3, 10]))
        hi = data.draw(st.integers(0, 12))
        ladder = GridLadder(base, data.draw(st.integers(0, hi)), hi)
        cols = [data.draw(_grid_points(base, hi)) for _ in range(w)]
        n = min(map(len, cols))
        pts = np.array([c[:n] for c in cols]).T
        pts[n // 2 :] = pts[: n - n // 2]   # repeated points
        cuts = data.draw(st.lists(st.integers(0, n), max_size=8))
        pad = (data.draw(st.floats(0, 4)), data.draw(st.floats(0, 4)))
    box = np.stack([pts.min(axis=0) - pad[0], pts.max(axis=0) + pad[1]], axis=1)
    if data is None:
        assert np.prod((box[:, 1] - box[:, 0]) * 1e9) > 2.0**63
    want = box_count(pts, ladder)
    assert want.counts == unique_cell_counts(pts, ladder)
    got = box_count(iter(np.split(pts, sorted(cuts))), ladder, box)  # empty chunks too
    assert (got.counts, got.sample_count) == (want.counts, len(pts))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -1e-300])
def test_stray_point_in_a_later_chunk_raises(bad):
    chunks = [np.full((5, 2), 0.5), np.full((6, 2), 0.25), np.full((4, 2), 0.75)]
    chunks[1][3, 1] = bad
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="outside the box" if np.isfinite(bad) else "finite"):
        box_count(iter(chunks), GridLadder(2, 1, 4), box)
    assert box_count(iter(chunks[:1] + chunks[2:]), GridLadder(2, 1, 4), box).counts[-1] == 2


def test_box_count_stream_needs_a_box_of_its_width():
    chunks = [np.full((5, 2), 0.5)]
    with pytest.raises(ValidationError, match="needs their box"):
        box_count(iter(chunks), GridLadder(2, 1, 4))
    with pytest.raises(ValidationError, match="chunk of shape"):
        box_count(iter(chunks), GridLadder(2, 1, 4), np.array([[0.0, 1.0]]))
    with pytest.raises(EmptyInput):
        box_count(iter([np.empty((0, 1))]), GridLadder(2, 1, 4), np.array([[0.0, 1.0]]))


def repeating_stream(chunks, seed, w=2):
    """``chunks`` chunks of _CHUNK rows, each drawn from the same 4096
    points of [0, 1)^w and made only when asked for."""
    pool = np.random.default_rng(seed).random((4096, w))
    rng = np.random.default_rng(seed + 1)
    for _ in range(chunks):
        yield pool[rng.integers(0, len(pool), _CHUNK)]


def streamed_peaks(ladder, w):
    """The traced peaks of box counts of 8 and 32 chunks of
    ``repeating_stream`` in the unit box, after checking that they count
    every row and agree."""
    box, peaks, counts = np.array([[0.0, 1.0]] * w), [], []
    box_count(repeating_stream(1, seed=3, w=w), ladder, box)  # one-off allocations
    for chunks in (8, 32):
        tracemalloc.start()
        try:
            est = box_count(repeating_stream(chunks, seed=3, w=w), ladder, box)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert est.sample_count == chunks * _CHUNK
        counts.append(est.counts)
    assert counts[0] == counts[1]
    return peaks


def test_streamed_box_count_memory_does_not_grow_with_the_stream():
    peaks = streamed_peaks(GridLadder(2, 4, 16), w=2)
    assert peaks[1] <= peaks[0] + 64 * 2**10


def test_streamed_row_key_box_count_memory_does_not_grow_with_the_stream():
    # (2^22 + 1)^3 cells pass int64: the finest keys are rows of 3 columns
    peaks = streamed_peaks(GridLadder(2, 4, 22), w=3)
    assert peaks[1] <= peaks[0] + 64 * 2**10


def test_box_count_spans_beyond_int64_not_packed():
    # spans 5 * (2^62 + 1): a packed key would wrap, and cell (4, 0) would
    # share the key 4 with cell (0, 4)
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [0.0, 2.0**62]])
    ladder = GridLadder(2, 0, 0)
    assert box_count(pts, ladder).counts == unique_cell_counts(pts, ladder) == (4,)


def test_box_count_validation():
    with pytest.raises(EmptyInput):
        box_count(np.zeros((0, 2)), GridLadder(2, 4, 14))
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.zeros((5, 2))
        pts[3, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            box_count(pts, GridLadder(2, 4, 14))
    with pytest.raises(ValidationError, match="int64"):
        box_count(np.array([0.5, 1e300]), GridLadder(10, 10, 10))
    with pytest.raises(ValidationError, match="int64"):
        box_count(np.array([-1.0, 0.5]), GridLadder(2, 0, 63))


@pytest.mark.parametrize("points, box, message", [
    (np.full((3, 2), 0.5), np.array([0.0, 1.0]), r"box must be a \(w, 2\) array"),
    (np.full((3, 2), 0.5), np.array([[0.0, np.nan], [0.0, 1.0]]), "box must be finite"),
    (np.full((3, 2), 0.5), np.array([[0.0, 1.0], [-np.inf, 1.0]]), "box must be finite"),
    (np.full((3, 2), 0.5), np.array([[0.0, 1.0], [1.0, 0.0]]), "lower <= upper"),
    (np.array([[0.5, np.nan], [0.25, 0.5]]), None, "points must be finite"),
])
def test_box_count_blames_the_box_or_the_points(points, box, message):
    with pytest.raises(ValidationError, match=message):
        box_count(points, GridLadder(2, 1, 4), box)


def test_grid_ladder_sizes_and_validation():
    assert GridLadder(2, 4, 14).epsilons == tuple(2.0**-j for j in range(4, 15))
    assert GridLadder(3, 15, 23).epsilons == tuple(3.0**-j for j in range(15, 24))
    assert GridLadder(7, 0, 0).epsilons == (1.0,)
    assert GridLadder(3, 33, 33).epsilons == (3.0**-33,)
    assert GridLadder(2, 1023, 1023).epsilons == (2.0**-1023,)
    for args in ((3, 5, 4), (1, 0, 3), (2, -1, 3), (2.0, 1, 3), (2, 1, 3.0), (True, 1, 3)):
        with pytest.raises(ValidationError, match="grid ladder"):
            GridLadder(*args)
    for args in ((3, 0, 34), (2, 0, 1024), (10, 1, 23), (3**34, 0, 0), (2, 0, 10**12)):
        with pytest.raises(ValidationError, match="not an exact double"):
            GridLadder(*args)


def test_seed_602_center_cell():
    # the seed-602 pair-set center: dividing by the double 3^-6 rounds it
    # onto the line 237, but the exact product is below it, so x shares
    # cell 236 with 236.5 / 729
    x = 0.3251028806584362
    assert x / 3.0**-6 == 237.0 and math.floor(Fraction(x) * 729) == 236
    assert box_count(np.array([x, 236.5 / 729]), GridLadder(3, 6, 6)).counts == (1,)


def test_seed_1802_center_cell_is_the_float_maps_cell():
    # the seed-1802 attractor point (levels 8-16): the float-valued maps,
    # ratio fl(1/3) and translation fl(2/3), put it below the line 2000 / 3^8
    # although the true point (exact 1/3 and 2/3) lies above it, so the
    # computed cell is right for the maps as stored and no more precise
    # center arithmetic moves it
    digits = [int(c) for c in "1221211211111111111111111111111111111221"]
    center = code_point(cantor_ifs(), digits).center

    def image(ratio, translation):
        x = Fraction(1, 2)
        for d in reversed(digits):
            x = ratio * x + (translation if d == 2 else 0)
        return x

    float_maps = image(Fraction(1 / 3), Fraction(2 / 3))
    exact = image(Fraction(1, 3), Fraction(2, 3))
    for k in range(8, 17):
        cell = _exact_cells(center, 3.0**k)[0]
        assert cell == math.floor(float_maps * 3**k) == math.floor(Fraction(center[0]) * 3**k)
        assert cell == math.floor(exact * 3**k) - 1 == 2000 * 3 ** (k - 8) - 1


def test_cell_below_a_line_the_product_rounds_onto():
    x = 0.04526748971193415
    assert x * 729 == 33.0 and Fraction(x) * 729 < 33
    assert box_count(np.array([x, 32.5 / 729]), GridLadder(3, 5, 6)).counts == (1, 1)


_BASES = {2: 60, 3: 33, 5: 22, 10: 18}   # largest level tried: b^k exact, x * b^k < 2^63


def _grid_points(base, k):
    """Lists of doubles at and next to the lines j / base^k, random ones,
    negatives among both."""
    scale = base**k
    near = st.tuples(st.integers(-4 * scale, 4 * scale), st.sampled_from((-math.inf, 0, math.inf)))
    near = near.map(lambda t: math.nextafter(t[0] / scale, t[1]) if t[1] else t[0] / scale)
    return st.lists(st.one_of(near, st.floats(-4, 4)), min_size=1, max_size=40)


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exact_cells_match_fraction(data):
    base = data.draw(st.sampled_from(sorted(_BASES)))
    k = data.draw(st.integers(0, _BASES[base]))
    xs = data.draw(_grid_points(base, k))
    want = [math.floor(Fraction(x) * base**k) for x in xs]
    assert _exact_cells(np.array(xs), float(base**k)).tolist() == want


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
@example(data=None)
def test_roll_up_counts_match_unique_reference(data):
    if data is None:   # w = 4 at 10^-6: spans near 1e24 take row keys
        w, ladder = 4, GridLadder(10, 1, 6)
        pts = np.random.default_rng(1).uniform(-1, 1, (300, 4))
    else:
        w = data.draw(st.integers(1, 4))
        base = data.draw(st.sampled_from([2, 3, 10]))
        hi = data.draw(st.integers(0, 12))
        ladder = GridLadder(base, data.draw(st.integers(0, hi)), hi)
        cols = [data.draw(_grid_points(base, hi)) for _ in range(w)]
        n = min(map(len, cols))
        pts = np.array([c[:n] for c in cols]).T
        pts[n // 2 :] = pts[: n - n // 2]   # repeated points
    assert box_count(pts, ladder).counts == unique_cell_counts(pts, ladder)


def test_middle_thirds_cells_match_digit_cells():
    # the coded center of digits a_1..a_40 lies in the level-k cell
    # sum_{i <= k} 2 (a_i - 1) 3^(k - i), unless rounding moved it across a
    # line; rows within 1e-15 of a line are left out
    digits = np.random.default_rng(7).integers(1, 3, (20000, 40), dtype=np.int8)
    x = _code_batch(cantor_ifs(), digits)[:, 0]
    cell = np.zeros(len(x), dtype=np.int64)
    checked = 0
    for k in range(1, 31):
        cell = 3 * cell + 2 * (digits[:, k - 1] - 1)
        y = x * float(3**k)
        clear = np.abs(y - np.round(y)) >= 1e-15 * 3**k
        checked += int(clear.sum())
        assert np.array_equal(_exact_cells(x, float(3**k))[clear], cell[clear])
    assert checked > 0.95 * 30 * len(x)


# --------------------------------------------------------------------------
# dimension fitting


def test_fit_unit_interval_slope_one():
    rng = np.random.default_rng(2)
    pts = rng.random(1_000_000)
    est = dimension_fit(box_count(pts, GridLadder(2, 4, 14)))
    assert est.slope == pytest.approx(1.0, abs=0.02)
    assert est.stderr < 0.01


def test_fit_single_point_degenerate():
    est = box_count(np.zeros((100, 1)), GridLadder(2, 4, 14))
    with pytest.raises(DegenerateFit):
        dimension_fit(est)


def test_fit_cantor_cloud_matches_moran_oracle():
    oracle = moran_dimension([1 / 3, 1 / 3]).dimension
    sample = sample_attractor(cantor_ifs(), 1_000_000, 30, seed=7)
    est = dimension_fit(box_count(sample.centers, GridLadder(2, 4, 14)))
    assert est.slope == pytest.approx(oracle, abs=0.02)


def test_fit_range_respects_saturation_guards():
    rng = np.random.default_rng(4)
    pts = rng.random(3000)
    est = dimension_fit(box_count(pts, GridLadder(2, 1, 12)))
    cap = est.sample_count / 8
    for i in est.fit_range:
        assert 8 <= est.counts[i] <= cap


def test_fit_window_is_fixed_from_8_to_count_over_8():
    # 800 samples: the window is 8 <= N <= 100, each edge with a count on both sides
    est = BoxCountEstimate(GridLadder(2, 1, 9).epsilons, (4, 7, 8, 16, 32, 64, 100, 101, 200), 800)
    assert dimension_fit(est).fit_range == (2, 3, 4, 5, 6)
    short = BoxCountEstimate(GridLadder(2, 1, 5).epsilons, (7, 8, 16, 32, 101), 800)
    with pytest.raises(DegenerateFit, match="only 3 usable ladder points between count 8 and 100"):
        dimension_fit(short)


# --------------------------------------------------------------------------
# Li-Yorke profiles


def test_tent_profile_envelope_and_monotone_proximity():
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(TENT2, gaps, 10, 20, seed=6, filler_mode="random")
    prof = liyorke_profile(TENT2, base, gaps, partner, 10, 20)
    bounds = [cp.bound for cp in prof.proximity]
    for cp in prof.proximity:
        assert cp.bound <= 0.25 ** (cp.block + 1) * 1.0 + cp.radius_slack + 1e-15
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    for cp in prof.separation:
        assert cp.bound > 0.49  # gap 1/2 minus two depth-20 radii
    times_p = [cp.time for cp in prof.proximity]
    times_s = [cp.time for cp in prof.separation]
    assert times_p == sorted(times_p) and times_s == sorted(times_s)


@pytest.mark.parametrize("spec", (TENT2, BAKER3, HORSE3, SOLENOID3), ids=lambda s: s.kind)
@pytest.mark.parametrize("mode", ("base", "random"))
def test_profile_matches_pointwise_orbit_coding(spec, mode):
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(spec, gaps, 8, 20, seed=2, filler_mode=mode)
    prof = liyorke_profile(spec, base, gaps, partner, 8, 20, strict=False)
    sep_offset = 1 if spec.side == TWO_SIDED else 0
    blocks = block_schedule(gaps, 8)
    assert len(prof.proximity) == len(prof.separation) == len(blocks)
    for blk, prox, sep in zip(blocks, prof.proximity, prof.separation):
        for cp, t in ((prox, blk.start - 1), (sep, blk.start + blk.index + sep_offset)):
            b = code_orbit_point(spec, base, t, 20)
            p = code_orbit_point(spec, partner, t, 20)
            slack = b.radius + p.radius
            dist = float(np.linalg.norm(b.center - p.center))
            bound = dist + slack if cp is prox else max(0.0, dist - slack)
            assert (cp.block, cp.time, cp.bound, cp.radius_slack) == (blk.index, t, bound, slack)


def test_profile_rejects_short_windows():
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(BAKER3, gaps, 6, 12, seed=8)
    with pytest.raises(InsufficientPrefix, match="future digits"):
        liyorke_profile(BAKER3, base.truncated(30), gaps, partner.truncated(30), 6, 12, strict=False)
    short_past = SymbolSequence(2, base.digits, side=TWO_SIDED, past=base.past[:5])
    with pytest.raises(InsufficientPrefix, match="at time 0 needs 12 past digits"):
        liyorke_profile(BAKER3, short_past, gaps, partner, 6, 12, strict=False)


def test_profile_rejects_non_partner_when_strict():
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(TENT2, gaps, 6, 12, seed=8)
    with pytest.raises(NotInSubset):
        liyorke_profile(TENT2, base, gaps, base, 6, 12)
    # the constructed partner passes the same gate
    liyorke_profile(TENT2, base, gaps, partner, 6, 12)


def test_verify_passes_all_four_systems():
    gaps = GapSequence("quadratic")
    for spec in (TENT2, BAKER3, HORSE3, SOLENOID3):
        base, partner = build_verification_pair(spec, gaps, 12, 18, seed=10)
        prof = liyorke_profile(spec, base, gaps, partner, 12, 18)
        verdict = verify_liyorke(prof)
        assert verdict.passed, (spec.kind, verdict.reason, verdict.witness)


def test_verify_tent_with_random_filler():
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(TENT2, gaps, 12, 18, seed=11, filler_mode="random")
    verdict = verify_liyorke(liyorke_profile(TENT2, base, gaps, partner, 12, 18))
    assert verdict.passed


def test_verify_unequal_baker_contractions():
    gaps = GapSequence("quadratic")
    spec = SystemSpec("baker", beta1=0.2, beta2=0.4)
    base, partner = build_verification_pair(spec, gaps, 12, 18, seed=19)
    prof = liyorke_profile(spec, base, gaps, partner, 12, 18)
    assert prof.sep_gap == pytest.approx(0.4)
    assert verify_liyorke(prof).passed


def test_verify_fails_identical_pair():
    gaps = GapSequence("quadratic")
    base, _ = build_verification_pair(TENT2, gaps, 8, 15, seed=12)
    prof = liyorke_profile(TENT2, base, gaps, base, 8, 15, strict=False)
    assert all(cp.bound == 0.0 for cp in prof.separation)
    verdict = verify_liyorke(prof)
    assert not verdict.passed
    assert verdict.reason.startswith("separation")
    assert verdict.witness is not None


def test_verify_fails_eventually_equal_pair():
    gaps = GapSequence("quadratic")
    for spec in (TENT2, BAKER3):
        base, partner = build_verification_pair(spec, gaps, 10, 15, seed=14)
        broken = break_pair_after_block(base, partner, gaps, last_kept_block=2)
        prof = liyorke_profile(spec, base, gaps, broken, 10, 15, strict=False)
        verdict = verify_liyorke(prof)
        assert not verdict.passed
        assert verdict.witness.block > 2
        # early blocks still separate; the failure is beyond the kept blocks
        assert prof.separation[0].bound > prof.sep_gap / 2


def test_verify_too_few_checkpoints():
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(TENT2, gaps, 4, 12, seed=15)
    prof = liyorke_profile(TENT2, base, gaps, partner, 2, 12)
    with pytest.raises(TooFewCheckpoints):
        verify_liyorke(prof)


@pytest.fixture(scope="module")
def horseshoe_profile():
    """The profile of ``verify``'s default pair on the horseshoe, seed 5:
    12 blocks, depth 18."""
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(HORSE3, gaps, 12, 18, seed=5)
    return liyorke_profile(HORSE3, base, gaps, partner, 12, 18)


def with_proximity_bound(profile, block, bound):
    proximity = list(profile.proximity)
    assert proximity[block].block == block
    proximity[block] = replace(proximity[block], bound=bound)
    return replace(profile, proximity=tuple(proximity))


def envelope(profile, block):
    slack = profile.proximity[block].radius_slack
    return profile.max_ratio ** (block + 1) * profile.scale + slack + 1e-12


def test_verify_fails_proximity_bound_above_its_envelope(horseshoe_profile):
    prof = horseshoe_profile
    assert verify_liyorke(prof).passed
    at = envelope(prof, 2)
    assert verify_liyorke(with_proximity_bound(prof, 2, at)).passed
    verdict = verify_liyorke(with_proximity_bound(prof, 2, np.nextafter(at, np.inf)))
    assert not verdict.passed
    assert verdict.reason == "proximity bound exceeds decay envelope"
    assert verdict.witness.block == 2


@pytest.mark.parametrize("block", [0, 1])
def test_verify_exempts_blocks_0_and_1_from_the_envelope(horseshoe_profile, block):
    raised = with_proximity_bound(horseshoe_profile, block, 2 * envelope(horseshoe_profile, block))
    assert verify_liyorke(raised).passed


def test_verify_fails_separation_bound_below_half_the_gap(horseshoe_profile):
    prof = horseshoe_profile
    floor = prof.sep_gap / 2
    separation = list(prof.separation)
    for bound, passed in ((floor, True), (np.nextafter(floor, 0), False)):
        separation[5] = replace(separation[5], bound=bound)
        verdict = verify_liyorke(replace(prof, separation=tuple(separation)))
        assert verdict.passed is passed
    assert verdict.reason == "separation bound below floor"
    assert verdict.witness == separation[5]


def test_shadow_filler_partner_differs_only_at_flips():
    gaps = GapSequence("quadratic")
    base, partner = build_verification_pair(TENT2, gaps, 8, 12, seed=17)
    diffs = [i for i, (a, b) in enumerate(zip(base.digits, partner.digits)) if a != b]
    from lypairs.symbolic import schedule_covering

    blocks = schedule_covering(gaps, len(partner.digits))
    flips = [b.mismatch_pos - 1 for b in blocks if b.mismatch_pos <= len(partner.digits)]
    assert diffs == flips


def test_required_future_length_covers_profile():
    gaps = GapSequence("quadratic")
    n = required_future_length(gaps, 12, 18, "two")
    base, partner = build_verification_pair(BAKER3, gaps, 12, 18, seed=18)
    assert len(base.digits) == n
    # exactly enough: one more block would raise
    liyorke_profile(BAKER3, base, gaps, partner, 12, 18)


# --------------------------------------------------------------------------
# desk-scale dimension checks (reduced size; the acceptance suite runs 1e6)


def test_restricted_set_keeps_dimension_with_quadratic_gaps():
    ifs = cantor_ifs()
    rng = np.random.default_rng(20)
    base = random_sequence(2, 60, rng)
    sample = sample_restricted(ifs, base, GapSequence("quadratic"), 300_000, 40, seed=21)
    est = dimension_fit(box_count(sample.centers, GridLadder(3, 15, 23)))
    assert est.slope == pytest.approx(CANTOR_D, abs=0.05)


def test_restricted_set_loses_dimension_with_constant_gaps():
    ifs = cantor_ifs()
    rng = np.random.default_rng(22)
    base = random_sequence(2, 60, rng)
    sample = sample_restricted(ifs, base, GapSequence("constant", c=5), 300_000, 40, seed=23)
    est = dimension_fit(box_count(sample.centers, GridLadder(3, 15, 23)))
    assert est.slope < CANTOR_D - 0.05


def test_estimate_serialization():
    est = BoxCountEstimate((0.5, 0.25), (3, 7), sample_count=100, slope=1.2, stderr=0.1,
                           fit_range=(0, 1))
    data = json.loads(_json_text(est))
    assert data == {"epsilons": [0.5, 0.25], "counts": [3, 7], "sample_count": 100,
                    "slope": 1.2, "stderr": 0.1, "fit_range": [0, 1]}
