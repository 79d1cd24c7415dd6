"""Tests for similitude systems, the Moran equation, coding, and samplers."""

import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lypairs import fractal
from lypairs.analysis import GridLadder, box_count
from lypairs.errors import (
    InsufficientPrefix,
    InvalidDigit,
    InvalidRatio,
    OverlapError,
    ValidationError,
)
from lypairs.fractal import (
    IfsSystem,
    Similitude,
    bernoulli_weights,
    code_point,
    load_ifs,
    moran_dimension,
    sample_attractor,
    sample_pair_set,
    sample_restricted,
)
from lypairs.fractal import (
    _CHUNK,
    _PIECE,
    _Scratch,
    _chunk_rng,
    _code_batch,
    _draw_digits,
)
from lypairs.symbolic import (
    FREE,
    GapSequence,
    SymbolSequence,
    apply_pattern,
    covered_base,
    digit_dtype,
    extract_filler,
    random_sequence,
    schedule_roles,
)
from lypairs.systems import SystemSpec, derive_ifs

CHI2_99_DF1 = 6.6348966010212145  # 0.99 quantile of chi-square with 1 dof


def cantor_ifs() -> IfsSystem:
    return IfsSystem(
        (Similitude(1 / 3, [0.0]), Similitude(1 / 3, [2 / 3])),
        ((0.0, 1.0),),
    )


def tent_repeller_ifs() -> IfsSystem:
    # inverse branches of the slope-4 tent: x/4 and 1 - x/4
    return IfsSystem(
        (Similitude(0.25, [0.0]), Similitude(0.25, [1.0], flips=[-1])),
        ((0.0, 1.0),),
    )


def golden_ifs() -> IfsSystem:
    return IfsSystem(
        (Similitude(0.5, [0.0]), Similitude(0.25, [0.75])),
        ((0.0, 1.0),),
    )


def three_map_ifs() -> IfsSystem:
    # three maps with unequal ratios: a non-dyadic digit law
    return IfsSystem(
        (
            Similitude(0.2, [0.0]),
            Similitude(0.3, [0.35]),
            Similitude(0.25, [0.75]),
        ),
        ((0.0, 1.0),),
    )


def planar_ifs() -> IfsSystem:
    # planar system with unequal ratios and a reflection
    return IfsSystem(
        (
            Similitude(0.3, [0.0, 0.0]),
            Similitude(0.35, [1.0, 0.65], flips=[-1, 1]),
        ),
        ((0.0, 1.0), (0.0, 1.0)),
    )


# --------------------------------------------------------------------------
# similitudes


def test_similitude_scales_all_distances():
    rng = np.random.default_rng(5)
    s = Similitude(0.37, [0.2, -0.1, 0.5], flips=[1, -1, 1])
    for _ in range(1000):
        x, y = rng.uniform(-5, 5, size=(2, 3))
        lhs = np.linalg.norm(s.apply(x) - s.apply(y))
        rhs = 0.37 * np.linalg.norm(x - y)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x - y) + 1e-15


def test_similitude_rejects_bad_ratio_and_orth():
    with pytest.raises(InvalidRatio):
        Similitude(1.0, [0.0])
    with pytest.raises(InvalidRatio):
        Similitude(0.0, [0.0])
    with pytest.raises(ValidationError, match="orthogonal part must be integers"):
        Similitude(0.5, [0.0, 0.0], flips=[[0, 1], [1, 0]])


# --------------------------------------------------------------------------
# Moran equation


def test_moran_equal_thirds_closed_form():
    sol = moran_dimension([1 / 3, 1 / 3])
    assert abs(sol.dimension - math.log(2) / math.log(3)) < 1e-10
    assert sol.residual <= 1e-12


def test_moran_single_map_is_zero():
    sol = moran_dimension([0.5])
    assert sol.dimension == 0.0
    assert sol.residual == 0.0


def test_moran_golden_closed_form():
    # x + x^2 = 1 with x = (1/2)^D, so x = (sqrt(5)-1)/2
    expected = -math.log2((math.sqrt(5) - 1) / 2)
    sol = moran_dimension([0.5, 0.25])
    assert abs(sol.dimension - expected) < 1e-10


def test_moran_residual_on_random_lists():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        ratios = rng.uniform(0.05, 0.8, size=k)
        sol = moran_dimension(list(ratios))
        assert sol.residual <= 1e-12
        assert sol.dimension >= 0.0


def test_moran_monotone_in_ratios():
    base = moran_dimension([0.3, 0.2]).dimension
    bigger = moran_dimension([0.35, 0.2]).dimension
    assert bigger > base


def test_moran_rejects_bad_inputs():
    with pytest.raises(InvalidRatio):
        moran_dimension([])
    with pytest.raises(InvalidRatio):
        moran_dimension([0.5, 1.1])


# --------------------------------------------------------------------------
# separation


def test_separation_middle_thirds():
    assert cantor_ifs().gap == pytest.approx(1 / 3, abs=1e-15)


def test_separation_tent_repeller():
    assert tent_repeller_ifs().gap == pytest.approx(0.5, abs=1e-15)


def test_separation_rejects_touching_halves():
    with pytest.raises(OverlapError):
        IfsSystem(
            (Similitude(0.5, [0.0]), Similitude(0.5, [0.5])),
            ((0.0, 1.0),),
        )


def test_touching_halves_allowed_when_flagged():
    ifs = IfsSystem(
        (Similitude(0.5, [0.0]), Similitude(0.5, [0.5])),
        ((0.0, 1.0),),
        separation_required=False,
    )
    assert ifs.gap == 0.0


def test_domain_escape_rejected():
    with pytest.raises(ValidationError):
        IfsSystem((Similitude(0.5, [0.8]),), ((0.0, 1.0),))


# --------------------------------------------------------------------------
# coding


def test_code_point_all_ones_contracts_to_zero():
    ifs = cantor_ifs()
    cp = code_point(ifs, (1,) * 20)
    assert abs(cp.center[0]) <= 3.0**-20
    assert cp.radius == pytest.approx(3.0**-20 * 0.5, rel=1e-12)


def test_code_point_tent_fixed_point():
    ifs = tent_repeller_ifs()
    cp = code_point(ifs, (2,) * 30)
    # fixed point of x -> 1 - x/4 is 4/5
    assert cp.center[0] == pytest.approx(0.8, abs=1e-15)


def test_code_point_first_level_inside_image():
    for ifs in (cantor_ifs(), golden_ifs()):
        for d in (1, 2):
            cp = code_point(ifs, (d,))
            img = ifs.maps[d - 1].image_box(ifs.box_arr)
            assert img[0, 0] - 1e-12 <= cp.center[0] <= img[0, 1] + 1e-12


def test_code_point_rejects_bad_digits():
    with pytest.raises(InvalidDigit):
        code_point(cantor_ifs(), (1, 3))
    with pytest.raises(ValidationError):
        code_point(cantor_ifs(), ())


def test_code_point_rejects_non_integer_digits():
    ifs = cantor_ifs()
    with pytest.raises(ValidationError, match="must be integers"):
        code_point(ifs, [1.7, 2.2])
    with pytest.raises(ValidationError, match="must be integers"):
        code_point(ifs, [True, 2])
    want = code_point(ifs, (1, 2)).center
    for prefix in ([1.0, 2.0], np.array([1, 2], dtype=np.int8), np.array([1, 2])):
        assert np.array_equal(code_point(ifs, prefix).center, want)


def test_cylinder_nesting():
    rng = np.random.default_rng(2)
    ifs = golden_ifs()
    for _ in range(200):
        n = int(rng.integers(1, 12))
        prefix = tuple(int(d) for d in rng.integers(1, 3, size=n))
        parent = code_point(ifs, prefix)
        for d in (1, 2):
            child = code_point(ifs, prefix + (d,))
            gap = np.linalg.norm(child.center - parent.center) + child.radius
            assert gap <= parent.radius + 1e-12


def test_separation_transport():
    ifs = cantor_ifs()
    d = ifs.gap
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = tuple(int(x) for x in rng.integers(1, 3, size=int(rng.integers(0, 8))))
        tail1 = tuple(int(x) for x in rng.integers(1, 3, size=6))
        tail2 = tuple(int(x) for x in rng.integers(1, 3, size=6))
        c1 = code_point(ifs, p + (1,) + tail1)
        c2 = code_point(ifs, p + (2,) + tail2)
        scale = (1 / 3) ** len(p)
        dist = abs(c1.center[0] - c2.center[0])
        assert dist >= d * scale - c1.radius - c2.radius


# --------------------------------------------------------------------------
# samplers


def single_draw(rng, cum, shape):
    """The digits of one ``rng.random(shape)`` call under the cumulative law
    ``cum``: what ``_draw_digits`` draws, piece by piece."""
    u = rng.random(shape)
    return (np.searchsorted(cum, u, side="right") + 1).astype(digit_dtype(cum.size))


@pytest.mark.parametrize("m", [2, 3, 5, 12])
@pytest.mark.parametrize("shape", [(1, 1), (7, 40), (32768, 3), (1, 1000)])
def test_draw_digits_matches_searchsorted(m, shape):
    rng = np.random.default_rng(m)
    weights = rng.random(m) + 0.05
    cums = [
        np.cumsum(bernoulli_weights([1 / (m + 1)] * m)),
        np.cumsum(weights / weights.sum()),
        np.cumsum(weights / weights.sum()) * 0.9,   # cum[-1] < 1: digit m + 1 occurs
    ]
    for k, cum in enumerate(cums):
        got = np.empty(shape, dtype=digit_dtype(m))
        _draw_digits(np.random.default_rng(k), cum, got, _Scratch(1, got.size, got.dtype))
        want = single_draw(np.random.default_rng(k), cum, shape)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_draw_digits_skips_only_thresholds_at_or_above_one(data):
    # the whole law scaled so that cum[-1] is exactly ``last``: just below 1,
    # 1, just above 1 (interior entries may then reach 1 too), or anywhere
    m = data.draw(st.sampled_from([1, 2, 3, 5, 130]), label="m")  # 130: int16 digits
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m), label="w")
    last = data.draw(st.one_of(
        st.sampled_from([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]),
        st.floats(0.5, 1.5),
    ), label="last")
    cum = np.cumsum(weights)
    cum = cum / cum[-1] * last
    assert cum[-1] == last
    shape = data.draw(st.tuples(st.integers(1, 60), st.integers(1, 30)), label="shape")
    size = shape[0] * shape[1]
    piece = data.draw(st.integers(max(1, size // 8), size), label="piece")
    got = np.empty(shape, dtype=digit_dtype(m + 1))
    _draw_digits(np.random.default_rng(m), cum, got, _Scratch(1, piece, got.dtype))
    u = np.random.default_rng(m).random(shape)
    assert np.array_equal(got, np.searchsorted(cum, u, "right") + 1)


LAWS = {
    "dyadic": np.cumsum([0.5, 0.5]),
    "three-map": np.cumsum(bernoulli_weights(three_map_ifs().ratios)),
}


@pytest.mark.parametrize("law", list(LAWS))
@pytest.mark.parametrize("width", [0, 1, 39, 40, 41])
def test_piecewise_draw_matches_a_single_draw(law, width):
    # row counts just below and just above a piece boundary, and past two
    cum = LAWS[law]
    per_piece = _PIECE // width if width else 5
    scratch = _Scratch(2 * per_piece + 1, 41, digit_dtype(cum.size))
    for rows in (per_piece, per_piece + 1, 2 * per_piece + 1):
        got = np.full((rows, width), -1, dtype=digit_dtype(cum.size))
        rng = np.random.default_rng(rows)
        _draw_digits(rng, cum, got, scratch)
        ref = np.random.default_rng(rows)
        assert np.array_equal(got, single_draw(ref, cum, (rows, width)))
        assert rng.random() == ref.random()  # the draw used up exactly its uniforms


SMALL_PIECE = 64  # a ``_PIECE`` small enough that rows of up to 200 digits span pieces


@pytest.mark.parametrize("piece, width", [
    (SMALL_PIECE, 1), (SMALL_PIECE, 7), (SMALL_PIECE, 40), (SMALL_PIECE, 64),
    (SMALL_PIECE, 65), (SMALL_PIECE, 200), (_PIECE, 70000),  # the last three split rows
])
@pytest.mark.parametrize("layout", ["C", "F", "F-rows"])  # F-rows: the rows of a larger F array
def test_draw_digits_at_piece_edges(monkeypatch, piece, width, layout):
    # row counts one below and one above a piece edge, and past three
    monkeypatch.setattr(fractal, "_PIECE", piece)
    cum = LAWS["three-map"]
    per_piece = max(1, piece // width)
    scratch = _Scratch(3 * per_piece + 1, width, digit_dtype(cum.size))
    assert scratch.u.size == piece
    for rows in (per_piece - 1, per_piece + 1, 3 * per_piece + 1):
        if not rows:
            continue
        whole = np.full((rows + 2, width), -1, dtype=digit_dtype(cum.size), order=layout[0])
        got = whole[:rows] if layout == "F-rows" else whole[2:]
        rng, ref = np.random.default_rng(rows), np.random.default_rng(rows)
        _draw_digits(rng, cum, got, scratch)
        assert np.array_equal(got, single_draw(ref, cum, (rows, width)))
        assert (whole[rows:] == -1).all() if layout == "F-rows" else (whole[:2] == -1).all()
        # the draw used up exactly its uniforms
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("depth, cols", [
    (40, np.flatnonzero(schedule_roles(GapSequence("quadratic"), 40) == FREE)),
    (200, np.arange(3, 200, 2)),  # 99 columns: each row spans two pieces
    (40, np.array([39, 0, 17])),  # any order: the draw fills them as listed
    (40, np.array([], dtype=np.intp)),  # no free column: nothing is drawn
])
def test_draw_digits_into_a_column_subset(monkeypatch, depth, cols):
    monkeypatch.setattr(fractal, "_PIECE", SMALL_PIECE)
    cum = LAWS["three-map"]
    dtype = digit_dtype(cum.size)
    scratch = _Scratch(100, depth, dtype)
    others = np.setdiff1d(np.arange(depth), cols)
    for rows in (1, 100):
        got = np.empty((rows, depth), dtype=dtype, order="F")
        got[...] = np.arange(depth) % 50 + 10  # no digit of the law
        rng, ref = np.random.default_rng(rows), np.random.default_rng(rows)
        _draw_digits(rng, cum, got, scratch, cols)
        assert np.array_equal(got[:, cols], single_draw(ref, cum, (rows, cols.size)))
        assert np.array_equal(got[:, others], np.broadcast_to(others % 50 + 10, (rows, others.size)))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_code_batch_into_a_strided_view():
    for ifs in (planar_ifs(), cantor_ifs()):
        digits = single_draw(np.random.default_rng(3), np.cumsum([0.5, 0.5]), (500, 40))
        wide = np.full((500, 2 * ifs.w + 1), np.nan)
        view = wide[:, 1::2]
        assert view.shape == (500, ifs.w) and not view.flags.c_contiguous
        assert _code_batch(ifs, digits, out=view) is view
        want = _code_batch(ifs, digits)
        assert np.array_equal(view, want) and view.tobytes() == want.tobytes()
        assert np.isnan(wide[:, 0::2]).all()


# The samplers keep only coded centers.  These helpers draw the digits
# again from the samplers' chunk sub-seeds, in the samplers' order, each
# chunk's by ``single_draw`` rather than ``_draw_digits``; each test first
# checks that the redrawn digits code to the sample's centers.


def chunk_rows(count):
    """(index, rows) of each sampling chunk of a ``count``-row sample."""
    return [(i, min(_CHUNK, count - start)) for i, start in enumerate(range(0, count, _CHUNK))]


def attractor_digits(ifs, count, depth, seed, stream=0):
    """Digits behind ``sample_attractor(ifs, count, depth, seed)``."""
    cum = np.cumsum(bernoulli_weights(ifs.ratios))
    return np.vstack([
        single_draw(_chunk_rng(seed, stream, i), cum, (n, depth)) for i, n in chunk_rows(count)
    ])


def restricted_digits(ifs, base, gaps, count, depth, seed):
    """Digits behind ``sample_restricted(ifs, base, gaps, count, depth, seed)``."""
    roles = schedule_roles(gaps, depth)
    template = apply_pattern(roles, covered_base(roles, base), ifs.m)
    free = roles == FREE
    cum = np.cumsum(bernoulli_weights(ifs.ratios))
    d = np.tile(template, (count, 1))
    d[:, free] = np.vstack([
        single_draw(_chunk_rng(seed, 0, i), cum, (n, int(free.sum())))
        for i, n in chunk_rows(count)
    ])
    return d


def pair_digits(ifs, gaps, count, depth, seed):
    """Base and partner digits behind ``sample_pair_set(ifs, gaps, count, depth, seed)``."""
    roles = schedule_roles(gaps, depth)
    free = roles == FREE
    cum = np.cumsum(bernoulli_weights(ifs.ratios))
    bases, partners = [], []
    for i, n in chunk_rows(count):
        rng = _chunk_rng(seed, 0, i)
        s = single_draw(rng, cum, (n, depth))
        t = apply_pattern(roles, s, ifs.m)
        t[:, free] = single_draw(rng, cum, (n, int(free.sum())))
        bases.append(s)
        partners.append(t)
    return np.vstack(bases), np.vstack(partners)


def test_sampler_deterministic_across_threads():
    ifs = cantor_ifs()
    a = sample_attractor(ifs, 70000, 12, seed=42, threads=1)
    digits = attractor_digits(ifs, 70000, 12, seed=42)
    assert np.array_equal(_code_batch(ifs, digits), a.centers)
    for threads in (2, 4):
        b = sample_attractor(ifs, 70000, 12, seed=42, threads=threads)
        assert np.array_equal(a.centers, b.centers)
    c = sample_attractor(ifs, 70000, 12, seed=43)
    assert not np.array_equal(digits, attractor_digits(ifs, 70000, 12, seed=43))
    assert not np.array_equal(a.centers, c.centers)


def test_sampler_starts_at_most_one_worker_per_chunk():
    # a worker that records each one made (one per thread) and the threads alive
    made, alive = [], []
    ifs = cantor_ifs()
    count = 2 * _CHUNK + 5  # three chunks
    attractor, box, _ = fractal._attractor_job((ifs,), count, 12, 42)

    def worker(rows):
        made.append(rows)
        fill = attractor(rows)

        def counted(i, out):
            alive.append(threading.active_count())
            fill(i, out)

        return counted

    before = threading.active_count()
    got = np.empty((count, 1))
    for _ in fractal._sample((worker, box, count), 64, got):
        pass
    assert made == [_CHUNK] * 3
    assert max(alive) <= before + 3
    assert threading.active_count() == before
    assert np.array_equal(got, sample_attractor(ifs, count, 12, seed=42).centers)


def chunk_index_job(count, w=1, fail_at=None):
    """A ``_sample`` job of ``count`` rows of ``w`` columns whose worker
    writes each chunk's index into its rows and raises InvalidDigit on
    chunk ``fail_at``."""
    def worker(rows):
        def fill(i, out):
            if i == fail_at:
                raise InvalidDigit(f"chunk {i}")
            out.fill(i)

        return fill

    return worker, np.zeros((w, 2)), count


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sample_stream_yields_chunks_in_order(threads):
    count = 5 * _CHUNK + 3
    got = [rows.copy() for rows in fractal._sample(chunk_index_job(count, 2), threads)]
    assert [len(rows) for rows in got] == [_CHUNK] * 5 + [3]
    assert all(np.all(rows == i) for i, rows in enumerate(got))


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("into", ["stream", "array"])
def test_sample_worker_error_reaches_the_caller(threads, into):
    before = threading.active_count()
    out = np.empty((5 * _CHUNK, 1)) if into == "array" else None
    with pytest.raises(InvalidDigit, match="chunk 2"):
        for _ in fractal._sample(chunk_index_job(5 * _CHUNK, fail_at=2), threads, out):
            pass
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 3])
def test_sample_stream_stopped_early_joins_its_workers(threads):
    before = threading.active_count()
    stream = fractal._sample(chunk_index_job(9 * _CHUNK), threads)
    next(stream)
    assert threading.active_count() == before + threads
    stream.close()
    assert threading.active_count() == before
    with pytest.raises(BrokenPipeError):
        for i, _ in enumerate(fractal._sample(chunk_index_job(9 * _CHUNK), threads)):
            if i == 1:
                raise BrokenPipeError
    assert threading.active_count() == before


THREAD_GAPS = {"quadratic": GapSequence("quadratic"), "zero": GapSequence("constant", c=0)}
THREAD_IFS = {"middle-thirds": cantor_ifs, "three-map": three_map_ifs}


@pytest.mark.parametrize("target, gaps, ifs_name", [
    # quadratic gaps on the middle-thirds IFS keep the plain ids "restricted", "pairs"
    pytest.param(target, gaps, ifs_name, id="-".join(
        (target,) if (gaps, ifs_name) == ("quadratic", "middle-thirds")
        else (target, gaps, ifs_name)
    ))
    for target in ("restricted", "pairs")
    for gaps in THREAD_GAPS
    for ifs_name in THREAD_IFS
])
def test_sampler_thread_invariant(target, gaps, ifs_name):
    # 70,000 rows: two full chunks and a partial third, so at 2 threads one
    # worker's buffers code a full chunk and then the short last one;
    # constant 0 gaps leave no free digit
    ifs, gaps = THREAD_IFS[ifs_name](), THREAD_GAPS[gaps]
    base = random_sequence(ifs.m, 48, np.random.default_rng(8))
    if target == "restricted":
        want = _code_batch(ifs, restricted_digits(ifs, base, gaps, 70000, 40, seed=6))
    else:
        s, t = pair_digits(ifs, gaps, 70000, 40, seed=6)
        want = np.hstack([_code_batch(ifs, s), _code_batch(ifs, t)])
    assert want.shape == (70000, ifs.w if target == "restricted" else 2 * ifs.w)
    for threads in (1, 2, 4):
        if target == "restricted":
            sample = sample_restricted(ifs, base, gaps, 70000, 40, seed=6, threads=threads)
        else:
            sample = sample_pair_set(ifs, gaps, 70000, 40, seed=6, threads=threads)
        assert sample.centers.tobytes() == want.tobytes()


@pytest.mark.parametrize("threads, bound_mib", [(1, 4.0), (2, 6.5)])
def test_pair_sampler_memory_beyond_its_result(threads, bound_mib):
    # each worker holds one chunk-sized digit array (1.25 MiB at depth 40)
    # beside its coding and draw buffers, about 2.6 MiB traced per worker;
    # a second such array per worker breaks the 2-thread bound
    ifs, gaps = cantor_ifs(), GapSequence("quadratic")
    sample_pair_set(ifs, gaps, 1000, 40, seed=1, threads=threads)  # lazy set-up, untraced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample = sample_pair_set(ifs, gaps, 1_000_000, 40, seed=1, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.centers.shape == (1_000_000, 2)
    assert peak - before - sample.centers.nbytes < bound_mib * 2**20


def test_sampler_digit_marginals_uniform_for_equal_ratios():
    ifs = cantor_ifs()
    sample = sample_attractor(ifs, 100000, 1, seed=7)
    digits = attractor_digits(ifs, 100000, 1, seed=7)
    assert np.array_equal(_code_batch(ifs, digits), sample.centers)
    ones = int(np.sum(digits == 1))
    n = len(sample)
    expected = n / 2
    chi2 = (ones - expected) ** 2 / expected + ((n - ones) - expected) ** 2 / expected
    assert chi2 < CHI2_99_DF1


def test_sampler_golden_marginal():
    ifs = golden_ifs()
    p1 = bernoulli_weights(ifs.ratios)[0]
    assert p1 == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)
    sample = sample_attractor(ifs, 100000, 1, seed=11)
    digits = attractor_digits(ifs, 100000, 1, seed=11)
    assert np.array_equal(_code_batch(ifs, digits), sample.centers)
    phat = float(np.mean(digits == 1))
    assert abs(phat - p1) < 0.006  # ~4 sigma at n = 1e5


def test_sample_single_point_lands_in_first_level_image():
    ifs = cantor_ifs()
    s = sample_attractor(ifs, 1, 1, seed=0)
    digits = attractor_digits(ifs, 1, 1, seed=0)
    assert np.array_equal(_code_batch(ifs, digits), s.centers)
    img = ifs.maps[digits[0, 0] - 1].image_box(ifs.box_arr)
    assert img[0, 0] <= s.centers[0, 0] <= img[0, 1]


def test_restricted_prefixes_satisfy_pattern():
    ifs = cantor_ifs()
    rng = np.random.default_rng(31)
    base = random_sequence(2, 60, rng)
    gaps = GapSequence("quadratic")
    sample = sample_restricted(ifs, base, gaps, 200, 40, seed=5)
    digits = restricted_digits(ifs, base, gaps, 200, 40, seed=5)
    assert np.array_equal(_code_batch(ifs, digits), sample.centers)
    for i in range(0, 200, 7):
        row = SymbolSequence(2, tuple(int(d) for d in digits[i]))
        extract_filler(row, base, gaps)  # raises NotInSubset on violation


def test_restricted_zero_gaps_is_deterministic():
    ifs = cantor_ifs()
    base = SymbolSequence(2, (1, 2) * 30)
    sample = sample_restricted(ifs, base, GapSequence("constant", c=0), 500, 30, seed=3)
    digits = restricted_digits(ifs, base, GapSequence("constant", c=0), 500, 30, seed=3)
    assert np.array_equal(_code_batch(ifs, digits), sample.centers)
    assert np.all(digits == digits[0])
    assert np.ptp(sample.centers) == 0.0


def test_restricted_needs_base_coverage():
    ifs = cantor_ifs()
    base = SymbolSequence(2, (1, 2))
    with pytest.raises(InsufficientPrefix):
        sample_restricted(ifs, base, GapSequence("quadratic"), 10, 30, seed=1)


def test_pair_sample_components():
    ifs = cantor_ifs()
    gaps = GapSequence("quadratic")
    pairs = sample_pair_set(ifs, gaps, 300, 25, seed=13)
    assert pairs.centers.shape == (300, 2)
    s, t = pair_digits(ifs, gaps, 300, 25, seed=13)
    assert np.array_equal(np.hstack([_code_batch(ifs, s), _code_batch(ifs, t)]), pairs.centers)
    # first coordinate re-codes the base digits
    for i in range(0, 300, 17):
        cp = code_point(ifs, tuple(int(d) for d in s[i]))
        assert cp.center[0] == pairs.centers[i, 0]
        # and the partner digits satisfy the pattern relative to the base
        row_t = SymbolSequence(2, tuple(int(d) for d in t[i]))
        row_s = SymbolSequence(2, tuple(int(d) for d in s[i]))
        extract_filler(row_t, row_s, gaps)


def test_batch_coding_matches_scalar_in_two_dimensions():
    ifs = planar_ifs()
    sample = sample_attractor(ifs, 2000, 12, seed=29)
    digits = attractor_digits(ifs, 2000, 12, seed=29)
    assert np.array_equal(_code_batch(ifs, digits), sample.centers)
    for i in range(len(sample)):
        direct = code_point(ifs, digits[i])
        assert np.array_equal(direct.center, sample.centers[i])


@st.composite
def random_ifs(draw, m_range):
    """An IFS on [0, 1]^w with unequal ratios and mixed +/-1 flips."""
    m = draw(st.integers(*m_range))
    w = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = []
    for _ in range(m):
        r = float(rng.uniform(0.01, 0.9))
        flips = rng.choice([-1, 1], size=w)
        low = rng.uniform(0.0, 1.0 - r, size=w)  # the image of [0, 1] is [low, low + r]
        maps.append(Similitude(r, np.where(flips == 1, low, low + r), flips=flips))
    return IfsSystem(tuple(maps), ((0.0, 1.0),) * w, separation_required=False)


# m >= 128 draws int16 digits
@pytest.mark.parametrize("m_range", [(1, 5), (128, 130)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_batch_coding_matches_code_point(m_range, data):
    ifs = data.draw(random_ifs(m_range))
    depth = data.draw(st.integers(1, 60))
    n = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    digits = rng.integers(1, ifs.m + 1, size=(n, depth)).astype(digit_dtype(ifs.m))
    centers = _code_batch(ifs, digits)
    assert centers.shape == (n, ifs.w)
    for i in range(n):
        assert np.all(centers[i] == code_point(ifs, digits[i]).center)


def composed_reference(ifs, digits):
    """Center and radius of a prefix through ``Similitude.apply`` and the
    product of the maps' ratios, both last digit first."""
    x, scale = ifs.center.copy(), 1.0
    for d in reversed(digits):
        s = ifs.maps[d - 1]
        x = s.apply(x)
        scale *= s.ratio
    return x, scale * ifs.diam / 2.0


@pytest.mark.parametrize("m_range", [(1, 5), (128, 130)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_code_point_matches_composed_similitudes(m_range, data):
    ifs = data.draw(random_ifs(m_range))
    depth = data.draw(st.integers(1, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for digits in rng.integers(1, ifs.m + 1, size=(3, depth)).tolist():
        center, radius = composed_reference(ifs, digits)
        cp = code_point(ifs, digits)
        assert np.all(cp.center == center)
        assert np.array_equal(np.signbit(cp.center), np.signbit(center))
        assert cp.radius == radius


# SHA-256 of the (center, radius) bytes of ``code_point`` over the 500
# depth-40 middle-thirds prefixes that the benchmark's certificate audit codes.
CODE_POINT_AUDIT_SHA256 = "5102fb381d501a82eed57fd66c5aa653b9fcd76e90183b7eb79d80f233fbd7cb"


def test_code_point_audit_golden_digest():
    ifs = cantor_ifs()
    prefixes = np.random.default_rng(20180712).integers(1, 3, (500, 40)).tolist()
    coded = [code_point(ifs, tuple(p)) for p in prefixes]
    data = np.array([[c.center[0], c.radius] for c in coded])
    assert hashlib.sha256(data.tobytes()).hexdigest() == CODE_POINT_AUDIT_SHA256


# SHA-256 of the ``_code_batch`` centers' bytes over a fixed 70,000 x 40
# attractor draw: the coding kernel's rounding, pinned bit for bit.
CODE_BATCH_SHA256 = {
    "middle-thirds": "37183815a2940820ea660b4123b5cd0dadd32ed1bf54d70c98eb3d9f8857aabd",
    "golden": "dcd37c9f3d7df731aa472f183ee7d4890ee69ce20c1a981beee5b1ec2bdc1add",
    "planar": "169b7d7b92512c3ca0fda24f167e85273588621474caeb482eec4e36f8269df2",
}


@pytest.mark.parametrize("name", list(CODE_BATCH_SHA256))
def test_batch_coding_golden_digest(name):
    ifs = {"middle-thirds": cantor_ifs, "golden": golden_ifs, "planar": planar_ifs}[name]()
    centers = _code_batch(ifs, attractor_digits(ifs, 70000, 40, seed=2024))
    assert centers.shape == (70000, ifs.w) and centers.flags.c_contiguous
    assert hashlib.sha256(centers.tobytes()).hexdigest() == CODE_BATCH_SHA256[name]


def test_batch_coding_digit_below_one_codes_to_nan():
    digits = np.array([[1, 2, 1], [2, 0, 1], [-1, 1, 1], [1, 1, -2]], dtype=np.int8)
    # planar gathers its unequal ratios; middle-thirds multiplies by 1/3
    for ifs in (planar_ifs(), cantor_ifs()):
        centers = _code_batch(ifs, digits)
        assert np.array_equal(centers[0], code_point(ifs, (1, 2, 1)).center)
        assert np.isnan(centers[1:]).all()
        with pytest.raises(ValidationError):
            box_count(centers, GridLadder(10, 1, 2))


@st.composite
def overhanging_ifs(draw):
    """An IFS on a random box whose maps' images may overhang it by up to
    the slack it accepts, with random ratios and flips."""
    w = draw(st.integers(1, 2))
    box = [sorted(draw(st.lists(st.floats(-3, 3), min_size=2, max_size=2, unique=True)))
           for _ in range(w)]
    slack = 1e-9 * max(hi - lo for lo, hi in box)
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        ratio = draw(st.floats(0.01, 0.95))
        flips = draw(st.lists(st.sampled_from([-1, 1]), min_size=w, max_size=w))
        t = []
        for (lo, hi), f in zip(box, flips):
            # the image's lower end, within 0.99 slack of [lo, hi - ratio (hi - lo)]
            low = draw(st.sampled_from([lo - 0.99 * slack, hi - ratio * (hi - lo) + 0.99 * slack,
                                        lo + draw(st.floats(0, 1)) * (1 - ratio) * (hi - lo)]))
            t.append(low - ratio * (lo if f == 1 else -hi))
        maps.append(Similitude(ratio, t, flips))
    return IfsSystem(tuple(maps), tuple(map(tuple, box)), separation_required=False)


@given(ifs=overhanging_ifs(), data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_coded_centers_lie_in_the_coded_box(ifs, data):
    # prefixes of long runs of one digit reach the fixed points, which may
    # lie outside K by up to slack / (1 - ratio)
    runs = data.draw(st.lists(st.tuples(st.integers(1, ifs.m), st.integers(1, 40)),
                              min_size=1, max_size=4))
    prefix = [d for d, n in runs for _ in range(n)]
    fixed = np.repeat(np.arange(1, ifs.m + 1, dtype=np.int8), 60).reshape(ifs.m, 60)
    rows = np.vstack([_code_batch(ifs, fixed), _code_batch(ifs, np.array([prefix], np.int8)),
                      code_point(ifs, prefix).center])
    box = ifs.coded_box
    assert np.all((box[:, 0] <= rows) & (rows <= box[:, 1]))
    assert np.all(box[:, 0] <= ifs.box_arr[:, 0]) and np.all(ifs.box_arr[:, 1] <= box[:, 1])


def test_coded_box_holds_a_fixed_point_outside_k():
    ifs = IfsSystem((Similitude(0.5, [-4e-10]), Similitude(0.001, [0.999])), ((0.0, 1.0),))
    x = code_point(ifs, [1] * 80).center[0]
    assert ifs.coded_box[0, 0] <= x < 0
    # the slack 1e-9 over 1 - 0.5, plus under 2e-15 for rounding
    assert np.allclose(ifs.coded_box, [[-2e-9, 1 + 2e-9]], rtol=0, atol=2e-15)


def test_axis_ratios_mark_equal_signed_ratios():
    assert cantor_ifs().axis_ratios == (1 / 3,)
    assert planar_ifs().axis_ratios == (None, None)
    assert tent_repeller_ifs().axis_ratios == (None,)   # 1/4 and -1/4
    same = IfsSystem(
        (Similitude(0.25, [0.0, 0.0]), Similitude(0.25, [1.0, 0.75], flips=[-1, 1])),
        ((0.0, 1.0), (0.0, 1.0)),
    )
    assert same.axis_ratios == (None, 0.25)


def test_batch_coding_rejects_digit_above_m():
    with pytest.raises(InvalidDigit):
        _code_batch(cantor_ifs(), np.array([[1, 3, 2]], dtype=np.int8))


def test_sampler_rejects_bad_arguments():
    ifs = cantor_ifs()
    with pytest.raises(ValidationError):
        sample_attractor(ifs, 0, 5, seed=1)
    with pytest.raises(ValidationError):
        sample_attractor(ifs, 5, 0, seed=1)
    with pytest.raises(ValidationError):
        sample_attractor(ifs, 5, 5, seed=-2)


# --------------------------------------------------------------------------
# serialization


def test_ifs_json_round_trip(tmp_path):
    """An IFS file gives back the box and the coding table byte for byte,
    every flip and translation: the golden IFS and each coding IFS of the
    four systems at the benchmark's parameters, whose fold maps carry a -1
    flip.  A file holds no ``separation_required``, so the touching 1/2
    fold of the baker and the solenoid is rebuilt from the file's maps, and
    every other IFS is read back with ``load_ifs``."""
    import json

    third = 1 / 3
    specs = (SystemSpec("tent", a=2.0), SystemSpec("baker", beta1=third, beta2=third),
             SystemSpec("horseshoe", beta=third, tau=3.0),
             SystemSpec("solenoid", beta1=third, beta2=third))
    systems = [golden_ifs(), *(ifs for spec in specs for ifs in derive_ifs(spec))]
    assert sum(-1 in s.flips for ifs in systems for s in ifs.maps) == 5
    path = tmp_path / "ifs.json"
    for ifs in systems:
        path.write_text(json.dumps(ifs.to_json()))
        if ifs.separation_required:
            again = load_ifs(path)
        else:
            data = json.loads(path.read_text())
            maps = [Similitude(m["ratio"], m["t"], m["orth"]) for m in data["maps"]]
            again = IfsSystem(maps, data["K"], separation_required=False)
        assert again.box == ifs.box
        assert again.coding.tobytes() == ifs.coding.tobytes()


def test_ifs_json_matches_documented_shape():
    data = {
        "w": 1,
        "K": [[0, 1]],
        "maps": [
            {"ratio": 1 / 3, "orth": [1], "t": [0]},
            {"ratio": 1 / 3, "orth": [1], "t": [2 / 3]},
        ],
    }
    ifs = IfsSystem.from_json(data)
    assert ifs.gap == pytest.approx(1 / 3)
