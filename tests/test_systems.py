"""Tests for the four example systems, their codings, and the conjugacy check."""

import math
import tracemalloc

import numpy as np
import pytest

from lypairs.errors import (
    InsufficientPrefix,
    ParameterOutOfRange,
    UndefinedRegion,
    ValidationError,
)
from lypairs.fractal import (
    _CHUNK,
    _chunk_rng,
    _code_batch,
    bernoulli_weights,
    code_point,
    moran_dimension,
    sample_attractor,
)
from lypairs.symbolic import TWO_SIDED, SymbolSequence, shift
from lypairs.systems import (
    SystemSpec,
    _orbit_windows,
    _row_norms,
    _sequence_orbit,
    apply_map,
    code_orbit_point,
    coded_radius,
    conjugacy_defect,
    derive_ifs,
    sample_invariant_set,
)

TENT2 = SystemSpec("tent", a=2.0)
BAKER3 = SystemSpec("baker", beta1=1 / 3, beta2=1 / 3)
HORSE3 = SystemSpec("horseshoe", beta=1 / 3, tau=3.0)
SOLENOID3 = SystemSpec("solenoid", beta1=1 / 3, beta2=1 / 3)
ALL_SYSTEMS = (TENT2, BAKER3, HORSE3, SOLENOID3)
# the four systems plus unequal contraction ratios; at (0.05, 0.9) the
# contracting radius can outweigh the expanding one, so its product order shows
CODED_SYSTEMS = ALL_SYSTEMS + (
    SystemSpec("baker", beta1=0.2, beta2=0.45),
    SystemSpec("solenoid", beta1=0.2, beta2=0.45),
    SystemSpec("baker", beta1=0.05, beta2=0.9),
)


def spec_id(spec: SystemSpec) -> str:
    return "-".join(str(v) for v in spec.to_json().values())


def reference_map(spec: SystemSpec, point) -> list[float]:
    """The branch formulas on one in-domain point, in Python floats."""
    if spec.kind == "tent":
        (x,) = point
        return [spec.a - 2.0 * spec.a * abs(x - 0.5)]
    *xs, y = point
    if spec.kind == "horseshoe":
        if y <= 1.0 / spec.tau + 1e-12:
            return [spec.beta * xs[0], spec.tau * y]
        return [1.0 - spec.beta * xs[0], spec.tau - spec.tau * y]
    if y <= 0.5:
        return [spec.beta1 * x for x in xs] + [2.0 * y]
    return [1.0 - spec.beta2 + spec.beta2 * x for x in xs] + [2.0 - 2.0 * y]


def reference_orbit_point(spec: SystemSpec, seq: SymbolSequence, n: int, depth: int):
    """Center and radius of ``code_point`` on the windows of shift(seq, n)."""
    derived = derive_ifs(spec)
    shifted = shift(seq, n)
    future = code_point(derived[-1], shifted.digits[:depth])
    if spec.side != TWO_SIDED:
        return future.center, future.radius
    past = code_point(derived[0], shifted.past[:depth])
    return np.concatenate([past.center, future.center]), math.hypot(past.radius, future.radius)


# --------------------------------------------------------------------------
# parameter validation


def test_parameter_ranges():
    with pytest.raises(ParameterOutOfRange):
        SystemSpec("tent", a=1.0)
    with pytest.raises(ParameterOutOfRange):
        SystemSpec("baker", beta1=0.6, beta2=0.5)
    with pytest.raises(ParameterOutOfRange):
        SystemSpec("horseshoe", beta=0.5, tau=3.0)
    with pytest.raises(ParameterOutOfRange):
        SystemSpec("horseshoe", beta=0.3, tau=2.0)
    with pytest.raises(ParameterOutOfRange):
        SystemSpec("henon")


def test_tent_rejects_an_a_whose_2a_overflows():
    for a in (1e308, 2.0**1023, math.inf):
        with pytest.raises(ParameterOutOfRange, match=r"finite 2a, got a = "):
            SystemSpec("tent", a=a)
    # the largest a whose 2a is finite codes with a positive ratio
    (ifs,) = derive_ifs(SystemSpec("tent", a=np.nextafter(2.0**1023, 0.0)))
    assert 0.0 < ifs.ratios[0] < 1.0


def test_spec_json_round_trip():
    for spec in ALL_SYSTEMS:
        assert SystemSpec.from_json(spec.to_json()) == spec
    assert SystemSpec.from_json({"kind": "tent", "a": 2.0}) == TENT2


@pytest.mark.parametrize("data", [
    {"kind": "tent", "a": 2, "beta": 0.3},
    {"kind": "baker", "beta1": 0.3, "beta2": 0.3, "tau": 3},
    {"kind": "horseshoe", "beta": 0.3, "tau": 3, "a": 2},
    {"kind": "solenoid", "beta1": 0.3, "beta2": 0.3, "beta": 0.3},
])
def test_spec_rejects_parameters_of_another_kind(data):
    with pytest.raises(ParameterOutOfRange, match="takes only"):
        SystemSpec(**data)
    with pytest.raises(ParameterOutOfRange, match="takes only"):
        SystemSpec.from_json(data)


def test_spec_reader_needs_a_kind():
    with pytest.raises(ValidationError, match="^a system spec needs a kind$"):
        SystemSpec.from_json({"a": 2})


def test_spec_parameters_are_real_numbers():
    with pytest.raises(ValidationError, match="real numbers"):
        SystemSpec.from_json({"kind": "tent", "a": "3"})
    with pytest.raises(ValidationError, match="real numbers"):
        SystemSpec("horseshoe", beta=0.3, tau=True)
    assert SystemSpec.from_json({"kind": "tent", "a": 2}).to_json() == {"kind": "tent", "a": 2.0}


# --------------------------------------------------------------------------
# apply_map


def test_tent_values():
    assert apply_map(TENT2, [0.5])[0] == pytest.approx(2.0)
    assert apply_map(TENT2, [0.0])[0] == pytest.approx(0.0)
    # 4/5 is the fixed point of the decreasing branch
    assert apply_map(TENT2, [0.8])[0] == pytest.approx(0.8, abs=1e-15)


def test_baker_fixed_point_and_upper_branch():
    out = apply_map(BAKER3, [0.0, 0.0])
    assert np.allclose(out, [0.0, 0.0])
    out = apply_map(BAKER3, [0.5, 0.75])
    assert out[0] == pytest.approx(1 - 1 / 3 + 0.5 / 3)
    assert out[1] == pytest.approx(0.5)


def test_baker_branch_boundary_goes_down():
    # y = 1/2 belongs to the first branch
    out = apply_map(BAKER3, [0.3, 0.5])
    assert out[1] == pytest.approx(1.0)
    assert out[0] == pytest.approx(0.1)


def test_horseshoe_strips():
    out = apply_map(HORSE3, [0.3, 0.2])
    assert np.allclose(out, [0.1, 0.6])
    out = apply_map(HORSE3, [0.3, 0.8])
    assert np.allclose(out, [0.9, 0.6])
    # top strip boundary is included
    out = apply_map(HORSE3, [0.0, 2 / 3])
    assert out[1] == pytest.approx(1.0)
    with pytest.raises(UndefinedRegion):
        apply_map(HORSE3, [0.3, 0.5])


def test_solenoid_branches():
    assert np.allclose(apply_map(SOLENOID3, [0, 0, 0]), [0, 0, 0])
    out = apply_map(SOLENOID3, [0.5, 0.5, 0.75])
    assert np.allclose(out, [1 - 1 / 3 + 0.5 / 3, 1 - 1 / 3 + 0.5 / 3, 0.5])


def test_domain_validation():
    with pytest.raises(ParameterOutOfRange):
        apply_map(BAKER3, [1.5, 0.5])


def test_tent_domain_validation():
    for x in (2.0, -0.5):
        with pytest.raises(ParameterOutOfRange):
            apply_map(TENT2, [x])
    assert apply_map(TENT2, [0.0])[0] == 0.0
    assert apply_map(TENT2, [1.0])[0] == 0.0


def domain_rows(spec: SystemSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Random points of the domain box plus the branch boundaries."""
    rows = rng.random((n, spec.w))
    edges = [0.0, 1.0, -1e-9, 1.0 + 1e-9]
    if spec.kind == "horseshoe":  # keep y out of the open middle strip
        u = rows[:, 1] / spec.tau
        rows[:, 1] = np.where(rng.random(n) < 0.5, u, 1.0 - u)
        edges += [1.0 / spec.tau, 1.0 / spec.tau + 1e-12, 1.0 - 1.0 / spec.tau,
                  1.0 - 1.0 / spec.tau - 1e-12]
    else:
        edges += [0.5, np.nextafter(0.5, 1.0)]
    boundary = np.full((len(edges), spec.w), 0.3)
    boundary[:, -1] = edges
    return np.vstack([rows, boundary, boundary[:, ::-1]])


@pytest.mark.parametrize("spec", CODED_SYSTEMS, ids=spec_id)
def test_apply_map_rows_match_single_points(spec):
    rows = domain_rows(spec, np.random.default_rng(3), 2000)
    out = apply_map(spec, rows)
    assert out.shape == rows.shape
    assert np.array_equal(out, np.array([apply_map(spec, r) for r in rows]))
    assert np.array_equal(out, np.array([reference_map(spec, r) for r in rows.tolist()]))


def test_apply_map_names_the_bad_row():
    with pytest.raises(
        ParameterOutOfRange, match=r"^row 2: point \[1\.5, 0\.5\] outside the baker domain box$"
    ):
        apply_map(BAKER3, [[0.2, 0.3], [0.4, 0.9], [1.5, 0.5]])
    with pytest.raises(UndefinedRegion, match=r"^row 1: y = 0\.5 lies in the middle strip"):
        apply_map(HORSE3, [[0.3, 0.2], [0.3, 0.5], [0.3, 0.9]])
    # a single point keeps the unnumbered messages
    with pytest.raises(ParameterOutOfRange) as info:
        apply_map(TENT2, [2.0])
    assert str(info.value) == "point [2.0] outside the tent domain box"
    with pytest.raises(UndefinedRegion, match=r"^y = 0\.5 lies in the middle strip"):
        apply_map(HORSE3, [0.3, 0.5])
    for bad in ([0.1, 0.2, 0.3], [[[0.1, 0.2]]], 0.5):
        with pytest.raises(ValidationError, match="baker map expects a point of R\\^2"):
            apply_map(BAKER3, bad)


@pytest.mark.parametrize("spec", ALL_SYSTEMS, ids=spec_id)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_apply_map_rejects_non_finite(spec, bad):
    point = [0.25] * spec.w
    point[-1] = bad
    with pytest.raises(ParameterOutOfRange, match="^point "):
        apply_map(spec, point)
    rows = np.full((3, spec.w), 0.25)
    rows[1, 0] = bad
    with pytest.raises(ParameterOutOfRange, match="^row 1: point "):
        apply_map(spec, rows)


# --------------------------------------------------------------------------
# derived codings


def test_tent_derived_ifs_and_dimension():
    derived = derive_ifs(TENT2)
    assert len(derived) == 1
    assert derived[-1].ratios == (0.25, 0.25)
    assert moran_dimension(derived[-1].ratios).dimension == pytest.approx(0.5)
    assert derived[-1].gap == pytest.approx(0.5)


def test_baker_derived_ifs():
    derived = derive_ifs(BAKER3)
    con = derived[0]
    assert con.ratios == (1 / 3, 1 / 3)
    d = moran_dimension(con.ratios).dimension
    assert d == pytest.approx(math.log(2) / math.log(3), abs=1e-10)
    assert con.gap == pytest.approx(1 / 3)
    # the expanding halves legitimately touch: whole-interval coding
    assert derived[-1].gap == 0.0


def test_horseshoe_product_dimension():
    derived = derive_ifs(HORSE3)
    dx = moran_dimension(derived[0].ratios).dimension
    dy = moran_dimension(derived[-1].ratios).dimension
    expected = math.log(2) / math.log(3)
    assert dx == pytest.approx(expected, abs=1e-10)
    assert dy == pytest.approx(expected, abs=1e-10)
    assert dx + dy == pytest.approx(2 * 0.6309297535714574, abs=1e-9)


def test_solenoid_derived_shapes():
    derived = derive_ifs(SOLENOID3)
    assert derived[0].w == 2
    assert derived[-1].w == 1
    assert derived[0].gap == pytest.approx(math.sqrt(2) / 3)


def test_tent_branches_are_right_inverses():
    derived = derive_ifs(TENT2)
    for x in np.linspace(0.0, 1.0, 41):
        for s in derived[-1].maps:
            y = s.apply(np.array([x]))
            assert apply_map(TENT2, y)[0] == pytest.approx(x, abs=1e-12)


def test_fold_inverse_branches_close_under_the_map():
    derived = derive_ifs(BAKER3)
    for yv in np.linspace(0.0, 1.0, 41):
        for g in derived[-1].maps:
            y = float(g.apply(np.array([yv]))[0])
            image = apply_map(BAKER3, [0.2, y])[1]
            assert image == pytest.approx(yv, abs=1e-12)


# --------------------------------------------------------------------------
# orbit coding


def test_code_orbit_tent_fixed_points():
    all_ones = SymbolSequence(2, (1,) * 60)
    all_twos = SymbolSequence(2, (2,) * 60)
    for n in (0, 3, 10):
        p = code_orbit_point(TENT2, all_ones, n, 30)
        assert abs(p.center[0]) <= p.radius * 2 + 1e-12
        q = code_orbit_point(TENT2, all_twos, n, 30)
        assert q.center[0] == pytest.approx(0.8, abs=1e-9)


def test_code_orbit_n_zero_matches_code_point():
    seq = SymbolSequence(2, (1, 2, 2, 1, 2) * 8)
    p = code_orbit_point(TENT2, seq, 0, 20)
    q = code_point(derive_ifs(TENT2)[-1], seq.digits[:20])
    assert p.center[0] == q.center[0]
    assert p.radius == q.radius


def test_code_orbit_two_sided_fixed_point():
    seq = SymbolSequence(2, (1,) * 30, side=TWO_SIDED, past=(1,) * 30)
    p = code_orbit_point(BAKER3, seq, 2, 25)
    # the all-ones coding converges to the fixed point (0, 0) at radius rate
    assert np.linalg.norm(p.center) <= 2 * p.radius + 1e-12
    out = apply_map(BAKER3, p.center)
    assert np.linalg.norm(out - p.center) <= 4 * p.radius + 1e-12


def test_code_orbit_prefix_errors():
    seq = SymbolSequence(2, (1,) * 10)
    with pytest.raises(InsufficientPrefix):
        code_orbit_point(TENT2, seq, 5, 10)
    two = SymbolSequence(2, (1,) * 30, side=TWO_SIDED, past=(1,) * 3)
    with pytest.raises(InsufficientPrefix):
        code_orbit_point(BAKER3, two, 0, 10)
    with pytest.raises(ValidationError):
        code_orbit_point(BAKER3, SymbolSequence(2, (1,) * 30), 0, 10)


@pytest.mark.parametrize("spec", CODED_SYSTEMS, ids=spec_id)
def test_orbit_coder_matches_shift_and_code_point(spec):
    depth = 40
    rng = np.random.default_rng(17)
    past_len = depth if spec.side == TWO_SIDED else 0
    rows = rng.integers(1, 3, (10, past_len + 95))
    rows[5:] = np.where(rng.random((5, past_len + 95)) < 0.9, 2, 1)  # mostly digit 2
    seqs = [SymbolSequence(2, r[past_len:], spec.side, r[:past_len]) for r in rows.tolist()]
    times = (0, 1, 2, 39, 40, 41, 55)
    centers, radii = _sequence_orbit(spec, tuple(seqs), times, depth)
    assert centers.shape == (len(times), len(seqs), spec.w)
    for i, n in enumerate(times):
        for j, seq in enumerate(seqs):
            center, radius = reference_orbit_point(spec, seq, n, depth)
            assert np.array_equal(centers[i, j], center)
            assert radii[i][j] == radius
            point = code_orbit_point(spec, seq, n, depth)
            assert np.array_equal(point.center, center)
            assert point.radius == radius


@pytest.mark.parametrize("w", (1, 2, 3))
def test_row_norms_match_per_vector_norm(w):
    d = np.random.default_rng(w).normal(size=(5000, w))
    assert np.array_equal(_row_norms(d), [np.linalg.norm(v) for v in d])


@pytest.mark.parametrize("spec", (TENT2, SystemSpec("baker", beta1=0.2, beta2=0.45)), ids=spec_id)
def test_code_orbit_point_window_checks(spec):
    # 6 past digits (two-sided) and 60 future digits, depth 10
    past = (1, 2, 2, 1, 1, 2) if spec.side == TWO_SIDED else ()
    seq = SymbolSequence(2, (2, 1, 1) * 20, spec.side, past)
    with pytest.raises(ValidationError, match="^shift amount must be non-negative$"):
        code_orbit_point(spec, seq, -1, 10)
    for n in (4, 50) if spec.side == TWO_SIDED else (0, 50):
        center, radius = reference_orbit_point(spec, seq, n, 10)
        point = code_orbit_point(spec, seq, n, 10)
        assert np.array_equal(point.center, center)
        assert point.radius == radius
    with pytest.raises(InsufficientPrefix, match="^orbit point at time 51 needs 61 future digits$"):
        code_orbit_point(spec, seq, 51, 10)
    if spec.side == TWO_SIDED:
        with pytest.raises(
            InsufficientPrefix, match="^orbit point at time 3 needs 10 past digits after shifting$"
        ):
            code_orbit_point(spec, seq, 3, 10)


def batch_sequences(spec: SystemSpec, rng: np.random.Generator) -> list[SymbolSequence]:
    """Three sequences with 95, 200 and 130 future digits and, if
    two-sided, 10, 55 and 40 past digits."""
    seqs = []
    for future, past in ((95, 10), (200, 55), (130, 40)):
        past = past if spec.side == TWO_SIDED else 0
        seqs.append(SymbolSequence(
            2, rng.integers(1, 3, future), spec.side, rng.integers(1, 3, past)
        ))
    return seqs


@pytest.mark.parametrize("spec", CODED_SYSTEMS, ids=spec_id)
def test_sequence_orbit_batch_matches_single_sequences(spec):
    # times unsorted; 30 is the first time the 10-digit past supports
    depth, times = 40, (41, 30, 55, 39, 40, 31)
    seqs = batch_sequences(spec, np.random.default_rng(23))
    centers, radii = _sequence_orbit(spec, tuple(seqs), times, depth)
    assert centers.shape == (len(times), len(seqs), spec.w)
    for j, seq in enumerate(seqs):
        one_centers, one_radii = _sequence_orbit(spec, (seq,), times, depth)
        assert np.array_equal(centers[:, j], one_centers[:, 0])
        assert [r[j] for r in radii] == [r[0] for r in one_radii]
        for i, n in enumerate(times):
            center, radius = reference_orbit_point(spec, seq, n, depth)
            assert np.array_equal(centers[i, j], center)
            assert radii[i][j] == radius


@pytest.mark.parametrize("spec", (TENT2, HORSE3), ids=spec_id)
def test_sequence_orbit_batch_checks_every_sequence(spec):
    # 95 future and 10 past digits against 200 and 55
    short, long, _ = batch_sequences(spec, np.random.default_rng(29))
    _sequence_orbit(spec, (long,), (0, 60), 40)
    for pair in ((long, short), (short, long)):
        with pytest.raises(InsufficientPrefix, match="needs 100 future digits"):
            _sequence_orbit(spec, pair, (30, 60), 40)
        if spec.side == TWO_SIDED:
            with pytest.raises(InsufficientPrefix, match="past digits after shifting"):
                _sequence_orbit(spec, pair, (0, 5), 40)


# --------------------------------------------------------------------------
# conjugacy


def test_conjugacy_defect_within_bound_all_systems():
    for spec in ALL_SYSTEMS:
        depth = 40 if spec.kind == "tent" else 30
        defect = conjugacy_defect(spec, trials=100, prefix_len=depth + 1, depth=depth, seed=1)
        bound = (1 + spec.lipschitz) * coded_radius(spec, depth) + 1e-10
        assert defect <= bound, (spec.kind, defect, bound)


# coded_radius in closed form: each coordinate block's largest ratio^depth
# times its box diameter over 2, the blocks joined by hypot, past first
CODED_RADIUS_FORMS = {
    TENT2: lambda d: 0.25**d / 2,
    SystemSpec("baker", beta1=1 / 3, beta2=0.25): lambda d: math.hypot(
        (1 / 3) ** d * 1.0 / 2, 0.5**d * 1.0 / 2
    ),
    HORSE3: lambda d: math.hypot((1 / 3) ** d * 1.0 / 2, (1 / 3) ** d * 1.0 / 2),
    SystemSpec("solenoid", beta1=1 / 3, beta2=0.25): lambda d: math.hypot(
        (1 / 3) ** d * math.sqrt(2) / 2, 0.5**d * 1.0 / 2
    ),
}


@pytest.mark.parametrize("spec", list(CODED_RADIUS_FORMS), ids=spec_id)
def test_coded_radius_matches_its_closed_form(spec):
    for depth in (1, 18, 40):
        want = CODED_RADIUS_FORMS[spec](depth)
        assert coded_radius(spec, depth).hex() == want.hex(), depth


def test_conjugacy_defect_fixed_point_sequences():
    seq = SymbolSequence(2, (2,) * 41)
    p0 = code_orbit_point(TENT2, seq, 0, 40)
    p1 = code_orbit_point(TENT2, seq, 1, 40)
    defect = abs(apply_map(TENT2, p0.center)[0] - p1.center[0])
    assert defect <= 1e-12


def test_baker_defect_magnitude():
    defect = conjugacy_defect(BAKER3, trials=200, prefix_len=31, depth=30, seed=3)
    assert defect < 1e-9


def test_conjugacy_defect_pinned_across_sub_seeds():
    # 600 trials draw from three 256-trial sub-seeds (spawn keys 0, 1, 2)
    defect = conjugacy_defect(TENT2, trials=600, prefix_len=21, depth=20, seed=9)
    assert defect == 1.3642420526593924e-12


# conjugacy_defect at 256 trials, prefix length 41, depth 40, by seed
CONJUGACY_HEX = {
    TENT2: {1: "0x1.0000000000000p-52", 8: "0x1.0000000000000p-52"},
    BAKER3: {1: "0x1.0000000000008p-41", 8: "0x1.0000000020000p-41"},
    HORSE3: {1: "0x1.0000000000000p-51", 8: "0x1.0000000000000p-51"},
    SOLENOID3: {1: "0x1.0000000000010p-41", 8: "0x1.0000000040000p-41"},
    SystemSpec("baker", beta1=0.2, beta2=0.45): {
        1: "0x1.0000000000000p-41", 8: "0x1.0000000000002p-41"
    },
    SystemSpec("solenoid", beta1=0.2, beta2=0.45): {
        1: "0x1.0000000000000p-41", 8: "0x1.0000000000004p-41"
    },
    SystemSpec("tent", a=1.7): {3: "0x1.4000000000000p-52", 4: "0x1.2000000000000p-52"},
}


@pytest.mark.parametrize("spec", list(CONJUGACY_HEX), ids=spec_id)
def test_conjugacy_defect_pinned(spec):
    for seed, want in CONJUGACY_HEX[spec].items():
        assert conjugacy_defect(spec, 256, 41, 40, seed).hex() == want


def test_code_batch_without_scratch_allocates_only_its_coding_columns():
    # a 512 x 40 window of the tent's orbit coding, as one conjugacy_defect
    # chunk codes it: beside its output, the coder's three coding columns
    rows = _chunk_rng(3, 0).integers(1, 3, (512, 41))
    ((ifs, digits),) = _orbit_windows(TENT2, rows[:, :0], rows, (0,), 40)
    assert digits.shape == (512, 40)
    _code_batch(ifs, digits)  # builds the IFS's cached center outside the count
    tracemalloc.start()
    try:
        out = _code_batch(ifs, digits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = 512 * (np.dtype(np.intp).itemsize + 2 * 8)  # a digit column, two floats
    assert peak <= out.nbytes + columns + 8 * 1024


def reference_defect(spec, trials, prefix_len, depth, seed):
    """Trial by trial: each trial's own draws, shift, code_point, Python-float map."""
    worst = 0.0
    for chunk, first in enumerate(range(0, trials, 256)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk,))))
        for _ in range(min(256, trials - first)):
            past = tuple(rng.integers(1, 3, depth)) if spec.side == TWO_SIDED else ()
            seq = SymbolSequence(2, tuple(rng.integers(1, 3, prefix_len)), spec.side, past)
            p0, _ = reference_orbit_point(spec, seq, 0, depth)
            p1, _ = reference_orbit_point(spec, seq, 1, depth)
            image = np.array(reference_map(spec, p0.tolist()))
            worst = max(worst, float(np.linalg.norm(image - p1)))
    return worst


@pytest.mark.parametrize("spec", CODED_SYSTEMS + (SystemSpec("tent", a=1.7),), ids=spec_id)
def test_conjugacy_defect_matches_per_trial_reference(spec):
    # 300 trials: one full 256-trial sub-seed and a partial one
    assert conjugacy_defect(spec, 300, 21, 20, 5) == reference_defect(spec, 300, 21, 20, 5)


def test_orbit_invariance_on_samples():
    derived = derive_ifs(TENT2)
    ifs = derived[-1]
    sample = sample_attractor(ifs, 50, 20, seed=21)
    # the sample keeps only centers: draw its digits again from chunk 0
    cum = np.cumsum(bernoulli_weights(ifs.ratios))
    digits = np.searchsorted(cum, _chunk_rng(21, 0, 0).random((50, 20)), side="right") + 1
    assert np.array_equal(_code_batch(ifs, digits), sample.centers)
    for i in range(len(sample)):
        image = apply_map(TENT2, sample.centers[i])
        parent = code_point(ifs, digits[i, 1:])
        tol = TENT2.lipschitz * code_point(ifs, digits[i]).radius + parent.radius + 1e-12
        assert abs(image[0] - parent.center[0]) <= tol


# --------------------------------------------------------------------------
# invariant-set sampling


def test_sample_invariant_set_thread_invariant():
    # 70,000 rows: two full chunks and a partial third.  The baker's
    # contracting coordinate draws from stream 0, its expanding one from 1.
    clouds = [sample_invariant_set(BAKER3, 70000, 30, seed=4, threads=t) for t in (1, 2, 4)]
    assert clouds[0].centers.shape == (70000, 2)
    assert np.array_equal(clouds[0].centers, clouds[1].centers)
    assert np.array_equal(clouds[0].centers, clouds[2].centers)
    derived = derive_ifs(BAKER3)
    con = sample_attractor(derived[0], 70000, 30, seed=4)
    # the expanding block's digits, drawn again from stream 1 of each chunk
    cum = np.cumsum(bernoulli_weights(derived[-1].ratios))
    digits = np.vstack([
        np.searchsorted(cum, _chunk_rng(4, 1, i).random((min(_CHUNK, 70000 - start), 30)),
                        side="right") + 1
        for i, start in enumerate(range(0, 70000, _CHUNK))
    ])
    exp = _code_batch(derived[-1], digits)
    assert np.array_equal(clouds[0].centers, np.hstack([con.centers, exp]))


def test_sample_invariant_set_holds_only_its_result():
    # each coordinate block is written into its own columns of the result,
    # so beside it only the sampling workers' chunk buffers are held
    tracemalloc.start()
    try:
        cloud = sample_invariant_set(BAKER3, 1_000_000, 30, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cloud.centers.nbytes + 4 * 2**20


def test_sample_invariant_set_stays_in_box():
    for spec in ALL_SYSTEMS:
        cloud = sample_invariant_set(spec, 2000, 15, seed=2)
        assert cloud.centers.shape == (2000, spec.w)
        assert np.all(cloud.centers >= -1e-12)
        assert np.all(cloud.centers <= 1 + 1e-12)


def test_horseshoe_product_marginals_match_coordinate_systems():
    n = 200000
    cloud = sample_invariant_set(HORSE3, n, 20, seed=8)
    derived = derive_ifs(HORSE3)
    x_own = sample_attractor(derived[0], n, 20, seed=99)
    for j in (2, 4, 6, 8):
        eps = 3.0**-j
        cells_prod = np.unique(np.floor(cloud.centers[:, 0] / eps).astype(np.int64))
        cells_own = np.unique(np.floor(x_own.centers[:, 0] / eps).astype(np.int64))
        assert cells_prod.size == cells_own.size == 2**j


def test_tent_invariant_sample_avoids_gap():
    cloud = sample_invariant_set(TENT2, 5000, 18, seed=4)
    inside_gap = np.sum((cloud.centers[:, 0] > 0.25 + 1e-9) & (cloud.centers[:, 0] < 0.75 - 1e-9))
    assert inside_gap == 0
