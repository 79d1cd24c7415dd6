"""Tests for shift spaces, the certified metric, and partner construction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lypairs.errors import InsufficientPrefix, InvalidDigit, NotInSubset, ValidationError
from lypairs.symbolic import (
    FLIP,
    FREE,
    MATCH,
    TWO_SIDED,
    GapSequence,
    SymbolSequence,
    apply_pattern,
    block_schedule,
    check_gap_condition,
    construct_partner,
    covered_base,
    extract_filler,
    random_sequence,
    schedule_covering,
    schedule_roles,
    sequence_dist,
    shift,
)


def brute_force_dist(s: SymbolSequence, t: SymbolSequence) -> Fraction:
    """Independent oracle: term-by-term rational sum of the metric over stored indices."""
    m = s.m
    total = Fraction(0)
    for k, (a, b) in enumerate(zip(s.digits.tolist(), t.digits.tolist()), start=1):
        total += Fraction(abs(a - b), m**k)
    for k, (a, b) in enumerate(zip(s.past.tolist(), t.past.tolist()), start=1):
        total += Fraction(abs(a - b), m**k)
    return total


# --------------------------------------------------------------------------
# shift


def test_shift_zero_is_identity():
    s = SymbolSequence(2, (1, 2, 1, 2))
    assert shift(s, 0) is s


def test_shift_drops_leading_digits():
    s = SymbolSequence(2, (1, 2, 2, 1))
    assert shift(s, 2).digits.tolist() == [2, 1]


def test_shift_two_sided_moves_future_to_past():
    s = SymbolSequence(2, (1, 2, 2), side=TWO_SIDED, past=())
    out = shift(s, 1)
    assert out.past.tolist() == [1]
    assert out.digits.tolist() == [2, 2]


def test_shift_two_sided_past_most_recent_first():
    s = SymbolSequence(3, (1, 2, 2), side=TWO_SIDED, past=(3,))
    out = shift(s, 2)
    assert out.past.tolist() == [2, 1, 3]
    assert out.digits.tolist() == [2]


def test_len_counts_future_digits_only():
    assert len(SymbolSequence(3, (1, 2, 2), side=TWO_SIDED, past=(3,))) == 3


def test_shift_insufficient_prefix():
    with pytest.raises(InsufficientPrefix):
        shift(SymbolSequence(2, (1, 2)), 3)


def test_digit_validation():
    with pytest.raises(InvalidDigit):
        SymbolSequence(2, (1, 3))
    with pytest.raises(ValidationError):
        SymbolSequence(1, (1,))


@pytest.mark.parametrize("digits, message", [
    ([1, True], "must be integers, got True"),
    ([1.7], "must be integers, got 1.7"),
    (["1"], "must be integers, got '1'"),
    (np.ones((2, 2), dtype=np.int64), "must be one-dimensional"),
])
def test_construction_rejects_non_integer_digits(digits, message):
    with pytest.raises(ValidationError, match=message):
        SymbolSequence(2, digits)
    with pytest.raises(ValidationError, match=message):
        SymbolSequence(2, (1,), side=TWO_SIDED, past=digits)


@pytest.mark.parametrize("bad", [0, 3])
def test_construction_rejects_array_digits_outside_alphabet(bad):
    digits = np.array([1, bad, 2], dtype=np.int8)
    with pytest.raises(InvalidDigit, match=f"^future digit {bad} outside alphabet 1..2$"):
        SymbolSequence(2, digits)
    with pytest.raises(InvalidDigit, match=f"^past digit {bad} outside alphabet 1..2$"):
        SymbolSequence(2, (1,), side=TWO_SIDED, past=digits)


@pytest.mark.parametrize("m, dtype", [
    (2, np.int8), (127, np.int8), (128, np.int16), (2**15 - 1, np.int16), (2**15, np.int64),
])
def test_digit_dtype_by_alphabet_size(m, dtype):
    s = SymbolSequence(m, (1, m), side=TWO_SIDED, past=np.array([m]))
    assert s.digits.dtype == dtype and s.past.dtype == dtype
    assert s.digits.tolist() == [1, m] and s.past.tolist() == [m]
    assert SymbolSequence(m, (m,)).past.dtype == dtype


def test_digits_are_read_only_and_owned():
    caller = np.array([1, 2, 2, 1], dtype=np.int8)
    s = SymbolSequence(2, caller, side=TWO_SIDED, past=caller[::-1])
    caller[:] = 2
    assert s.digits.tolist() == [1, 2, 2, 1] and s.past.tolist() == [1, 2, 2, 1]
    for seq in (s, shift(s, 1), s.truncated(2), SymbolSequence(2, (1, 2))):
        for arr in (seq.digits, seq.past):
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = 1
    # a read-only slice in the digit dtype is kept, not copied
    assert np.shares_memory(shift(s, 2).digits, s.digits)
    assert np.shares_memory(s.truncated(2).digits, s.digits)


def test_equality_and_hash_follow_digit_values():
    a = SymbolSequence(3, (1, 2, 3))
    b = SymbolSequence(3, np.array([1, 2, 3]))
    assert a == b and hash(a) == hash(b)
    assert a != SymbolSequence(3, (1, 2, 2))
    assert a != SymbolSequence(4, (1, 2, 3))
    assert a != (1, 2, 3)
    assert SymbolSequence(3, (2,), side=TWO_SIDED, past=(1,)) != SymbolSequence(
        3, (1, 2), side=TWO_SIDED, past=()
    )


# --------------------------------------------------------------------------
# certified metric


def test_dist_identical_prefixes():
    s = SymbolSequence(2, (1, 2) * 15)  # 30 stored digits
    d = sequence_dist(s, s, tail_bound=1e-8)
    assert d.lo == 0.0
    assert d.lo_exact == 0
    assert d.hi <= 9.4e-9  # tail is exactly 2**-30


def test_dist_single_differing_first_digit():
    s = SymbolSequence(2, (1,) + (1,) * 20)
    t = SymbolSequence(2, (2,) + (1,) * 20)
    d = sequence_dist(s, t, tail_bound=1e-5)
    assert d.lo == 0.5
    assert d.lo_exact == Fraction(1, 2)


def test_dist_all_differ_geometric_series():
    K = 40
    s = SymbolSequence(3, (1,) * K)
    t = SymbolSequence(3, (3,) * K)
    d = sequence_dist(s, t, tail_bound=1e-6)
    # 2 * sum_{k<=K} 3^-k = 1 - 3^-K
    assert d.lo_exact == 1 - Fraction(1, 3**K)
    assert abs(d.lo - 1.0) < 1e-15
    assert d.lo_exact == brute_force_dist(s, t)


def test_dist_two_sided_includes_past():
    s = SymbolSequence(2, (1,) * 20, side=TWO_SIDED, past=(1,) * 20)
    t = SymbolSequence(2, (1,) * 20, side=TWO_SIDED, past=(2,) + (1,) * 19)
    d = sequence_dist(s, t, tail_bound=1e-4)
    assert d.lo_exact == Fraction(1, 2)
    assert d.lo_exact == brute_force_dist(s, t)


def test_dist_tail_bound_unreachable():
    s = SymbolSequence(2, (1, 1))
    with pytest.raises(InsufficientPrefix):
        sequence_dist(s, s, tail_bound=1e-3)


def test_dist_requires_same_alphabet_and_side():
    with pytest.raises(ValidationError):
        sequence_dist(SymbolSequence(2, (1,) * 30), SymbolSequence(3, (1,) * 30), 1e-3)
    with pytest.raises(ValidationError):
        sequence_dist(
            SymbolSequence(2, (1,) * 30),
            SymbolSequence(2, (1,) * 30, side=TWO_SIDED, past=(1,) * 30),
            1e-3,
        )


@given(
    # 127, 128 and 300 sit at the int8 and int16 digit-dtype boundaries
    st.one_of(st.integers(min_value=2, max_value=5), st.sampled_from([127, 128, 300])),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_dist_matches_oracle_and_is_symmetric(m, data):
    # 20 stored digits keep the tail below the requested bound for every m
    n = data.draw(st.integers(min_value=20, max_value=40))
    digits = st.lists(st.integers(1, m), min_size=n, max_size=n)
    s = SymbolSequence(m, tuple(data.draw(digits)))
    t = SymbolSequence(m, tuple(data.draw(digits)))
    d_st = sequence_dist(s, t, tail_bound=1e-4)
    d_ts = sequence_dist(t, s, tail_bound=1e-4)
    assert d_st.lo_exact == brute_force_dist(s, t)
    assert d_st.lo == d_ts.lo and d_st.hi == d_ts.hi
    assert d_st.hi - d_st.lo <= 1e-4 * (1 + 1e-12)


def test_dist_triangle_inequality_on_exact_values():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        n = 30
        seqs = [random_sequence(m, n, rng) for _ in range(3)]
        d = lambda a, b: sequence_dist(a, b, 1e-3).lo_exact
        assert d(seqs[0], seqs[2]) <= d(seqs[0], seqs[1]) + d(seqs[1], seqs[2])


# --------------------------------------------------------------------------
# gap sequences and schedules


def test_block_schedule_quadratic_starts():
    blocks = block_schedule(GapSequence("quadratic"), 3)
    assert [b.start for b in blocks] == [1, 4, 11]
    b0 = blocks[0]
    assert list(b0.match_positions) == [1]
    assert b0.mismatch_pos == 2
    assert list(b0.free_positions) == [3]


def test_block_schedule_zero_gaps_starts():
    blocks = block_schedule(GapSequence("constant", c=0), 3)
    assert [b.start for b in blocks] == [1, 3, 6]


def test_block_schedule_single_block():
    (blk,) = block_schedule(GapSequence("quadratic"), 1)
    assert blk.start == 1 and blk.match_len == 1 and blk.mismatch_pos == 2


def test_blocks_tile_without_gaps_or_overlaps():
    for gaps in (GapSequence("quadratic"), GapSequence("constant", c=5), GapSequence("linear")):
        blocks = block_schedule(gaps, 12)
        for prev, nxt in zip(blocks, blocks[1:]):
            assert nxt.start == prev.mismatch_pos + prev.free_count + 1
        covered = []
        for blk in blocks:
            covered.extend(blk.match_positions)
            covered.append(blk.mismatch_pos)
            covered.extend(blk.free_positions)
        assert covered == list(range(1, blocks[-1].end + 1))


def _roles_from_blocks(gaps, length):
    """Reference: the role of each position read off block_schedule's layout."""
    count = 1
    while block_schedule(gaps, count)[-1].end < length:
        count += 1
    roles = {}
    for blk in block_schedule(gaps, count):
        roles.update((p, MATCH) for p in blk.match_positions)
        roles[blk.mismatch_pos] = FLIP
        roles.update((p, FREE) for p in blk.free_positions)
    return [roles[p] for p in range(1, length + 1)], count


def test_schedule_roles_match_block_layout():
    for gaps in (
        GapSequence("quadratic"),
        GapSequence("linear"),
        GapSequence("constant", c=0),
        GapSequence("constant", c=3),
        GapSequence("list", values=[4, 0, 2, 7, 1, 0, 3, 5, 2, 2]),
    ):
        for length in (1, 2, 3, 4, 5, 11, 17, 40, 57):
            roles = schedule_roles(gaps, length)
            want, count = _roles_from_blocks(gaps, length)
            assert roles.dtype == np.int8
            assert roles.tolist() == want, (gaps, length)
            # the covering schedule is the smallest one reaching the length
            assert schedule_covering(gaps, length) == block_schedule(gaps, count)


def test_schedule_covering_exhausts_gap_list():
    with pytest.raises(InsufficientPrefix):
        schedule_covering(GapSequence("list", values=[1, 1]), 20)
    with pytest.raises(ValidationError):
        schedule_roles(GapSequence("quadratic"), 0)


def test_apply_pattern_rows_match_single_prefix():
    rng = np.random.default_rng(5)
    roles = schedule_roles(GapSequence("constant", c=2), 30)
    for m, dtype in ((2, np.int8), (5, np.int8), (200, np.int16)):
        rows = rng.integers(1, m + 1, size=(6, 30)).astype(dtype)
        out = apply_pattern(roles, rows, m)
        assert out.dtype == dtype
        for row, got in zip(rows, out):
            assert got.tolist() == apply_pattern(roles, row.astype(np.int64), m).tolist()
        assert np.array_equal(out[:, roles != FLIP], rows[:, roles != FLIP])
        assert np.all(out[:, roles == FLIP] != rows[:, roles == FLIP])


def test_covered_base_needs_every_fixed_position():
    roles = schedule_roles(GapSequence("quadratic"), 12)  # last fixed position: 12
    base = SymbolSequence(2, (2, 1) * 6)
    assert covered_base(roles, base).tolist() == base.digits.tolist()
    with pytest.raises(InsufficientPrefix, match="does not cover position 12"):
        covered_base(roles, base.truncated(11))
    roles = schedule_roles(GapSequence("quadratic"), 10)  # positions 7..10 are free
    assert covered_base(roles, base.truncated(6)).tolist() == [2, 1, 2, 1, 2, 1, 0, 0, 0, 0]


def test_gap_list_exhaustion():
    gaps = GapSequence("list", values=[1, 2])
    with pytest.raises(InsufficientPrefix):
        gaps.value(3)


def test_gap_reader_takes_each_rule():
    assert GapSequence.from_json({"rule": "quadratic"}) == GapSequence("quadratic")
    assert GapSequence.from_json({"rule": "linear"}) == GapSequence("linear")
    assert GapSequence.from_json({"rule": "constant", "c": 4}) == GapSequence("constant", c=4)
    assert (GapSequence.from_json({"rule": "list", "values": [0, 2, 5]})
            == GapSequence("list", values=(0, 2, 5)))


@pytest.mark.parametrize("data, message", [
    ({"c": 3}, "a gap sequence needs a rule"),
    # the CLI word zero is cli._parse_gaps's alone
    ({"rule": "zero"}, "unknown gap rule 'zero'"),
])
def test_gap_reader_takes_only_the_rules_of_gap_params(data, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        GapSequence.from_json(data)


@pytest.mark.parametrize("kwargs", [
    {"rule": "quadratic", "c": 5},
    {"rule": "linear", "values": ()},
    {"rule": "constant"},
    {"rule": "constant", "c": 1, "values": (0,)},
    {"rule": "list"},
    {"rule": "list", "values": (1,), "c": 0},
])
def test_gap_rule_takes_exactly_its_parameters(kwargs):
    with pytest.raises(ValidationError, match="^gap rule"):
        GapSequence(**kwargs)


# --------------------------------------------------------------------------
# partner construction


def test_construct_partner_all_ones_zero_gaps():
    base = SymbolSequence(2, (1,) * 8)
    filler = SymbolSequence(2, ())
    t = construct_partner(base, GapSequence("constant", c=0), filler, 6)
    assert t.digits.tolist() == [1, 2, 1, 1, 2, 1]


def test_construct_partner_m3_with_free_digit():
    base = SymbolSequence(3, (2,) * 6)
    filler = SymbolSequence(3, (1,) * 4)
    t = construct_partner(base, GapSequence("list", values=[1, 1, 1]), filler, 4)
    assert t.digits.tolist() == [2, 3, 1, 2]


def test_flip_wraps_to_one():
    flip = np.array([FLIP], dtype=np.int8)
    for digit, m, want in ((1, 2, 2), (2, 2, 1), (3, 3, 1), (2, 5, 3)):
        assert apply_pattern(flip, np.array([digit]), m).tolist() == [want]


def test_construct_partner_insufficient_base():
    base = SymbolSequence(2, (1, 1))
    filler = SymbolSequence(2, (1,) * 10)
    with pytest.raises(InsufficientPrefix):
        construct_partner(base, GapSequence("constant", c=0), filler, 6)


def test_construct_partner_insufficient_filler():
    base = SymbolSequence(2, (1,) * 20)
    filler = SymbolSequence(2, ())
    with pytest.raises(InsufficientPrefix):
        construct_partner(base, GapSequence("quadratic"), filler, 10)


def test_partner_pattern_holds_blockwise():
    rng = np.random.default_rng(11)
    for m in (2, 3, 5):
        base = random_sequence(m, 200, rng)
        filler = random_sequence(m, 200, rng)
        gaps = GapSequence("quadratic")
        t = construct_partner(base, gaps, filler, 150)
        for blk in block_schedule(gaps, 8):
            if blk.mismatch_pos > 150:
                break
            t_digits, s_digits = t.digits.tolist(), base.digits.tolist()
            for p in blk.match_positions:
                assert t_digits[p - 1] == s_digits[p - 1]
            assert t_digits[blk.mismatch_pos - 1] != s_digits[blk.mismatch_pos - 1]


def test_extract_filler_round_trip_seeded():
    rng = np.random.default_rng(3)
    for m in (2, 3, 5):
        for gaps in (
            GapSequence("quadratic"), GapSequence("constant", c=3), GapSequence("constant", c=0)
        ):
            base = random_sequence(m, 120, rng)
            filler = random_sequence(m, 120, rng)
            t = construct_partner(base, gaps, filler, 100)
            got = extract_filler(t, base, gaps)
            n_free = int(np.count_nonzero(schedule_roles(gaps, 100) == FREE))
            assert got.digits.tolist() == filler.digits[:n_free].tolist()
            # and the other direction
            rebuilt = construct_partner(base, gaps, got, 100)
            assert rebuilt.digits.tolist() == t.digits.tolist()


@given(st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_partner_bijection_round_trip(m, data):
    length = data.draw(st.integers(10, 60))
    base = SymbolSequence(m, tuple(data.draw(st.lists(st.integers(1, m), min_size=length, max_size=length))))
    filler_digits = data.draw(st.lists(st.integers(1, m), min_size=length, max_size=length))
    values = data.draw(st.lists(st.integers(0, 4), min_size=12, max_size=12))
    gaps = GapSequence("list", values=values)
    t = construct_partner(base, gaps, SymbolSequence(m, tuple(filler_digits)), length)
    got = extract_filler(t, base, gaps)
    assert construct_partner(base, gaps, got, length).digits.tolist() == t.digits.tolist()


def test_distinct_fillers_give_distinct_partners():
    base = SymbolSequence(2, (1,) * 40)
    gaps = GapSequence("quadratic")
    f1 = SymbolSequence(2, (1,) * 30)
    f2 = SymbolSequence(2, (2,) + (1,) * 29)
    t1 = construct_partner(base, gaps, f1, 30)
    t2 = construct_partner(base, gaps, f2, 30)
    assert t1.digits.tolist() != t2.digits.tolist()


def test_extract_filler_zero_gaps_has_no_free_digits():
    base = SymbolSequence(2, (1,) * 10)
    partner = SymbolSequence(2, (1, 2, 1, 1, 2))
    got = extract_filler(partner, base, GapSequence("constant", c=0))
    assert got.digits.tolist() == []


def test_extract_filler_rejects_missing_mismatch():
    base = SymbolSequence(2, (1,) * 10)
    partner = SymbolSequence(2, (1, 1, 1, 1, 2))  # position 2 should flip
    with pytest.raises(NotInSubset):
        extract_filler(partner, base, GapSequence("constant", c=0))


def test_extract_filler_rejects_broken_match():
    base = SymbolSequence(2, (1,) * 10)
    partner = SymbolSequence(2, (2, 2, 1, 1, 2))  # position 1 must match
    with pytest.raises(NotInSubset):
        extract_filler(partner, base, GapSequence("constant", c=0))


def test_extract_filler_names_first_violation():
    base = SymbolSequence(2, (1,) * 10)
    # position 2 should flip and position 4 should match: the flip is reported
    partner = SymbolSequence(2, (1, 1, 1, 2, 2))
    with pytest.raises(NotInSubset, match="position 2: expected flipped digit 2, got 1"):
        extract_filler(partner, base, GapSequence("constant", c=0))
    partner = SymbolSequence(2, (1, 2, 2, 1, 2))
    with pytest.raises(NotInSubset, match="position 3: expected matched digit 1, got 2"):
        extract_filler(partner, base, GapSequence("constant", c=0))


# --------------------------------------------------------------------------
# finite forms of the proximity/separation bounds


def _window_dist(s, t, window, m):
    return sequence_dist(s.truncated(window), t.truncated(window), tail_bound=2.0 / m ** (window - 1))


def test_proximity_and_separation_bounds_small():
    rng = np.random.default_rng(23)
    gaps = GapSequence("quadratic")
    blocks = 10
    sched = block_schedule(gaps, blocks)
    window = 48
    need = sched[-1].end + sched[-1].match_len + window + 2
    for m in (2, 3, 5):
        for _ in range(25):
            base = random_sequence(m, need, rng)
            filler = random_sequence(m, need, rng)
            t = construct_partner(base, gaps, filler, need)
            for blk in sched:
                i = blk.index
                prox = _window_dist(shift(base, blk.start - 1), shift(t, blk.start - 1), window, m)
                assert prox.hi <= m ** (-i), (m, i, prox.hi)
                sep = _window_dist(
                    shift(base, blk.start + i), shift(t, blk.start + i), window, m
                )
                assert sep.lo >= 1.0 / m, (m, i, sep.lo)


# --------------------------------------------------------------------------
# gap condition


def test_gap_condition_quadratic_passes():
    rep = check_gap_condition(GapSequence("quadratic"), 100)
    assert rep.verdict == "pass"
    # closed form: M^2 * 6 / (M (M+1) (2M+1))
    expected = 100**2 * 6 / (100 * 101 * 201)
    assert rep.ratios[99] == pytest.approx(expected, rel=1e-12)
    assert rep.ratios[99] == pytest.approx(0.0295, abs=2e-4)


def test_gap_condition_linear_fails_with_limit_two():
    rep = check_gap_condition(GapSequence("linear"), 200)
    assert rep.verdict == "fail"
    assert rep.ratios[199] == pytest.approx(2 * 200 / 201, rel=1e-12)


def test_gap_condition_constant_fails_divergent():
    rep = check_gap_condition(GapSequence("constant", c=5), 100)
    assert rep.verdict == "fail"
    assert rep.ratios[99] == pytest.approx(100 / 5, rel=1e-12)


def test_gap_condition_all_zero_reports_division_by_zero():
    rep = check_gap_condition(GapSequence("constant", c=0), 20)
    assert rep.verdict == "fail"
    assert all(math.isinf(r) for r in rep.ratios)
    assert "zero" in rep.detail


def test_gap_condition_list_inconclusive():
    rep = check_gap_condition(GapSequence("list", values=[1] * 30), 100)
    assert rep.verdict == "inconclusive"
    assert len(rep.ratios) == 30


def test_gap_condition_requires_ten_points():
    with pytest.raises(ValidationError):
        check_gap_condition(GapSequence("quadratic"), 5)


# --------------------------------------------------------------------------
# cylinders and serialization


def test_sequence_json_round_trip():
    one = SymbolSequence(2, (1, 2, 1))
    two = SymbolSequence(3, (2, 2), side=TWO_SIDED, past=(3, 1))
    wide = SymbolSequence(300, (128, 299), side=TWO_SIDED, past=(300, 1))
    for seq in (one, two, wide):
        assert SymbolSequence.from_json(seq.to_json()) == seq
    assert one.to_json() == {"m": 2, "side": "one", "digits": [1, 2, 1]}


@pytest.mark.parametrize("side", ["sideways", "", "One", None, 2])
def test_sequence_json_rejects_an_unknown_side(side):
    data = {"m": 2, "side": side, "digits": [1, 2], "past": [1], "future": [2]}
    with pytest.raises(ValidationError) as info:
        SymbolSequence.from_json(data)
    assert str(info.value) == f"side must be 'one' or 'two', got {side!r}"
