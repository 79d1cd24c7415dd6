"""One- and two-sided full shifts and scheduled near-copy partner sequences.

Sequences over the alphabet {1, ..., m} are stored as finite prefixes of
infinite symbol strings; operations that would need digits beyond the
stored prefix raise ``InsufficientPrefix`` instead of fabricating them.
The module provides the shift map, a certified enclosure of the sequence
metric

    dist(s, t) = sum_k m**(-|k|) * |s_k - t_k|,

and the block machinery that builds, for a base sequence s and a gap
sequence N = (N_1, N_2, ...), partner sequences t that

* copy s on blocks of growing length (block i copies i+1 digits),
* flip the digit right after each block (s -> s + 1 wrapped into 1..m),
* are arbitrary on the N_{i+1} "free" positions between blocks.

``construct_partner`` fills the free positions from a filler sequence and
``extract_filler`` inverts it, so together they realise a bijection
between the full shift and the set of partners of s.

Index conventions, relied on by the geometric layers:

* one-sided sequences are indexed s_1, s_2, ...; ``shift`` drops digits
  from the front;
* two-sided sequences store a past (most recent first: s_-1, s_-2, ...)
  and a future (s_1, s_2, ...); index 0 is unused;
* block i (i = 0, 1, ...) starts at u_i with u_0 = 1 and the tiling
  recursion u_{i+1} = u_i + (i+1) + 1 + N_{i+1}: i+1 matches, one flip,
  then N_{i+1} free digits.  (The off-by-one variant u_i + N_i + i + 1
  fails to tile the index line once the flipped digit and the free digits
  are both counted, so the tiling form is used throughout.)
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    InsufficientPrefix,
    InvalidDigit,
    NotInSubset,
    ValidationError,
)

ONE_SIDED = "one"
TWO_SIDED = "two"


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as ints; integral floats such as 2.0 are read as ints, and
    any other non-integer (1.7, "1", true) raises ValidationError."""
    values = tuple(values)
    types = set(map(type, values))
    if types <= {int}:  # the common case: nothing to convert
        return values
    try:
        out = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be integers: {exc}") from exc
    if bool in types or out != values:
        bad = next(v for v, i in zip(values, out) if type(v) is bool or v != i)
        raise ValidationError(f"{what} must be integers, got {bad!r}")
    return out


def _reals(values: Iterable, what: str) -> tuple[float, ...]:
    """``values`` as floats; a bool or a string (true, "0.5") raises
    ValidationError, checked before any conversion could accept it."""
    values = tuple(values)
    bad = next((v for v in values if isinstance(v, (bool, np.bool_, str))), None)
    if bad is not None:
        raise ValidationError(f"{what} must be real numbers, got {bad!r}")
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from exc


def _only_keys(data: dict, keys: tuple[str, ...], what: str) -> None:
    """Raise ValidationError naming the first key of ``data`` not in ``keys``."""
    unknown = next((key for key in data.keys() if key not in keys), None)
    if unknown is not None:
        raise ValidationError(f"unknown key {unknown!r} in {what}; it takes {', '.join(keys)}")


def _read_json(path: str, what: str):
    """The decoded JSON of a file; a missing file or text that is not JSON
    raises ValidationError."""
    if not os.path.exists(path):
        raise ValidationError(f"{what} not found: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"malformed JSON input: {exc}") from exc


def _from_json(build, data, what: str):
    """build(data) on decoded JSON; a missing key or a wrong type raises ValidationError."""
    try:
        return build(data)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from exc


def digit_dtype(m: int) -> type:
    """The integer dtype that stores the digits 1..m."""
    return np.int8 if m < 2**7 else np.int16 if m < 2**15 else np.int64


def _digit_array(digits, m: int, what: str) -> np.ndarray:
    """``digits`` as a read-only 1-D ``digit_dtype(m)`` array of digits in 1..m.

    An integer array is checked by its min and max, and copied only when it
    is writable or of another dtype.  Anything else goes through
    ``_integers`` first, so 1.7, "1" and true stay errors.
    """
    if not (isinstance(digits, np.ndarray) and digits.dtype.kind in "iu"):
        digits = np.asarray(_integers(digits, f"{what} digits"))
    if digits.ndim != 1:
        raise ValidationError(f"{what} digits must be one-dimensional")
    if digits.size and (digits.min() < 1 or digits.max() > m):
        bad = digits[(digits < 1) | (digits > m)][0]
        raise InvalidDigit(f"{what} digit {bad} outside alphabet 1..{m}")
    if digits.dtype != digit_dtype(m) or digits.flags.writeable:
        digits = digits.astype(digit_dtype(m))
        digits.flags.writeable = False
    return digits


_NO_DIGITS = np.zeros(0, digit_dtype(2))
_NO_DIGITS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """Finite prefix of an infinite symbol string over {1, ..., m}.

    One-sided sequences store ``digits`` = (s_1, ..., s_K).  Two-sided
    sequences additionally store ``past`` = (s_-1, s_-2, ...), most
    recent digit first.  Both are read-only ``digit_dtype(m)`` arrays;
    ``.tolist()`` gives Python ints.
    """

    m: int
    digits: np.ndarray
    side: str = ONE_SIDED
    past: np.ndarray = field(default_factory=lambda: _NO_DIGITS)

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 2:
            raise ValidationError(f"alphabet size must be an integer >= 2, got {self.m}")
        if self.side not in (ONE_SIDED, TWO_SIDED):
            raise ValidationError(f"side must be '{ONE_SIDED}' or '{TWO_SIDED}'")
        object.__setattr__(self, "digits", _digit_array(self.digits, self.m, "future"))
        object.__setattr__(self, "past", _digit_array(self.past, self.m, "past"))
        if self.side == ONE_SIDED and self.past.size:
            raise ValidationError("one-sided sequences cannot carry past digits")

    def _key(self) -> tuple:
        return self.m, self.side, self.digits.tobytes(), self.past.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolSequence):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.digits)

    def truncated(self, future_len: int) -> "SymbolSequence":
        """Keep only the first ``future_len`` future digits, and the whole past."""
        return SymbolSequence(self.m, self.digits[:future_len], self.side, self.past)

    def to_json(self) -> dict:
        if self.side == ONE_SIDED:
            return {"m": self.m, "side": ONE_SIDED, "digits": self.digits.tolist()}
        return {
            "m": self.m,
            "side": TWO_SIDED,
            "past": self.past.tolist(),
            "future": self.digits.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymbolSequence":
        side = data.get("side", ONE_SIDED)
        if side not in (ONE_SIDED, TWO_SIDED):
            raise ValidationError(f"side must be '{ONE_SIDED}' or '{TWO_SIDED}', got {side!r}")
        keys = ("m", "side", "digits") if side == ONE_SIDED else ("m", "side", "past", "future")
        _only_keys(data, keys, f"a {side}-sided sequence")
        (m,) = _integers((data["m"],), "alphabet size")
        if side == ONE_SIDED:
            return cls(m, data["digits"])
        past = data["past"]  # read first, so a file missing both keys names "past"
        return cls(m, data["future"], side=TWO_SIDED, past=past)


def random_sequence(
    m: int,
    length: int,
    rng: np.random.Generator,
    side: str = ONE_SIDED,
    past_length: int = 0,
) -> SymbolSequence:
    """Draw a sequence with independent uniform digits from a seeded generator."""
    if m < 2 or length < 0 or past_length < 0:
        raise ValidationError(
            f"random sequences need m >= 2 and lengths >= 0, got m={m}, "
            f"length={length}, past_length={past_length}"
        )
    future = rng.integers(1, m + 1, size=length)
    if side == ONE_SIDED:
        return SymbolSequence(m, future)
    past = rng.integers(1, m + 1, size=past_length)
    return SymbolSequence(m, future, side=TWO_SIDED, past=past)


def shift(seq: SymbolSequence, n: int) -> SymbolSequence:
    """Apply the shift map n times: drop n leading digits (one-sided) or
    move n digits from the future into the past (two-sided)."""
    if n < 0:
        raise ValidationError("shift amount must be non-negative")
    if n == 0:
        return seq
    if len(seq.digits) < n:
        raise InsufficientPrefix(
            f"shift by {n} needs {n} future digits, only {len(seq.digits)} stored"
        )
    past = seq.past
    if seq.side == TWO_SIDED:
        past = np.concatenate([seq.digits[n - 1 :: -1], seq.past])
    return SymbolSequence(seq.m, seq.digits[n:], seq.side, past)


# --------------------------------------------------------------------------
# certified sequence metric


@dataclass(frozen=True)
class SequenceDistance:
    """Certified enclosure [lo, hi] of dist(s, t).

    ``lo_exact`` is the exact rational partial sum over the stored
    indices; ``lo``/``hi`` are outward-rounded floats, ``hi`` including
    the analytic tail bound for the unstored indices.
    """

    lo: float
    hi: float
    lo_exact: Fraction
    tail: float


def _float_below(x: Fraction) -> float:
    f = float(x)
    if Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return max(f, 0.0)


def _float_above(x: Fraction) -> float:
    f = float(x)
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


def _horner_sum(a: np.ndarray, b: np.ndarray, m: int) -> tuple[int, int]:
    """Exact integer numerator of sum_{k=1}^{K} m^{-k}|a_k - b_k| over m^K."""
    k = min(len(a), len(b))
    num = 0
    for d in np.abs(a[:k] - b[:k]).tolist():
        num = num * m + d
    return num, k


def sequence_dist(s: SymbolSequence, t: SymbolSequence, tail_bound: float) -> SequenceDistance:
    """Certified enclosure of the sequence metric.

    The partial sum over stored indices is computed exactly in rational
    arithmetic; the contribution of unstored indices is bounded by
    (m-1) * sum_{|k| > K} m^{-|k|} = m^{-K} per side.  Raises
    ``InsufficientPrefix`` when that tail exceeds ``tail_bound``.
    """
    if s.m != t.m:
        raise ValidationError("sequences must share the alphabet size")
    if s.side != t.side:
        raise ValidationError("sequences must share the side")
    if tail_bound <= 0:
        raise ValidationError("tail_bound must be positive")
    m = s.m
    num_f, k_f = _horner_sum(s.digits, t.digits, m)
    exact = Fraction(num_f, m**k_f) if k_f else Fraction(0)
    tail = Fraction(1, m**k_f)
    if s.side == TWO_SIDED:
        num_p, k_p = _horner_sum(s.past, t.past, m)
        if k_p:
            exact += Fraction(num_p, m**k_p)
        tail += Fraction(1, m**k_p)
    if tail > Fraction(tail_bound):
        raise InsufficientPrefix(
            f"stored prefixes leave a metric tail of {float(tail):.3g} > tail_bound {tail_bound:.3g}"
        )
    lo = _float_below(exact)
    hi = _float_above(exact + tail)
    return SequenceDistance(lo=lo, hi=hi, lo_exact=exact, tail=_float_above(tail))


# --------------------------------------------------------------------------
# gap sequences and block schedules


# the parameters each gap rule takes; a parameter of another rule is an error
GAP_PARAMS = {
    "list": ("values",),
    "constant": ("c",),
    "linear": (),
    "quadratic": (),
}


@dataclass(frozen=True)
class GapSequence:
    """Rule producing the free-digit counts N_1, N_2, ...

    Supported rules: explicit finite list, constant c, linear (N_n = n)
    and quadratic (N_n = n^2).
    Each rule takes exactly its parameters in ``GAP_PARAMS``.
    """

    rule: str
    values: tuple[int, ...] | None = None
    c: int | None = None

    def __post_init__(self) -> None:
        if self.rule not in GAP_PARAMS:
            raise ValidationError(f"unknown gap rule {self.rule!r}")
        own = GAP_PARAMS[self.rule]
        for name in ("values", "c"):
            v = getattr(self, name)
            if (v is None) == (name in own):
                state = "missing" if v is None else "not"
                raise ValidationError(
                    f"gap rule {self.rule} takes {', '.join(own) or 'no parameters'}, "
                    f"{state} {name}"
                )
        for name in own:
            what = "gap values" if name == "values" else "gap parameters"
            v = getattr(self, name)
            ints = _integers(v if name == "values" else (v,), what)
            if min(ints, default=0) < 0:
                raise ValidationError(f"{what} must be non-negative")
            object.__setattr__(self, name, ints if name == "values" else ints[0])

    def value(self, n: int) -> int:
        """N_n for n >= 1."""
        if n < 1:
            raise ValidationError("gap index starts at 1")
        if self.rule == "list":
            if n > len(self.values):
                raise InsufficientPrefix(
                    f"explicit gap list has {len(self.values)} entries, needed N_{n}"
                )
            return self.values[n - 1]
        if self.rule == "constant":
            return self.c
        if self.rule == "linear":
            return n
        return n * n

    def to_json(self) -> dict:
        params = {name: getattr(self, name) for name in GAP_PARAMS[self.rule]}
        if "values" in params:
            params["values"] = list(self.values)
        return {"rule": self.rule, **params}

    @classmethod
    def from_json(cls, data: dict) -> "GapSequence":
        """Inverse of ``to_json``; ``{"rule": "zero"}`` reads as constant 0."""
        if data.get("rule") == "zero":
            if set(data) != {"rule"}:
                raise ValidationError("gap rule zero takes no parameters")
            return cls("constant", c=0)
        if data.get("rule") not in GAP_PARAMS:  # before another rule's keys fail cls(**data)
            raise ValidationError(f"unknown gap rule {data.get('rule')!r}")
        return cls(**data)


@dataclass(frozen=True)
class ScheduleBlock:
    """Layout of one match/flip/free block on the index line (1-based)."""

    index: int
    start: int            # u_i
    match_len: int        # i + 1
    mismatch_pos: int     # u_i + i + 1
    free_count: int       # N_{i+1}

    @property
    def match_positions(self) -> range:
        return range(self.start, self.start + self.match_len)

    @property
    def free_positions(self) -> range:
        return range(self.mismatch_pos + 1, self.mismatch_pos + 1 + self.free_count)

    @property
    def end(self) -> int:
        return self.mismatch_pos + self.free_count


def _blocks(gaps: GapSequence) -> Iterator[ScheduleBlock]:
    """Blocks 0, 1, 2, ... under u_0 = 1, u_{i+1} = u_i + (i+1) + 1 + N_{i+1}."""
    u = 1
    for i in itertools.count():
        free = gaps.value(i + 1)
        yield ScheduleBlock(
            index=i, start=u, match_len=i + 1, mismatch_pos=u + i + 1, free_count=free
        )
        u += i + 2 + free


def block_schedule(gaps: GapSequence, block_count: int) -> tuple[ScheduleBlock, ...]:
    """Blocks 0..block_count-1, which tile positions 1..blocks[-1].end."""
    if block_count < 1:
        raise ValidationError("block_count must be >= 1")
    return tuple(itertools.islice(_blocks(gaps), block_count))


def schedule_covering(gaps: GapSequence, length: int) -> tuple[ScheduleBlock, ...]:
    """Fewest blocks from block 0 on that cover positions 1..length."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    blocks = []
    for blk in _blocks(gaps):
        blocks.append(blk)
        if blk.end >= length:
            return tuple(blocks)


# position roles: a matched copy of the base digit, the flipped base digit,
# or a free digit taken from the filler
MATCH, FLIP, FREE = 0, 1, 2
_BLOCK_ROLES = np.array([MATCH, FLIP, FREE], dtype=np.int8)


def schedule_roles(gaps: GapSequence, length: int) -> np.ndarray:
    """Role of each position 1..length, 0-based, as an int8 array.

    The covering blocks tile the index line from position 1, each one a run
    of match_len MATCH, one FLIP and free_count FREE positions.
    """
    blocks = schedule_covering(gaps, length)
    runs = [(blk.match_len, 1, blk.free_count) for blk in blocks]
    return np.repeat(np.tile(_BLOCK_ROLES, len(blocks)), np.ravel(runs))[:length]


def covered_base(roles: np.ndarray, base: SymbolSequence) -> np.ndarray:
    """The base digits at the positions of ``roles``, 0 past the stored prefix.

    Raises ``InsufficientPrefix`` unless the base stores every MATCH and FLIP
    position; FREE positions need no base digit.
    """
    fixed = np.flatnonzero(roles != FREE)
    needed = int(fixed[-1]) + 1 if fixed.size else 0
    if len(base.digits) < needed:
        raise InsufficientPrefix(
            f"base prefix of length {len(base.digits)} does not cover position {needed}"
        )
    out = np.zeros(roles.size, dtype=digit_dtype(base.m))
    stored = base.digits[: roles.size]
    out[: len(stored)] = stored
    return out


def apply_pattern(roles: np.ndarray, digits: np.ndarray, m: int) -> np.ndarray:
    """Digits with every FLIP digit moved up by one, m wrapping to 1; the
    other positions keep their digit.  ``digits`` is one prefix or rows of
    prefixes, positions along the last axis."""
    out = np.array(digits)
    flip = roles == FLIP
    out[..., flip] = out[..., flip] % m + 1
    return out


# --------------------------------------------------------------------------
# partner construction (the free-digit bijection) and its inverse


def construct_partner(
    base: SymbolSequence,
    gaps: GapSequence,
    filler: SymbolSequence,
    length: int,
) -> SymbolSequence:
    """Build the partner prefix t_1..t_length of ``base``.

    Matched positions copy the base digit, each block's final position
    flips it (+1 wrapped into 1..m), and free positions are taken from
    ``filler`` in order.  Distinct fillers yield distinct partners.
    """
    if base.side != ONE_SIDED or filler.side != ONE_SIDED:
        raise ValidationError("partner construction operates on one-sided sequences")
    if base.m != filler.m:
        raise ValidationError("base and filler must share the alphabet size")
    roles = schedule_roles(gaps, length)
    out = apply_pattern(roles, covered_base(roles, base), base.m)
    free = roles == FREE
    n_free = int(np.count_nonzero(free))
    if len(filler.digits) < n_free:
        raise InsufficientPrefix(
            f"filler prefix of length {len(filler.digits)} shorter than {n_free} free positions"
        )
    out[free] = filler.digits[:n_free]
    return SymbolSequence(base.m, out)


def extract_filler(
    partner: SymbolSequence,
    base: SymbolSequence,
    gaps: GapSequence,
) -> SymbolSequence:
    """Recover the free digits of ``partner``; inverse of ``construct_partner``.

    Verifies the match/flip pattern over the stored prefix of ``partner``
    and raises ``NotInSubset`` at the first violating position, so this
    doubles as the membership test for the partner set of ``base``.
    """
    if partner.side != ONE_SIDED or base.side != ONE_SIDED:
        raise ValidationError("filler extraction operates on one-sided sequences")
    if partner.m != base.m:
        raise ValidationError("partner and base must share the alphabet size")
    if not partner.digits.size:
        raise ValidationError("partner prefix is empty")
    roles = schedule_roles(gaps, len(partner.digits))
    want = apply_pattern(roles, covered_base(roles, base), base.m)
    got = partner.digits
    bad = np.flatnonzero((roles != FREE) & (got != want))
    if bad.size:
        i = int(bad[0])
        kind = "matched" if roles[i] == MATCH else "flipped"
        raise NotInSubset(f"position {i + 1}: expected {kind} digit {want[i]}, got {got[i]}")
    return SymbolSequence(base.m, got[roles == FREE])


# --------------------------------------------------------------------------
# the gap condition M^2 / sum_{n<=M} N_n -> 0


@dataclass(frozen=True)
class GapConditionReport:
    """Empirical ratios M^2 / sum N_n plus the analytic verdict for the rule."""

    ratios: tuple[float, ...]
    verdict: str  # "pass" | "fail" | "inconclusive"
    detail: str


def check_gap_condition(gaps: GapSequence, M_max: int) -> GapConditionReport:
    """Decide whether M^2 / sum_{n=1}^{M} N_n tends to zero.

    The verdict is analytic where the rule allows it: quadratic growth in
    n passes, linear/constant rules fail (limits 2 and infinity), the
    all-zero rule fails with a division-by-zero note, and explicit finite
    lists are inconclusive (only the empirical trend is reported).
    """
    if M_max < 10:
        raise ValidationError("M_max must be at least 10")
    cap = M_max
    if gaps.rule == "list":
        cap = min(M_max, len(gaps.values))
    ratios = []
    total = 0
    for n in range(1, cap + 1):
        total += gaps.value(n)
        ratios.append(math.inf if total == 0 else n * n / total)

    if gaps.rule == "quadratic":
        verdict, detail = "pass", "sum grows cubically in M; ratio limit 0"
    elif gaps.rule == "linear":
        verdict, detail = "fail", "ratio 2M/(M+1) has limit 2 > 0"
    elif gaps.rule == "constant":
        if gaps.c == 0:
            verdict, detail = "fail", "all gaps zero: division by zero, ratio undefined"
        else:
            verdict, detail = "fail", f"ratio M/{gaps.c} diverges"
    else:
        verdict, detail = "inconclusive", "explicit finite list: empirical trend only"
    return GapConditionReport(tuple(ratios), verdict, detail)
