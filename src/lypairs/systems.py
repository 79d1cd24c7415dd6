"""The four example systems: tent map, skinny baker, linear horseshoe, solenoid.

Each system carries an invariant-set coding by iterated function systems:

* tent, a > 1:  t(x) = a - 2a|x - 1/2| on [0,1]; the repeller is coded
  one-sidedly by the inverse branches {x/(2a), 1 - x/(2a)}.
* baker, 0 < b1, b2, b1+b2 < 1:
  (x, y) -> (b1 x, 2y) for y <= 1/2 and (1 - b2 + b2 x, 2 - 2y) above;
  two-sided coding with contracting x-system {b1 x, 1 - b2 + b2 x} and
  expanding-inverse y-system {y/2, 1 - y/2}.
* horseshoe, 0 < beta < 1/2, tau > 2:
  (x, y) -> (beta x, tau y) on the bottom strip y <= 1/tau and
  (1 - beta x, tau - tau y) on the top strip y >= 1 - 1/tau; the middle
  strip is not part of the model and raises ``UndefinedRegion``.
* solenoid: the baker skew-product repeated in two contracting
  coordinates, (x, y, z) -> (b1 x, b1 y, 2z) / (1-b2+b2 x, 1-b2+b2 y, 2-2z).

Branch boundaries are assigned deterministically: y = 1/2 (baker,
solenoid z) belongs to the first branch, the horseshoe's top strip is
closed at y = 1 - 1/tau.  Note the baker/solenoid second expanding
coordinate must be the fold 2 - 2y, not 1 - 2y: the latter maps (1/2, 1]
outside [0, 1] and supports no invariant coding, while the fold's inverse
branch 1 - y/2 is the tau = 2 case of the horseshoe's inverse 1 - y/tau
and is what makes the conjugacy checks close.

Two-sided codings split as future digits -> expanding coordinate via the
inverse-branch system, past digits (most recent first) -> contracting
coordinate via the forward system, so one application of the map
corresponds to one shift.  ``derive_ifs`` lists the blocks' coding IFSs in
ambient order: contracting (past digits), then expanding (future digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InsufficientPrefix,
    ParameterOutOfRange,
    UndefinedRegion,
    ValidationError,
)
from .fractal import (
    CodedPoint,
    IfsSystem,
    PointSample,
    Similitude,
    _attractor_job,
    _chunk_rng,
    _code_batch,
    _code_radii,
    _collect,
)
from .fractal import sample_attractor  # noqa: F401  (bench/spans.py wraps this name)
from .symbolic import ONE_SIDED, TWO_SIDED, SymbolSequence, _reals

# the parameters each kind takes; a parameter of another kind is an error
PARAMS = {
    "tent": ("a",),
    "baker": ("beta1", "beta2"),
    "horseshoe": ("beta", "tau"),
    "solenoid": ("beta1", "beta2"),
}
KINDS = tuple(PARAMS)

UNIT = (0.0, 1.0)


@dataclass(frozen=True)
class SystemSpec:
    """Validated parameters of one of the four example systems."""

    kind: str
    a: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    beta: float | None = None
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterOutOfRange(f"unknown system kind {self.kind!r}")
        for name in ("a", "beta1", "beta2", "beta", "tau"):
            v = getattr(self, name)
            if v is None:
                continue
            if name not in PARAMS[self.kind]:
                raise ParameterOutOfRange(
                    f"{self.kind} takes only {', '.join(PARAMS[self.kind])}, not {name}"
                )
            (x,) = _reals((v,), name)
            object.__setattr__(self, name, x)
        if self.kind == "tent":
            if self.a is None or not self.a > 1.0:
                raise ParameterOutOfRange("tent map needs a > 1")
            if not math.isfinite(2.0 * self.a):  # the slope 2a, and the ratio 1/(2a) > 0
                raise ParameterOutOfRange(f"tent map needs a finite 2a, got a = {self.a!r}")
        elif self.kind in ("baker", "solenoid"):
            b1, b2 = self.beta1, self.beta2
            if b1 is None or b2 is None or not (0 < b1 < 1 and 0 < b2 < 1):
                raise ParameterOutOfRange("beta1, beta2 must lie in (0,1)")
            if not b1 + b2 < 1:
                raise ParameterOutOfRange("beta1 + beta2 must be < 1")
        else:
            if self.beta is None or not 0 < self.beta < 0.5:
                raise ParameterOutOfRange("horseshoe needs beta in (0, 1/2)")
            if self.tau is None or not self.tau > 2:
                raise ParameterOutOfRange("horseshoe needs tau > 2")
            if not math.isfinite(self.tau):  # the ratio 1/tau > 0
                raise ParameterOutOfRange(f"horseshoe needs a finite tau, got tau = {self.tau!r}")

    @property
    def side(self) -> str:
        return ONE_SIDED if self.kind == "tent" else TWO_SIDED

    @property
    def w(self) -> int:
        return {"tent": 1, "baker": 2, "horseshoe": 2, "solenoid": 3}[self.kind]

    @property
    def lipschitz(self) -> float:
        """Largest branch expansion rate (operator norm of the branch Jacobian)."""
        if self.kind == "tent":
            return 2.0 * self.a
        if self.kind == "horseshoe":
            return self.tau
        return 2.0

    @property
    def ambient_diam(self) -> float:
        return math.sqrt(self.w)

    def to_json(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in PARAMS[self.kind]}}

    @classmethod
    def from_json(cls, data: dict) -> "SystemSpec":
        return cls(**data)


@lru_cache(maxsize=None)
def derive_ifs(spec: SystemSpec) -> tuple[IfsSystem, ...]:
    """The coding IFS of each coordinate block in ambient order, from the
    printed branch maps: a two-sided system's contracting (past-digit) system,
    then the expanding-inverse (future-digit) system, the tent's only one."""
    if spec.kind == "tent":
        return (_fold_ifs(1.0 / (2.0 * spec.a)),)
    if spec.kind == "horseshoe":
        return _fold_ifs(spec.beta), _fold_ifs(1.0 / spec.tau)
    # baker and solenoid: one contracting system on [0, 1]^w, the full fold
    # 2y / 2 - 2y in the expanding coordinate
    w = spec.w - 1
    contracting = IfsSystem(
        (
            Similitude(spec.beta1, [0.0] * w),
            Similitude(spec.beta2, [1.0 - spec.beta2] * w),
        ),
        (UNIT,) * w,
    )
    return contracting, _fold_ifs(0.5)


def _fold_ifs(c: float) -> IfsSystem:
    """{x -> c x, x -> 1 - c x} on [0, 1]; at c = 1/2 the two halves touch."""
    return IfsSystem(
        (Similitude(c, [0.0]), Similitude(c, [1.0], flips=[-1])),
        (UNIT,),
        separation_required=c < 0.5,
    )


def apply_map(spec: SystemSpec, point) -> np.ndarray:
    """Evaluate the system's branch formulas at a point of its domain, or at
    each row of an (n, w) array of points; errors name the first bad row.
    A point outside the domain box (NaN included) raises ParameterOutOfRange."""
    p = np.asarray(point, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != spec.w:
        raise ValidationError(f"{spec.kind} map expects a point of R^{spec.w}")
    rows = p.reshape(-1, spec.w)
    where = "" if p.ndim == 1 else "row {}: "
    # NaN fails both comparisons, so it counts as outside
    outside = ~np.all((rows >= -1e-9) & (rows <= 1 + 1e-9), axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        raise ParameterOutOfRange(
            f"{where.format(i)}point {rows[i].tolist()} outside the {spec.kind} domain box"
        )
    if spec.kind == "tent":
        return spec.a - 2.0 * spec.a * np.abs(p - 0.5)
    x, y = rows[:, :-1], rows[:, -1:]
    if spec.kind == "horseshoe":
        # 1e-12 slack keeps exact strip boundaries out of the undefined region
        down = y <= 1.0 / spec.tau + 1e-12
        middle = ~down & (y < 1.0 - 1.0 / spec.tau - 1e-12)
        if middle.any():
            i = int(np.argmax(middle))
            raise UndefinedRegion(
                f"{where.format(i)}y = {rows[i, -1]} lies in the middle strip "
                "(1/tau, 1 - 1/tau); the fold is not modelled"
            )
        low = (spec.beta * x, spec.tau * y)
        high = (1.0 - spec.beta * x, spec.tau - spec.tau * y)
    else:  # baker and solenoid: contract the leading coordinates, fold the last
        down = y <= 0.5
        low = (spec.beta1 * x, 2.0 * y)
        high = (1.0 - spec.beta2 + spec.beta2 * x, 2.0 - 2.0 * y)
    return np.where(down, np.hstack(low), np.hstack(high)).reshape(p.shape)


def _orbit_windows(
    spec: SystemSpec, past: np.ndarray, future: np.ndarray, times, depth: int
) -> list[tuple[IfsSystem, np.ndarray]]:
    """The digit windows that code the orbit points of k sequences: past
    digits (k, P), most recent first, and future digits (k, F).  The point
    at time t codes shift(seq, t) as ``code_point`` does, one window per
    coordinate block in ambient order: the depth most recent past digits
    through each past block, then future digits t+1..t+depth through the
    future block.  Each window array is (len(times) * k, depth),
    time-major.  Callers check that the windows are stored."""
    *past_ifs, future_ifs = derive_ifs(spec)
    line = np.hstack([past[:, ::-1], future])  # s_-P .. s_-1, s_1 .. s_F
    front = past.shape[1] + np.asarray(times)[:, None]  # column of s_{t+1}
    steps = np.arange(depth)
    windows = [(ifs, front - 1 - steps) for ifs in past_ifs] + [(future_ifs, front + steps)]
    return [(ifs, line[:, cols].swapaxes(0, 1).reshape(-1, depth)) for ifs, cols in windows]


def _sequence_orbit(
    spec: SystemSpec, seqs: tuple[SymbolSequence, ...], times, depth: int
) -> tuple[np.ndarray, list[list[float]]]:
    """Centers (len(times), k, w) and radii [time][sequence] of
    ``code_orbit_point`` for each of k sequences at each time, coded in one
    batch; a two-sided point joins its two radii by ``math.hypot``.  Each
    sequence is cut to the digits its windows read."""
    for seq in seqs:
        if seq.m != 2:
            raise ValidationError("the example systems are coded over two symbols")
        if seq.side != spec.side:
            raise ValidationError(f"{spec.kind} coding needs a {spec.side}-sided sequence")
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    for n in times:
        if n < 0:
            raise ValidationError("shift amount must be non-negative")
        for seq in seqs:
            if len(seq.digits) < n + depth:
                raise InsufficientPrefix(
                    f"orbit point at time {n} needs {n + depth} future digits"
                )
            if spec.side == TWO_SIDED and n + len(seq.past) < depth:
                raise InsufficientPrefix(
                    f"orbit point at time {n} needs {depth} past digits after shifting"
                )
    future, past = max(times) + depth, max(0, depth - min(times))
    windows = _orbit_windows(
        spec,
        np.stack([seq.past[:past] for seq in seqs]),
        np.stack([seq.digits[:future] for seq in seqs]),
        times,
        depth,
    )
    centers = np.hstack([_code_batch(ifs, digits) for ifs, digits in windows])
    radii = [math.hypot(*r) for r in zip(*(_code_radii(ifs, d).tolist() for ifs, d in windows))]
    k = len(seqs)
    return centers.reshape(len(times), k, -1), [radii[i : i + k] for i in range(0, len(radii), k)]


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Row norms, each the dot product ``np.linalg.norm`` forms for one row."""
    return np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]


def code_orbit_point(spec: SystemSpec, seq: SymbolSequence, n: int, depth: int) -> CodedPoint:
    """Coded point of shift(seq, n): the n-th orbit point evaluated through
    the coding rather than by floating-point iteration of the map."""
    centers, radii = _sequence_orbit(spec, (seq,), (n,), depth)
    return CodedPoint(centers[0, 0], radii[0][0])


def coded_radius(spec: SystemSpec, depth: int) -> float:
    """Worst-case radius of a depth-``depth`` coded point of the system."""
    return math.hypot(*(max(ifs.ratios) ** depth * ifs.diam / 2 for ifs in derive_ifs(spec)))


_TRIAL_CHUNK = 256  # trials per sub-seed; part of the determinism contract


def conjugacy_defect(
    spec: SystemSpec, trials: int, prefix_len: int, depth: int, seed: int
) -> float:
    """Max over random sequences of |apply_map(center pi(s)) - center pi(shift s)|.

    Bounded by (1 + L) * coded_radius(spec, depth) up to float rounding,
    L the branch Lipschitz constant: the two centers code the same orbit
    point through one application of the map.  Trial j draws from the
    sub-seed ``spawn_key=(j // 256,)``: ``depth`` past digits (two-sided
    systems, most recent first), then ``prefix_len`` future digits.  A
    sub-seed's trials are drawn in one call, which yields the same digits.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if prefix_len < depth + 1:
        raise ValidationError("prefix_len must be at least depth + 1")
    past_len = depth if spec.side == TWO_SIDED else 0
    worst = 0.0
    for chunk_index, first in enumerate(range(0, trials, _TRIAL_CHUNK)):
        n = min(_TRIAL_CHUNK, trials - first)
        rows = _chunk_rng(seed, chunk_index).integers(1, 3, (n, past_len + prefix_len))
        windows = _orbit_windows(spec, rows[:, :past_len], rows[:, past_len:], (0, 1), depth)
        centers = np.hstack([_code_batch(ifs, digits) for ifs, digits in windows])
        # time-major rows: the n points at time 0, then the n at time 1
        defects = _row_norms(apply_map(spec, centers[:n]) - centers[n:])
        worst = max(worst, float(defects.max()))
    return worst


def sample_invariant_set(
    spec: SystemSpec, count: int, depth: int, seed: int, threads: int = 1
) -> PointSample:
    """Sample the system's invariant set in its ambient space.

    The job is ``fractal._attractor_job`` over ``derive_ifs(spec)``:
    coordinate block k draws its digits from stream k of the seed, so the
    blocks are independent, matching the product structure of the coding,
    and block 0 is ``sample_attractor``'s sample of its IFS.  Each chunk's
    worker samples every block of the chunk straight into the block's own
    columns of the result, through one ``_Scratch`` that the blocks share.
    """
    return _collect(_attractor_job(derive_ifs(spec), count, depth, seed), threads)
