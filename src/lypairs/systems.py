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
corresponds to one shift.
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
    code_point,
    sample_attractor,
)
from .symbolic import ONE_SIDED, TWO_SIDED, SymbolSequence, shift

KINDS = ("tent", "baker", "horseshoe", "solenoid")

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
        if self.kind == "tent":
            if self.a is None or not self.a > 1.0:
                raise ParameterOutOfRange("tent map needs a > 1")
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

    @classmethod
    def tent(cls, a: float) -> "SystemSpec":
        return cls("tent", a=float(a))

    @classmethod
    def baker(cls, beta1: float, beta2: float) -> "SystemSpec":
        return cls("baker", beta1=float(beta1), beta2=float(beta2))

    @classmethod
    def horseshoe(cls, beta: float, tau: float) -> "SystemSpec":
        return cls("horseshoe", beta=float(beta), tau=float(tau))

    @classmethod
    def solenoid(cls, beta1: float, beta2: float) -> "SystemSpec":
        return cls("solenoid", beta1=float(beta1), beta2=float(beta2))

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
    def ambient_box(self) -> tuple[tuple[float, float], ...]:
        return (UNIT,) * self.w

    @property
    def ambient_diam(self) -> float:
        return math.sqrt(self.w)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for name in ("a", "beta1", "beta2", "beta", "tau"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SystemSpec":
        return cls(
            kind=data["kind"],
            a=data.get("a"),
            beta1=data.get("beta1"),
            beta2=data.get("beta2"),
            beta=data.get("beta"),
            tau=data.get("tau"),
        )


@dataclass(frozen=True)
class DerivedIfs:
    """Coding systems of a SystemSpec: contracting-coordinate systems (empty
    for the tent map) and the expanding-coordinate inverse-branch system."""

    contracting: tuple[IfsSystem, ...]
    expanding_inverse: IfsSystem


@lru_cache(maxsize=None)
def derive_ifs(spec: SystemSpec) -> DerivedIfs:
    """Build the coding IFS of each system from its printed branch maps."""
    if spec.kind == "tent":
        c = 1.0 / (2.0 * spec.a)
        expanding = IfsSystem(
            (Similitude.of(c, [0.0]), Similitude.of(c, [1.0], orth=[-1])),
            (UNIT,),
        )
        return DerivedIfs((), expanding)
    if spec.kind == "baker":
        contracting = IfsSystem(
            (
                Similitude.of(spec.beta1, [0.0]),
                Similitude.of(spec.beta2, [1.0 - spec.beta2]),
            ),
            (UNIT,),
        )
        expanding = _half_fold_ifs()
        return DerivedIfs((contracting,), expanding)
    if spec.kind == "horseshoe":
        contracting = IfsSystem(
            (
                Similitude.of(spec.beta, [0.0]),
                Similitude.of(spec.beta, [1.0], orth=[-1]),
            ),
            (UNIT,),
        )
        c = 1.0 / spec.tau
        expanding = IfsSystem(
            (Similitude.of(c, [0.0]), Similitude.of(c, [1.0], orth=[-1])),
            (UNIT,),
        )
        return DerivedIfs((contracting,), expanding)
    # solenoid: one planar contracting system, same z-fold as the baker
    contracting = IfsSystem(
        (
            Similitude.of(spec.beta1, [0.0, 0.0]),
            Similitude.of(spec.beta2, [1.0 - spec.beta2, 1.0 - spec.beta2]),
        ),
        (UNIT, UNIT),
    )
    return DerivedIfs((contracting,), _half_fold_ifs())


def _half_fold_ifs() -> IfsSystem:
    # inverse branches of the full fold 2y / 2 - 2y; the two halves touch at 1/2
    return IfsSystem(
        (Similitude.of(0.5, [0.0]), Similitude.of(0.5, [1.0], orth=[-1])),
        (UNIT,),
        separation_required=False,
    )


def _check_in_box(point: np.ndarray, w: int, kind: str) -> None:
    if point.shape != (w,):
        raise ValidationError(f"{kind} map expects a point of R^{w}")
    if np.any(point < -1e-9) or np.any(point > 1 + 1e-9):
        raise ParameterOutOfRange(f"point {point.tolist()} outside the {kind} domain box")


def apply_map(spec: SystemSpec, point) -> np.ndarray:
    """Evaluate the system's branch formulas at a point of its domain."""
    p = np.asarray(point, dtype=float)
    if spec.kind == "tent":
        _check_in_box(p, 1, "tent")
        x = p[0]
        return np.array([spec.a - 2.0 * spec.a * abs(x - 0.5)])
    if spec.kind == "baker":
        _check_in_box(p, 2, "baker")
        x, y = p
        if y <= 0.5:
            return np.array([spec.beta1 * x, 2.0 * y])
        return np.array([1.0 - spec.beta2 + spec.beta2 * x, 2.0 - 2.0 * y])
    if spec.kind == "horseshoe":
        _check_in_box(p, 2, "horseshoe")
        x, y = p
        # 1e-12 slack keeps exact strip boundaries out of the undefined region
        if y <= 1.0 / spec.tau + 1e-12:
            return np.array([spec.beta * x, spec.tau * y])
        if y >= 1.0 - 1.0 / spec.tau - 1e-12:
            return np.array([1.0 - spec.beta * x, spec.tau - spec.tau * y])
        raise UndefinedRegion(
            f"y = {y} lies in the middle strip (1/tau, 1 - 1/tau); the fold is not modelled"
        )
    _check_in_box(p, 3, "solenoid")
    x, y, z = p
    if z <= 0.5:
        return np.array([spec.beta1 * x, spec.beta1 * y, 2.0 * z])
    return np.array(
        [1.0 - spec.beta2 + spec.beta2 * x, 1.0 - spec.beta2 + spec.beta2 * y, 2.0 - 2.0 * z]
    )


def code_orbit_point(spec: SystemSpec, seq: SymbolSequence, n: int, depth: int) -> CodedPoint:
    """Coded point of shift(seq, n): the n-th orbit point evaluated through
    the coding rather than by floating-point iteration of the map."""
    if seq.m != 2:
        raise ValidationError("the example systems are coded over two symbols")
    if seq.side != spec.side:
        raise ValidationError(f"{spec.kind} coding needs a {spec.side}-sided sequence")
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    shifted = shift(seq, n)
    derived = derive_ifs(spec)
    if spec.side == ONE_SIDED:
        if len(shifted.digits) < depth:
            raise InsufficientPrefix(
                f"orbit point at time {n} needs {n + depth} future digits"
            )
        return code_point(derived.expanding_inverse, shifted.digits[:depth])
    if len(shifted.digits) < depth:
        raise InsufficientPrefix(f"orbit point at time {n} needs {n + depth} future digits")
    if len(shifted.past) < depth:
        raise InsufficientPrefix(
            f"orbit point at time {n} needs {depth} past digits after shifting"
        )
    contracting = derived.contracting[0]
    past_part = code_point(contracting, shifted.past[:depth])
    future_part = code_point(derived.expanding_inverse, shifted.digits[:depth])
    center = np.concatenate([past_part.center, future_part.center])
    radius = math.hypot(past_part.radius, future_part.radius)
    return CodedPoint(center, radius)


def coded_radius(spec: SystemSpec, depth: int) -> float:
    """Worst-case radius of a depth-``depth`` coded point of the system."""
    derived = derive_ifs(spec)
    r_exp = max(derived.expanding_inverse.ratios) ** depth * derived.expanding_inverse.diam / 2
    if spec.side == ONE_SIDED:
        return r_exp
    con = derived.contracting[0]
    r_con = max(con.ratios) ** depth * con.diam / 2
    return math.hypot(r_con, r_exp)


_TRIAL_CHUNK = 256  # trials per sub-seed; part of the determinism contract


def conjugacy_defect(
    spec: SystemSpec, trials: int, prefix_len: int, depth: int, seed: int
) -> float:
    """Max over random sequences of |apply_map(center pi(s)) - center pi(shift s)|.

    Bounded by (1 + L) * coded_radius(spec, depth) up to float rounding,
    L the branch Lipschitz constant: the two centers code the same orbit
    point through one application of the map.  Trial j draws from the
    sub-seed ``spawn_key=(j // 256,)``.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if prefix_len < depth + 1:
        raise ValidationError("prefix_len must be at least depth + 1")
    worst = 0.0
    for chunk_index, first in enumerate(range(0, trials, _TRIAL_CHUNK)):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
        )
        for _ in range(min(_TRIAL_CHUNK, trials - first)):
            if spec.side == ONE_SIDED:
                seq = SymbolSequence(
                    2, tuple(int(d) for d in rng.integers(1, 3, prefix_len))
                )
            else:
                seq = SymbolSequence.two_sided(
                    2,
                    tuple(int(d) for d in rng.integers(1, 3, depth)),
                    tuple(int(d) for d in rng.integers(1, 3, prefix_len)),
                )
            p0 = code_orbit_point(spec, seq, 0, depth)
            p1 = code_orbit_point(spec, seq, 1, depth)
            defect = float(np.linalg.norm(apply_map(spec, p0.center) - p1.center))
            worst = max(worst, defect)
    return worst


def sample_invariant_set(
    spec: SystemSpec, count: int, depth: int, seed: int, threads: int = 1
) -> PointSample:
    """Sample the system's invariant set in its ambient space.

    Product systems draw each coordinate's digits independently (streams
    0 and 1 of the seed), matching the product structure of the coding.
    """
    derived = derive_ifs(spec)
    if spec.side == ONE_SIDED:
        return sample_attractor(derived.expanding_inverse, count, depth, seed, threads)
    con = sample_attractor(derived.contracting[0], count, depth, seed, threads, stream=0)
    exp = sample_attractor(derived.expanding_inverse, count, depth, seed, threads, stream=1)
    return PointSample(np.hstack([con.centers, exp.centers]))
