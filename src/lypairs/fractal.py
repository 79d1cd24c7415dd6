"""Contracting similitude systems, coded points, and measure-driven samplers.

An ``IfsSystem`` is a finite list of contracting similitudes S_i(x) =
c_i * O_i x + t_i on a compact axis-aligned box K.  Each orthogonal part
O_i is a +/-1 diagonal, given as the vector of its signs (``flips``), so
that every image S_i(K) is again an axis-aligned box and separation gaps
can be computed exactly.

Symbol prefixes are projected to points by nesting first-digit-outermost:
the prefix (a_1, ..., a_n) codes the region S_{a_1} o ... o S_{a_n}(K),
reported as a ``CodedPoint`` whose ball (center of the image box,
radius = c_{a_1}...c_{a_n} * diam(K) / 2) certifiably contains the
projection of every extension of the prefix.

Samplers draw digit prefixes i.i.d. with probabilities (c_1^D, ..., c_m^D)
where D solves the Moran equation sum c_i^D = 1 -- the digit law whose
projection is the natural self-similar measure on the attractor.  They
return the coded centers only (a ``PointSample``); a prefix's radius comes
from ``code_point``.  All randomness comes from numpy's PCG64 seeded through
``SeedSequence(seed, spawn_key=(stream, chunk_index))`` with a fixed
chunk size, so results are bit-identical for any thread count.  One chunk
runner, ``_sample``, serves every sampler: worker threads fill the chunks,
either into the sampler's result array or into chunk buffers that the
caller consumes in chunk order, so ``sample`` writes, and ``boxdim``
box-counts, each chunk while the workers sample the next ones and never
holds the whole point array.  Each sampler's job also gives its row count
and the box of every row (``IfsSystem.coded_box`` per coordinate block).
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidDigit,
    InvalidRatio,
    OverlapError,
    ParameterOutOfRange,
    ValidationError,
)
from .symbolic import (
    FLIP,
    FREE,
    ONE_SIDED,
    GapSequence,
    SymbolSequence,
    _from_json,
    _integers,
    _only_keys,
    _read_json,
    _reals,
    apply_pattern,
    covered_base,
    digit_dtype,
    schedule_roles,
)

_CHUNK = 1 << 15  # fixed sampling chunk; part of the determinism contract
_PIECE = 1 << 16  # uniforms per draw piece; the digits do not depend on it
_MORAN_TOL = 1e-12


@dataclass(frozen=True)
class Similitude:
    """x -> ratio * flips * x + translation with flips a +/-1 vector, the
    diagonal of the orthogonal part; None is the identity."""

    ratio: float
    translation: tuple[float, ...]
    flips: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise InvalidRatio(f"contraction ratio must lie in (0,1), got {self.ratio}")
        object.__setattr__(self, "translation", tuple(float(t) for t in self.translation))
        flips = (1,) * len(self.translation) if self.flips is None else self.flips
        object.__setattr__(self, "flips", _integers(flips, "orthogonal part"))
        if any(f not in (-1, 1) for f in self.flips):
            raise ParameterOutOfRange("orthogonal part must be a +/-1 diagonal")
        if len(self.flips) != len(self.translation):
            raise ValidationError("flips and translation dimensions differ")

    @property
    def w(self) -> int:
        return len(self.translation)

    def apply(self, x) -> np.ndarray:
        return self.ratio * (np.asarray(x, dtype=float) * self.flips) + self.translation

    def image_box(self, box: np.ndarray) -> np.ndarray:
        """Exact image of an axis-aligned box, as a (w, 2) array."""
        a, b = self.apply(box[:, 0]), self.apply(box[:, 1])
        return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)


def _box_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two axis-aligned boxes (0 if they meet)."""
    gap = np.maximum(0.0, np.maximum(b[:, 0] - a[:, 1], a[:, 0] - b[:, 1]))
    return float(np.linalg.norm(gap))


@dataclass(frozen=True, eq=False)
class IfsSystem:
    """Finite similitude system on a compact axis-aligned box.

    Validates containment S_i(K) in K at construction.  With
    ``separation_required`` (the default) the first-level images must be
    pairwise disjoint with strictly positive gap; pass False for systems
    whose pieces legitimately touch (e.g. an interval coded by halves).

    ``coding`` is the coding table that every coder reads, read-only: map
    d sends axis j to coding[j, d] * x_j + coding[w + j, d], the signed
    ratio ratio_d * flip_j (exact, as a flip is +/-1) times x_j plus the
    translation, and scales a coded radius by coding[2w, d] = ratio_d.
    Column 0 is NaN.  ``axis_ratios[j]`` is the signed ratio that every map
    shares on axis j, or None where the maps differ there.
    """

    maps: tuple[Similitude, ...]
    box: tuple[tuple[float, float], ...]
    separation_required: bool = True
    gap: float = field(init=False)
    coding: np.ndarray = field(init=False, repr=False)
    axis_ratios: tuple[float | None, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        object.__setattr__(self, "maps", maps)
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if not maps:
            raise ValidationError("an IFS needs at least one map")
        w = len(box)
        for lo, hi in box:
            if not hi > lo:
                raise ValidationError("domain box must have positive width on every axis")
        for s in maps:
            if s.w != w:
                raise ValidationError("map dimension does not match the domain box")
        box_arr, tol = self.box_arr, self.slack
        images = [s.image_box(box_arr) for s in maps]
        for i, img in enumerate(images):
            if np.any(img[:, 0] < box_arr[:, 0] - tol) or np.any(img[:, 1] > box_arr[:, 1] + tol):
                raise ValidationError(f"image of map {i + 1} escapes the domain box")
        gap = math.inf if len(maps) == 1 else min(
            _box_distance(images[i], images[j])
            for i in range(len(maps))
            for j in range(i + 1, len(maps))
        )
        if self.separation_required and gap <= 0.0:
            raise OverlapError("first-level images intersect or touch; no positive gap")
        object.__setattr__(self, "gap", gap)
        # built here, before any sampler thread reads it
        nan = [math.nan]
        coding = np.array(
            [nan + [s.ratio * s.flips[j] for s in maps] for j in range(w)]
            + [nan + [s.translation[j] for s in maps] for j in range(w)]
            + [nan + [s.ratio for s in maps]]
        )
        coding.flags.writeable = False
        object.__setattr__(self, "coding", coding)
        shared = [set(row[1:].tolist()) for row in coding[:w]]
        object.__setattr__(
            self, "axis_ratios", tuple(s.pop() if len(s) == 1 else None for s in shared)
        )

    @property
    def w(self) -> int:
        return len(self.box)

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(s.ratio for s in self.maps)

    @cached_property
    def box_arr(self) -> np.ndarray:
        return np.asarray(self.box, dtype=float)

    @cached_property
    def slack(self) -> float:
        """How far a map's image may overhang K on an axis and still pass
        the containment check."""
        return 1e-9 * float(np.max(self.box_arr[:, 1] - self.box_arr[:, 0]))

    @cached_property
    def coded_box(self) -> np.ndarray:
        """(w, 2) bounds of every center that ``code_point`` and
        ``_code_batch`` return.

        Each image S_i(K) lies in K widened by the slack s, so S_i maps K
        widened by d into K widened by s + r d, r the largest ratio, and
        every composed image lies in K widened by s / (1 - r).  Each Horner
        step x <- a x + t starts from the center of K and rounds twice, by
        at most 2u M (1 + u) with M the largest |x| there and u = 2^-53; so
        the errors add up to under 2^-50 M / (1 - r).
        """
        box, gap = self.box_arr, 1.0 - max(self.ratios)
        reach = self.slack / gap
        pad = reach + 2.0**-50 * (float(np.abs(box).max()) + reach) / gap
        out = box + np.array([-pad, pad])
        out.flags.writeable = False
        return out

    @cached_property
    def center(self) -> np.ndarray:
        return self.box_arr.mean(axis=1)

    @cached_property
    def diam(self) -> float:
        return float(np.linalg.norm(self.box_arr[:, 1] - self.box_arr[:, 0]))

    def to_json(self) -> dict:
        return {
            "w": self.w,
            "K": [list(ax) for ax in self.box],
            "maps": [
                {"ratio": s.ratio, "orth": list(s.flips), "t": list(s.translation)}
                for s in self.maps
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IfsSystem":
        _only_keys(data, ("w", "K", "maps"), "an IFS file")
        for m in data["maps"]:
            _only_keys(m, ("ratio", "t", "orth"), "an IFS map")
        maps = tuple(
            Similitude(*_reals((m["ratio"],), "ratio"), _reals(m["t"], "t"), m.get("orth"))
            for m in data["maps"]
        )
        box = tuple(_reals(ax, "K") for ax in data["K"])
        if "w" in data and _integers((data["w"],), "w") != (len(box),):
            raise ValidationError(f"w = {data['w']!r} differs from len(K) = {len(box)}")
        return cls(maps, box)


def load_ifs(path) -> IfsSystem:
    """The IFS of a JSON file; a missing file or a wrong key or type raises ValidationError."""
    return _from_json(IfsSystem.from_json, _read_json(path, "IFS file"), "IFS file")


# --------------------------------------------------------------------------
# the Moran equation


@dataclass(frozen=True)
class MoranSolution:
    dimension: float
    residual: float


def moran_dimension(ratios: Sequence[float]) -> MoranSolution:
    """Solve sum_i c_i^D = 1 for D by bisection.

    D -> sum c_i^D is strictly decreasing, equals m at D = 0 and drops
    below 1 before log(m)/(-log(max c)) + 1, so the root is bracketed.
    """
    cs = [float(c) for c in ratios]
    if not cs:
        raise InvalidRatio("ratio list is empty")
    for c in cs:
        if not 0.0 < c < 1.0:
            raise InvalidRatio(f"ratio {c} outside (0,1)")
    if len(cs) == 1:
        return MoranSolution(0.0, 0.0)

    def g(d: float) -> float:
        return math.fsum(c**d for c in cs) - 1.0

    lo = 0.0
    hi = math.log(len(cs)) / -math.log(max(cs)) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, hi):
            break
    d = 0.5 * (lo + hi)
    residual = abs(g(d))
    if residual > _MORAN_TOL:
        raise ConvergenceError(f"Moran bisection stalled at residual {residual:.3g}")
    return MoranSolution(d, residual)


def bernoulli_weights(ratios: Sequence[float]) -> np.ndarray:
    """Digit probabilities (c_1^D, ..., c_m^D), renormalised against float drift."""
    d = moran_dimension(ratios).dimension
    ws = np.asarray(ratios, dtype=float) ** d
    return ws / ws.sum()


# --------------------------------------------------------------------------
# exact products

_SPLITTER = 2.0**27 + 1  # Veltkamp's splitting constant for doubles


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod_error(a_hi, a_lo, b_hi, b_lo, p):
    """a * b - p exactly, for p = fl(a * b) and the ``_split`` halves of a
    and b: Dekker's two_prod."""
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


# --------------------------------------------------------------------------
# coded points


@dataclass(frozen=True, eq=False)
class CodedPoint:
    """Center/radius ball certifiably containing the projection of every
    sequence extending the coded prefix."""

    center: np.ndarray
    radius: float


def _check_prefix(ifs: IfsSystem, prefix: Sequence[int]) -> tuple[int, ...]:
    out = _integers(prefix, "prefix digits")
    if not out:
        raise ValidationError("prefix must contain at least one digit")
    if min(out) < 1 or max(out) > ifs.m:
        d = next(d for d in out if not 1 <= d <= ifs.m)
        raise InvalidDigit(f"digit {d} outside 1..{ifs.m}")
    return out


def code_point(ifs: IfsSystem, prefix: Sequence[int]) -> CodedPoint:
    """Project a digit prefix: apply S_{a_1} o ... o S_{a_n} to the domain center.

    The radius c_{a_1}...c_{a_n} * diam(K)/2 bounds the distance from the
    center to the projection of any infinite extension (half-diameter
    convention: diam means the Euclidean diagonal of K).  Both run last
    digit first over ``ifs.coding``, in Python floats.
    """
    digits = _check_prefix(ifs, prefix)[::-1]
    table, w = ifs.coding.tolist(), ifs.w
    center = []
    for a, t, x in zip(table[:w], table[w:-1], ifs.center.tolist()):
        for d in digits:
            x = a[d] * x + t[d]
        center.append(x)
    scale = 1.0
    for d in digits:
        scale *= table[-1][d]
    return CodedPoint(np.array(center), scale * ifs.diam / 2.0)


def _code_radii(ifs: IfsSystem, digits: np.ndarray) -> np.ndarray:
    """Radii of ``code_point`` over rows of a (n, depth) digit array."""
    ratio = ifs.coding[-1]
    scale = np.ones(len(digits))
    for col in digits.T[::-1]:  # last digit first, as code_point
        scale *= ratio.take(col)
    return scale * ifs.diam / 2.0


class _Scratch:
    """The buffers of one sampling worker, reused over its chunks of up to
    ``rows`` prefixes of ``depth`` digits of dtype ``dtype``: the
    Fortran-ordered (rows, depth) digit array that ``_draw_digits`` fills
    and ``_code_batch`` reads in place; ``_code_batch``'s three coding
    columns, one digit column as intp (``take`` would convert it into a new
    array) and two float columns; and ``_draw_digits``'s piece of uniforms
    with its comparison mask and its digits.  At depth 0 only the coding
    columns take memory."""

    def __init__(self, rows: int, depth: int, dtype) -> None:
        self.digits = np.empty((rows, depth), dtype=dtype, order="F")
        self.idx = np.empty(rows, dtype=np.intp)
        self.x = np.empty(rows)
        self.buf = np.empty(rows)
        piece = min(_PIECE, rows * depth)
        self.u = np.empty(piece)
        self.hit = np.empty(piece, dtype=bool)
        self.stage = np.empty(piece, dtype=dtype)


def _code_batch(
    ifs: IfsSystem,
    digits: np.ndarray,
    out: np.ndarray | None = None,
    scratch: _Scratch | None = None,
) -> np.ndarray:
    """Centers of ``code_point`` over rows of a (n, depth) digit array.

    Each axis j is coded in place from the digit columns, read where they
    lie (contiguously from a Fortran-ordered array, as the samplers'
    workers hold their digits, strided from any other) in their own dtype:
    per column k, last first, x *= coding[j, d] and then x += coding[w + j,
    d], from the table ``code_point`` reads, so the centers equal its own
    bit for bit.  On an axis where every map has the same signed ratio,
    x *= that scalar replaces the ratio gather.  ``take`` clips, so a digit
    below 1 reads column 0 of the translations and codes to a NaN center,
    which ``box_count`` rejects; a digit above m raises InvalidDigit before
    any coding.  The centers go to ``out``, any (n, w) float view, or to a
    new array; the coding columns come from ``scratch``, a ``_Scratch`` of
    at least n rows, or from a new one of depth 0, which holds only them.
    """
    n, depth = digits.shape
    if scratch is None:
        scratch = _Scratch(n, 0, digits.dtype)
    if out is None:
        out = np.empty((n, ifs.w))
    idx, x, buf = scratch.idx[:n], scratch.x[:n], scratch.buf[:n]
    if digits.max(initial=0) > ifs.m:
        raise InvalidDigit(f"digit {digits.max()} outside 1..{ifs.m}")
    for j in range(ifs.w):
        a, t, ratio = ifs.coding[j], ifs.coding[ifs.w + j], ifs.axis_ratios[j]
        x.fill(ifs.center[j])
        for k in range(depth - 1, -1, -1):
            idx[...] = digits[:, k]
            if ratio is None:
                a.take(idx, out=buf, mode="clip")  # "raise" copies through a buffer
                x *= buf
            else:
                x *= ratio
            t.take(idx, out=buf, mode="clip")
            x += buf
        out[:, j] = x
    return out


# --------------------------------------------------------------------------
# samplers


class PointSample:
    """Coded centers of one sampling run, one point per row; a prefix's
    radius comes from ``code_point``."""

    def __init__(self, centers: np.ndarray):
        self.centers = centers

    def __len__(self) -> int:
        return self.centers.shape[0]


def _chunk_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def _draw_digits(
    rng: np.random.Generator,
    cum: np.ndarray,
    out: np.ndarray,
    scratch: _Scratch,
    cols: np.ndarray | None = None,
) -> None:
    """Fill the (n, k) array ``out``, or only its columns ``cols`` (an
    index array, read as an (n, len(cols)) target), with digit
    1 + #{c in cum : c <= u}, one uniform u per entry, drawn in row-major
    order.

    As u < 1, an entry of ``cum`` that is at least 1 never counts and is
    not compared; every other entry is, the last included, so a rounded
    ``cum[-1]`` below 1 gives the same digits as ``searchsorted(cum, u,
    "right") + 1``.  The draw goes one piece of whole rows at a time, a
    row longer than a piece in consecutive parts: ``rng.random(out=...)``
    fills ``scratch.u`` (at most ``_PIECE`` doubles, so a piece stays in
    cache), the first comparison writes its 0/1 into ``scratch.stage``, the
    others add theirs, 1 is added last, and the stage is copied into the
    piece's rows of ``out`` in whatever layout ``out`` has (a
    Fortran-ordered ``out`` takes it transposed).  PCG64 yields the same
    doubles whether it fills one array or consecutive pieces of it, so the
    digits equal those of a single ``rng.random((n, k))`` draw for any
    piece size and layout, and the draw uses up exactly n * k uniforms.
    """
    first, *rest = cum[cum < 1.0].tolist() or [1.0]  # 1.0: no entry counts
    n = out.shape[0]
    cols = np.arange(out.shape[1]) if cols is None else cols
    if not cols.size:
        return
    step = max(1, scratch.u.size // cols.size)  # rows per piece
    part = min(scratch.u.size, cols.size)  # columns per piece, fewer where a row is split
    for r in range(0, n, step):
        rows = slice(r, min(n, r + step))
        for c in range(0, cols.size, part):
            piece = cols[c : c + part]
            size = (rows.stop - r) * piece.size
            u, hit, digits = scratch.u[:size], scratch.hit[:size], scratch.stage[:size]
            rng.random(out=u)
            np.greater_equal(u, first, out=digits.view(bool) if digits.itemsize == 1 else digits)
            for threshold in rest:
                np.greater_equal(u, threshold, out=hit)
                digits += hit
            digits += 1
            out[rows, piece] = digits.reshape(-1, piece.size)


def _validate_sampling(count: int, depth: int, seed: int) -> None:
    if count < 1:
        raise ValidationError("count must be >= 1")
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError("seed must be a non-negative integer")


def _check_threads(threads: int) -> None:
    """The one check of a worker thread count, made before anything is
    allocated for the sample."""
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValidationError("threads must be a positive integer")


def _sample(job, threads: int, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield the rows of each fixed-size chunk of ``job``'s sample in chunk
    order, while at most ``threads`` worker threads fill the next chunks.

    A job is a triple (worker, box, count): ``count`` rows, inside the bounds
    ``box``.  Chunk i holds rows i*_CHUNK onward.  ``worker(rows)`` returns a
    function ``fill(i, out)`` that writes chunk i, at most ``rows`` rows, into
    ``out``, drawing from ``_chunk_rng(seed, stream, i)`` itself, so every row
    depends only on the seed, never on the thread count, and that keeps its
    buffers from one chunk to the next.  One is made per worker thread, here in
    the calling thread, and worker k fills chunks k, k + W, k + 2W, ... of the
    W workers: the threads allocate nothing that grows with the chunk, so no
    thread's malloc arena is left holding chunk-sized memory.

    With ``out``, a (count, len(box)) array or view of one, chunk i is written
    into its rows and a view of them is yielded.  Without, each worker owns
    two chunk buffers and a chunk is yielded from one of them, valid until
    the caller asks for the next chunk, when the worker takes it back.
    Either way a worker fills at most two chunks the caller has not yet
    consumed.  A worker's exception is raised in the caller.  When the
    caller stops early, by an exception or ``close()``, the workers stop at
    their next chunk and are joined before the generator finishes.
    """
    worker, box, count = job
    _check_threads(threads)
    chunks = -(-count // _CHUNK)
    rows = min(_CHUNK, count)
    fills = [worker(rows) for _ in range(min(threads, chunks))]
    free = [queue.SimpleQueue() for _ in fills]  # buffers worker k may fill (None: out's rows)
    done = [queue.SimpleQueue() for _ in fills]  # its filled rows, or its exception
    for q in free:
        for _ in range(2):
            q.put(None if out is not None else np.empty((rows, len(box))))
    stop = threading.Event()

    def run(k: int) -> None:
        try:
            for i in range(k, chunks, len(fills)):
                buf = free[k].get()
                if stop.is_set():
                    return
                start = i * _CHUNK
                block = out[start : start + rows] if buf is None else buf[: count - start]
                fills[k](i, block)
                done[k].put((block, buf))
        except BaseException as exc:  # raised again in the caller
            done[k].put((exc, None))

    started = []
    try:
        for k in range(len(fills)):
            started.append(threading.Thread(target=run, args=(k,)))
            started[-1].start()
        for i in range(chunks):
            block, buf = done[i % len(fills)].get()
            if isinstance(block, BaseException):
                raise block
            yield block
            free[i % len(fills)].put(buf)
    finally:
        stop.set()
        for q in free:
            q.put(None)  # wakes a worker waiting for a buffer
        for t in started:
            t.join()


def _collect(job, threads: int) -> PointSample:
    """Drain ``_sample`` over ``job`` into one (count, w) array."""
    _, box, count = job
    _check_threads(threads)  # _sample, a generator, checks it only at its first chunk
    out = np.empty((count, len(box)))
    for _ in _sample(job, threads, out):
        pass
    return PointSample(out)


def _attractor_job(codings: Sequence[IfsSystem], count: int, depth: int, seed: int):
    """The validated ``_sample`` job of i.i.d. digits of each coding IFS's
    (c_i^D) law, one coordinate block per IFS of ``codings``: the job of
    ``sample_attractor`` for ``(ifs,)`` and of ``sample_invariant_set`` for
    ``derive_ifs(spec)``.  Block b draws from stream b of the seed and is
    coded into its own columns of the chunk, every block through the
    worker's one ``_Scratch``; the box stacks each block's ``coded_box``."""
    _validate_sampling(count, depth, seed)
    laws = [(ifs, np.cumsum(bernoulli_weights(ifs.ratios))) for ifs in codings]
    dtype = digit_dtype(max(ifs.m for ifs in codings))

    def worker(rows: int):
        scratch = _Scratch(rows, depth, dtype)

        def fill(i: int, out: np.ndarray) -> None:
            first, d = 0, scratch.digits[: len(out)]
            for b, (ifs, cum) in enumerate(laws):
                _draw_digits(_chunk_rng(seed, b, i), cum, d, scratch)
                _code_batch(ifs, d, out[:, first : first + ifs.w], scratch)
                first += ifs.w

        return fill

    return worker, np.vstack([ifs.coded_box for ifs in codings]), count


def sample_attractor(
    ifs: IfsSystem, count: int, depth: int, seed: int, threads: int = 1
) -> PointSample:
    """Draw ``count`` coded points with i.i.d. digits distributed (c_i^D)."""
    return _collect(_attractor_job((ifs,), count, depth, seed), threads)


def _restricted_job(
    ifs: IfsSystem, base: SymbolSequence, gaps: GapSequence, count: int, depth: int, seed: int
):
    """The validated ``_sample`` job of ``sample_restricted``.

    Each worker writes the matched and flipped columns of its
    ``_Scratch``'s digit array once, from the template; each chunk then
    draws only the free columns into it, and codes it."""
    _validate_sampling(count, depth, seed)
    if base.side != ONE_SIDED:
        raise ValidationError("restricted sampling takes a one-sided base")
    if base.m != ifs.m:
        raise ValidationError("base alphabet must match the number of IFS maps")
    roles = schedule_roles(gaps, depth)
    template = apply_pattern(roles, covered_base(roles, base), ifs.m)
    free = np.flatnonzero(roles == FREE)
    cum = np.cumsum(bernoulli_weights(ifs.ratios))
    dtype = digit_dtype(ifs.m)

    def worker(rows: int):
        scratch = _Scratch(rows, depth, dtype)
        scratch.digits[...] = template

        def fill(i: int, out: np.ndarray) -> None:
            d = scratch.digits[: len(out)]
            _draw_digits(_chunk_rng(seed, 0, i), cum, d, scratch, free)
            _code_batch(ifs, d, out, scratch)

        return fill

    return worker, ifs.coded_box, count


def sample_restricted(
    ifs: IfsSystem,
    base: SymbolSequence,
    gaps: GapSequence,
    count: int,
    depth: int,
    seed: int,
    threads: int = 1,
) -> PointSample:
    """Sample the projection of the partner set of ``base``.

    Fillers are drawn from the (c_i^D) digit law and routed through the
    partner construction, so every coded prefix satisfies the match/flip
    pattern of ``base`` and the cloud samples the push-forward of the
    natural measure onto the restricted set.
    """
    return _collect(_restricted_job(ifs, base, gaps, count, depth, seed), threads)


def _pair_job(ifs: IfsSystem, gaps: GapSequence, count: int, depth: int, seed: int):
    """The validated ``_sample`` job of ``sample_pair_set``.

    Each chunk draws the base digits into the worker's ``_Scratch`` digit
    array and codes the first half of the row; then, in place, moves each
    FLIP digit up by one, draws the filler into the FREE columns (after
    the base, from the same generator) and codes the partner half."""
    _validate_sampling(count, depth, seed)
    roles = schedule_roles(gaps, depth)
    free = np.flatnonzero(roles == FREE)
    cum = np.cumsum(bernoulli_weights(ifs.ratios))
    flips = np.flatnonzero(roles == FLIP).tolist()
    dtype, w = digit_dtype(ifs.m), ifs.w

    def worker(rows: int):
        scratch = _Scratch(rows, depth, dtype)

        def fill(i: int, out: np.ndarray) -> None:
            rng, digits = _chunk_rng(seed, 0, i), scratch.digits[: len(out)]
            _draw_digits(rng, cum, digits, scratch)
            _code_batch(ifs, digits, out[:, :w], scratch)
            for j in flips:  # ``apply_pattern``, in place
                np.remainder(digits[:, j], ifs.m, out=digits[:, j])
                digits[:, j] += 1
            _draw_digits(rng, cum, digits, scratch, free)
            _code_batch(ifs, digits, out[:, w:], scratch)

        return fill

    return worker, np.vstack([ifs.coded_box] * 2), count


def sample_pair_set(
    ifs: IfsSystem,
    gaps: GapSequence,
    count: int,
    depth: int,
    seed: int,
    threads: int = 1,
) -> PointSample:
    """Sample (x, y) with x an attractor point and y a partner-set point of x.

    Each draw takes a fresh base prefix and a fresh filler, both from the
    (c_i^D) digit law; each row is a point of R^{2w} whose first w
    coordinates are distributed like ``sample_attractor`` output.
    """
    return _collect(_pair_job(ifs, gaps, count, depth, seed), threads)
