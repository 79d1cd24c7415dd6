"""Command-line front end: reproducible experiments over the library modules.

Subcommands:

* ``dimension`` -- Moran dimension of a coding system;
* ``construct`` -- build a partner sequence and its block schedule;
* ``verify``    -- certified Li-Yorke verdict for a constructed (or
  deliberately broken) pair on one of the example systems;
* ``boxdim``    -- box-counting estimate for the attractor, the
  restricted set, or the pair set;
* ``sample``    -- emit raw point clouds.

Every sampling command requires an explicit ``--seed``; outputs are
byte-identical for a fixed seed regardless of ``--threads``.  Options can
also come from a JSON ``--config`` file; precedence is flags > config
file > built-in defaults (all defaults are printed in ``--help``).  Exit
codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys
from typing import Iterable, Iterator

import numpy as np

from .analysis import (
    GridLadder,
    box_count,
    break_pair_after_block,
    build_verification_pair,
    dimension_fit,
    liyorke_profile,
    shadow_filler,
    verify_liyorke,
)
from .errors import (
    ConvergenceError,
    DegenerateFit,
    LypairsError,
    ValidationError,
)
from .fractal import (
    _attractor_job,
    _chunk_rng,
    _pair_job,
    _restricted_job,
    _sample,
    _SPLITTER,
    _split,
    load_ifs,
    moran_dimension,
)
# bench/spans.py wraps these names
from .fractal import sample_attractor, sample_pair_set, sample_restricted  # noqa: F401
from .symbolic import (
    GapSequence,
    SymbolSequence,
    _from_json,
    _read_json,
    check_gap_condition,
    construct_partner,
    extract_filler,
    random_sequence,
    schedule_covering,
)
from .systems import (
    SystemSpec,
    _row_norms,
    _sequence_orbit,
    apply_map,
    derive_ifs,
)
# bench/spans.py wraps these names
from .systems import code_orbit_point, sample_invariant_set  # noqa: F401

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# --------------------------------------------------------------------------
# deterministic output formatting (sorted keys, 17 significant digits)


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """JSON text of dicts, lists, tuples, dataclasses (an object of their
    fields) and scalars, keys sorted, two-space indent."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{inner}"{k}": {_json_text(obj[k], indent + 1)}' for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if dataclasses.is_dataclass(obj):
        return _json_text({name: getattr(obj, name) for name in _field_names(type(obj))}, indent)
    return json.dumps(obj)


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _write(texts: Iterable[str], out: str | None) -> None:
    """The one output writer: the text pieces in turn, to the file ``out``,
    or to stdout (``out`` None or "-"), where the text ends with a newline."""
    stdout = out is None or out == "-"
    with contextlib.nullcontext(sys.stdout) if stdout else open(out, "w") as fh:
        end = ""
        for text in texts:
            fh.write(text)
            end = text[-1:] or end
            del text  # let the piece go before the next one is built
        if stdout and end != "\n":
            fh.write("\n")


_CSV_BLOCK = 1 << 14  # rows formatted per text piece
_CSV_PIECE = 1 << 14  # text bytes joined per gather
_CSV_ROW = 40  # bytes per value: "-0.000" + D0 "." D1 "." ... "." D16 + separator
_E16, _E17 = 10**16, 10**17


@functools.cache
def _csv_tables():
    """Constant tables of the CSV kernel, built on first use.

    * ``scale``: rows ``10^(16 - X)``, and its split into two halves, at
      column ``X + 4`` for the decimal exponents X in -4..16;
    * ``words``: the 8 bytes ``"d.d.d.d."`` of every 4-digit group 0..9999,
      then ``"-0.000D."`` for each leading digit D at ``10000 + D``;
    * ``zeros``: the number of trailing zero digits of each 4-digit group;
    * ``keep``: the bytes of a value's 40-byte layout that its text keeps,
      indexed by ``(sign * 21 + X + 4) * 17 + L``, L the index of its last
      nonzero digit, packed into 5 words.
    """
    scale = np.array([float(10**k) for k in range(20, -1, -1)])
    scale = np.stack([scale, *_split(scale)])
    group = np.arange(10_000)
    words = np.full((10_010, 8), ord("."), dtype=np.uint8)
    for i in range(4):
        words[:10_000, 2 * i] = ord("0") + group // 10 ** (3 - i) % 10
    words[10_000:, :6] = np.frombuffer(b"-0.000", dtype=np.uint8)
    words[10_000:, 6] = ord("0") + np.arange(10)
    zeros = np.zeros(10_000, dtype=np.int64)
    for j in range(1, 5):
        zeros[group % 10**j == 0] = j
    pos = np.arange(_CSV_ROW)
    digit = np.where((pos >= 6) & (pos % 2 == 0), (pos - 6) // 2, 99)
    keep = np.zeros((2, 21, 17, _CSV_ROW), dtype=bool)
    keep[..., -1] = True  # separator
    keep[1, ..., 0] = True  # minus sign
    for x in range(-4, 17):
        for last in range(17):
            row = keep[:, x + 4, last]
            if x >= 0:  # integer digits, then "." and the fraction up to L
                row |= digit <= max(x, last)
                if last > x:
                    row[:, 7 + 2 * x] = True
            else:  # "0." and -X-1 zeros, then the digits up to L
                row[:, 1 : 2 - x] = True
                row |= digit <= last
    tables = (scale, words.view(np.uint64).ravel(), zeros,
              keep.reshape(-1, _CSV_ROW).view(np.uint64))
    for t in tables:
        t.flags.writeable = False
    return tables


class _CsvScratch:
    """Buffers that ``_csv_text`` reuses over blocks of up to ``size``
    values: float, integer and mask temporaries, the word indices and the
    text and keep words.  Fresh block-sized temporaries in each block made
    malloc map and unmap them over and over, at a page fault per 4 KiB."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.f = np.empty((7, size))
        self.i = np.empty((4, size), dtype=np.int64)
        self.m = np.empty((2, size), dtype=bool)
        self.idx = np.empty((size, 5), dtype=np.int64)
        self.words = np.empty((2, size, 5), dtype=np.uint64)


def _significand(a, x, scale_table, s: _CsvScratch) -> np.ndarray:
    """round(a * 10^(16 - x)) half to even, exactly, as int64, in
    ``s.i[1]``; a and x may be ``s.f[0]`` and ``s.i[0]``, and the other
    buffers of ``s`` that it writes are f[1:] and i[2]."""
    n = len(a)
    f, out, tmp = s.f[1:, :n], s.i[1, :n], s.i[2, :n]
    np.add(x, 4, out=tmp)
    scale, scale_hi, scale_lo = scale_table.take(tmp, axis=1, out=f[:3])
    hi = np.multiply(a, scale, out=f[3])
    # Veltkamp's split of a, then Dekker's two_prod error, in the order of
    # ``_split`` and ``_two_prod_error``
    c = np.multiply(a, _SPLITTER, out=scale)
    a_hi = np.subtract(c, np.subtract(c, a, out=f[4]), out=c)
    a_lo = np.subtract(a, a_hi, out=f[4])
    lo = np.multiply(a_hi, scale_hi, out=f[5])
    lo -= hi
    lo += np.multiply(a_hi, scale_lo, out=a_hi)
    lo += np.multiply(a_lo, scale_hi, out=scale_hi)
    lo += np.multiply(a_lo, scale_lo, out=a_lo)
    np.copyto(out, hi, casting="unsafe")
    np.copyto(tmp, np.rint(lo, out=lo), casting="unsafe")
    out += tmp
    return out


def _csv_text(block: np.ndarray, seps: np.ndarray, s: _CsvScratch) -> memoryview:
    """The rows of ``block``, each value as ``"%.17g"`` followed by its
    separator, formatted in the buffers of ``s``."""
    scale, words, zeros, keep_table = _csv_tables()
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    n = v.size
    ints, masks = s.i[:, :n], s.m[:, :n]
    a = np.abs(v, out=s.f[0, :n])
    fast = np.greater_equal(a, 1e-5, out=masks[0])
    fast &= np.less(a, 1e18, out=masks[1])
    np.copyto(a, 1.0, where=np.logical_not(fast, out=masks[1]))
    x = ints[0]
    log = np.log10(a, out=s.f[1, :n])
    np.copyto(x, np.floor(log, out=log), casting="unsafe")
    np.clip(x, -4, 16, out=x)
    sig = _significand(a, x, scale, s)
    step = ints[2]
    np.copyto(step, np.greater_equal(sig, _E17, out=masks[1]))
    step -= np.less(sig, _E16, out=masks[1])
    redo = np.flatnonzero(step)
    if redo.size:  # log10 was one off, or the rounding carried into a new decade
        x_new = x[redo] + step[redo]
        x[redo] = np.clip(x_new, -4, 16)
        sig[redo] = _significand(a[redo], x[redo], scale, _CsvScratch(redo.size))
        # an exponent outside -4..16 is written in exponent notation: exact path
        fast[redo] &= (x_new == x[redo]) & (sig[redo] >= _E16) & (sig[redo] < _E17)
        sig[~fast], x[~fast] = _E16, 0

    # word indices: the leading digit, then four 4-digit groups; sig is
    # spent on the products
    idx, rest, high = s.idx[:n], ints[2], ints[3]
    np.floor_divide(sig, _E16, out=idx[:, 0])
    np.subtract(sig, np.multiply(idx[:, 0], _E16, out=rest), out=rest)
    np.floor_divide(rest, 10**8, out=high)
    low = np.subtract(rest, np.multiply(high, 10**8, out=sig), out=rest)
    np.floor_divide(high, 10**4, out=idx[:, 1])
    np.subtract(high, np.multiply(idx[:, 1], 10**4, out=sig), out=idx[:, 2])
    np.floor_divide(low, 10**4, out=idx[:, 3])
    np.subtract(low, np.multiply(idx[:, 3], 10**4, out=sig), out=idx[:, 4])
    trailing = zeros.take(idx[:, 4], out=high)
    open_rows = np.flatnonzero(trailing == 4)
    for j in (3, 2, 1):
        if not open_rows.size:
            break
        more = zeros.take(idx[open_rows, j])
        trailing[open_rows] += more
        open_rows = open_rows[more == 4]
    idx[:, 0] += 10_000

    text, keep = s.words[:, :n]
    words.take(idx, mode="clip", out=text)
    # each value's keep row, (sign * 21 + x + 4) * 17 + 16 - trailing
    row = np.multiply(np.signbit(v, out=masks[1]), 21, out=ints[1])
    row += x
    row += 4
    row *= 17
    row += 16
    row -= trailing
    keep_table.take(row, axis=0, mode="clip", out=keep)
    text_bytes = text.view(np.uint8)
    keep_bytes = keep.view(np.bool_)
    text_bytes.reshape(block.shape[0], -1, _CSV_ROW)[:, :, -1] = seps
    slow = np.flatnonzero(~fast)
    if slow.size:  # +-0, nan, +-inf, |v| < 1e-4 and |v| >= 1e17 (exponent notation)
        exact = ["%.17g" % y for y in v[slow].tolist()]
        size = _CSV_ROW - 1
        padded = np.array(exact, dtype=f"S{size}").view(np.uint8)
        text_bytes[slow, :size] = padded.reshape(-1, size)
        lengths = np.fromiter(map(len, exact), dtype=np.int64, count=len(exact))
        keep_bytes[slow, :size] = np.arange(size) < lengths[:, None]
    # join the kept bytes a piece at a time: a gather's index takes 8 bytes
    # per kept byte, so only one piece's is built ("raise" would also copy
    # each piece through a buffer)
    text_bytes, keep_bytes = text_bytes.reshape(-1), keep_bytes.reshape(-1)
    joined = np.empty(np.count_nonzero(keep_bytes), dtype=np.uint8)
    end = 0
    for start in range(0, text_bytes.size, _CSV_PIECE):
        piece = slice(start, start + _CSV_PIECE)
        kept = np.flatnonzero(keep_bytes[piece])
        text_bytes[piece].take(kept, out=joined[end : end + kept.size], mode="clip")
        end += kept.size
    return memoryview(joined)


def _csv_blocks(header: str, chunks: Iterable[np.ndarray]) -> Iterator[str]:
    """The line ``header``, then one line per row of each 2-D array of
    ``chunks`` in turn, each value as ``"%.17g" % v``, as text pieces for
    ``_write``: the one CSV text, of ``boxdim``'s ladder (one array) and of
    ``sample``'s points (each chunk as the workers yield it).

    The text is built in numpy, ``_CSV_BLOCK`` rows at a time, all in one
    ``_CsvScratch``, and is the same byte for byte as Python's.  For each
    value ``a = |v|`` with decimal exponent X in -4..16 (the fixed-point
    range of ``%.17g``):

    * the 17 significant digits are ``N = round(a * 10^(16 - X))``.
      ``10^k`` is exact in a double for k <= 22, and Dekker's ``two_prod``
      (a Veltkamp split; numpy has no fma) gives ``hi + lo == a * 10^k``
      exactly.  ``hi`` is an even integer once it reaches 2^53 < 10^16,
      so ``N = hi + rint(lo)``, and ``rint`` rounds half to even exactly
      as CPython's correctly rounded dtoa does;
    * X comes from ``log10`` and is stepped by one where N falls outside
      ``[10^16, 10^17)``, which also catches a rounding that carries into
      the next decade;
    * the digits fill a fixed 40-byte layout, ``-0.000`` and then each
      digit followed by ``.``; a mask chosen by (sign, X, last nonzero
      digit) keeps the bytes of the text, and a gather of the kept
      bytes, ``_CSV_PIECE`` bytes of the block at a time, joins it.

    The values the layout cannot hold -- +-0, nan, +-inf, subnormals,
    ``|v| < 1e-4`` and ``|v| >= 1e17`` -- are formatted one at a time with
    ``"%.17g"`` and written into their rows before the join.
    """
    scratch = None
    yield header + "\n"
    for rows in chunks:
        seps = np.frombuffer(b"," * (rows.shape[1] - 1) + b"\n", dtype=np.uint8)
        for start in range(0, rows.shape[0], _CSV_BLOCK):
            block = rows[start : start + _CSV_BLOCK]
            if scratch is None or scratch.size < block.size:
                scratch = _CsvScratch(block.size)
            yield str(_csv_text(block, seps, scratch), "ascii")


# --------------------------------------------------------------------------
# argument resolution


def _parse_gaps(text: str) -> GapSequence:
    rule, colon, arg = text.partition(":")
    if colon and rule == "list":
        data = _read_json(arg, "gap list file")
        if isinstance(data, list):
            data = {"rule": "list", "values": data}
        return _from_json(GapSequence.from_json, data, "gap list file")
    if colon and rule == "constant":
        try:
            c = int(arg)
        except ValueError as exc:
            raise ValidationError(f"bad constant gap value in {text!r}") from exc
        return GapSequence("constant", c=c)
    if not colon:
        try:
            return GapSequence.from_json({"rule": rule})
        except ValidationError:
            pass  # an unknown rule, or one that takes parameters
    raise ValidationError(
        f"unknown gap rule {text!r}; use zero|constant:c|linear|quadratic|list:file"
    )


def _build_system(args) -> SystemSpec:
    text = args.system
    if not text:
        raise ValidationError(f"{args.command} needs --system")
    if text.lstrip().startswith("{"):
        return _from_json(SystemSpec.from_json, json.loads(text), "--system JSON")
    return SystemSpec(text, a=args.a, beta1=args.beta1, beta2=args.beta2, beta=args.beta,
                      tau=args.tau)


def _resolve_seed(args) -> int:
    if args.seed is None:
        raise ValidationError("--seed is mandatory; wall-clock seeding is not supported")
    return args.seed


def _ladder(args) -> GridLadder:
    """The ladder of the flags: --eps-ratio an integer b >= 2, and both
    ends b^-k for integers k, each to a relative 1e-12."""
    ratio = args.eps_ratio
    if not (2 <= ratio < math.inf and ratio == int(ratio)):
        raise ValidationError(f"--eps-ratio must be an integer >= 2, got {ratio!r}")
    base = int(ratio)
    exponents = []
    for flag, eps in (("--eps-max", args.eps_max), ("--eps-min", args.eps_min)):
        k = round(-math.log(eps) / math.log(base)) if 0 < eps < math.inf else -1
        if k < 0 or not math.isclose(eps, float(base) ** -k, rel_tol=1e-12):
            raise ValidationError(f"{flag} {eps!r} is not {base}^-k for an integer k >= 0")
        exponents.append(k)
    if exponents[0] > exponents[1]:
        raise ValidationError(
            f"--eps-min {args.eps_min!r} is larger than --eps-max {args.eps_max!r}")
    return GridLadder(base, *exponents)


def _load_sequence_file(path: str) -> SymbolSequence:
    return _from_json(SymbolSequence.from_json, _read_json(path, "sequence file"), "sequence file")


# --------------------------------------------------------------------------
# subcommands


def cmd_dimension(args) -> int:
    report: dict = {"directions": []}
    if args.ifs:
        directions = [("ifs", load_ifs(args.ifs))]
    elif args.system:
        spec = _build_system(args)
        *past, future = derive_ifs(spec)
        directions = [("contracting[0]", ifs) for ifs in past] + [("expanding", future)]
        report["system"] = spec.to_json()
    else:
        raise ValidationError("dimension needs --system or --ifs")

    total = 0.0
    for name, ifs in directions:
        sol = moran_dimension(ifs.ratios)
        total += sol.dimension
        report["directions"].append(
            {"name": name, "dimension": sol.dimension, "residual": sol.residual,
             "ratios": list(ifs.ratios)}
        )
        print(f"D[{name}] = {sol.dimension:.10g}  (residual {sol.residual:.3g})")
    report["total_dimension"] = total
    if len(directions) > 1:
        print(f"D[total] = {total:.10g}")
    if args.out:
        _write([_json_text(report)], args.out)
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.length is None:
        raise ValidationError("construct needs --length")
    if args.length < 1:
        raise ValidationError("--length must be >= 1")
    gaps = _parse_gaps(args.gaps)
    report_gap = check_gap_condition(gaps, max(10, min(args.length, 100)))
    rng = _chunk_rng(_resolve_seed(args))
    if args.base == "random":
        base = random_sequence(args.m, args.length + 8, rng)
    elif args.base == "ones":
        base = SymbolSequence(args.m, np.ones(args.length + 8, dtype=int))
    else:
        base = _load_sequence_file(args.base)
    if args.filler == "random":
        filler = random_sequence(args.m, args.length, rng)
    elif args.filler == "base":
        filler = shadow_filler(base, gaps, args.length)
    else:
        filler = _load_sequence_file(args.filler)

    partner = construct_partner(base, gaps, filler, args.length)
    blocks = schedule_covering(gaps, args.length)
    # printed once every input has been read, so a failed run prints nothing
    print(f"gap condition: {report_gap.verdict} ({report_gap.detail})")
    out = {
        "base": base.to_json(),
        "partner": partner.to_json(),
        "schedule": {"blocks": blocks, "span": blocks[-1].end},
        "gap_condition": report_gap,
    }
    if args.extract:
        recovered = extract_filler(partner, base, gaps)
        out["filler_recovered"] = recovered.digits.tolist()
        print(f"recovered filler digits: {out['filler_recovered']}")
    print(f"partner digits: {partner.digits.tolist()}")
    _write([_json_text(out)], args.out)
    return EXIT_OK


def _unsafe_iteration_report(spec, base, partner, depth, steps) -> dict:
    """Demonstrate naive floating-point orbit iteration drifting off the
    conjugacy-evaluated orbit (demo only; never used for verdicts)."""
    centers, _ = _sequence_orbit(spec, (base, partner), range(steps), depth)
    x, y = centers[0, 0].copy(), centers[0, 1].copy()
    rows = []
    stopped = None
    for n, coded in enumerate(_row_norms(centers[:, 0] - centers[:, 1]).tolist()):
        naive = float(np.linalg.norm(x - y))
        rows.append({"time": n, "naive": naive, "coded": coded, "drift": abs(naive - coded)})
        try:
            x = apply_map(spec, x)
            y = apply_map(spec, y)
        except ValidationError as exc:
            stopped = {"time": n + 1, "reason": str(exc)}
            break
    return {"rows": rows, "stopped": stopped}


def cmd_verify(args) -> int:
    spec = _build_system(args)
    gaps = _parse_gaps(args.gaps)
    seed = _resolve_seed(args)
    base, partner = build_verification_pair(
        spec, gaps, args.blocks, args.depth, seed, filler_mode=args.filler
    )
    strict = args.pair_mode == "constructed"  # the controls break the pattern on purpose
    if args.pair_mode == "identical":
        partner = base
    elif args.pair_mode == "eventually-equal":
        partner = break_pair_after_block(base, partner, gaps, last_kept_block=2)

    profile = liyorke_profile(spec, base, gaps, partner, args.blocks, args.depth, strict=strict)
    verdict = verify_liyorke(profile)
    gap_report = check_gap_condition(gaps, 100)

    label = "PASS" if verdict.passed else "FAIL"
    print(f"{label}: {verdict.reason}")
    if verdict.witness is not None:
        w = verdict.witness
        print(f"  witness: block {w.block}, orbit time {w.time}, bound {w.bound:.6g}")
    print(
        f"  system {spec.kind}, {args.blocks} blocks, depth {args.depth}, "
        f"gap rule {args.gaps} ({gap_report.verdict})"
    )

    report = {
        "system": spec.to_json(),
        "pair_mode": args.pair_mode,
        "verdict": verdict,
        "profile": profile,
        "gap_condition": {"verdict": gap_report.verdict, "detail": gap_report.detail},
        "params": {
            "blocks": args.blocks,
            "depth": args.depth,
            "seed": seed,
            "filler": args.filler,
        },
    }
    if args.unsafe_iterate:
        report["unsafe_iteration"] = _unsafe_iteration_report(
            spec, base, partner, args.depth, min(args.blocks * 2, 24)
        )
        worst = max(
            (r["drift"] for r in report["unsafe_iteration"]["rows"]), default=0.0
        )
        print(f"  unsafe-iterate demo: max naive-vs-coded drift {worst:.3g}")
    if args.out:
        _write([_json_text(report)], args.out)
    return EXIT_OK


def _target(args) -> tuple:
    """The ``_sample`` job, a (worker, box, count) triple, of the target
    flags of ``boxdim`` and ``sample`` at their ``--count``, ``--depth``
    and ``--seed``, every flag resolved and checked before anything is
    sampled."""
    seed = _resolve_seed(args)
    sizes = (args.count, args.depth, seed)
    if args.target == "system":
        if not args.system:
            raise ValidationError("--target system needs --system")
        return _attractor_job(derive_ifs(_build_system(args)), *sizes)
    if args.ifs:
        ifs = load_ifs(args.ifs)
    elif args.system:
        # the first block: a two-sided system's past coordinate, where its
        # pair set does not live (ROADMAP item 3's fault, kept until then)
        ifs = derive_ifs(_build_system(args))[0]
    else:
        raise ValidationError(f"{args.command} needs --ifs, --system, or --target system")
    if args.target == "attractor":
        return _attractor_job((ifs,), *sizes)
    gaps = _parse_gaps(args.gaps)
    if args.target == "pairs":
        return _pair_job(ifs, gaps, *sizes)
    if args.base == "random":
        base = random_sequence(ifs.m, args.depth, _chunk_rng(seed, 9))
    else:
        base = _load_sequence_file(args.base)
    return _restricted_job(ifs, base, gaps, *sizes)


def cmd_boxdim(args) -> int:
    """Box-count the target's sample as it streams from the workers, in
    the sampler's domain box, so no array of the points is held; the
    counts equal those of the collected sample.  Each chunk is counted
    while the workers sample the next, and an error stops them."""
    ladder = _ladder(args)
    _, box, _ = job = _target(args)
    with contextlib.closing(_sample(job, args.threads)) as chunks:
        est = dimension_fit(box_count(chunks, ladder, box=box))
    print(
        f"box dimension[{args.target}]: slope = {est.slope:.4f} +/- {est.stderr:.4f} "
        f"over {len(est.fit_range)} ladder points"
    )
    if args.format == "csv":
        rows = [(-math.log(e), math.log(n)) for e, n in zip(est.epsilons, est.counts)]
        _write(_csv_blocks("neg_log_eps,log_count", [np.array(rows)]), args.out)
    else:
        _write([_json_text({**dataclasses.asdict(est), "target": args.target})], args.out)
    return EXIT_OK


def _json_points(chunks: Iterable[np.ndarray]) -> Iterator[str]:
    """``_json_text({"points": rows})`` of the chunks' rows, a piece per chunk."""
    yield '{\n  "points": [\n'
    for i, rows in enumerate(chunks):
        yield (",\n" if i else "") + ",\n".join(f"    {_json_text(r, 2)}" for r in rows.tolist())
    yield "\n  ]\n}"


def cmd_sample(args) -> int:
    """Write each chunk's ``_csv_blocks`` or ``_json_points`` text once it is
    sampled, with no array of all the points.  The output opens after the
    first chunk, so a job that fails on it writes no byte and no ``--out`` file."""
    _, box, _ = job = _target(args)
    with contextlib.closing(_sample(job, args.threads)) as stream:
        chunks = itertools.chain((next(stream),), stream)
        if args.format == "csv":
            _write(_csv_blocks(",".join(f"x{i + 1}" for i in range(len(box))), chunks), args.out)
        else:
            _write(_json_points(chunks), args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser and config-file overlay (precedence: flags > config file > defaults)


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", help="tent|baker|horseshoe|solenoid or inline JSON spec")
    p.add_argument("--a", type=float, help="tent slope parameter (a > 1)")
    p.add_argument("--beta1", type=float, help="baker/solenoid first contraction")
    p.add_argument("--beta2", type=float, help="baker/solenoid second contraction")
    p.add_argument("--beta", type=float, help="horseshoe contraction (0 < beta < 1/2)")
    p.add_argument("--tau", type=float, help="horseshoe expansion (tau > 2)")


def _add_target_flags(p: argparse.ArgumentParser, count: int) -> None:
    """What boxdim and sample draw, and the format they write."""
    p.add_argument("--ifs", help="IFS definition JSON file")
    p.add_argument("--target", choices=("attractor", "restricted", "pairs", "system"),
                   default="attractor", help="what to sample (default %(default)s)")
    p.add_argument("--gaps", default="quadratic",
                   help="gap rule for restricted/pairs (default %(default)s)")
    p.add_argument("--base", default="random",
                   help="random|sequence JSON file for restricted (default %(default)s)")
    p.add_argument("--count", type=int, default=count, help="sample size (default %(default)s)")
    p.add_argument("--depth", type=int, default=30, help="coding depth (default %(default)s)")
    p.add_argument("--threads", type=int, default=1,
                   help="sampling worker threads (default %(default)s)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default %(default)s)")


def _add_common_flags(p: argparse.ArgumentParser, out: str = "stdout") -> None:
    """``out`` says where the output goes without --out."""
    p.add_argument("--config", help="JSON config file; explicit flags override its keys")
    p.add_argument("--seed", type=int, help="RNG seed (mandatory for sampling; no default)")
    p.add_argument("--out", help=f"output file, '-' = stdout (default {out})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lypairs",
        description="Li-Yorke pairs on self-similar invariant sets: "
        "construction, coding, and desk-scale verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dimension", help="Moran dimension of a coding system")
    _add_system_flags(p)
    p.add_argument("--ifs", help="IFS definition JSON file")
    _add_common_flags(p, out="none: only the summary is printed")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("construct", help="build a partner sequence and schedule")
    p.add_argument("--m", type=int, default=2, help="alphabet size (default %(default)s)")
    p.add_argument("--length", type=int, help="partner prefix length (required)")
    p.add_argument("--gaps", default="quadratic", help="gap rule (default %(default)s)")
    p.add_argument("--base", default="random",
                   help="random|ones|sequence JSON file (default %(default)s)")
    p.add_argument("--filler", default="random",
                   help="random|base|sequence JSON file (default %(default)s)")
    p.add_argument("--extract", action="store_true", help="round-trip the filler back out")
    _add_common_flags(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="certified Li-Yorke verdict for a pair")
    _add_system_flags(p)
    p.add_argument("--gaps", default="quadratic", help="gap rule (default %(default)s)")
    p.add_argument("--blocks", type=int, default=12,
                   help="schedule blocks to check (default %(default)s)")
    p.add_argument("--depth", type=int, default=18, help="coding depth (default %(default)s)")
    p.add_argument("--filler", choices=("base", "random"), default="base",
                   help="free-digit source for the pair (default %(default)s)")
    p.add_argument(
        "--pair-mode", choices=("constructed", "identical", "eventually-equal"),
        default="constructed",
        help="negative controls replace the constructed partner (default %(default)s)",
    )
    p.add_argument(
        "--unsafe-iterate", action="store_true",
        help="also demo naive float iteration (divergence showcase; no effect on verdict)",
    )
    _add_common_flags(p, out="none: only the summary is printed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("boxdim", help="box-counting dimension of a sampled target")
    _add_system_flags(p)
    _add_target_flags(p, count=200_000)
    p.add_argument("--eps-min", type=float, default=2.0**-14,
                   help="smallest grid size (default %(default)s)")
    p.add_argument("--eps-max", type=float, default=2.0**-4,
                   help="largest grid size (default %(default)s)")
    p.add_argument("--eps-ratio", type=float, default=2.0,
                   help="ladder base b, an integer >= 2; both ends are b^-k "
                   "(default %(default)s)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_boxdim)

    p = sub.add_parser("sample", help="emit a raw point cloud")
    _add_system_flags(p)
    _add_target_flags(p, count=10_000)
    _add_common_flags(p)
    p.set_defaults(func=cmd_sample)

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value, coerced and checked like the flag it stands for."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValidationError(f"config key {key!r} takes true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"config key {key!r} takes a string or a number, got {value!r}")
    try:
        value = (action.type or str)(str(value))
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise ValidationError(f"config key {key!r} must be one of {', '.join(action.choices)}")
    return value


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads argv with, built on first use (not at
    import) and never modified afterwards."""
    return build_parser()


def _with_config(args, argv) -> argparse.Namespace:
    """argv parsed again, with the --config file's keys as the subcommand's
    defaults, so that explicit flags still override them.  The defaults go
    into a parser of its own, so no later call sees them."""
    data = _read_json(args.config, "config file")
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices[args.command]
    actions = {a.dest: a for a in command._actions
               if a.option_strings and a.default is not argparse.SUPPRESS}
    values = {}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValidationError(f"config key {key!r} unknown for this command")
        values[attr] = _config_value(actions[attr], key, value)
    command.set_defaults(**values)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        if args.config:
            args = _with_config(args, argv)
        # checked here for every command, dimension too, which reads no seed
        if args.seed is not None and args.seed < 0:
            raise ValidationError("--seed must be non-negative")
        if getattr(args, "ifs", None) and args.system:
            raise ValidationError(f"{args.command} takes --ifs or --system, not both")
        return args.func(args)
    except (DegenerateFit, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (LypairsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # numpy refuses an array of the sizes asked for
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:  # inline --system JSON; files raise ValidationError
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
