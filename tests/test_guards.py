"""Argument checks of the library layers: each bad call raises its own
error class with its own message."""

import pytest

from lypairs.analysis import build_verification_pair
from lypairs.errors import ParameterOutOfRange, ValidationError
from lypairs.fractal import IfsSystem, Similitude, load_ifs, sample_attractor, sample_restricted
from lypairs.symbolic import (
    TWO_SIDED,
    GapSequence,
    SymbolSequence,
    construct_partner,
    extract_filler,
    sequence_dist,
    shift,
)
from lypairs.systems import SystemSpec, _sequence_orbit, conjugacy_defect

TENT = SystemSpec("tent", a=2.0)
ZERO = GapSequence("constant", c=0)
ONES = SymbolSequence(2, (1,) * 12)
TWO_SIDED_ONES = SymbolSequence(2, (1,) * 12, side=TWO_SIDED, past=(1,) * 4)
TERNARY_ONES = SymbolSequence(3, (1,) * 12)
UNIT = ((0.0, 1.0),)
CANTOR = IfsSystem((Similitude(1 / 3, [0.0]), Similitude(1 / 3, [2 / 3])), UNIT)

GUARDS = [
    # symbolic
    pytest.param(lambda: SymbolSequence(2, (1,), side="both"), ValidationError,
                 "side must be 'one' or 'two'", id="sequence-side"),
    pytest.param(lambda: SymbolSequence(2, (1,), past=(1,)), ValidationError,
                 "one-sided sequences cannot carry past digits", id="sequence-one-sided-past"),
    pytest.param(lambda: shift(ONES, -1), ValidationError,
                 "shift amount must be non-negative", id="shift-negative"),
    pytest.param(lambda: sequence_dist(ONES, ONES, 0.0), ValidationError,
                 "tail_bound must be positive", id="dist-tail-bound"),
    pytest.param(lambda: GapSequence("list", values=[1, -1]), ValidationError,
                 "gap values must be non-negative", id="gap-negative-value"),
    pytest.param(lambda: GapSequence("constant", c=-2), ValidationError,
                 "gap parameters must be non-negative", id="gap-negative-parameter"),
    pytest.param(lambda: GapSequence("linear").value(0), ValidationError,
                 "gap index starts at 1", id="gap-index-0"),
    pytest.param(lambda: construct_partner(TWO_SIDED_ONES, ZERO, ONES, 6), ValidationError,
                 "partner construction operates on one-sided sequences", id="construct-side"),
    pytest.param(lambda: construct_partner(ONES, ZERO, TERNARY_ONES, 6), ValidationError,
                 "base and filler must share the alphabet size", id="construct-alphabet"),
    pytest.param(lambda: extract_filler(TWO_SIDED_ONES, ONES, ZERO), ValidationError,
                 "filler extraction operates on one-sided sequences", id="extract-side"),
    pytest.param(lambda: extract_filler(TERNARY_ONES, ONES, ZERO), ValidationError,
                 "partner and base must share the alphabet size", id="extract-alphabet"),
    pytest.param(lambda: extract_filler(SymbolSequence(2, ()), ONES, ZERO), ValidationError,
                 "partner prefix is empty", id="extract-empty"),
    # fractal
    pytest.param(lambda: Similitude(0.5, (0.0,), (2,)), ParameterOutOfRange,
                 "orthogonal part must be a +/-1 diagonal", id="similitude-flip"),
    pytest.param(lambda: Similitude(0.5, (0.0,), (1, 1)), ValidationError,
                 "flips and translation dimensions differ", id="similitude-shape"),
    pytest.param(lambda: IfsSystem((), UNIT), ValidationError,
                 "an IFS needs at least one map", id="ifs-no-maps"),
    pytest.param(lambda: IfsSystem(CANTOR.maps, ((1.0, 1.0),)), ValidationError,
                 "domain box must have positive width on every axis", id="ifs-flat-box"),
    pytest.param(lambda: IfsSystem((Similitude(0.5, [0.0, 0.0]),), UNIT), ValidationError,
                 "map dimension does not match the domain box", id="ifs-map-dimension"),
    pytest.param(lambda: sample_restricted(CANTOR, TWO_SIDED_ONES, ZERO, 10, 8, seed=1),
                 ValidationError, "restricted sampling takes a one-sided base",
                 id="restricted-side"),
    pytest.param(lambda: sample_restricted(CANTOR, TERNARY_ONES, ZERO, 10, 8, seed=1),
                 ValidationError, "base alphabet must match the number of IFS maps",
                 id="restricted-alphabet"),
    *(pytest.param(lambda t=threads: sample_attractor(CANTOR, 10, 8, seed=1, threads=t),
                   ValidationError, "threads must be a positive integer",
                   id=f"sampler-threads-{threads!r}")
      for threads in (0, -3, 2.5, "2", None)),
    # checked before the (count, w) result is allocated: 10^13 rows cannot be
    *(pytest.param(lambda t=threads: sample_attractor(CANTOR, 10**13, 8, seed=1, threads=t),
                   ValidationError, "threads must be a positive integer",
                   id=f"sampler-threads-{threads!r}-huge-count")
      for threads in (0, "2")),
    # systems
    *(pytest.param(lambda kind=kind, betas=betas: SystemSpec(kind, **betas),
                   ParameterOutOfRange, "beta1, beta2 must lie in (0,1)", id=f"spec-{kind}-{name}")
      for kind in ("baker", "solenoid")
      for name, betas in (("beta1-0", {"beta1": 0.0, "beta2": 0.25}),
                          ("beta2-1", {"beta1": 0.25, "beta2": 1.0}),
                          ("beta2-missing", {"beta1": 0.25}))),
    pytest.param(lambda: SystemSpec("tent", a=[2.0]), ValidationError,
                 "a must be real numbers: ", id="spec-non-real"),
    pytest.param(lambda: _sequence_orbit(TENT, (TERNARY_ONES,), (0,), 4), ValidationError,
                 "the example systems are coded over two symbols", id="orbit-alphabet"),
    pytest.param(lambda: _sequence_orbit(TENT, (ONES,), (0,), 0), ValidationError,
                 "depth must be >= 1", id="orbit-depth"),
    pytest.param(lambda: conjugacy_defect(TENT, 0, 10, 5, seed=1), ValidationError,
                 "trials must be >= 1", id="conjugacy-trials"),
    pytest.param(lambda: conjugacy_defect(TENT, 1, 5, 5, seed=1), ValidationError,
                 "prefix_len must be at least depth + 1", id="conjugacy-prefix"),
    # analysis
    pytest.param(lambda: build_verification_pair(TENT, ZERO, 12, 18, 1, filler_mode="shadow"),
                 ValidationError, "filler_mode must be 'base' or 'random'", id="pair-filler"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    # the guard's own class, not a subclass raised by a deeper check
    assert type(info.value) is error
    text = str(info.value)
    # a message ending in ": " goes on with the text of Python's own error
    assert text == message or (message.endswith(": ") and text.startswith(message))


@pytest.mark.parametrize("text, message", [
    (None, "IFS file not found: {path}"),
    ('{"K": [[0, 1]]}', "malformed IFS file: KeyError('maps')"),
    ("not json", "malformed JSON input: Expecting value: line 1 column 1 (char 0)"),
], ids=["missing", "malformed", "not-json"])
def test_load_ifs_raises_validation_error(tmp_path, text, message):
    path = tmp_path / "ifs.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValidationError) as info:
        load_ifs(path)
    assert type(info.value) is ValidationError
    assert str(info.value) == message.format(path=path)
