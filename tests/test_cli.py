"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import json
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lypairs import cli, symbolic
from lypairs.analysis import GridLadder, box_count
from lypairs.cli import build_parser, main
from lypairs.errors import ValidationError
from lypairs.fractal import (
    _CHUNK,
    IfsSystem,
    load_ifs,
    sample_attractor,
    sample_pair_set,
    sample_restricted,
)
from lypairs.symbolic import GapSequence, SymbolSequence
from lypairs.systems import SystemSpec, sample_invariant_set


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture()
def cantor_json(tmp_path):
    path = tmp_path / "cantor.json"
    path.write_text(
        json.dumps(
            {
                "w": 1,
                "K": [[0, 1]],
                "maps": [
                    {"ratio": 1 / 3, "orth": [1], "t": [0]},
                    {"ratio": 1 / 3, "orth": [1], "t": [2 / 3]},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture()
def overlapping_json(tmp_path):
    path = tmp_path / "overlapping.json"
    path.write_text(
        json.dumps(
            {
                "w": 1,
                "K": [[0, 1]],
                "maps": [
                    {"ratio": 0.5, "orth": [1], "t": [0]},
                    {"ratio": 0.5, "orth": [1], "t": [0.5]},
                ],
            }
        )
    )
    return str(path)


# --------------------------------------------------------------------------
# dimension


def test_dimension_tent(capsys):
    rc, out, _ = run(capsys, "dimension", "--system", "tent", "--a", "2")
    assert rc == 0
    assert "= 0.5" in out


def test_dimension_cantor_file(capsys, cantor_json):
    rc, out, _ = run(capsys, "dimension", "--ifs", cantor_json)
    assert rc == 0
    assert "0.6309297536" in out


def test_dimension_overlapping_exits_2(capsys, overlapping_json):
    rc, _, err = run(capsys, "dimension", "--ifs", overlapping_json)
    assert rc == 2
    assert "gap" in err or "touch" in err or "intersect" in err


def test_dimension_horseshoe_total(capsys):
    rc, out, _ = run(capsys, "dimension", "--system", "horseshoe", "--beta",
                     str(1 / 3), "--tau", "3")
    assert rc == 0
    assert "D[total] = 1.261859507" in out


def test_dimension_needs_a_source(capsys):
    rc, _, err = run(capsys, "dimension")
    assert rc == 2


# --------------------------------------------------------------------------
# construct


def test_construct_all_ones_zero_gaps(capsys, tmp_path):
    out_file = tmp_path / "partner.json"
    rc, out, _ = run(
        capsys,
        "construct", "--m", "2", "--length", "6", "--gaps", "zero",
        "--base", "ones", "--seed", "0", "--out", str(out_file),
    )
    assert rc == 0
    assert "gap condition: fail" in out
    data = json.loads(out_file.read_text())
    assert data["partner"]["digits"] == [1, 2, 1, 1, 2, 1]
    assert data["schedule"]["blocks"][0]["start"] == 1
    # zero is the CLI's word for constant:0
    constant = tmp_path / "constant.json"
    assert run(
        capsys,
        "construct", "--m", "2", "--length", "6", "--gaps", "constant:0",
        "--base", "ones", "--seed", "0", "--out", str(constant),
    ) == (0, out, "")
    assert constant.read_bytes() == out_file.read_bytes()


def test_construct_extract_round_trip(capsys, tmp_path):
    out_file = tmp_path / "partner.json"
    rc, out, _ = run(
        capsys,
        "construct", "--m", "3", "--length", "40", "--gaps", "quadratic",
        "--seed", "11", "--extract", "--out", str(out_file),
    )
    assert rc == 0
    assert "gap condition: pass" in out
    assert "recovered filler digits" in out
    data = json.loads(out_file.read_text())
    assert "filler_recovered" in data


def test_construct_gap_list_file(capsys, tmp_path):
    gap_file = tmp_path / "gaps.json"
    gap_file.write_text("[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]")
    out_file = tmp_path / "partner.json"
    rc, out, _ = run(
        capsys,
        "construct", "--m", "2", "--length", "10",
        "--gaps", f"list:{gap_file}", "--seed", "1", "--out", str(out_file),
    )
    assert rc == 0
    assert "inconclusive" in out


def test_construct_bad_gap_rule(capsys):
    rc, _, err = run(capsys, "construct", "--m", "2", "--length", "5",
                     "--gaps", "cubic", "--seed", "1")
    assert rc == 2


def test_construct_constant_gaps_from_a_filler_file(capsys, tmp_path):
    filler = tmp_path / "filler.json"
    filler.write_text(json.dumps({"m": 2, "digits": [2, 1, 2, 2, 1, 2]}))
    out_file = tmp_path / "partner.json"
    rc, out, _ = run(capsys, "construct", "--m", "2", "--length", "10", "--gaps", "constant:3",
                     "--base", "ones", "--filler", str(filler), "--seed", "1", "--extract",
                     "--out", str(out_file))
    assert rc == 0
    assert "gap condition: fail (ratio M/3 diverges)" in out
    data = json.loads(out_file.read_text())
    assert [b["free_count"] for b in data["schedule"]["blocks"]] == [3, 3]
    # positions 3-5 and 9-10 are free; 2 and 8 are flipped
    assert data["partner"]["digits"] == [1, 2, 2, 1, 2, 1, 1, 2, 2, 1]
    assert data["filler_recovered"] == [2, 1, 2, 2, 1]


@pytest.mark.parametrize("argv, message", [
    (["construct", "--length", "5", "--gaps", "constant:x", "--seed", "1"],
     "bad constant gap value in 'constant:x'"),
    (["construct", "--length", "0", "--seed", "1"], "--length must be >= 1"),
    (["verify", "--system", "tent", "--a", "2", "--blocks", "0", "--seed", "1"],
     "block_count must be >= 1"),
    (["verify", "--config", "{list}"], "config file must hold a JSON object"),
    (["construct", "--length", "5", "--seed", "1", "--base", "{sideways}"],
     "side must be 'one' or 'two', got 'sideways'"),
    (["verify", "--system", "tent", "--a", "1e308", "--seed", "1"],
     "tent map needs a finite 2a, got a = 1e+308"),
    (["verify", "--system", "horseshoe", "--beta", "0.3", "--tau", "inf", "--blocks", "3",
      "--depth", "10", "--seed", "1"],
     "horseshoe needs a finite tau, got tau = inf"),
    (["sample", "--seed", "1"], "sample needs --ifs, --system, or --target system"),
    (["boxdim", "--ifs", "{cantor}", "--target", "system", "--seed", "1"],
     "--target system needs --system"),
    (["sample", "--target", "system", "--seed", "1"], "--target system needs --system"),
    # dimension reads no seed, but a given one is checked as every command checks it
    (["dimension", "--system", "tent", "--a", "2", "--seed", "-5"], "--seed must be non-negative"),
    (["dimension", "--system", "tent", "--a", "2", "--config", "{seed}"],
     "--seed must be non-negative"),
    # --ifs and --system together, whatever the rest of the flags
    (["dimension", "--ifs", "{cantor}", "--system", "nonsense", "--out", "{out}"],
     "dimension takes --ifs or --system, not both"),
    (["boxdim", "--ifs", "{cantor}", "--system", "tent", "--a", "0.5", "--seed", "1",
      "--count", "20000"], "boxdim takes --ifs or --system, not both"),
    (["sample", "--target", "system", "--system", "tent", "--a", "2", "--ifs",
      "/nonexistent.json", "--seed", "1", "--count", "2", "--out", "{out}"],
     "sample takes --ifs or --system, not both"),
    (["sample", "--system", "tent", "--a", "2", "--config", "{ifs-config}", "--seed", "1"],
     "sample takes --ifs or --system, not both"),
    # a file key that no reader takes
    (["sample", "--ifs", "{flips-key}", "--seed", "1", "--count", "2", "--format", "csv"],
     "unknown key 'flips' in an IFS map; it takes ratio, t, orth"),
    (["dimension", "--ifs", "{ifs-key}"], "unknown key 'name' in an IFS file; it takes w, K, maps"),
    (["construct", "--length", "5", "--seed", "1", "--base", "{sidee}"],
     "unknown key 'past' in a one-sided sequence; it takes m, side, digits"),
    # one spelling per input: a system is a kind name, a gap list file an
    # array, a config key a flag's dest name
    (["dimension", "--system", "moon"],
     "unknown system kind 'moon'; use tent, baker, horseshoe or solenoid"),
    (["dimension", "--system", '{"kind": "tent", "a": 3}', "--a", "2"],
     """unknown system kind '{"kind": "tent", "a": 3}'; use tent, baker, horseshoe or solenoid"""),
    (["construct", "--length", "5", "--seed", "1", "--gaps", "list:{gap-rule}"],
     "gap list file must hold a JSON array of gap values"),
    (["verify", "--system", "tent", "--a", "2", "--seed", "1", "--config", "{pair-modes}"],
     "config key 'pair-mode' unknown for this command"),
], ids=["constant-gap-value", "length-0", "blocks-0", "config-list", "base-side",
        "tent-2a-overflows", "horseshoe-tau-inf", "sample-no-target", "boxdim-system-target",
        "sample-system-target", "dimension-seed-flag", "dimension-seed-config",
        "dimension-ifs-and-system", "boxdim-ifs-and-system", "sample-ifs-and-system",
        "ifs-and-system-config", "ifs-map-key", "ifs-file-key", "sequence-key",
        "system-kind", "system-json", "gap-rule-file", "hyphenated-config-key"])
def test_rejected_input_exits_2_with_its_message(capsys, tmp_path, cantor_json, argv, message):
    files = {"{cantor}": cantor_json, "{out}": str(tmp_path / "out.txt")}
    for name, data in {
        "list": ["--system", "tent"],
        "seed": {"seed": -5},
        "ifs-config": {"ifs": cantor_json},
        "sideways": {"m": 2, "side": "sideways", "past": [1], "future": [2]},
        "sidee": {"m": 2, "digits": [1, 2] * 5, "past": [1, 1], "sidee": "two"},
        "flips-key": {**CANTOR, "maps": [{"ratio": 0.25, "t": [0.0]},
                                         {"ratio": 0.25, "t": [0.75], "flips": [-1]}]},
        "ifs-key": {**CANTOR, "name": "middle thirds"},
        "gap-rule": {"rule": "quadratic"},
        "pair-modes": {"pair-mode": "identical", "pair_mode": "constructed"},
    }.items():
        files[f"{{{name}}}"] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    for name, path in files.items():
        argv = [a.replace(name, path) for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out.txt").exists()


HUGE = str(10**16)  # digits (or int64 draws) whose one array takes 10^16 bytes or more


@pytest.mark.parametrize("argv", [
    ["construct", "--m", "2", "--length", HUGE],
    ["verify", "--system", "tent", "--a", "2", "--blocks", "200000", "--depth", "2"],
    ["boxdim", "--ifs", "{cantor}", "--target", "pairs", "--count", "1", "--depth", HUGE],
    ["sample", "--ifs", "{cantor}", "--count", "1", "--depth", HUGE],
], ids=["construct", "verify", "boxdim", "sample"])
def test_array_too_large_exits_2(capsys, tmp_path, cantor_json, argv):
    # numpy refuses an array of 10^16 bytes before touching memory, even
    # where the system overcommits
    argv = [cantor_json if a == "{cantor}" else a for a in argv] + ["--seed", "1"]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert re.fullmatch(r"error: not enough memory: Unable to allocate .* PiB .*\n", err)
    if argv[0] == "sample":
        # the first chunk fails before the output opens: no JSON header on
        # stdout, and no CSV file
        assert out == ""
        path = tmp_path / "points.csv"
        assert run(capsys, *argv, "--format", "csv", "--out", str(path))[0] == 2
        assert not path.exists()


@pytest.mark.parametrize("content, message", [
    (None, "IFS file not found: {path}"),
    ({"K": [[0, 1]]}, "malformed IFS file: KeyError('maps')"),
], ids=["missing", "malformed"])
def test_bad_ifs_file_exits_2_with_its_message(capsys, tmp_path, content, message):
    path = tmp_path / "ifs.json"
    if content is not None:
        path.write_text(json.dumps(content))
    rc, _, err = run(capsys, "boxdim", "--ifs", str(path), "--seed", "1")
    assert rc == 2
    assert err == f"error: {message.format(path=path)}\n"


# --------------------------------------------------------------------------
# verify


@pytest.mark.parametrize(
    "flags",
    [
        ("--system", "tent", "--a", "2"),
        ("--system", "baker", "--beta1", str(1 / 3), "--beta2", str(1 / 3)),
        ("--system", "horseshoe", "--beta", str(1 / 3), "--tau", "3"),
        ("--system", "solenoid", "--beta1", str(1 / 3), "--beta2", str(1 / 3)),
    ],
)
def test_verify_passes_each_system(capsys, flags):
    rc, out, _ = run(capsys, "verify", *flags, "--seed", "5")
    assert rc == 0
    assert out.startswith("PASS")


def test_verify_identical_pair_fails_with_witness(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    rc, out, _ = run(
        capsys,
        "verify", "--system", "tent", "--a", "2", "--seed", "5",
        "--pair-mode", "identical", "--out", str(out_file),
    )
    assert rc == 0
    assert out.startswith("FAIL")
    assert "witness" in out
    data = json.loads(out_file.read_text())
    assert data["verdict"]["passed"] is False
    assert data["verdict"]["witness"] is not None


def test_verify_eventually_equal_fails(capsys):
    rc, out, _ = run(
        capsys,
        "verify", "--system", "horseshoe", "--beta", str(1 / 3), "--tau", "3",
        "--seed", "5", "--pair-mode", "eventually-equal",
    )
    assert rc == 0
    assert out.startswith("FAIL")


def test_verify_unsafe_iterate_demo(capsys):
    rc, out, _ = run(
        capsys,
        "verify", "--system", "tent", "--a", "2", "--seed", "5", "--unsafe-iterate",
    )
    assert rc == 0
    assert "unsafe-iterate demo" in out


def test_verify_validates_no_digit_in_python(capsys, monkeypatch):
    # at 120 blocks the pair spans 576,240 future digits; integer arrays are
    # checked by their min and max, so only parameters reach _integers
    sent = []
    integers = symbolic._integers

    def counting(values, what):
        out = integers(values, what)
        sent.append(len(out))
        return out

    monkeypatch.setattr(symbolic, "_integers", counting)
    rc, out, _ = run(
        capsys,
        "verify", "--system", "horseshoe", "--beta", str(1 / 3), "--tau", "3",
        "--blocks", "120", "--depth", "40", "--seed", "5",
    )
    assert rc == 0 and out.startswith("PASS")
    assert sum(sent) < 1000


def test_verify_requires_seed(capsys):
    rc, _, err = run(capsys, "verify", "--system", "tent", "--a", "2")
    assert rc == 2
    assert "seed" in err


HORSESHOE_SEED_5 = ("--system", "horseshoe", "--beta", str(1 / 3), "--tau", "3", "--seed", "5")


@pytest.mark.parametrize("source, message", [
    ("flag", "unrecognized arguments: --decay 0.2"),
    ("config", "config key 'decay' unknown"),
])
def test_verify_has_no_decay_option(capsys, tmp_path, source, message):
    # the verdict reads its decay and floor from the profile alone
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"decay": 0.2}))
    extra = ["--decay", "0.2"] if source == "flag" else ["--config", str(config)]
    rc, out, err = run(capsys, "verify", *HORSESHOE_SEED_5, *extra)
    assert (rc, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("source", ["flags", "config"])
def test_system_rejects_parameters_of_another_kind(capsys, tmp_path, source):
    argv = {
        "flags": ["--system", "tent", "--a", "2", "--beta", "0.3"],
        "config": ["--config", str(tmp_path / "config.json")],
    }[source]
    (tmp_path / "config.json").write_text(json.dumps({"system": "tent", "a": 2, "beta": 0.3}))
    rc, out, err = run(capsys, "dimension", *argv)
    assert rc == 2
    assert out == ""
    assert "tent takes only a, not beta" in err


# --------------------------------------------------------------------------
# boxdim / sample


def test_boxdim_cantor_attractor(capsys, cantor_json, tmp_path):
    out_file = tmp_path / "est.json"
    rc, out, _ = run(
        capsys,
        "boxdim", "--ifs", cantor_json, "--count", "200000", "--depth", "30",
        "--seed", "2", "--out", str(out_file),
    )
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert abs(data["slope"] - 0.6309) < 0.03


def test_boxdim_restricted_aligned_ladder(capsys, cantor_json, tmp_path):
    out_file = tmp_path / "restricted.json"
    rc, out, _ = run(
        capsys,
        "boxdim", "--ifs", cantor_json, "--target", "restricted",
        "--gaps", "quadratic", "--count", "200000", "--depth", "40",
        "--seed", "2",
        "--eps-max", repr(3.0**-15), "--eps-min", repr(3.0**-23), "--eps-ratio", "3",
        "--out", str(out_file),
    )
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert abs(data["slope"] - 0.6309) < 0.05


def test_boxdim_pair_set_doubles_slope(capsys, cantor_json, tmp_path):
    out_file = tmp_path / "pairs.json"
    rc, _, _ = run(
        capsys,
        "boxdim", "--ifs", cantor_json, "--target", "pairs",
        "--count", "200000", "--depth", "40", "--seed", "3",
        "--eps-max", repr(3.0**-6), "--eps-min", repr(3.0**-10), "--eps-ratio", "3",
        "--out", str(out_file),
    )
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert abs(data["slope"] - 1.2619) < 0.1


def test_boxdim_csv_output(capsys, cantor_json, tmp_path):
    out_file = tmp_path / "est.csv"
    rc, _, _ = run(
        capsys,
        "boxdim", "--ifs", cantor_json, "--count", "50000", "--depth", "25",
        "--seed", "2", "--format", "csv", "--out", str(out_file),
    )
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "neg_log_eps,log_count"
    assert len(lines) == 12  # dyadic 4..14


def test_boxdim_degenerate_ladder_exits_3(capsys, cantor_json):
    rc, _, err = run(
        capsys,
        "boxdim", "--ifs", cantor_json, "--count", "1000", "--depth", "20",
        "--seed", "2", "--eps-max", "0.5", "--eps-min", "0.25",
    )
    assert rc == 3
    assert "numerical" in err


def test_sample_deterministic_across_threads(capsys, cantor_json, tmp_path):
    files = []
    for threads in ("1", "3"):
        out_file = tmp_path / f"pts_{threads}.csv"
        rc, _, _ = run(
            capsys,
            "sample", "--ifs", cantor_json, "--target", "pairs",
            "--count", "50000", "--depth", "25", "--seed", "7",
            "--threads", threads, "--format", "csv", "--out", str(out_file),
        )
        assert rc == 0
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


def test_boxdim_deterministic_across_threads(capsys, cantor_json, tmp_path):
    files = []
    for threads in ("1", "4"):
        out_file = tmp_path / f"est_{threads}.json"
        rc, _, _ = run(
            capsys,
            "boxdim", "--ifs", cantor_json, "--count", "120000", "--depth", "28",
            "--seed", "9", "--threads", threads, "--out", str(out_file),
        )
        assert rc == 0
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_boxdim_stray_center_exits_2_and_joins_its_workers(
    capsys, cantor_json, monkeypatch, threads, bad
):
    # chunk 2 of 5 gets a center that is NaN or outside the IFS's box
    job = cli._attractor_job

    def stray_job(*args):
        worker, box, count = job(*args)

        def stray_worker(rows):
            fill = worker(rows)

            def stray_fill(i, out):
                fill(i, out)
                if i == 2:
                    out[7] = bad

            return stray_fill

        return stray_worker, box, count

    monkeypatch.setattr(cli, "_attractor_job", stray_job)
    before = threading.active_count()
    rc, out, err = run(
        capsys, "boxdim", "--ifs", cantor_json, "--count", str(5 * _CHUNK), "--depth", "12",
        "--seed", "1", "--threads", str(threads),
    )
    assert (rc, out) == (2, "")
    assert ("finite" if math.isnan(bad) else "outside the box") in err
    assert threading.active_count() == before


def test_boxdim_counts_centers_in_the_containment_slack(capsys, tmp_path):
    # map 1's image overhangs K = [0, 1] by 4e-10, within the 1e-9 that
    # IfsSystem accepts, so the centers that start with a long run of 1s
    # lie below 0; the streamed count equals the collected sample's
    path = tmp_path / "overhang.json"
    path.write_text(json.dumps({"w": 1, "K": [[0, 1]], "maps": [
        {"ratio": 0.5, "t": [-4e-10]}, {"ratio": 0.001, "t": [0.999]}]}))
    out_file = tmp_path / "est.json"
    rc, _, _ = run(
        capsys, "boxdim", "--ifs", str(path), "--count", "100000", "--depth", "40",
        "--seed", "3", "--eps-max", "0.25", "--eps-min", repr(2.0**-20),
        "--out", str(out_file),
    )
    assert rc == 0
    centers = sample_attractor(load_ifs(path), 100000, 40, seed=3).centers
    assert centers.min() < 0
    want = box_count(centers, GridLadder(2, 2, 20)).counts
    assert json.loads(out_file.read_text())["counts"] == list(want)


@pytest.mark.parametrize("target", ["attractor", "restricted", "pairs", "baker", "solenoid"])
def test_boxdim_streamed_counts_equal_the_collected_sample(capsys, cantor_json, tmp_path, target):
    # the restricted set needs a ladder over its free digits 14..22
    ladder = GridLadder(3, 12, 23) if target == "restricted" else GridLadder(2, 4, 14)
    count = 3 * _CHUNK + 7
    argv = [*sample_source(target, cantor_json, tmp_path), "--seed", "5", "--depth", "40",
            "--count", str(count), "--eps-ratio", str(ladder.base),
            "--eps-max", repr(ladder.epsilons[0]), "--eps-min", repr(ladder.epsilons[-1])]
    job = cli._target(build_parser().parse_args(["boxdim", *argv]))
    centers = np.empty((count, len(job[1])))
    for _ in cli._sample(job, 1, centers):
        pass
    want = box_count(centers, ladder).counts
    for threads in ("1", "2"):
        out_file = tmp_path / f"est-{threads}.json"
        rc, _, _ = run(capsys, "boxdim", *argv, "--threads", threads, "--out", str(out_file))
        assert rc == 0
        assert json.loads(out_file.read_text())["counts"] == list(want)


def test_sample_system_target(capsys, tmp_path):
    out_file = tmp_path / "horseshoe.csv"
    rc, _, _ = run(
        capsys,
        "sample", "--system", "horseshoe", "--beta", str(1 / 3), "--tau", "3",
        "--target", "system", "--count", "1000", "--depth", "15",
        "--seed", "1", "--format", "csv", "--out", str(out_file),
    )
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 1001


# SHA-256 of ``sample --format csv`` output, 40,000 rows (two sampling
# chunks) at depth 40, seed 21.  The digests pin the samplers' output byte
# for byte: a change to the digit draw, the chunking or the coding shows here.
SAMPLE_CSV_SHA256 = {
    "attractor": "d92b7c486fd01460751c06c2e00985897e8e4b0c3811c74c323bba5edd082be9",
    "restricted": "842ec33d147c4810ca232baae9e09696b48387bbe4e8ca5eae84f5f200feac02",
    "pairs": "537c15352ab2fc7ea5b19e0c6e8e8fdd7919ac779205835fb12378fee33c7f07",
    "baker": "8a4aefb6408e48065df3d362228fb2360fcf23d426d228392e8e4ce9da57a68f",
    "tent": "b757a995b54e4191c29f5fee3272f835fd239e6d8085bb67a5a34da9e5040ffd",
    "solenoid": "1b1038178be643d8b69754c4f9d50c2ed6c3145926d02eb12954763f5bd21910",
}


def sample_source(target, cantor_json, tmp_path):
    """The flags that select one of the six ``sample`` targets."""
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"m": 2, "side": "one", "digits": [1, 2, 2, 1] * 12}))
    return {
        "attractor": ["--ifs", cantor_json],
        "restricted": ["--ifs", cantor_json, "--target", "restricted", "--base", str(base)],
        "pairs": ["--ifs", cantor_json, "--target", "pairs"],
        "baker": ["--system", "baker", "--beta1", repr(1 / 3), "--beta2", repr(1 / 3),
                  "--target", "system"],
        # one coordinate block
        "tent": ["--system", "tent", "--a", "2", "--target", "system"],
        # a 2-D past block with unequal ratios beside the 1-D future block
        "solenoid": ["--system", "solenoid", "--beta1", repr(1 / 3), "--beta2", "0.25",
                     "--target", "system"],
    }[target]


@pytest.mark.parametrize("target", list(SAMPLE_CSV_SHA256))
def test_sample_csv_golden_digest(capsys, cantor_json, tmp_path, target):
    source = sample_source(target, cantor_json, tmp_path)
    out_file = tmp_path / f"{target}.csv"
    rc, _, _ = run(
        capsys, "sample", *source, "--count", "40000", "--depth", "40", "--seed", "21",
        "--format", "csv", "--out", str(out_file),
    )
    assert rc == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == SAMPLE_CSV_SHA256[target]


def public_sample(target, cantor_json, count, depth, seed):
    """The public sampler's sample of the target ``sample_source`` selects."""
    ifs, gaps = load_ifs(cantor_json), GapSequence("quadratic")
    systems = {"baker": SystemSpec("baker", beta1=1 / 3, beta2=1 / 3),
               "tent": SystemSpec("tent", a=2.0),
               "solenoid": SystemSpec("solenoid", beta1=1 / 3, beta2=0.25)}
    if target in systems:
        return sample_invariant_set(systems[target], count, depth, seed)
    if target == "attractor":
        return sample_attractor(ifs, count, depth, seed)
    if target == "pairs":
        return sample_pair_set(ifs, gaps, count, depth, seed)
    base = SymbolSequence(2, [1, 2, 2, 1] * 12)
    return sample_restricted(ifs, base, gaps, count, depth, seed)


@pytest.mark.parametrize("target", list(SAMPLE_CSV_SHA256))
def test_streamed_sample_equals_the_public_sampler(capsys, cantor_json, tmp_path, target):
    # counts at the chunk edges; the stream's blocks are its workers' buffers
    argv = ["sample", *sample_source(target, cantor_json, tmp_path), "--seed", "5",
            "--depth", "4"]
    for count in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7):
        want = public_sample(target, cantor_json, count, 4, 5).centers
        for threads in (1, 2, 3):
            job = cli._target(build_parser().parse_args([*argv, "--count", str(count)]))
            got = [rows.copy() for rows in cli._sample(job, threads)]
            assert [len(rows) for rows in got] == [
                min(_CHUNK, count - start) for start in range(0, count, _CHUNK)]
            assert np.vstack(got).tobytes() == want.tobytes()
    # the CLI writes the last count's stream as the CSV of the sampler's array
    out_file = tmp_path / "points.csv"
    rc, _, _ = run(capsys, *argv, "--count", str(count), "--threads", "2",
                   "--format", "csv", "--out", str(out_file))
    assert rc == 0
    header = ",".join(f"x{i + 1}" for i in range(want.shape[1]))
    cli._write(cli._csv_blocks(header, [want]), str(tmp_path / "want.csv"))
    assert out_file.read_bytes() == (tmp_path / "want.csv").read_bytes()


# SHA-256 of `verify --out` JSON: --blocks 24 --depth 40 --seed 5, except
# the --unsafe-iterate demo, which runs at the defaults with seed 3 and stops
# where the naive tent orbit leaves [0, 1]
THIRD = repr(1 / 3)
VERIFY_SYSTEMS = {
    "tent": ["--system", "tent", "--a", "2"],
    "baker": ["--system", "baker", "--beta1", THIRD, "--beta2", THIRD],
    "horseshoe": ["--system", "horseshoe", "--beta", THIRD, "--tau", "3"],
    "solenoid": ["--system", "solenoid", "--beta1", THIRD, "--beta2", THIRD],
}
VERIFY_CASES = {
    **{kind: argv + ["--blocks", "24", "--depth", "40", "--seed", "5"]
       for kind, argv in VERIFY_SYSTEMS.items()},
    "identical": VERIFY_SYSTEMS["horseshoe"]
    + ["--blocks", "24", "--depth", "40", "--seed", "5", "--pair-mode", "identical"],
    "eventually-equal": VERIFY_SYSTEMS["baker"]
    + ["--blocks", "24", "--depth", "40", "--seed", "5", "--pair-mode", "eventually-equal"],
    "unsafe-iterate": VERIFY_SYSTEMS["tent"] + ["--seed", "3", "--unsafe-iterate"],
}
VERIFY_JSON_SHA256 = {
    "tent": "a91e07228312e3ff58eb93d6b232e228a5e19019f83ddbf5ab70228d4d2de162",
    "baker": "1ad50e41b7ea3e251724b7bc7113e7d80857eca1ef4d5c549a7918248ff36984",
    "horseshoe": "4de6657f38ecaac79b342a7212e42c32f8ea210a11facd81c2e5722a76572ef8",
    "solenoid": "5557482c9ae8cd014b45b117e9d8ce40af5600df0631af408cafdbd81d3b3c29",
    "identical": "521b917b84d51d59ee6c2f44cb54a3cb074e74175f52c14e765f72aab460b71c",
    "eventually-equal": "d656137d2bc0c6ad9792abb111bf19db6aa4a6b78ada13a41c27ebb5084d0764",
    "unsafe-iterate": "51d2fbccf86f254cb0c0cdfe94f2a9d37c5b3ee49c896f7afd97b137ce1ec539",
}


@pytest.mark.parametrize("case", list(VERIFY_JSON_SHA256))
def test_verify_json_golden_digest(capsys, tmp_path, case):
    out_file = tmp_path / f"{case}.json"
    rc, _, _ = run(capsys, "verify", *VERIFY_CASES[case], "--out", str(out_file))
    assert rc == 0
    if case == "unsafe-iterate":
        stopped = json.loads(out_file.read_text())["unsafe_iteration"]["stopped"]
        assert stopped == {"time": 20, "reason": "point [2.0] outside the tent domain box"}
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == VERIFY_JSON_SHA256[case]


# SHA-256 of the `--out` file of every other command, at small counts: the
# report layouts (field names, order, number text) are pinned byte for byte
OUTPUT_CASES = {
    "construct": ["construct", "--m", "3", "--length", "40", "--seed", "11", "--extract"],
    "dimension-ifs": ["dimension", "--ifs", "{cantor}"],
    "dimension-baker": ["dimension", "--system", "baker", "--beta1", THIRD, "--beta2", "0.25"],
    "dimension-tent": ["dimension", "--system", "tent", "--a", "2"],
    "boxdim-json": ["boxdim", "--ifs", "{cantor}", "--target", "pairs", "--count", "50000",
                    "--depth", "30", "--seed", "3", "--eps-max", repr(3.0**-4),
                    "--eps-min", repr(3.0**-8), "--eps-ratio", "3"],
    "boxdim-csv": ["boxdim", "--ifs", "{cantor}", "--count", "50000", "--depth", "25",
                   "--seed", "2", "--format", "csv"],
    "sample-json": ["sample", "--ifs", "{cantor}", "--target", "restricted", "--count", "2000",
                    "--depth", "25", "--seed", "7", "--format", "json"],
    "sample-json-baker": ["sample", "--system", "baker", "--beta1", THIRD, "--beta2", THIRD,
                          "--target", "system", "--count", "2000", "--depth", "25", "--seed", "7",
                          "--format", "json"],
    # pins which coding a --system pair sample projects through: the baker's
    # past (contracting) block, which is ROADMAP item 3's known fault (the
    # pair set lives on the future coordinate).  Item 3 will change this
    # output and record the new digest.  The baker at beta2 = 0.25 makes the
    # two blocks differ; the horseshoe at beta = 1/tau would hide a swap.
    "sample-pairs-baker": ["sample", "--system", "baker", "--beta1", THIRD, "--beta2", "0.25",
                           "--target", "pairs", "--count", "2000", "--depth", "25",
                           "--seed", "7", "--format", "csv"],
}
OUTPUT_SHA256 = {
    "construct": "6686624b6bd96b499579c1bb99654418ab405ee7ddf468aa1e59be79268e5525",
    "dimension-ifs": "7c313008931c35b9f19022247fc5f70ca6e9152cc512b223d7ca438b8dff4423",
    "dimension-baker": "98d4719931bfb706bcc737d1b80526cf48d92a0aa7891c5fb10f7992e2b616de",
    "dimension-tent": "4e2c025c58f6ef78c0407fa4a68af9e0ce64417c6458866acde3e10e5274e56f",
    "boxdim-json": "9231f7dbc933a142612ce0d3cb88e15eeb79b522f89aba95898984a4dbb42f51",
    "boxdim-csv": "d9c4e24c8fc995b49aaf93f3740662a80baa756b01e9b7c126c595b839d6bcbe",
    "sample-json": "dca26ebd421fa7346a940dd14f469aebcf6aee1ddb01b3fcb7c23b063730ef43",
    "sample-json-baker": "25f5bfbc8d1c0ccecfa96e7534882dd5cffb26567d2abc22e0cb8e1e07d1039b",
    "sample-pairs-baker": "06e85d35b48cc846007fa8e7c60a908c8f68f13977017c4a458d3c0aec72737f",
}


@pytest.mark.parametrize("case", list(OUTPUT_SHA256))
def test_output_golden_digest(capsys, cantor_json, tmp_path, case):
    out_file = tmp_path / f"{case}.out"
    argv = [a.replace("{cantor}", cantor_json) for a in OUTPUT_CASES[case]]
    rc, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert rc == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == OUTPUT_SHA256[case]


# the commands that write their report only when --out is given
REPORT_ONLY_WITH_OUT = ("dimension", "verify")


@pytest.mark.parametrize("case", [*OUTPUT_CASES, "verify"])
def test_output_reaches_stdout_dash_and_file_alike(capsys, cantor_json, tmp_path, case):
    argv = OUTPUT_CASES.get(case, ["verify", *VERIFY_CASES["unsafe-iterate"]])
    argv = [a.replace("{cantor}", cantor_json) for a in argv]
    out_file = tmp_path / f"{case}.out"
    rc, summary, _ = run(capsys, *argv, "--out", str(out_file))
    assert rc == 0
    text = out_file.read_text()
    # on stdout the output follows the summary and ends with a newline
    written = summary + text + ("" if text.endswith("\n") else "\n")
    assert run(capsys, *argv, "--out", "-") == (0, written, "")
    # no --out is stdout too, but dimension and verify write their report
    # only when --out is given
    want = summary if argv[0] in REPORT_ONLY_WITH_OUT else written
    assert run(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("value, text", [
    (math.nan, '"nan"'),
    (math.inf, '"inf"'),
    (-math.inf, '"-inf"'),
    (-0.0, "-0"),
    (1e-05, "1.0000000000000001e-05"),
    (1e17, "1e+17"),
    (np.int64(-3), "-3"),
    ({}, "{}"),
    ([], "[]"),
])
def test_json_text_of_edge_values(value, text):
    assert cli._json_text(value) == text


def points_header(points) -> str:
    return ",".join(f"x{i + 1}" for i in range(points.shape[1]))


def reference_csv(points) -> str:
    """Reference CSV text: every value through format(v, ".17g")."""
    header = points_header(points)
    rows = [",".join(format(v, ".17g") for v in row) for row in points.tolist()]
    return "\n".join([header, *rows]) + "\n"


def csv_clouds():
    rng = np.random.default_rng(4)
    odd = np.array([[np.nan, -0.0, np.inf, -np.inf, 1e-320, -2.5e300]])
    return [
        rng.normal(size=(cli._CSV_BLOCK * 2 + 3, 2)),
        np.array([[1 / 3]]),
        np.vstack([rng.random((5, 6)), odd]),
    ]


@pytest.mark.parametrize("points", csv_clouds(), ids=["three-blocks", "one-row", "non-finite"])
def test_points_csv_matches_format_reference(capsys, tmp_path, points):
    want = reference_csv(points)
    out_file = tmp_path / "points.csv"
    cli._write(cli._csv_blocks(points_header(points), [points]), str(out_file))
    # lines first: on a mismatch pytest then names the first differing row
    # instead of diffing two multi-megabyte strings
    assert out_file.read_text().splitlines() == want.splitlines()
    assert out_file.read_text() == want
    for out in (None, "-"):
        cli._write(cli._csv_blocks(points_header(points), [points]), out)
        assert capsys.readouterr().out == want


def percent_csv(points) -> str:
    """Reference CSV text: every value through "%.17g" % v."""
    return points_header(points) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in points.tolist()
    )


def written_csv(points) -> str:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli._write(cli._csv_blocks(points_header(points), [points]), None)
    return text.getvalue()


_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-5, max_value=1e18).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_points_csv_matches_percent_format(data):
    n = data.draw(st.integers(1, 40))
    w = data.draw(st.integers(1, 4))
    values = data.draw(st.lists(_ANY_FLOAT, min_size=n * w, max_size=n * w))
    points = np.array(values, dtype=np.float64).reshape(n, w)
    assert written_csv(points) == percent_csv(points)


def csv_edge_values() -> np.ndarray:
    """Values where the fast digit path could go wrong."""
    edges = []
    for e in range(-6, 19):  # powers of ten and one ulp on each side
        p = 10.0**e
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    edges += [
        # fixed-point / exponent switches of %.17g
        1e-4, np.nextafter(1e-4, 0.0), 9.99999999999999995e-5, 1e-5,
        1e17, np.nextafter(1e17, 0.0), np.nextafter(1e17, np.inf), 99999999999999984.0,
        # just below a decade, where log10 can round up to the next exponent
        np.nextafter(1.0, 0.0), np.nextafter(10.0, 0.0), np.nextafter(0.001, 0.0),
        np.nextafter(1e16, 0.0), 0.99999999999999989, 9.9999999999999982,
        # exact ties at the 17th digit round half to even
        1e15 + 0.25, 1e15 + 0.75, 123456789012345.125, 123456789012345.375,
        2.0**53 + 2, 2.0**55 + 8,
        # trailing zeros, short fractions and integers
        0.5, 0.25, 1.5, 100.0, 1234.0, 1e16 + 2, 0.1, 1 / 3, 2 / 3,
        # zeros, subnormals, extremes and non-finite values
        0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, np.inf, np.nan,
    ]
    edges = np.array(edges)
    return np.concatenate([edges, -edges])


@pytest.mark.parametrize("w", [1, 3])
def test_points_csv_edge_values(w):
    edges = csv_edge_values()
    edges = np.concatenate([edges, np.full(-len(edges) % w, 0.5)])
    table = edges.reshape(-1, w)
    assert written_csv(table) == percent_csv(table)
    # the same table across a block boundary
    lead = np.full((cli._CSV_BLOCK - len(table) // 2, w), 1 / 7)
    points = np.vstack([lead, table, table[::-1]])
    want = percent_csv(points)
    got = written_csv(points)
    assert got.splitlines() == want.splitlines()
    assert got == want


@pytest.mark.parametrize("piece", [1, 7, 40, 41, 1000])
def test_csv_join_in_small_pieces(monkeypatch, piece):
    # pieces that split values' 40-byte layouts, and pieces of whole layouts
    monkeypatch.setattr(cli, "_CSV_PIECE", piece)
    edges = csv_edge_values()
    points = np.vstack([
        np.concatenate([edges, np.full(-len(edges) % 3, 0.5)]).reshape(-1, 3),
        np.random.default_rng(piece).normal(size=(50, 3)),
    ])
    assert written_csv(points) == percent_csv(points)


def test_csv_block_allocates_no_block_sized_memory():
    # every block-sized temporary lives in the reused scratch
    rows = np.random.default_rng(4).random((cli._CSV_BLOCK, 2))
    seps = np.frombuffer(b",\n", dtype=np.uint8)
    scratch = cli._CsvScratch(rows.size)
    want = bytes(cli._csv_text(rows, seps, scratch))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = cli._csv_text(rows, seps, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bytes(text) == want == percent_csv(rows).split("\n", 1)[1].encode()
    # the join makes the text; beyond it, less than 8 bytes per value of
    # the block (one gather of the whole block would index each text byte
    # with 8)
    assert peak - before < len(text) + 8 * rows.size


CSV_CASES = {
    # case: (argv, summary printed beside --out as a regex, lines in the file)
    "sample-pairs": (["sample", "--target", "pairs", "--count", "5000", "--depth", "20",
                      "--seed", "3"], "", 5001),
    # the ladder starts at level 0, whose row is -log 1, log 1 = -0, 0
    "boxdim-level-0": (["boxdim", "--count", "5000", "--depth", "20", "--seed", "3",
                        "--eps-ratio", "3", "--eps-max", "1", "--eps-min", repr(3.0**-8)],
                       r"box dimension\[attractor\]: slope = \S+ \+/- \S+ "
                       r"over \d+ ladder points\n", 10),
}


def test_sample_csv_stdout_matches_file(capsys, cantor_json, tmp_path):
    for case, (args, summary_re, lines) in CSV_CASES.items():
        argv = [*args, "--ifs", cantor_json, "--format", "csv"]
        rc, out, _ = run(capsys, *argv)
        assert rc == 0, case
        out_file = tmp_path / f"{case}.csv"
        rc, summary, _ = run(capsys, *argv, "--out", str(out_file))
        assert rc == 0, case
        assert re.fullmatch(summary_re, summary), (case, summary)
        # stdout without --out is that summary, then exactly the file
        assert out == summary + out_file.read_text(), case
        assert out.count("\n") == lines + summary.count("\n"), case
    head = (tmp_path / "boxdim-level-0.csv").read_text().splitlines()[:2]
    assert head == ["neg_log_eps,log_count", "-0,0"]


def test_sample_json_stdout_matches_file(capsys, cantor_json, tmp_path):
    argv = ["sample", "--ifs", cantor_json, "--count", str(_CHUNK + 1), "--depth", "12",
            "--seed", "3", "--threads", "2", "--format", "json"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    out_file = tmp_path / "points.json"
    assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    # stdout is the file and one newline, as for every JSON report
    assert out == out_file.read_text() + "\n"
    want = sample_attractor(load_ifs(cantor_json), _CHUNK + 1, 12, 3)
    assert np.array_equal(json.loads(out)["points"], want.centers)


def test_config_file_supplies_options(capsys, tmp_path):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({"system": "tent", "a": 2.0, "seed": 5, "blocks": 10}))
    rc, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert rc == 0
    assert out.startswith("PASS")
    assert "10 blocks" in out


def test_config_does_not_reach_later_calls(capsys, tmp_path):
    # main parses with one parser per process; a config file's keys must
    # not stay behind in it as defaults
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({"blocks": 13, "depth": 22}))
    argv = ["verify", "--system", "tent", "--a", "2", "--seed", "5"]
    outputs = []
    for extra in ((), ("--config", str(cfg)), ()):
        out_file = tmp_path / f"verdict-{len(outputs)}.json"
        rc, out, _ = run(capsys, *argv, *extra, "--out", str(out_file))
        assert rc == 0
        outputs.append((out, out_file.read_text()))
    assert "12 blocks, depth 18" in outputs[0][0]
    assert "13 blocks, depth 22" in outputs[1][0]
    assert outputs[2] == outputs[0]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # an earlier test may have built the shared parser already
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    for seed in ("1", "2", "3"):
        rc, out, _ = run(capsys, "verify", "--system", "tent", "--a", "2", "--seed", seed)
        assert rc == 0 and out.startswith("PASS")
    assert len(built) <= 1


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({"system": "tent", "a": 2.0, "seed": 5,
                               "pair_mode": "identical"}))
    # flag beats the config's negative-control mode
    rc, out, _ = run(capsys, "verify", "--config", str(cfg), "--pair-mode", "constructed")
    assert rc == 0
    assert out.startswith("PASS")


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "experiment.json"
    # a config file names no further config file
    for key, value in (("bogus", 1), ("config", "/nonexistent.json")):
        cfg.write_text(json.dumps({"system": "tent", "a": 2.0, "seed": 5, key: value}))
        rc, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert f"config key {key!r} unknown" in err


def boxdim_argv(cantor_json, tmp_path, name):
    return ["boxdim", "--ifs", cantor_json, "--depth", "20", "--seed", "4",
            "--out", str(tmp_path / name)]


@pytest.mark.parametrize("config", [
    {"count": "abc"},
    {"count": "1000.5"},
    {"count": 1000.0},
    {"count": True},
    {"count": [1000]},
    {"eps_min": "tiny"},
    {"target": "everything"},
    {"format": 3},
])
def test_config_bad_values_exit_2(capsys, cantor_json, tmp_path, config):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(config))
    rc, _, err = run(capsys, *boxdim_argv(cantor_json, tmp_path, "est.json"),
                     "--config", str(cfg))
    assert rc == 2
    assert next(iter(config)) in err


def test_config_numeric_strings_coerce_like_flags(capsys, cantor_json, tmp_path):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({"count": "20000", "eps_max": "0.0625", "threads": 2}))
    rc, _, _ = run(capsys, *boxdim_argv(cantor_json, tmp_path, "config.json"),
                   "--config", str(cfg))
    assert rc == 0
    rc, _, _ = run(capsys, *boxdim_argv(cantor_json, tmp_path, "flags.json"),
                   "--count", "20000", "--eps-max", "0.0625")
    assert rc == 0
    assert (tmp_path / "config.json").read_text() == (tmp_path / "flags.json").read_text()


def test_config_bool_key(capsys, tmp_path):
    cfg = tmp_path / "experiment.json"
    argv = ["construct", "--length", "12", "--seed", "3", "--config", str(cfg)]
    cfg.write_text(json.dumps({"extract": "yes"}))
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert "extract" in err
    cfg.write_text(json.dumps({"extract": 1}))
    assert run(capsys, *argv)[0] == 2
    cfg.write_text(json.dumps({"extract": True}))
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "recovered filler digits" in out
    cfg.write_text(json.dumps({"extract": False}))
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "recovered filler digits" not in out


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "{bad}"],
    ["construct", "--length", "5", "--seed", "1", "--filler", "{bad}"],
    ["verify", "--system", "tent", "--a", "2", "--seed", "1", "--gaps", "list:{bad}"],
    ["boxdim", "--ifs", "{bad}", "--seed", "1", "--count", "100"],
    ["construct", "--length", "5", "--seed", "1", "--base", "{bad}"],
])
def test_malformed_json_input_exits_2(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"system": "tent",')
    rc, _, err = run(capsys, *(a.replace("{bad}", str(bad)) for a in argv))
    assert rc == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize("argv", [
    ["boxdim", "--ifs", "{bad}", "--seed", "1", "--count", "100"],
    ["verify", "--config", "{bad}"],
    ["construct", "--length", "5", "--seed", "1", "--base", "{bad}"],
    ["verify", "--system", "tent", "--a", "2", "--seed", "1", "--gaps", "list:{bad}"],
], ids=["ifs", "config", "sequence", "gap-list"])
def test_malformed_json_file_exits_2_with_the_decoder_message(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    rc, out, err = run(capsys, *(a.replace("{bad}", str(bad)) for a in argv))
    assert rc == 2
    assert out == ""  # construct reads its files before it prints
    assert err == "error: malformed JSON input: Expecting value: line 1 column 1 (char 0)\n"


# a gap rule object carrying a key of another rule, or an unknown key
FOREIGN_GAP_KEYS = {
    "list": {"rule": "list", "values": [1] * 10, "c": 3},
    "constant": {"rule": "constant", "c": 1, "a": 2},
    "zero": {"rule": "zero", "c": 0},
    "linear": {"rule": "linear", "typo": 1},
    "quadratic": {"rule": "quadratic", "c": 9, "typo": 1},
    "affine": {"rule": "affine", "a": 1, "b": 0, "values": [1]},
}


@pytest.mark.parametrize("rule", list(FOREIGN_GAP_KEYS))
def test_gap_reader_rejects_foreign_keys(rule):
    # list:FILE takes only an array; the reader is called directly
    with pytest.raises(ValidationError):
        GapSequence.from_json(FOREIGN_GAP_KEYS[rule])


@pytest.mark.parametrize("reader, data", [
    (IfsSystem.from_json, {"K": [[0, 1]], "maps": [], "foo": 1}),
    (SymbolSequence.from_json, {"m": 2, "digits": [1], "foo": 1}),
    (GapSequence.from_json, {"rule": "quadratic", "foo": 1}),
    (SystemSpec.from_json, {"kind": "tent", "a": 2, "foo": 1}),
], ids=["ifs", "sequence", "gaps", "system"])
def test_each_reader_names_an_unknown_key(reader, data):
    with pytest.raises(ValidationError, match="^unknown key 'foo' in "):
        reader(data)


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "1"],
    ["verify", "--system", '{"a": 2}', "--seed", "1"],
    ["verify", "--system", '{"kind": "tent", "a": "x"}', "--seed", "1"],
    ["construct", "--length", "30", "--seed", "1", "--base", "{file}"],
    ["construct", "--length", "30", "--seed", "1", "--base", "{short}", "--filler", "base"],
    ["construct", "--length", "30", "--seed", "1", "--m", "0"],
    ["construct", "--length", "30", "--seed", "1", "--gaps", "list:{file}"],
    ["boxdim", "--ifs", "{file}", "--seed", "1", "--count", "100"],
    ["verify", "--system", "baker", "--beta1", "0.3", "--beta2", "0.3", "--seed", "1",
     "--depth", "-1"],
    ["sample", "--ifs", "{cantor}", "--seed", "1", "--count", "10", "--out", "{dir}"],
    ["sample", "--ifs", "{cantor}", "--seed", "1", "--count", "10", "--threads", "0"],
    ["sample", "--ifs", "{cantor}", "--seed", "1", "--count", "10", "--threads", "-1"],
    ["verify", "--system", '{"kind": "tent", "a": 2, "foo": 1}', "--seed", "1"],
    *(["construct", "--length", "30", "--seed", "1", "--gaps", f"list:{{gaps-{rule}}}"]
      for rule in FOREIGN_GAP_KEYS),
    # one spelling per input: a second one could contradict the first
    ["dimension", "--system", '{"kind": "tent", "a": 3}', "--a", "2", "--beta", "0.2"],
    ["construct", "--length", "30", "--seed", "1", "--gaps", "list:{gap-rule}"],
    ["verify", "--system", "tent", "--a", "2", "--seed", "1", "--config", "{pair-modes}"],
])
def test_input_shapes_exit_2(capsys, tmp_path, cantor_json, argv):
    (tmp_path / "file.json").write_text(json.dumps({"values": ["x"], "maps": [{"ratio": "x"}]}))
    (tmp_path / "short.json").write_text(json.dumps({"m": 2, "digits": [1, 2]}))
    (tmp_path / "gap-rule.json").write_text(json.dumps({"rule": "quadratic"}))
    (tmp_path / "pair-modes.json").write_text(
        json.dumps({"pair-mode": "identical", "pair_mode": "constructed"}))
    paths = {"{file}": tmp_path / "file.json", "{short}": tmp_path / "short.json",
             "{gap-rule}": tmp_path / "gap-rule.json",
             "{pair-modes}": tmp_path / "pair-modes.json",
             "{cantor}": cantor_json, "{dir}": tmp_path}
    for rule, data in FOREIGN_GAP_KEYS.items():
        paths[f"{{gaps-{rule}}}"] = tmp_path / f"gaps-{rule}.json"
        paths[f"{{gaps-{rule}}}"].write_text(json.dumps(data))
    for name, path in paths.items():
        argv = [a.replace(name, str(path)) for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


CANTOR = {"w": 1, "K": [[0, 1]],
          "maps": [{"ratio": 1 / 3, "t": [0]}, {"ratio": 1 / 3, "t": [2 / 3]}]}
NON_INTEGER_INPUTS = {
    "digit-float": ("base", {"m": 2, "digits": [1.7] + [2, 1] * 20}),
    "digit-string": ("base", {"m": 2, "digits": ["1", "2"] * 20}),
    "digit-bool": ("base", {"m": 2, "digits": [True] + [2, 1] * 20}),
    "digit-infinity": ("base", {"m": 2, "digits": [float("inf")] + [2, 1] * 20}),
    "past-digit": ("base", {"m": 2, "side": "two", "past": [1, 2.5], "future": [1, 2] * 20}),
    "alphabet": ("base", {"m": 2.5, "digits": [1, 2] * 20}),
    "gap-list": ("gaps", [0.5, 1.9] * 10),
    "flips": ("ifs", {**CANTOR, "maps": [{**m, "orth": [1.5]} for m in CANTOR["maps"]]}),
    "flips-matrix": ("ifs", {**CANTOR, "maps": [{**m, "orth": [[True]]} for m in CANTOR["maps"]]}),
    "w": ("ifs", {**CANTOR, "w": 3}),
    # the real fields K, t and ratio take neither booleans nor numeric strings
    "K-bool": ("ifs", {**CANTOR, "K": [[False, True]]}),
    "t-bool": ("ifs", {**CANTOR, "maps": [{"ratio": 1 / 3, "t": [False]}, CANTOR["maps"][1]]}),
    "t-string": ("ifs", {**CANTOR, "maps": [CANTOR["maps"][0],
                                            {"ratio": 1 / 3, "t": ["0.6666666666666666"]}]}),
    "ratio-string": ("ifs", {**CANTOR, "maps": [{**m, "ratio": "0.3333333333333333"}
                                                for m in CANTOR["maps"]]}),
}


def non_integer_argv(kind, path):
    if kind == "ifs":
        return ["dimension", "--ifs", path]
    if kind == "gaps":
        return ["construct", "--length", "30", "--seed", "1", "--gaps", f"list:{path}"]
    return ["construct", "--length", "30", "--seed", "1", "--base", path]


@pytest.mark.parametrize("case", list(NON_INTEGER_INPUTS))
def test_non_integer_json_field_exits_2(capsys, tmp_path, case):
    kind, data = NON_INTEGER_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    rc, _, err = run(capsys, *non_integer_argv(kind, str(path)))
    assert rc == 2
    assert "must be integers" in err or "must be real numbers" in err or "differs" in err


@pytest.mark.parametrize("kind, data", [
    ("base", {"m": 2.0, "digits": [1.0, 2.0] * 20}),
    ("gaps", [1.0, 0.0, 2.0] * 10),
    ("ifs", {**CANTOR, "maps": [{"ratio": 1 / 3, "t": [1 / 3], "orth": [-1.0]},
                                CANTOR["maps"][1]]}),
    ("ifs", {**CANTOR, "w": 1.0, "maps": [{**m, "orth": [1.0]} for m in CANTOR["maps"]]}),
])
def test_integral_floats_read_as_integers(capsys, tmp_path, kind, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run(capsys, *non_integer_argv(kind, str(path)))[0] == 0


def test_undecodable_json_input_exits_2(capsys, tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for argv in (["verify", "--system", "tent", "--a", "2", "--seed", "1", "--config"],
                 ["construct", "--length", "5", "--seed", "1", "--base"]):
        rc, _, err = run(capsys, *argv, str(binary))
        assert rc == 2
        assert "malformed JSON" in err


def test_config_missing_file_rejected(capsys):
    rc, _, err = run(capsys, "verify", "--system", "tent", "--a", "2", "--seed", "1",
                     "--config", "/nonexistent/cfg.json")
    assert rc == 2


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "dimension" in out


def test_help_documents_defaults(capsys):
    rc, out, _ = run(capsys, "boxdim", "--help")
    assert rc == 0
    assert "default 200000" in out
    assert "default quadratic" in out


def flag_actions(command):
    """The parser's flags of ``command``, --help excepted."""
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    return [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


@pytest.mark.parametrize("command", ["construct", "verify", "boxdim", "sample"])
def test_help_prints_every_default(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "500")  # one line per flag: no wrapped help text
    rc, out, _ = run(capsys, command, "--help")
    assert rc == 0
    defaults = [a for a in flag_actions(command) if a.default is not None and a.nargs != 0]
    assert defaults
    for action in defaults:
        text = action.help % {"default": action.default}
        assert f"(default {action.default})" in text, action.dest
        assert text in out, action.dest


@pytest.mark.parametrize("command", ["dimension", "construct", "verify", "boxdim", "sample"])
def test_out_help_names_what_goes_out_without_it(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "500")  # one line per flag: no wrapped help text
    rc, out, _ = run(capsys, command, "--help")
    assert rc == 0
    (line,) = [line for line in out.splitlines() if line.lstrip().startswith("--out")]
    default = "none: only the summary is printed" if command in REPORT_ONLY_WITH_OUT else "stdout"
    assert line.endswith(f"output file, '-' = stdout (default {default})")


@pytest.mark.parametrize("command, flag, value", [
    ("dimension", "format", "json"),
    ("construct", "format", "json"),
    ("verify", "format", "csv"),
    ("construct", "threads", "2"),
    ("verify", "threads", "1"),
    ("dimension", "threads", "2"),
    ("dimension", "count", "1000"),
])
def test_flag_of_another_command_exits_2(capsys, tmp_path, command, flag, value):
    argv = {"dimension": ["--system", "tent", "--a", "2"],
            "construct": ["--length", "5", "--seed", "1"],
            "verify": ["--system", "tent", "--a", "2", "--seed", "1", "--blocks", "4"]}[command]
    assert run(capsys, command, *argv)[0] == 0
    assert flag not in {a.dest for a in flag_actions(command)}
    rc, _, err = run(capsys, command, *argv, f"--{flag}", value)
    assert rc == 2
    assert f"--{flag}" in err
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({flag: value}))
    rc, _, err = run(capsys, command, *argv, "--config", str(cfg))
    assert rc == 2
    assert f"config key '{flag}' unknown" in err


def test_unknown_flag_exits_2(capsys):
    rc, _, _ = run(capsys, "boxdim", "--nonsense")
    assert rc == 2


def test_unbounded_ladder_exits_2(capsys, cantor_json):
    for ratio in ("1.0000001", "1.000000000000001"):
        rc, _, err = run(
            capsys,
            "boxdim", "--ifs", cantor_json, "--count", "1000", "--depth", "20",
            "--seed", "2", "--eps-ratio", ratio,
        )
        assert rc == 2
        assert "--eps-ratio must be an integer" in err


@pytest.mark.parametrize("ladder, message", [
    # a ratio that is not an integer
    (["--eps-ratio", "2.5"], "--eps-ratio must be an integer >= 2, got 2.5"),
    # an end that is not b^-k, for ratio 2 and for ratio 3
    (["--eps-max", "0.1"], "--eps-max 0.1 is not 2^-k"),
    (["--eps-ratio", "3", "--eps-max", repr(3.0**-2), "--eps-min", "1e-4"],
     "--eps-min 0.0001 is not 3^-k"),
    # 3^34 is no exact double
    (["--eps-ratio", "3", "--eps-max", repr(3.0**-30), "--eps-min", repr(3.0**-34)],
     "3^34 is not an exact double"),
    # the finest cells of middle-thirds points near 1 pass 2^63
    (["--eps-max", repr(2.0**-60), "--eps-min", repr(2.0**-64)],
     "grid cell indices of the finest level exceed int64"),
    # the ends swapped: the message names both flags
    (["--eps-min", "0.5", "--eps-max", "0.25"],
     "--eps-min 0.5 is larger than --eps-max 0.25"),
])
def test_ladder_flags_exit_2(capsys, cantor_json, ladder, message):
    rc, _, err = run(
        capsys,
        "boxdim", "--ifs", cantor_json, "--count", "1000", "--depth", "20",
        "--seed", "2", *ladder,
    )
    assert rc == 2
    assert message in err


def test_ladder_flags_take_ends_to_a_relative_1e_12(capsys, cantor_json, tmp_path):
    # ends rounded to 15 digits name the same ladder as the exact doubles,
    # and the reported sizes are 3.0**-k
    outs = []
    for ends in ((repr(3.0**-3), repr(3.0**-8)), ("0.037037037037037", "0.000152415790276")):
        outs.append(tmp_path / f"est{len(outs)}.json")
        rc, _, _ = run(
            capsys,
            "boxdim", "--ifs", cantor_json, "--count", "20000", "--depth", "20",
            "--seed", "2", "--eps-max", ends[0], "--eps-min", ends[1], "--eps-ratio", "3",
            "--out", str(outs[-1]),
        )
        assert rc == 0
    assert outs[0].read_text() == outs[1].read_text()
    assert json.loads(outs[0].read_text())["epsilons"] == [3.0**-k for k in range(3, 9)]


# --------------------------------------------------------------------------
# every input ends in exit code 0, 2 or 3
#
# Sizes are capped: --count and --length at 2000, --threads at 4, --depth at
# 60 and --blocks at 30.  Huge counts are out of scope: they only test how
# much memory the machine has.  --count is always given, because its
# 200,000-point default is too slow for many examples.  --eps-ratio is not
# capped: a ratio that is not an integer >= 2 must be refused.

_BAD_TEXT = st.sampled_from(["", "x", "1.5", "-", "-inf"])
_BAD_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-1", "1", "1.0000001", "1e300", "5e-324"]),
    _BAD_TEXT,
)


def _ints(lo, hi, bad_lo):
    """Valid integer texts in lo..hi; invalid ones bad_lo..lo-1 or not numbers."""
    return st.integers(lo, hi).map(str), st.one_of(st.integers(bad_lo, lo - 1).map(str), _BAD_TEXT)


def _cli_flags(paths):
    """dest -> (valid texts, invalid texts), or None for a switch, per subcommand."""
    def pick(*texts):
        for name, path in paths.items():
            texts = [t.replace("{%s}" % name, path) for t in texts]
        return st.sampled_from(texts)

    def floats(*valid):
        return pick(*valid), _BAD_FLOAT

    common = {
        "seed": _ints(0, 10**6, -2),
        "out": (pick("-", "{out}"), pick("{dir}", "{dir}/missing/out.txt")),
    }
    threads = {"threads": _ints(1, 4, -2)}
    formats = {"format": (pick("json", "csv"), pick("xml"))}
    system = {
        "system": (
            pick("tent", "baker", "horseshoe", "solenoid"),
            pick("moon", "[1]", '{"kind": "horseshoe"}', '{"a": 2}', '{"kind": "tent", "a": "x"}',
                 '{"kind": "baker", "beta1": [0.3], "beta2": 0.3}', '{"kind": 1}', "{",
                 '{"kind": "tent", "a": 3}', '{"kind": "baker", "beta1": 0.3, "beta2": 0.25}',
                 '{"kind": "solenoid", "beta1": 0.25, "beta2": 0.5}'),
        ),
        "a": floats("2", "3.5"), "beta1": floats("0.3", "0.25"),
        "beta2": floats("0.3", "0.5"), "beta": floats("0.3"), "tau": floats("3", "4"),
    }
    ladder = {"eps_max": floats("0.0625", "0.1", repr(3.0**-2)),
              "eps_min": floats("1e-4", "6.103515625e-05", repr(3.0**-9)),
              "eps_ratio": floats("2", "3", "1.5")}
    ifs = {"ifs": (pick("{cantor}", "{planar}"),
                   pick("{overlapping}", "{missing}", "{dir}", "{sequence}", "{bad_ifs}",
                        "{binary}"))}
    gaps = {"gaps": (pick("zero", "linear", "quadratic", "constant:3", "list:{gaps}"),
                     pick("constant:-1", "constant:x", "bogus", "list:{missing}",
                          "list:{bad_gaps}", "list:{sequence}", "list:{gap_rule}"))}
    sequences = ("{sequence}", "{missing}", "{bad_sequence}", "{cantor}", "{binary}")
    sampled = {
        **gaps,
        "target": (pick("attractor", "restricted", "pairs", "system"), pick("x")),
        "base": (pick("random", "{sequence}"), pick(*sequences[1:])),
        "count": _ints(1, 2000, -1), "depth": _ints(1, 60, -1),
    }
    return {
        "dimension": {**system, **ifs, **common},
        "construct": {**common, **gaps, "m": _ints(2, 300, -1), "length": _ints(1, 2000, -2),
                      "base": (pick("random", "ones", "{sequence}"), pick(*sequences[1:])),
                      "filler": (pick("random", "base", "{sequence}"), pick(*sequences[1:])),
                      "extract": None},
        "verify": {**system, **common, **gaps, "blocks": _ints(3, 30, -1),
                   "depth": _ints(1, 60, -1), "filler": (pick("base", "random"), pick("x")),
                   "pair_mode": (pick("constructed", "identical", "eventually-equal"), pick("x")),
                   "unsafe_iterate": None},
        "boxdim": {**system, **ifs, **ladder, **common, **threads, **formats, **sampled},
        "sample": {**system, **ifs, **common, **threads, **formats, **sampled},
    }


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    files = {
        "cantor": CANTOR,
        "planar": {"w": 2, "K": [[0, 1], [0, 1]],
                   "maps": [{"ratio": 0.3, "t": [0, 0]}, {"ratio": 0.35, "t": [0.65, 0.65]}]},
        "overlapping": {"w": 1, "K": [[0, 1]],
                        "maps": [{"ratio": 0.5, "t": [0]}, {"ratio": 0.5, "t": [0.5]}]},
        "bad_ifs": {"w": 1, "maps": [{"ratio": "x"}]},
        "gaps": [1, 0, 2, 5, 1],
        "bad_gaps": {"rule": "list", "values": ["x"]},
        "gap_rule": {"rule": "quadratic"},
        "sequence": {"m": 2, "digits": [1, 2, 2, 1] * 10},
        "bad_sequence": {"m": 2, "digits": [1, 3]},
    }
    paths = {"missing": str(root / "missing.json"), "out": str(root / "out.txt"),
             "config": str(root / "config.json"), "dir": str(root)}
    for name, data in files.items():
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(data))
    paths["binary"] = str(root / "binary.json")
    (root / "binary.json").write_bytes(b"\xff\xfe{")
    return paths


@st.composite
def _cli_call(draw, paths):
    """argv and --config object for one call; at most one flag is invalid."""
    commands = _cli_flags(paths)
    command = draw(st.sampled_from(sorted(commands)))
    flags = commands[command]
    bad = draw(st.sampled_from([None, "config", *flags]))
    argv = [command]
    for dest, texts in flags.items():
        if dest not in ("seed", "count") and not draw(st.booleans()):
            continue
        if dest == "seed" and dest == bad and draw(st.booleans()):
            continue
        argv.append("--" + dest.replace("_", "-"))
        if texts is not None:
            argv.append(draw(texts[dest == bad]))
    config = None
    if bad == "config" or draw(st.booleans()):
        keys = sorted(k for k, texts in flags.items() if texts is not None and k != "count")
        config = {k: draw(flags[k][0]) for k in draw(st.sets(st.sampled_from(keys), max_size=3))}
        if bad == "config":
            key = draw(st.sampled_from([k for k in flags if k != "out"] + ["bogus", "config"]))
            config[key] = draw(st.sampled_from([None, [1], {"x": 1}, True, 1.5, "x"]))
            hyphenated = [k for k in keys if "_" in k]
            if hyphenated and draw(st.booleans()):  # a valid value under the flag's spelling
                key = draw(st.sampled_from(hyphenated))
                config[key.replace("_", "-")] = draw(flags[key][0])
    return argv, config


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_input_exits_0_2_or_3(cli_inputs, data):
    argv, config = data.draw(_cli_call(cli_inputs))
    if config is not None:
        with open(cli_inputs["config"], "w") as fh:
            json.dump(config, fh)
        argv += ["--config", cli_inputs["config"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 2, 3), argv
