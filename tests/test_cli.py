"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from lypairs import cli
from lypairs.cli import main


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


def test_dimension_inline_json_system(capsys):
    rc, out, _ = run(capsys, "dimension", "--system", '{"kind": "tent", "a": 2.0}')
    assert rc == 0
    assert "= 0.5" in out


def test_dimension_needs_a_source(capsys):
    rc, _, err = run(capsys, "dimension")
    assert rc == 2


def test_dimension_check_box_requires_seed(capsys, cantor_json):
    rc, _, err = run(capsys, "dimension", "--ifs", cantor_json, "--check-box")
    assert rc == 2
    assert "seed" in err


def test_dimension_check_box(capsys, cantor_json, tmp_path):
    out_file = tmp_path / "dim.json"
    rc, out, _ = run(
        capsys,
        "dimension", "--ifs", cantor_json, "--check-box",
        "--count", "100000", "--depth", "25", "--seed", "3",
        "--out", str(out_file),
    )
    assert rc == 0
    assert "box-count check" in out
    data = json.loads(out_file.read_text())
    assert abs(data["box_check"]["slope"] - 0.6309) < 0.03


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


def test_verify_requires_seed(capsys):
    rc, _, err = run(capsys, "verify", "--system", "tent", "--a", "2")
    assert rc == 2
    assert "seed" in err


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


def reference_csv(points) -> str:
    """Reference CSV text: every value through format(v, ".17g")."""
    header = ",".join(f"x{i + 1}" for i in range(points.shape[1]))
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
    cli._write_points_csv(points, str(out_file))
    # lines first: on a mismatch pytest then names the first differing row
    # instead of diffing two multi-megabyte strings
    assert out_file.read_text().splitlines() == want.splitlines()
    assert out_file.read_text() == want
    for out in (None, "-"):
        cli._write_points_csv(points, out)
        assert capsys.readouterr().out == want


def test_sample_csv_stdout_matches_file(capsys, cantor_json, tmp_path):
    argv = ["sample", "--ifs", cantor_json, "--target", "pairs", "--count", "5000",
            "--depth", "20", "--seed", "3", "--format", "csv"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    out_file = tmp_path / "pairs.csv"
    rc, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert rc == 0
    assert out_file.read_text() == out
    assert out.count("\n") == 5001


def test_config_file_supplies_options(capsys, tmp_path):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({"system": "tent", "a": 2.0, "seed": 5, "blocks": 10}))
    rc, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert rc == 0
    assert out.startswith("PASS")
    assert "10 blocks" in out


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
    cfg.write_text(json.dumps({"system": "tent", "a": 2.0, "seed": 5, "bogus": 1}))
    rc, _, err = run(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert "bogus" in err


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


def test_config_bool_key(capsys, cantor_json, tmp_path):
    cfg = tmp_path / "experiment.json"
    argv = ["dimension", "--ifs", cantor_json, "--count", "20000", "--depth", "20",
            "--seed", "3", "--config", str(cfg)]
    cfg.write_text(json.dumps({"check_box": "yes"}))
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert "check_box" in err
    cfg.write_text(json.dumps({"check_box": 1}))
    assert run(capsys, *argv)[0] == 2
    cfg.write_text(json.dumps({"check_box": True}))
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "box-count check" in out
    cfg.write_text(json.dumps({"check_box": False}))
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "box-count check" not in out


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "{bad}"],
    ["verify", "--system", "{bad", "--seed", "1"],
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


def test_unknown_flag_exits_2(capsys):
    rc, _, _ = run(capsys, "boxdim", "--nonsense")
    assert rc == 2
