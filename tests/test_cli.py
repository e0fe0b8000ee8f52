from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import securesum
import securesum.cli as cli
from securesum.cli import (
    CSV_COLUMNS,
    CSV_VERSION_COMMENT,
    ReportRow,
    _aggregate_rows,
    derive_run_seed,
    main,
)
from securesum.protocol import PROTOCOL_IDS
from securesum.source import binary_entropy

RATE_MARGIN_POINT = binary_entropy(0.1) + 0.15


def run_cli(argv, tmp_path, name="out.csv"):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


def parse_rows(text) -> list[dict]:
    lines = text.strip().splitlines()
    assert lines[0] == CSV_VERSION_COMMENT
    assert lines[1] == ",".join(CSV_COLUMNS)
    rows = []
    for line in lines[2:]:
        rows.append(dict(zip(CSV_COLUMNS, line.split(","))))
    return rows


def test_simulate_otp_has_no_errors(tmp_path):
    rc, text = run_cli(
        ["simulate", "--protocol", "zero-error-otp", "--n", "8",
         "--p", "0.25", "--trials", "1000", "--seed", "7"],
        tmp_path,
    )
    assert rc == 0
    (row,) = parse_rows(text)
    assert row["p_err_mc"] == "0.0"
    assert row["p_err_exact"] == "0.0"
    assert row["protocol"] == "zero-error-otp"
    assert (row["n"], row["m"]) == ("8", "8")
    assert row["in_region"] == "true"


def test_simulate_mc_tracks_exact(tmp_path):
    rc, text = run_cli(
        ["simulate", "--protocol", "secure-km", "--n", "12", "--rate", "0.9",
         "--p", "0.1", "--mode", "both", "--seed", "1", "--trials", "20000"],
        tmp_path,
    )
    assert rc == 0
    (row,) = parse_rows(text)
    assert row["m"] == "11"  # ceil(12 * 0.9), the realized size is reported
    exact, mc = float(row["p_err_exact"]), float(row["p_err_mc"])
    slack = max(float(row["mc_ci"]), 3 * math.sqrt(exact * (1 - exact) / 20000))
    assert abs(mc - exact) <= slack


def test_identical_commands_are_byte_identical(tmp_path):
    argv = ["simulate", "--protocol", "secure-km", "--n", "6", "--m", "3",
            "--p", "0.2", "--trials", "400", "--seed", "5"]
    _, first = run_cli(argv, tmp_path, "a.csv")
    _, second = run_cli(argv, tmp_path, "b.csv")
    assert first == second
    assert first.endswith("\n")


def test_leakage_secure_km(tmp_path):
    rc, text = run_cli(
        ["leakage", "--protocol", "secure-km", "--n", "4", "--m", "3",
         "--p", "0.25", "--seed", "5"],
        tmp_path,
    )
    assert rc == 0
    (row,) = parse_rows(text)
    for col in ("eps1", "eps2", "eps3"):
        assert abs(float(row[col])) <= 1e-10
    assert float(row["rho"]) == pytest.approx(0.75, abs=1e-10)
    assert float(row["eps4"]) >= 0.0
    assert row["p_err_exact"] != ""


def test_leakage_unmasked_syndromes_leak_to_charlie(tmp_path):
    rc, text = run_cli(
        ["leakage", "--protocol", "plain-km", "--n", "2", "--m", "2",
         "--p", "0.25", "--seed", "3"],
        tmp_path,
    )
    assert rc == 0
    (row,) = parse_rows(text)
    assert float(row["eps1"]) == pytest.approx(0.0, abs=1e-12)
    assert float(row["eps3"]) == pytest.approx(1.0, abs=1e-12)
    assert float(row["rho"]) == pytest.approx(0.0, abs=1e-12)


def test_leakage_otp(tmp_path):
    for p in ("0.0", "0.3", "0.5"):
        rc, text = run_cli(
            ["leakage", "--protocol", "zero-error-otp", "--n", "3", "--p", p],
            tmp_path,
        )
        assert rc == 0
        (row,) = parse_rows(text)
        for col in ("eps1", "eps2", "eps3", "eps4"):
            assert abs(float(row[col])) <= 1e-10
        for col in ("r12", "r13", "r23", "rho"):
            assert float(row[col]) == pytest.approx(1.0, abs=1e-10)
        assert row["in_region"] == "true"


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
def test_nominal_rates_equal_the_exact_engine_rates(tmp_path, protocol):
    # simulate prints the rates the registry derives; leakage measures them.
    rate_cols = ("r12", "r13", "r23", "rho")
    for n, m, p in ((3, 2, 0.1), (5, 0, 0.25), (6, 4, 0.0), (7, 7, 0.5)):
        size = [] if protocol == "zero-error-otp" else ["--m", str(m)]
        common = ["--protocol", protocol, "--n", str(n), "--p", str(p), "--seed", "3"] + size
        _, nominal = run_cli(["simulate", "--mode", "exact"] + common, tmp_path, "sim.csv")
        _, exact = run_cli(["leakage"] + common, tmp_path, "leak.csv")
        (nominal,), (exact,) = parse_rows(nominal), parse_rows(exact)
        for col in rate_cols:
            assert float(nominal[col]) == pytest.approx(float(exact[col]), abs=1e-12), \
                (protocol, n, m, p, col)


def test_sweep_aggregate_means_per_point(tmp_path):
    base = ["sweep", "--protocol", "secure-km", "--n", "6,9",
            "--rate", repr(RATE_MARGIN_POINT), "--p", "0.1",
            "--seeds", "5", "--mode", "exact", "--seed", "3"]
    rc, full = run_cli(base, tmp_path, "full.csv")
    assert rc == 0
    rc, agg = run_cli(base + ["--aggregate"], tmp_path, "agg.csv")
    assert rc == 0
    rows = parse_rows(full)
    assert len(rows) == 10
    agg_rows = parse_rows(agg)
    assert [r["n"] for r in agg_rows] == ["6", "9"]
    for arow in agg_rows:
        group = [float(r["p_err_exact"]) for r in rows if r["n"] == arow["n"]]
        assert len(group) == 5
        assert float(arow["p_err_exact"]) == pytest.approx(sum(group) / 5, abs=1e-15)


def test_sweep_rows_follow_config_order(tmp_path):
    rc, text = run_cli(
        ["sweep", "--protocol", "plain-km,secure-km", "--n", "4,3",
         "--m", "2", "--p", "0.25,0.1", "--mode", "exact"],
        tmp_path,
    )
    assert rc == 0
    rows = parse_rows(text)
    got = [(r["protocol"], r["n"], r["p"]) for r in rows]
    assert got == [
        ("plain-km", "4", "0.25"), ("plain-km", "4", "0.1"),
        ("plain-km", "3", "0.25"), ("plain-km", "3", "0.1"),
        ("secure-km", "4", "0.25"), ("secure-km", "4", "0.1"),
        ("secure-km", "3", "0.25"), ("secure-km", "3", "0.1"),
    ]


@pytest.mark.parametrize("options", [
    ["--protocol", "secure-km", "--n", "4", "--rate", "0.3,0.4", "--p", "0.1"],
    ["--protocol", "secure-km", "--n", "4", "--m", "2,2", "--p", "0.1"],
    ["--protocol", "secure-km", "--n", "4", "--m", "2", "--p", "0.1,0.1"],
    ["--protocol", "secure-km,secure-km", "--n", "4,4", "--m", "2", "--p", "0.1"],
])
def test_sweep_runs_each_point_once(tmp_path, options):
    # Rates that round to one m, and repeated list entries, name one point.
    rc, text = run_cli(["sweep", *options, "--mode", "exact"], tmp_path)
    assert rc == 0
    rows = parse_rows(text)
    points = [(r["protocol"], r["n"], r["m"], r["p"]) for r in rows]
    assert points == [("secure-km", "4", "2", "0.1")]


def test_sweep_quad_region_over_p(tmp_path):
    rc, text = run_cli(
        ["sweep", "--quad", "1,1,1,1", "--p", "0,0.25,0.5"],
        tmp_path,
    )
    assert rc == 0
    rows = parse_rows(text)
    assert [r["in_region"] for r in rows] == ["true", "true", "true"]
    assert [r["p"] for r in rows] == ["0.0", "0.25", "0.5"]
    assert all(r["protocol"] == "" for r in rows)


def test_sweep_empty_list_is_usage_error(tmp_path):
    rc, _ = run_cli(
        ["sweep", "--protocol", "secure-km", "--n", "", "--m", "2", "--p", "0.1"],
        tmp_path,
    )
    assert rc == 2
    rc, _ = run_cli(["sweep", "--quad", "1,1,1,1", "--p", ""], tmp_path)
    assert rc == 2


def test_region_examples(tmp_path, capsys):
    assert main(["region", "--quad", "1,1,1,1", "--p", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "verdict=in-region" in out
    assert "h2=0.8112781244591328" in out

    assert main(["region", "--quad", "0.8,0.9,0.9,0.9", "--p", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "verdict=out-of-region" in out
    assert "min_component=0.8" in out

    assert main(["region", "--quad", "1,1,1,1", "--p", "0.5"]) == 0
    assert "verdict=in-region" in capsys.readouterr().out
    assert main(["region", "--quad", "1,1,1,0.999", "--p", "0.5"]) == 0
    assert "verdict=out-of-region" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path, capsys):
    cases = [
        ["simulate", "--n", "4", "--p", "0.1"],  # missing protocol
        ["simulate", "--protocol", "nope", "--n", "4", "--m", "2", "--p", "0.1"],
        ["simulate", "--protocol", "secure-km", "--n", "4", "--p", "0.1"],  # no m or rate
        ["simulate", "--protocol", "secure-km", "--n", "4", "--m", "2", "--rate", "0.5", "--p", "0.1"],
        ["simulate", "--protocol", "zero-error-otp", "--n", "4", "--m", "2", "--p", "0.1"],
        ["simulate", "--protocol", "secure-km", "--n", "4", "--m", "2", "--p", "0.7"],
        ["simulate", "--protocol", "secure-km", "--n", "4", "--m", "5", "--p", "0.1"],
        ["simulate", "--protocol", "secure-km", "--n", "4", "--m", "2", "--p", "0.1", "--trials", "0"],
        ["simulate", "--protocol", "secure-km", "--n", "4", "--m", "2", "--p", "0.1", "--mode", "leakage"],
        ["sweep", "--protocol", "plain-km", "--n", "0", "--rate", "0", "--p", "0"],
        # an uncoded protocol alone takes neither --m nor --rate, in a sweep too
        ["sweep", "--protocol", "zero-error-otp", "--n", "4", "--m", "3", "--p", "0.1"],
        ["sweep", "--protocol", "zero-error-otp", "--n", "4", "--rate", "0.5", "--p", "0.1"],
        # --quad takes no instance option
        ["sweep", "--quad", "1,1,1,1", "--p", "0.1", "--protocol", "bogus", "--n", "0",
         "--mode", "nope", "--seeds", "0"],
        ["region", "--quad", "1,1,1", "--p", "0.25"],
        ["region", "--quad", "1,1,1,-0.2", "--p", "0.25"],
        ["region", "--quad", "1,1,1,1", "--p", "0.6"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert "usage error" in capsys.readouterr().err


def test_leakage_takes_no_mode_or_trials(tmp_path, capsys):
    argv = ["leakage", "--protocol", "secure-km", "--n", "4", "--m", "2", "--p", "0.25"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--mode", "exact"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"trials": 5}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
def test_single_instance_commands_are_one_point_sweeps(protocol):
    size = [] if protocol == "zero-error-otp" else ["--m", "3"]
    point = ["--protocol", protocol, "--n", "5", "--p", "0.2", "--seed", "4"] + size
    for mode in ("exact", "monte-carlo", "both"):
        mc = ["--mode", mode, "--trials", "300"]
        simulate = _run_main(["simulate"] + point + mc)
        assert simulate[0] == 0
        assert simulate == _run_main(["sweep"] + point + mc), mode
    leakage = _run_main(["leakage"] + point)
    assert leakage[0] == 0
    assert leakage == _run_main(["sweep"] + point + ["--mode", "leakage"])


def test_capacity_guard_exits_3(capsys):
    # Exact leakage packs words in int64, so n <= 63 for every protocol; a code
    # also stops where leader tables do, at m <= 24.
    for argv in (["--protocol", "zero-error-otp", "--n", "64"],
                 ["--protocol", "secure-km", "--n", "64", "--m", "3"]):
        assert main(["leakage", *argv, "--p", "0.1"]) == 3
        assert "capacity error" in capsys.readouterr().err
    assert main(["simulate", "--protocol", "secure-km", "--n", "30", "--m", "26", "--p", "0.1"]) == 3
    assert "capacity error" in capsys.readouterr().err


def test_leakage_beyond_the_atom_count_of_the_oracle(tmp_path):
    # 2n+k = 29 bits of (x, y, k) atoms, but only 2^13 noise words.
    rc, text = run_cli(
        ["leakage", "--protocol", "secure-km", "--n", "13", "--m", "3", "--p", "0.1"],
        tmp_path,
    )
    assert rc == 0
    (row,) = parse_rows(text)
    for col in ("eps1", "eps2", "eps3"):
        assert abs(float(row[col])) <= 1e-10
    assert float(row["rho"]) == pytest.approx(3 / 13, abs=1e-10)


def test_sweep_rate_is_taken_as_written(tmp_path):
    # 25 * 0.28 and 50 * 0.28 are 7 and 14, though their binary products lie just above.
    rc, text = run_cli(["sweep", "--protocol", "secure-km", "--n", "25,50", "--rate", "0.28",
                        "--p", "0.1", "--mode", "exact"], tmp_path)
    assert rc == 0
    assert [int(row["m"]) for row in parse_rows(text)] == [7, 14]


@pytest.mark.parametrize("protocol", ["secure-km", "plain-km"])
def test_leakage_beyond_the_old_noise_word_guard(tmp_path, protocol):
    # n = 40 is 2^40 noise words, far past the sum the engine used to take;
    # the closed forms hold for every full-rank code.
    rc, text = run_cli(["leakage", "--protocol", protocol, "--n", "40", "--m", "20", "--p", "0.05"],
                       tmp_path)
    assert rc == 0
    (row,) = parse_rows(text)
    masked = protocol == "secure-km"
    expect = {"eps1": 0.0, "eps2": 0.0, "eps3": 0.0 if masked else 0.5, "rho": 0.5 if masked else 0.0}
    for col, value in expect.items():
        assert abs(float(row[col]) - value) <= 1e-10, (col, row[col])
    assert 0.0 < float(row["eps4"]) < binary_entropy(0.05)


@pytest.mark.parametrize("command, doc", [
    ("simulate", None),  # no file at the path
    ("simulate", "{not json"),
    ("simulate", {"trials": 0}),
    ("sweep", {"seeds": 0}),
    ("simulate", {"trails": 5}),  # a misspelt key
    ("simulate", {"seeds": 2}),  # a sweep-only key
], ids=["missing-file", "not-json", "trials-0", "seeds-0", "unknown-key", "sweep-only-key"])
def test_bad_config_file_is_usage_error(tmp_path, capsys, command, doc):
    cfg = tmp_path / "exp.json"
    if doc is not None:
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [command, "--config", str(cfg), "--protocol", "secure-km", "--n", "4",
            "--m", "2", "--p", "0.25", "--mode", "exact"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


_SIM = ["simulate", "--protocol", "secure-km", "--n", "4", "--p", "0.25", "--mode", "exact"]
_SWEEP = ["sweep", "--protocol", "secure-km", "--m", "2", "--mode", "exact"]


@pytest.mark.parametrize("argv, doc", [
    (_SIM + ["--m", "2", "--seed", "abc"], None),
    (_SIM + ["--m", "abc"], None),
    (_SIM + ["--rate", "abc"], None),
    (_SIM + ["--rate", "nan"], None),
    (_SWEEP + ["--n", "4,x", "--p", "0.1"], None),
    (_SWEEP + ["--n", "4", "--p", "0.1,x"], None),
    (["region", "--quad", "1,1,1,1", "--p", "abc"], None),
    (["region", "--quad", "1,x,1,1", "--p", "0.25"], None),
    (["simulate", "--protocol", "plain-km", "--m", "2", "--p", "0.25"], {"n": 6.7}),
    (_SWEEP + ["--n", "4", "--p", "0.1"], {"aggregate": "false"}),
    (_SIM + ["--m", "2"], {"seed": True}),
    (["simulate", "--protocol", "secure-km", "--n", "4", "--m", "2", "--p", "0.25"], {"mode": 0}),
], ids=["seed-abc", "m-abc", "rate-abc", "rate-nan", "n-list", "p-list", "region-p",
        "region-quad", "config-n-6.7", "config-aggregate-string", "config-seed-true",
        "config-mode-0"])
def test_malformed_values_are_usage_errors(tmp_path, capsys, argv, doc):
    if doc is not None:
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("argv", [
    ["region", "--quad", "1,1,1,1", "--p", "0.25"],
    _SIM + ["--m", "2"],
    _SWEEP + ["--n", "4", "--p", "0.1"],
], ids=["region", "simulate", "sweep"])
def test_unwritable_out_path_is_usage_error(tmp_path, capsys, argv, target):
    out = tmp_path / "no_such_dir" / "x.csv" if target == "missing-dir" else tmp_path
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


# One bad value or key per corrupted option set; None leaves the set valid.
_EDITS = [None, {"protocol": "bogus"}, {"n": 0}, {"n": "x"}, {"p": 0.7}, {"trials": 0},
          {"mode": "nope"}, {"m": 99}, {"rate": 0.5, "m": 1}, {"seed": 1.5}]


@st.composite
def _option_sets(draw):
    """(command, options): a simulate or sweep option set, valid or with one edit."""
    sweep = draw(st.booleans())
    protocols = draw(st.lists(st.sampled_from(PROTOCOL_IDS), min_size=1,
                              max_size=3 if sweep else 1, unique=True))
    ns = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2 if sweep else 1))
    options = {"protocol": protocols, "n": ns,
               "p": draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5]), min_size=1,
                                  max_size=2 if sweep else 1)),
               "trials": draw(st.integers(1, 30))}
    if protocols != ["zero-error-otp"]:
        if draw(st.booleans()):
            options["m"] = draw(st.lists(st.integers(0, min(ns)), min_size=1,
                                         max_size=2 if sweep else 1))
        else:
            options["rate"] = draw(st.lists(st.sampled_from([0.0, 0.3, 0.75, 1.0]),
                                            min_size=1, max_size=2 if sweep else 1))
    for key, values in (("seed", st.integers(0, 3)),
                        ("mode", st.sampled_from(["exact", "monte-carlo", "both", "leakage"]))):
        if draw(st.booleans()):
            options[key] = draw(values)
    if sweep:
        options["seeds"] = draw(st.integers(1, 2))
        if draw(st.booleans()):
            options["aggregate"] = True
    else:
        options = {k: v[0] if isinstance(v, list) else v for k, v in options.items()}
    edit = draw(st.sampled_from(_EDITS))
    if edit:
        options.update({k: [v] if sweep and isinstance(options.get(k), list) else v
                        for k, v in edit.items()})
    return ("sweep" if sweep else "simulate"), options


def _flag(value) -> str:
    if isinstance(value, list):
        return ",".join(_flag(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _run_main(argv) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(_option_sets())
def test_flags_and_config_file_agree(case):
    command, options = case
    argv = [command]
    for key, value in options.items():
        argv += [f"--{key}"] if value is True else [f"--{key}", _flag(value)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "options.json"
        cfg.write_text(json.dumps(options))
        from_flags = _run_main(argv)
        from_config = _run_main([command, "--config", str(cfg)])
    event(f"exit {from_flags[0]}")
    assert from_flags[0] == from_config[0], (argv, from_flags, from_config)
    if from_flags[0] == 0:
        assert from_flags[1] == from_config[1]
    else:
        assert from_flags[0] == 2
        assert from_flags[2].startswith("usage error:")
        assert from_config[2].startswith("usage error:")


def test_config_file_supplies_unset_options(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "protocol": "secure-km", "n": 4, "m": 2, "p": 0.25,
        "trials": 200, "mode": "exact",
    }))
    rc, text = run_cli(["simulate", "--config", str(cfg), "--seed", "9"], tmp_path)
    assert rc == 0
    (row,) = parse_rows(text)
    assert (row["protocol"], row["n"], row["m"]) == ("secure-km", "4", "2")
    assert row["p_err_mc"] == ""  # mode exact came from the file

    # explicit flags beat the file
    rc, text = run_cli(["simulate", "--config", str(cfg), "--m", "3"], tmp_path, "o2.csv")
    assert rc == 0
    (row,) = parse_rows(text)
    assert row["m"] == "3"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2, 3]))
    assert main(["simulate", "--config", str(bad)]) == 2


def test_sweep_config_takes_a_scalar_for_a_list_option(tmp_path):
    # A JSON scalar is a one-entry list, so {"n": 6} runs what --n 6 runs.
    cfg = tmp_path / "n.json"
    cfg.write_text(json.dumps({"n": 6}))
    point = ["sweep", "--protocol", "secure-km", "--m", "3", "--p", "0.1", "--seed", "5"]
    from_flag = _run_main(point + ["--n", "6"])
    assert from_flag[0] == 0
    assert _run_main(point + ["--config", str(cfg)]) == from_flag


def test_negative_zero_flip_rate_is_zero(tmp_path):
    # -0 passes the [0, 1/2] check; it names the rate 0, so the same seed and code.
    commands = (
        ["simulate", "--protocol", "secure-km", "--n", "6", "--m", "3", "--trials", "500"],
        ["sweep", "--protocol", "secure-km,plain-km", "--n", "6", "--rate", "0.5",
         "--mode", "both", "--trials", "300"],
        ["region", "--quad", "0.5,0.5,0.5,0.5"],
    )
    for argv in commands:
        zero = _run_main(argv + ["--p", "0"])
        assert zero[0] == 0 and "p=-0.0" not in zero[1]
        assert _run_main(argv + ["--p=-0"]) == zero, argv
    sweep = commands[1]
    assert _run_main(sweep + ["--p=-0,0"]) == _run_main(sweep + ["--p", "0"])
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"p": -0.0}))
    assert _run_main(commands[0] + ["--config", str(cfg)]) == _run_main(commands[0] + ["--p", "0"])
    # A code rate's or a quadruple's -0 is the rate 0 too, as a flag or in --config.
    assert _run_main(["region", "--quad=-0,1,1,1", "--p", "0.1"]) == _run_main(
        ["region", "--quad", "0,1,1,1", "--p", "0.1"])
    coded = ["sweep", "--protocol", "secure-km,plain-km", "--n", "6", "--p", "0.1", "--mode", "both",
             "--trials", "300"]
    assert _run_main(coded + ["--rate=-0"]) == _run_main(coded + ["--rate", "0"])
    for argv, key, value, flag in ((coded, "rate", -0.0, "0"),
                                   (["region", "--p", "0.1"], "quad", [-0.0, 1, 1, 1], "0,1,1,1")):
        cfg.write_text(json.dumps({key: value}))
        zero = _run_main(argv + [f"--{key}", flag])
        assert zero[0] == 0 and _run_main(argv + ["--config", str(cfg)]) == zero, key
    # A list that starts with "-" reads the same after a space as after "=".
    exact = ["sweep", "--protocol", "plain-km", "--n", "4", "--m", "2", "--mode", "exact"]
    for argv, flag, value in ((exact, "--p", "-0,0"), (sweep, "--p", "-0,0"),
                              (["region", "--p", "0.1"], "--quad", "-0,1,1,1")):
        spaced = _exit_and_streams(argv + [flag, value])
        assert spaced[0] == 0 and spaced == _exit_and_streams(argv + [f"{flag}={value}"]), argv
    assert _exit_and_streams(exact + ["--p", "-0.1,0.2"]) == (
        2, "", "usage error: --p must lie in [0, 1/2], got -0.1\n")
    # A flag in place of a value still leaves the value missing.
    assert _exit_and_streams(["sweep", "--protocol", "plain-km", "--m", "2", "--p", "--n", "4"])[0] == 2


# SHA-256 of the stdout of command lines. Monte Carlo lines follow the CSV v2
# trial layout, so a change to how trials are read or decoded that moves any
# byte of an estimate shows here; exact lines show any moved byte of an exact
# error, leakage or rate value.
STDOUT_SHA256 = {
    "simulate --protocol zero-error-otp --n 70 --p 0.1 --trials 3000":
        "3c5a2529571f05caa1c693f1e9471c3c78fc40404435c299edb388a36e1392b5",
    "simulate --protocol secure-km --n 63 --m 20 --p 0.05 --trials 20000":
        "1fa1c2c2c68a716c443e3be6bb8c9e911c0e6fcf076b411864227192ba6f419f",
    "simulate --protocol plain-km --n 40 --m 24 --p 0.2 --trials 5000":
        "2e872fc6ab2aa25be1537cbd1eeb5f1812ed5088f3bcb9a0ab7177cddca29767",
    "sweep --protocol secure-km,plain-km,zero-error-otp --n 1,5,33 --rate 0.5 --p 0,0.5,0.07"
    " --mode both --trials 777 --seeds 2":
        "af25e356e5f94f115d923af6db84e6c5569cb15613a820eee5141f443ff5c836",
    "leakage --protocol secure-km --n 12 --m 6 --p 0.1":
        "cc93622507bc4d3b0b330b6afaf5d55e328957be5e46316e83683807e12e738d",
    "leakage --protocol plain-km --n 20 --m 10 --p 0.05 --seed 3":
        "c64ff81fa4b2db1e5e5deac0462d59290d21d6a724bf72a5c816ab6bc3831ca6",
    "leakage --protocol zero-error-otp --n 9 --p 0.2":
        "e0277aee3b5463d63913281de1d37c830967ad4a673bb6fc3e4c6428f9282eb1",
    "sweep --protocol secure-km,plain-km,zero-error-otp --n 4,9 --rate 0.5 --p 0.1,0.3 --mode leakage"
    " --seeds 2":
        "e2b43d8b9730acce7b46ec3932b28bb0e071685e440ae050e3fc701e811cb82a",
    # A 2^22-cell syndrome law, recorded when its passes ran in blocks of 2^20 cells.
    "leakage --protocol plain-km --n 26 --m 22 --p 0.1 --seed 4":
        "675535c7aaeea8a53dcac6ea8f477f7dcd2b29dc665b7dff642c9ea62d0ea17f",
}


@pytest.mark.parametrize("line", list(STDOUT_SHA256))
def test_stdout_bytes_are_pinned(line):
    rc, out, err = _run_main(line.split())
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[line]


def test_sweep_without_n_is_usage_error():
    rc, out, err = _run_main(["sweep", "--protocol", "secure-km", "--m", "3", "--p", "0.1"])
    assert (rc, out) == (2, "")
    assert err == "usage error: missing required option --n\n"


def test_csv_columns_are_the_documented_schema():
    assert ",".join(CSV_COLUMNS) == (
        "protocol,n,m,p,seed,r12,r13,r23,rho,eps1,eps2,eps3,eps4,p_err_exact,p_err_mc,mc_ci,in_region"
    )


def test_mean_row_leaves_a_column_unset_when_any_row_does():
    rows = [ReportRow("plain-km", 4, 2, 0.1, seed, p_err_exact=e, p_err_mc=mc)
            for seed, e, mc in ((1, 0.25, 0.5), (2, 0.75, None))]
    (mean,) = _aggregate_rows([rows], master_seed=7)
    assert mean == ReportRow("plain-km", 4, 2, 0.1, 7, p_err_exact=0.5)


def test_p_parsing_keeps_digits(tmp_path):
    rc, text = run_cli(
        ["simulate", "--protocol", "plain-km", "--n", "4", "--m", "2",
         "--p", "0.123456789", "--mode", "exact"],
        tmp_path,
    )
    assert rc == 0
    (row,) = parse_rows(text)
    assert row["p"] == "0.123456789"


def test_rows_are_internally_consistent(tmp_path):
    from securesum.analysis import check_rate_region

    rc, text = run_cli(
        ["sweep", "--protocol", "secure-km,plain-km,zero-error-otp", "--n", "4,6",
         "--m", "2", "--p", "0.05,0.25,0.49", "--mode", "exact", "--seeds", "2"],
        tmp_path,
    )
    assert rc == 0
    rows = parse_rows(text)
    assert len(rows) == 3 * 2 * 3 * 2
    for row in rows:
        quad = tuple(float(row[c]) for c in ("r13", "r23", "r12", "rho"))
        expect = "true" if check_rate_region(quad, float(row["p"])) else "false"
        assert row["in_region"] == expect, row


def test_seed_derivation_is_stable_and_spread():
    a = derive_run_seed(0, "secure-km", 6, 3, 0.1, 0)
    assert a == derive_run_seed(0, "secure-km", 6, 3, 0.1, 0)
    others = {
        derive_run_seed(0, "secure-km", 6, 3, 0.1, 1),
        derive_run_seed(1, "secure-km", 6, 3, 0.1, 0),
        derive_run_seed(0, "plain-km", 6, 3, 0.1, 0),
        derive_run_seed(0, "secure-km", 7, 3, 0.1, 0),
        derive_run_seed(0, "secure-km", 6, 4, 0.1, 0),
        derive_run_seed(0, "secure-km", 6, 3, 0.2, 0),
        # Equal to 0.1 in 12 significant digits.
        derive_run_seed(0, "secure-km", 6, 3, 0.1 + 1e-13, 0),
    }
    assert a not in others and len(others) == 7


def test_simulate_leaves_numpy_random_unimported(tmp_path):
    # Monte Carlo draws from random.Random; numpy.random would add its import
    # time and memory to every run.
    src_root = str(Path(securesum.__file__).resolve().parents[1])
    script = (
        "import sys, securesum.cli as cli\n"
        "rc = cli.main(['simulate', '--protocol', 'secure-km', '--n', '8', '--m', '5',"
        " '--p', '0.1', '--mode', 'both', '--trials', '2000', '--out', 'out.csv'])\n"
        "print(rc, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
    assert parse_rows((tmp_path / "out.csv").read_text())[0]["p_err_mc"] != ""


def test_installed_entry_point(tmp_path):
    # The console script `securesum` declared in pyproject.toml is run as
    # `python -m securesum`, so the test needs no install.  The child gets the
    # source root of the package this suite imported first on its path, and
    # runs from another directory, so it runs this code and no other copy.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert re.search(
        r'^\[project\.scripts\][ \t]*\n(?:(?!\[).*\n)*?'
        r'securesum\s*=\s*"securesum\.cli:main"[ \t]*(?:#.*)?$',
        pyproject.read_text(), re.M,
    )

    src_root = str(Path(securesum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "securesum", *argv],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )

    proc = run("region", "--quad", "1,1,1,1", "--p", "0.25")
    assert proc.returncode == 0, proc.stderr
    assert "verdict=in-region" in proc.stdout
    proc = run("simulate")
    assert proc.returncode == 2
    assert "usage error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(shutil.which("securesum") is None,
                    reason="securesum console script not installed")
def test_console_script_on_path():
    # The script an install generates from [project.scripts]; this checks the
    # packaging settings and the wrapper, which `python -m securesum` bypasses.
    exe = shutil.which("securesum")
    proc = subprocess.run(
        [exe, "region", "--quad", "1,1,1,1", "--p", "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict=in-region" in proc.stdout
    proc = subprocess.run([exe, "simulate"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage error:" in proc.stderr
    assert "Traceback" not in proc.stderr


_REGION = ["region", "--quad", "1,1,1,1", "--p", "0.25"]


def _exit_and_streams(argv) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of main(argv), counting an argparse exit as its status."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_of_a_process():
    argvs = [
        _REGION,
        ["sweep", "--protocol", "secure-km,zero-error-otp", "--n", "4,5", "--m", "2",
         "--p", "0.1,0.2", "--mode", "exact"],
        ["simulate", "--n", "4", "--p", "0.1"],  # no --protocol: a usage error
        ["region", "--quad", "1,1,1,1", "--bogus", "1"],  # an argparse error
    ]
    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(_exit_and_streams(argv))
    cli._build_parser.cache_clear()
    together = [_exit_and_streams(argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    assert together == alone
    assert [rc for rc, _, _ in together] == [0, 0, 2, 2]


def test_main_runs_the_command_bound_at_call_time(monkeypatch):
    # perfbench/tracing.py replaces cli.cmd_* between passes of one process.
    assert _exit_and_streams(_REGION)[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_region", lambda args: calls.append(args.quad) or 0)
    assert main(_REGION) == 0
    assert calls == ["1,1,1,1"]


def test_argparse_error_on_a_later_call_exits_2():
    assert _exit_and_streams(_REGION)[0] == 0
    for argv in (["region", "--nope"], ["bogus"], ["sweep", "--n"]):
        rc, out, err = _exit_and_streams(argv)
        assert (rc, out) == (2, ""), argv
        assert "error:" in err
    rc, out, _ = _exit_and_streams(_REGION)
    assert rc == 0 and "verdict=in-region" in out


# Names perfbench/tracing.py wraps that the program no longer has: the
# enumeration oracle moved to tests/oracles.py, and the sampling path and the
# syndrome table were deleted. No command called any of
# them, so each of their layers (analysis.enumerate_joint.*, analysis.entropy.*,
# protocol.run.*, source.sample_pair.*, codes.syndrome_table.*) read 0 on every
# benchmark workload before they went. The three per-scheme runners gave way
# to one `protocol.run`, so protocol.replay.* reads 0 until the benchmark
# traces the replay check itself.
REMOVED_WRAPPED_NAMES = [
    "securesum.analysis.JointPmf.entropy",
    "securesum.analysis.run_plain_km",
    "securesum.analysis.run_secure_km",
    "securesum.analysis.run_with_sampling",
    "securesum.analysis.run_zero_error_otp",
    "securesum.cli.enumerate_joint",
    "securesum.codes.LinearCode.syndrome_table",
    "securesum.protocol.sample_pair",
]


def test_benchmark_tracer_finds_every_wrapped_name():
    # perfbench/tracing.py wraps program names by their import path; a name a
    # refactor removed would quietly zero its per-layer benchmark metric.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert sorted(tracer.absent) == REMOVED_WRAPPED_NAMES
    finally:
        tracer.uninstall()


_MODULES = ["securesum", *(f"securesum.{info.name}" for info in pkgutil.iter_modules(securesum.__path__)
                           if info.name != "__main__")]


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), (module_name, name)
    exec(f"from {module_name} import *", {})
