import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import bench_source
from sylvester import cli
from sylvester.cli import (
    CONFIG_KEYS,
    EXIT_INCONCLUSIVE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_DIGITS,
    main,
)
from sylvester import DEFAULT_CHUNK
from sylvester.moments import MAX_CLOSED_FORM_SIZE, SUPPORT

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# ---------------------------------------------------------------------------
# table1


def test_table1_passes_and_emits_all_rows(capsys):
    code, out, err = run_cli(capsys, "table1")
    assert code == EXIT_OK
    rows = json_lines(out)
    assert [r["k"] for r in rows] == list(range(3, 11))
    assert all(r["matches_expected"] for r in rows)
    by_k = {r["k"]: r for r in rows}
    assert by_k[5]["midpoint_moment"] == "151/987840"
    assert by_k[5]["free_moment"] == "1063/2469600"
    assert by_k[5]["ratio"] == "755/2126"
    assert by_k[9]["ratio"] == "10031/207440"
    assert by_k[6]["midpoint_moment"] == "1/23520"


def test_table1_table_mode(capsys):
    code, out, _ = run_cli(capsys, "table1", "--table")
    assert code == EXIT_OK
    assert "k= 3" in out and "24/31" in out


def test_manifest_on_stderr(capsys):
    _, _, err = run_cli(capsys, "table1")
    manifest = json.loads(err.strip().splitlines()[0])["manifest"]
    assert manifest["command"] == "table1"
    assert "timestamp" in manifest
    assert manifest["version"]


# ---------------------------------------------------------------------------
# exact


def test_exact_halfball_origin(capsys):
    code, out, _ = run_cli(capsys, "exact", "--body", "halfball",
                           "--fixed", "origin", "--d", "3", "--k", "1")
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert rec["exact"]["terms"] == [{"h": 2, "num": "9", "den": "1024"}]
    assert rec["decimal"].startswith("0.0276116541")
    assert len(rec["decimal"].replace("0.0", "")) == 12


def test_exact_triangle_midpoint_k4(capsys):
    code, out, _ = run_cli(capsys, "exact", "--body", "triangle",
                           "--fixed", "edge_midpoint", "--k", "4")
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert rec["exact"]["terms"] == [{"h": 0, "num": "13", "den": "21600"}]


def test_exact_interval(capsys):
    code, out, _ = run_cli(capsys, "exact", "--body", "interval",
                           "--k", "1", "--l", "1")
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert rec["exact"]["terms"] == [{"h": 0, "num": "1", "den": "3"}]


def test_exact_tetrahedron_k1(capsys):
    code, out, _ = run_cli(capsys, "exact", "--body", "tetrahedron", "--k", "1")
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert rec["exact"]["terms"] == [
        {"h": 0, "num": "13", "den": "720"},
        {"h": 4, "num": "-1", "den": "15015"},
    ]
    assert rec["decimal"].startswith("0.017398")


def test_exact_unsupported_combo_lists_support(capsys):
    code, _, err = run_cli(capsys, "exact", "--body", "halfball", "--d", "3")
    assert code == EXIT_USAGE
    assert "supported" in err
    code, _, _ = run_cli(capsys, "exact", "--body", "tetrahedron", "--k", "3")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "exact", "--body", "ball", "--fixed",
                         "edge_midpoint", "--d", "2")
    assert code == EXIT_USAGE


def test_exact_json_round_trips(capsys):
    _, out, _ = run_cli(capsys, "exact", "--body", "ball", "--d", "2", "--k", "2")
    rec = json_lines(out)[0]
    assert json.loads(json.dumps(rec)) == rec
    from sylvester.exactnum import PiPolynomial
    from sylvester.moments import ball_moment

    assert PiPolynomial.from_json_dict(rec["exact"]) == ball_moment(2, 2)


# ---------------------------------------------------------------------------
# mc


def test_mc_interval_matches_exact(capsys):
    code, out, _ = run_cli(capsys, "mc", "--body", "interval", "--l", "2",
                           "--k", "1", "--n", "200000", "--seed", "42")
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert abs(rec["mean"] - 2 / 3) < 4 * rec["std_error"]
    assert rec["n"] == 200000
    assert rec["seed"] == 42
    assert rec["body"] == {"kind": "interval", "length": 2.0}


def test_mc_zeroth_moment_exact(capsys):
    code, out, _ = run_cli(capsys, "mc", "--body", "triangle", "--fixed",
                           "edge_midpoint", "--k", "0", "--n", "5000")
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert rec["mean"] == 1.0
    assert rec["variance"] == 0.0


def test_mc_seed_determinism_in_process(capsys):
    args = ("mc", "--body", "ball", "--d", "2", "--k", "1",
            "--n", "60000", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_mc_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "mc", "--body", "ball")  # missing --d
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "mc", "--body", "triangle", "--fixed", "origin")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "mc", "--body", "ball", "--d", "2", "--n", "0")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "mc", "--body", "ball", "--d", "0")
    assert code == EXIT_USAGE
    assert "usage error: ball dimension must be >= 1" in err
    code, _, err = run_cli(capsys, "mc", "--body", "interval", "--l", "-1")
    assert code == EXIT_USAGE
    assert "usage error: interval length must be positive" in err


def test_mc_whose_squares_underflow_exits_2(capsys):
    # V^400 in the unit 3-ball is about 1e-204, so its squared deviations
    # underflow, and a zero-width interval would be printed
    code, out, err = run_cli(capsys, "mc", "--body", "ball", "--d", "3", "--k", "400",
                             "--n", "1000")
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error: the squared deviations of V^400 underflow" in err


def test_mc_default_chunk_is_reported(capsys):
    code, out, _ = run_cli(capsys, "mc", "--body", "ball", "--d", "2", "--n", "100000")
    assert code == EXIT_OK
    assert json_lines(out)[0]["chunk_size"] == DEFAULT_CHUNK


@pytest.mark.parametrize("argv", [
    ("mc", "--body", "ball", "--d", "2", "--n", "1000"),
])
def test_bad_thread_count_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("SYLVESTER_THREADS", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error: SYLVESTER_THREADS must be an integer, got 'abc'" in err


# ---------------------------------------------------------------------------
# the whole body x fixed-vertex support matrix

BODIES = ["interval", "ball", "halfball", "triangle", "tetrahedron"]
FIXED = ["none", "origin", "edge_midpoint", "facet_centroid"]
MC_PAIRS = {
    ("interval", "none"), ("ball", "none"), ("ball", "origin"),
    ("halfball", "none"), ("halfball", "origin"), ("triangle", "none"),
    ("triangle", "edge_midpoint"), ("tetrahedron", "none"),
    ("tetrahedron", "facet_centroid"),
}
# the pairs exact at k = 1, the order the matrix queries; every pair is exact at k = 2
EXACT_AT_K1 = MC_PAIRS - {("halfball", "none"), ("tetrahedron", "facet_centroid")}


def _matrix_argv(command, body, fixed):
    argv = [command, "--body", body, "--fixed", fixed]
    if body in ("ball", "halfball"):
        argv += ["--d", "3"]
    if command == "mc":
        argv += ["--n", "1000"]
    return argv


@pytest.mark.parametrize("command", ["exact", "mc"])
@pytest.mark.parametrize("fixed", FIXED)
@pytest.mark.parametrize("body", BODIES)
def test_support_matrix(capsys, command, body, fixed):
    code, out, err = run_cli(capsys, *_matrix_argv(command, body, fixed))
    if (body, fixed) in (EXACT_AT_K1 if command == "exact" else MC_PAIRS):
        assert code == EXIT_OK
        assert len(json_lines(out)) == 1
        return
    assert code == EXIT_USAGE
    assert out == ""
    message = err.strip().splitlines()[-1]
    assert message.startswith("usage error: ")
    assert all(f"{b}/{f}" in message for b, f in MC_PAIRS)


@pytest.mark.parametrize("body, fixed", [
    (b, f) for b in BODIES for f in FIXED if (b, f) not in MC_PAIRS
])
def test_exact_and_mc_reject_a_pair_with_the_same_message(capsys, body, fixed):
    _, _, exact_err = run_cli(capsys, *_matrix_argv("exact", body, fixed))
    _, _, mc_err = run_cli(capsys, *_matrix_argv("mc", body, fixed))
    assert exact_err.strip().splitlines()[-1] == mc_err.strip().splitlines()[-1]


def test_every_pair_is_exact_at_k2(capsys):
    for body, fixed in sorted(MC_PAIRS):
        argv = [*_matrix_argv("exact", body, fixed), "--k", "2"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK, argv
        (record,) = json_lines(out)
        if (body, fixed) == ("halfball", "none"):  # d = 3
            assert record["exact_str"] == "19/12000"


def test_exact_tetrahedron_has_closed_forms_at_k1_k2_and_k4_only(capsys):
    for k, value in (("1", "13/720 - 1/15015*pi^2"), ("2", "3/4000"), ("4", "871/123480000")):
        code, out, _ = run_cli(capsys, "exact", "--body", "tetrahedron", "--k", k)
        assert code == EXIT_OK
        assert json_lines(out)[0]["exact_str"] == value
    code, out, _ = run_cli(capsys, "exact", "--body", "tetrahedron", "--fixed", "facet_centroid",
                           "--k", "4")
    assert code == EXIT_OK and json_lines(out)[0]["exact_str"] == "43/27783000"
    code, out, err = run_cli(capsys, "exact", "--body", "tetrahedron", "--k", "3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "tetrahedron/none (d=3, exact k=1,2,4 only)" in err
    assert "tetrahedron/facet_centroid (d=3, exact k=2,4 only)" in err
    assert "halfball/none (any d, exact k=2, and k=4 at d=3,4 only)" in err


def test_exact_halfball_fourth_moment_only_at_d3_and_d4(capsys):
    code, out, _ = run_cli(capsys, "exact", "--body", "halfball", "--d", "3", "--k", "4")
    assert code == EXIT_OK and json_lines(out)[0]["exact_str"] == "9827/702464000"
    code, out, _ = run_cli(capsys, "exact", "--body", "halfball", "--d", "4", "--k", "4")
    assert code == EXIT_OK
    assert json_lines(out)[0]["exact_str"] == (
        "64/43758225*pi^-4 - 83/54867456*pi^-2 + 475/3057647616")
    for d in ("2", "5"):
        code, out, err = run_cli(capsys, "exact", "--body", "halfball", "--d", d, "--k", "4")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"d={d} k=4" in err


# ---------------------------------------------------------------------------
# counterexample scenarios (small n here; full-strength runs live in the
# acceptance suite)


@pytest.mark.parametrize("scenario", ["halfball-d3", "tetra-d3", "halfball-d4-k1"])
def test_counterexample_certifies_at_moderate_n(capsys, scenario):
    code, out, _ = run_cli(capsys, "counterexample", scenario,
                           "--n", "300000", "--seed", "3")
    rec = json_lines(out)[0]
    assert code == EXIT_OK, rec
    assert rec["certified"] is True
    assert rec["verdict"]["relation"] == "lhs>rhs"


def test_a_counterexample_side_is_built_once_per_query(capsys, monkeypatch):
    # the free half-ball's exact E V^2 comes from its covariance, a constant of the query
    from sylvester import cli, moments

    calls = []
    real = moments._halfball_covariance

    def counted(*args):
        calls.append(args)
        return real(*args)

    cli._side.cache_clear()
    monkeypatch.setattr(moments, "_halfball_covariance", counted)
    argv = ("counterexample", "halfball-d4-k1", "--n", "200000", "--seed", "5")
    first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert first[0] == second[0] == EXIT_OK
    assert first[1] == second[1]
    assert calls == [(4, False)]


def test_the_query_caches_hold_one_entry_per_query(capsys):
    # the exact constants of a certification are cached per process: after 50
    # seeds of each scenario, one entry per exact side (enclosure, decimal),
    # one per estimated side (shift, betting bounds, the body's range), one per
    # betting test (the chunk-0 stakes' psi values, keyed by span) and one per
    # fixed vertex (its check that it lies in the body); a further seed adds none
    from sylvester import cli, montecarlo

    caches = {"_exact_bounds": 3, "_exact_decimal": 3, "_shift": 3, "_betting_tests": 3,
              "_chunk0_bets": 6, "_max_simplex_volume": 3, "_check_inside": 1}
    for name in caches:
        getattr(montecarlo, name).cache_clear()
    cli._side.cache_clear()
    for seed in range(50):
        for scenario in cli.SCENARIOS:
            code, _, _ = run_cli(capsys, "counterexample", scenario,
                                 "--n", "2000000", "--seed", str(seed))
            assert code == EXIT_OK
    sizes = {name: getattr(montecarlo, name).cache_info().currsize for name in caches}
    assert all(sizes[name] <= bound for name, bound in caches.items()), sizes
    assert cli._side.cache_info().currsize == 6
    run_cli(capsys, "counterexample", "halfball-d3", "--n", "2000000", "--seed", "50")
    assert sizes == {name: getattr(montecarlo, name).cache_info().currsize for name in caches}


def test_a_mutated_verdict_record_leaves_the_next_run_as_it_was(capsys):
    # every to_json_dict is a fresh dict, so what a caller does to one
    # reaches no cache
    from sylvester import cli
    from sylvester.montecarlo import certify_counterexample, make_config

    argv = ("counterexample", "tetra-d3", "--n", "2000000", "--seed", "4")
    before = run_cli(capsys, *argv)
    lhs, rhs = (cli._side(query) for query in cli.SCENARIOS["tetra-d3"])
    record = certify_counterexample(lhs, rhs, make_config(k=1, n_samples=2_000_000,
                                                          seed=4)).to_json_dict()
    record["lhs"]["decimal"] = "0"
    record["lhs"]["value"]["terms"].clear()
    record["rhs"]["estimate"]["body"]["vertices"].clear()
    record["rhs"]["estimate"].clear()
    assert run_cli(capsys, *argv)[:2] == before[:2]


def test_an_unused_budget_costs_nothing(capsys):
    # 3 * 10^10 chunks of budget; the ramp's first two, 1,024 and 2,048
    # samples, decide
    code, out, _ = run_cli(capsys, "counterexample", "tetra-d3", "--n", str(10**15))
    assert code == EXIT_OK
    record = json_lines(out)[0]
    assert record["certified"] and record["verdict"]["rhs"]["estimate"]["n"] == 3_072


# Samples drawn by the estimated side when each scenario stops, at seeds 0-9
# and --n 2000000.  A change to the stopping rule, or to the draws, shows up
# here by name.
PINNED_STOPS = {
    "halfball-d3": [21_504, 13_312, 7_168, 3_072, 9_216,
                    9_216, 9_216, 3_072, 11_264, 9_216],
    "tetra-d3": [3_072, 3_072, 3_072, 3_072, 3_072, 3_072, 5_120, 3_072, 3_072, 3_072],
    "halfball-d4-k1": [1_024] * 10,
}


@pytest.mark.parametrize("scenario", PINNED_STOPS)
def test_certification_stops_are_pinned(capsys, scenario):
    stops = []
    for seed in range(10):
        code, out, _ = run_cli(capsys, "counterexample", scenario,
                               "--n", "2000000", "--seed", str(seed))
        assert code == EXIT_OK
        verdict = json_lines(out)[0]["verdict"]
        (side,) = (side for side in (verdict["lhs"], verdict["rhs"]) if side["type"] == "estimate")
        stops.append(side["estimate"]["n"])
    assert stops == PINNED_STOPS[scenario]


# sha256 of stdout and of the {"certification": ...} stderr line (with its
# newline) of each scenario at --n 2000000, seeds 0 and 17.  A change to the
# draws, the kernel, the stopping rule or the output format shows up here.
PINNED_OUTPUT_DIGESTS = {
    ("halfball-d3", 0): ("f4928eedbf2e5d47c2b810f71a76b098afb99d8e541829b660df36d6468d9d51",
                         "13a6741e6d0ab53fccbff28f49be86e0725847ef644c3d2f329eaa312eca62e8"),
    ("halfball-d3", 17): ("fc8fd0fe6faa38452b405d9bb9fa93a0ce0f8784571dadfae987dbf7249b6936",
                          "8c49f68dff26721a8ff90381e99630b4bbd940cfc4157b95a3348979d9ef276b"),
    ("tetra-d3", 0): ("2237b6da1a09288ef4787994223570e951139f778b49c05f00818e91cd7aac8f",
                      "59adae1cdd48f81f4e19b5f50fc20f34369cf9c19e2bc0cb3bc412fe09775956"),
    ("tetra-d3", 17): ("916e28754fa36295fb7b1cd0c1f647f16fd3afcfdfb42d42c42705edd29f920f",
                       "ff3fd4d9807c85659b2e8481a18fb8aea71b7489e782ae97e0db81598fb231aa"),
    ("halfball-d4-k1", 0): ("754c4f6f3417ca29519482ae6468fda2b815fbb2f25aef8b87bd2c32a7576dd2",
                            "0a303eebc878008af6f5790a1ad5392bef75fdad4ac6093feb71419bb0050f24"),
    ("halfball-d4-k1", 17): ("6010486b44bf10bf480d77e3606d412166451b7e342a4b24b0e704c764147054",
                             "a4378a853de2ed90982ae24aa0f7098e7fc7d5ce22544fa14a37d2543dfab58c"),
}


@pytest.mark.parametrize("scenario, seed", PINNED_OUTPUT_DIGESTS)
def test_counterexample_output_bytes_are_pinned(capsys, scenario, seed):
    code, out, err = run_cli(capsys, "counterexample", scenario,
                             "--n", "2000000", "--seed", str(seed))
    assert code == EXIT_OK
    (line,) = (line for line in err.splitlines(keepends=True)
               if line.startswith('{"certification"'))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, line))
    assert digests == PINNED_OUTPUT_DIGESTS[scenario, seed]


def _interval_and_exact(out):
    """The estimated side's printed (ci_low, ci_high) and the exact side's value."""
    from sylvester.exactnum import PiPolynomial

    verdict = json_lines(out)[0]["verdict"]
    sides = {side["type"]: side for side in (verdict["lhs"], verdict["rhs"])}
    est = sides["estimate"]["estimate"]
    return est["ci_low"], est["ci_high"], PiPolynomial.from_json_dict(sides["exact"]["value"])


def _contains(lo, hi, exact):
    # exactly: each double as a Fraction, against the PiPolynomial's certified sign
    return not exact < F(lo) and not F(hi) < exact


@pytest.mark.parametrize("scenario", PINNED_STOPS)
def test_a_certified_interval_excludes_the_exact_value(capsys, scenario):
    # the printed interval is the betting tests' confidence sequence, whose
    # decided end is the exact side's own double: no certified run's
    # interval contains the exact value it clears
    for seed in range(40):
        code, out, _ = run_cli(capsys, "counterexample", scenario,
                               "--n", "2000000", "--seed", str(seed))
        assert code == EXIT_OK
        lo, hi, exact = _interval_and_exact(out)
        assert lo <= hi and not _contains(lo, hi, exact), (seed, lo, hi)


def test_an_inconclusive_interval_contains_the_exact_value(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "halfball-d3", "--n", "2000", "--seed", "0")
    assert code == EXIT_INCONCLUSIVE
    assert _contains(*_interval_and_exact(out))


def test_counterexample_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "halfball-d3",
                           "--n", "2000", "--seed", "0")
    assert code == EXIT_INCONCLUSIVE
    rec = json_lines(out)[0]
    assert rec["verdict"]["relation"] == "inconclusive"


def test_counterexample_writes_its_certification_trace_to_stderr(capsys):
    code, out, err = run_cli(capsys, "counterexample", "tetra-d3",
                             "--n", "2000000", "--seed", "3")
    assert code == EXIT_OK
    (record,) = json_lines(out)
    manifest, trace = json_lines(err)
    assert "manifest" in manifest
    trace = trace["certification"]
    est = record["verdict"]["rhs"]["estimate"]
    assert "lhs" not in trace  # the exact side
    # at this seed, the ramp's 1,024 + 2,048
    assert est["n"] == 3_072
    # the facet-centroid side has an exact E V^2 and E V^4, so it samples the
    # quartic control variate, whose range is 0.1352 of the volume's; its
    # test against the exact side decides at a log-wealth above log(2 / alpha)
    log_wealth = trace["rhs"]["log_wealth"]
    assert trace["rhs"] == {"samples": est["n"], "chunks": 2,
                            "budget": 2_000_000, "alpha": pytest.approx(0.01),
                            "range": pytest.approx(0.1352418), "stop": "decided",
                            "sample": "V^k(1+t(a+b*t^2)),t=V^k/R^k",
                            "a": -1.93029937, "b": 1.06554117,
                            "log_wealth": log_wealth,
                            "threshold": pytest.approx(math.log(200.0)),
                            "chunk0_stakes": [0.0, 0.05, 0.1, 0.2, 0.4]}
    assert est["n"] < est["n_samples"] == 2_000_000
    assert trace["margin"] == log_wealth / trace["rhs"]["threshold"] > 1.0
    assert "certification" not in out


def test_inconclusive_counterexample_trace_names_the_budget(capsys):
    code, out, err = run_cli(capsys, "counterexample", "halfball-d3",
                             "--n", "2000", "--seed", "0")
    assert code == EXIT_INCONCLUSIVE
    trace = json_lines(err)[-1]["certification"]
    assert trace["lhs"]["stop"] == "budget"
    assert trace["lhs"]["samples"] == trace["lhs"]["budget"] == 2000
    assert trace["margin"] < 1.0
    assert json_lines(out)[0]["verdict"]["lhs"]["estimate"]["n"] == 2000


def test_counterexample_unknown_scenario(capsys):
    code, _, _ = run_cli(capsys, "counterexample", "nonsense")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# qscan


def test_qscan_d2(capsys):
    code, out, _ = run_cli(capsys, "qscan", "--d", "2", "--k-max", "15")
    assert code == EXIT_OK
    records = json_lines(out)
    summary = records[-1]
    assert summary["first_k_below_one"] == 11
    assert summary["monotone_verified"] is True
    assert summary["plane_report"]["family"] == "halfdisk"
    by_k = {r["k"]: r for r in records[:-1]}
    assert by_k[11]["below_one"] is True
    assert by_k[10]["below_one"] is False


def test_qscan_d3(capsys):
    code, out, _ = run_cli(capsys, "qscan", "--d", "3", "--k-max", "10")
    assert code == EXIT_OK
    summary = json_lines(out)[-1]
    assert summary["first_k_below_one"] == 4
    assert summary["monotone_verified"] is True
    assert summary["ratio_bound_k2_is_one"] is True
    assert summary["ratio_bound_k2"]["terms"] == [{"h": 0, "num": "1", "den": "1"}]
    assert summary["ratio_bound_k3_decimal"] == "0.897003"


def test_qscan_rejects_small_kmax(capsys):
    code, _, _ = run_cli(capsys, "qscan", "--d", "2", "--k-max", "1")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# config file defaults


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("n = 5000\nseed = 17\nd = 2  # dimension\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "mc", "--body", "ball",
                           "--k", "0")
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert rec["n"] == 5000
    assert rec["seed"] == 17
    assert rec["body"] == {"kind": "ball", "d": 2}
    # explicit flag beats the config value
    code, out, _ = run_cli(capsys, "--config", str(cfg), "mc", "--body", "ball",
                           "--k", "0", "--n", "1000")
    rec = json_lines(out)[0]
    assert rec["n"] == 1000
    assert rec["seed"] == 17


def test_config_file_missing(capsys):
    code, _, err = run_cli(capsys, "--config", "/nonexistent/path", "table1")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("form", [("--config={}",), ("--config", "{}"), ("--conf", "{}")])
def test_config_path_forms_are_all_read(tmp_path, capsys, form):
    cfg = tmp_path / "k2.cfg"
    cfg.write_text("k=2\n")
    argv = [part.format(cfg) for part in form]
    code, out, _ = run_cli(capsys, *argv, "exact", "--body", "ball", "--d", "3")
    assert code == EXIT_OK
    assert json_lines(out)[0]["query"]["k"] == 2


def test_config_option_after_the_command_is_not_taken_for_config(capsys):
    # --con is an abbreviation of mc's --confidence, not of the global --config
    code, out, _ = run_cli(capsys, "mc", "--body", "ball", "--d", "2",
                           "--n", "1000", "--con", "0.9")
    assert code == EXIT_OK
    assert json_lines(out)[0]["confidence"] == 0.9


def test_config_missing_path(capsys):
    code, out, _ = run_cli(capsys, "--config")
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("line, argv", [
    ("k=abc", ("exact", "--body", "ball", "--d", "3")),
    ("l=xyz", ("exact", "--body", "interval")),
    ("digits=abc", ("qscan",)),
    ("n=1e5", ("mc", "--body", "ball", "--d", "2")),
    ("body=cube", ("mc", "--n", "1000")),
    ("body=cube", ("exact",)),
    ("fixed=vertex", ("exact", "--body", "ball", "--d", "3")),
    ("d=5", ("qscan",)),
    ("seeed=5", ("mc", "--body", "ball", "--d", "2", "--n", "1000")),
    ("table=1", ("table1",)),
    ("l=1/0", ("exact", "--body", "interval")),
], ids=["bad-k", "bad-l", "bad-digits", "bad-n", "cube-mc", "cube-exact",
        "bad-fixed", "qscan-d5", "unknown-key", "flag-not-a-key", "zero-denominator-l"])
def test_config_bad_values_and_unknown_keys_are_usage_errors(tmp_path, capsys, line, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "Traceback" not in err


def test_config_key_of_another_command_is_accepted(tmp_path, capsys):
    # one file may serve several commands: d=5 is out of qscan's choices but
    # a valid --d for exact, and table1 has no --d at all
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("d=5\nseed=3\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "exact", "--body", "ball")
    assert code == EXIT_OK
    assert json_lines(out)[0]["query"]["d"] == 5
    code, _, _ = run_cli(capsys, "--config", str(cfg), "table1")
    assert code == EXIT_OK


def test_one_parser_keeps_no_config_between_calls(tmp_path, capsys):
    k2, k3 = tmp_path / "k2.cfg", tmp_path / "k3.cfg"
    k2.write_text("k=2\n")
    k3.write_text("k=3\n")
    argv = ("exact", "--body", "ball", "--d", "3")
    ks = []
    for prefix in (("--config", str(k2)), (), ("--config", str(k3)), ("--config", str(k2))):
        code, out, _ = run_cli(capsys, *prefix, *argv)
        assert code == EXIT_OK
        ks.append(json_lines(out)[0]["query"]["k"])
    assert ks == [2, 1, 3, 2]


def test_config_path_spelled_like_the_command(tmp_path, capsys, monkeypatch):
    # the file's flags go after the command token, not after the path "exact"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exact").write_text("k=2\n")
    code, out, _ = run_cli(capsys, "--config", "exact", "exact", "--body", "ball", "--d", "3")
    assert code == EXIT_OK
    assert json_lines(out)[0]["query"]["k"] == 2


def test_config_negative_length_is_a_value_not_a_flag(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("l=-1\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "exact", "--body", "interval")
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error: interval length must be positive" in err


# ---------------------------------------------------------------------------
# parsing: each token once, with the same outcome as two full parses gave

QUERY = ("exact", "--body", "ball", "--d", "3")

# argv -> (exit code, first 16 hex digits of stdout's sha256, last stderr line
# that is not the manifest), as the two full argparse passes gave them
PARSE_CORPUS = [
    (("--help",), 0, "0bb2d77b6d9fb1d9", ""),
    (("table1", "--help"), 0, "a52002e9f873b212", ""),
    (("exact", "--help"), 0, "188ee28ffeea945d", ""),
    (("mc", "--help"), 0, "2264279aa3562d42", ""),
    (("counterexample", "--help"), 0, "72de762432986db3", ""),
    (("qscan", "--help"), 0, "ddccf73e6c9f4bdf", ""),
    ((), 2, "e3b0c44298fc1c14",
     "sylvester: error: the following arguments are required: command"),
    (("--config",), 2, "e3b0c44298fc1c14",
     "sylvester: error: argument --config: expected one argument"),
    (("exact", "--bogus"), 2, "e3b0c44298fc1c14",
     "sylvester: error: unrecognized arguments: --bogus"),
    (("--bogus", "exact"), 2, "e3b0c44298fc1c14",
     "sylvester: error: unrecognized arguments: --bogus"),
    ((*QUERY, "extra"), 2, "e3b0c44298fc1c14",
     "sylvester: error: unrecognized arguments: extra"),
    (("-h", "exact"), 0, "0bb2d77b6d9fb1d9", ""),
    (("exact", "--d"), 2, "e3b0c44298fc1c14",
     "sylvester exact: error: argument --d: expected one argument"),
    (("--config=k2.cfg", *QUERY), 0, "688fc535c7f24cfc", ""),
    (("--conf", "k2.cfg", *QUERY), 0, "688fc535c7f24cfc", ""),
    (("--config", "k2.cfg", "--config", "k3.cfg", *QUERY), 0, "617b33ace35772ac", ""),
    # unknown tokens before the command: where the command's parser fails, it fails first
    (("--bogus", "counterexample"), 2, "e3b0c44298fc1c14",
     "sylvester counterexample: error: the following arguments are required: scenario"),
    (("--bogus", "exact", "--d", "x"), 2, "e3b0c44298fc1c14",
     "sylvester exact: error: argument --d: invalid int value: 'x'"),
    (("-", "exact"), 2, "e3b0c44298fc1c14",
     "sylvester: error: argument command: invalid choice: '-' (choose from 'table1', "
     "'exact', 'mc', 'counterexample', 'qscan')"),
]


@pytest.mark.parametrize("argv, code, digest, last", PARSE_CORPUS,
                         ids=[" ".join(argv) or "no-arguments" for argv, *_ in PARSE_CORPUS])
def test_parse_outcomes_are_pinned(tmp_path, capsys, monkeypatch, argv, code, digest, last):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k2.cfg").write_text("k=2\n")
    (tmp_path / "k3.cfg").write_text("k=3\n")
    got, out, err = run_cli(capsys, *argv)
    lines = [line for line in err.splitlines() if not line.startswith('{"manifest"')]
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
    assert (lines[-1] if lines else "") == last


class _Tokens(list):
    """A command line that records each token a pass over it reads, and
    fails on a token read by index."""

    def __init__(self, tokens):
        super().__init__(tokens)
        self.read = []

    def __iter__(self):
        for token in super().__iter__():
            self.read.append(token)
            yield token

    def __getitem__(self, index):
        raise AssertionError(f"token {index} read by index")


@pytest.mark.parametrize("config", [False, True])
def test_each_token_after_the_command_is_parsed_once(tmp_path, monkeypatch, capsys, config):
    # a clean command line is settled by the command's table in one pass and
    # reaches no argparse parser; with --config, argparse reads each token once
    cfg = tmp_path / "digits.cfg"
    cfg.write_text("digits=20\n")
    after = ["--body", "ball", "--d", "3", "--k", "2"]
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, args=None, namespace=None):
        calls.append((self.prog, list(args)))
        return real(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    prefix = ["--config", str(cfg)] if config else []
    code, _, err = run_cli(capsys, *prefix, "exact", *after)
    assert code == EXIT_OK
    assert json.loads(err)["manifest"]["parameters"]["digits"] == (20 if config else 12)
    if config:
        for token in after:
            assert [prog for prog, args in calls if token in args] == ["sylvester exact"], token
        return
    assert calls == []
    tokens = _Tokens(["exact", *after])
    ns = cli._parse(tokens)
    assert tokens.read == ["exact", *after]
    assert calls == []
    assert ns == cli._argparse(["exact", *after])


def _argparse_outcome(argv):
    """argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._argparse(argv)
        except SystemExit:
            return None


# each command's flags that take a value, and valid values of each flag
COMMAND_FLAGS = {
    "table1": [],
    "exact": ["--body", "--fixed", "--d", "--k", "--l", "--digits"],
    "mc": ["--body", "--fixed", "--d", "--k", "--l", "--n", "--seed", "--chunk", "--confidence"],
    "counterexample": ["--n", "--seed", "--chunk", "--confidence"],
    "qscan": ["--d", "--k-max", "--digits"],
}
FLAG_VALUES = {
    "--body": ["ball", "halfball", "interval", "triangle", "tetrahedron"],
    "--fixed": ["none", "origin", "edge_midpoint", "facet_centroid"],
    "--d": ["2", "3", "12"], "--k": ["0", "1", "2"], "--l": ["1/2", "2", "0.5"],
    "--digits": ["12", "30"], "--n": ["1000"], "--seed": ["0", "7"], "--chunk": ["1024"],
    "--confidence": ["0.9", "0.99"], "--k-max": ["5", "20"],
}
STORE_FLAGS = ["--table", "--json"]
# values no flag takes: bad types, bad choices, values that start with "-"
BAD_VALUES = ["x", "1.5", "1/0", "cube", "", "5000", "-1", "-1/2", "-1e3", "-x", "--d", "nan"]
# tokens the table leaves to argparse: abbreviations, help, --config, unknown tokens
OTHER_TOKENS = ["--bo", "--di", "--k-m", "--tab", "--js", "--conf", "--config", "-h",
                "--help", "--bogus", "--", "-", "-k", "extra", "halfball-d3", "--table=1"]
# what may come before the command
HEADS = [[], ["bogus"], ["-h"], ["--help"], ["--config", "x.cfg"], ["--conf=x.cfg"]]


def _valued(flags):
    """(flag, value) or ("flag=value",) for one of ``flags`` and a valid value of it."""
    return st.sampled_from(flags).flatmap(lambda flag: st.sampled_from(FLAG_VALUES[flag]).flatmap(
        lambda value: st.sampled_from([(flag, value), (f"{flag}={value}",)])))


_noise = st.one_of(
    st.sampled_from(OTHER_TOKENS).map(lambda token: (token,)),
    st.tuples(st.sampled_from([*FLAG_VALUES, "--conf", "--bo"]),
              st.sampled_from([*BAD_VALUES, "ball", "3"])),
    st.builds(lambda flag, value: (f"{flag}={value}",),
              st.sampled_from(sorted(FLAG_VALUES)), st.sampled_from(BAD_VALUES)),
)


@st.composite
def _command_lines(draw):
    """Mostly clean command lines, half of them with noise inserted."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    head = draw(st.sampled_from(HEADS)) if draw(st.integers(0, 3)) == 0 else []
    store = st.sampled_from(STORE_FLAGS).map(lambda flag: (flag,))
    clean = st.one_of(_valued(COMMAND_FLAGS[command]), store) if COMMAND_FLAGS[command] else store
    groups = draw(st.lists(clean, max_size=6))
    if command == "counterexample":  # the positional: once as a rule, else missing or twice
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
            groups.insert(draw(st.integers(0, len(groups))),
                          (draw(st.sampled_from(["halfball-d3", "tetra-d3", "cube"])),))
    if draw(st.booleans()):
        for group in draw(st.lists(_noise, min_size=1, max_size=2)):
            groups.insert(draw(st.integers(0, len(groups))), group)
    return [*head, command, *(token for group in groups for token in group)]


# a value that starts with "-" is an option to argparse unless it looks
# like a negative number ("-1", not "-1/2" or "-1e3")
@example(["exact", "--body", "interval", "--l", "-1/2"])
@example(["mc", "--body", "ball", "--confidence", "-1e3"])
@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_table_settles_as_argparse_does(argv):
    settled = cli._settle(argv)
    expected = _argparse_outcome(argv)
    if expected is None:
        assert settled is None
    elif settled is not None:
        # "nan" is a float to both parsers, and nan != nan: equal reprs also match
        assert settled == expected or repr(settled) == repr(expected)


def test_every_benchmark_command_line_is_settled_by_the_table():
    # the exact grid, one mc round, one certify round and the warm-ups
    workloads = bench_source.load("workloads")
    rng = random.Random(0)
    rounds = [*workloads.mc_round(rng), *workloads.certify_round(rng)]
    argvs = [*workloads.exact_grid(), *(argv for op in rounds for argv in op["cmds"]),
             *workloads.WARMUP.values()]
    assert {argv[0] for argv in argvs} == set(cli.TABLES)
    for argv in argvs:
        settled = cli._settle(argv)
        assert settled is not None, argv
        assert settled == cli._argparse(argv), argv


@pytest.mark.parametrize("argv", [
    ("exact", "--body", "ball", "--d", "3", "--l", "5"),
    ("mc", "--body", "triangle", "--l", "7", "--n", "1000"),
])
def test_length_is_for_the_interval_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error: a length applies to body interval only" in err


@pytest.mark.parametrize("argv", [
    ("exact", "--body", "ball", "--d", "3", "--digits", "0"),
    ("qscan", "--digits", "0"),
    ("exact", "--body", "ball", "--d", "3", "--digits", "20000"),
    ("table1", "--digits", "12"),
    ("mc", "--body", "ball", "--d", "2", "--n", "1000", "--digits", "12"),
    ("counterexample", "halfball-d3", "--n", "1000", "--digits", "12"),
    # values outside what a Fraction or a double holds
    ("exact", "--body", "interval", "--l", "1/0"),
    ("mc", "--body", "interval", "--l", "1/0"),
    ("mc", "--body", "interval", "--l", "1e400"),
    ("mc", "--body", "interval", "--l", "1e-400"),
    ("mc", "--body", "ball", "--d", "171", "--n", "100"),
    ("mc", "--body", "halfball", "--d", "171", "--n", "100"),
    ("mc", "--body", "ball", "--d", "200", "--n", "100"),
    ("mc", "--body", "interval", "--l", "1e200", "--k", "2", "--n", "10"),
])
def test_bad_or_unused_digits_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("exact", "--body", "ball", "--d", "12", "--k", "40"),
    ("exact", "--body", "halfball", "--fixed", "origin", "--d", "12", "--k", "40"),
])
def test_the_largest_digits_works(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--digits", str(MAX_DIGITS))
    assert code == EXIT_OK
    decimal = json_lines(out)[0]["decimal"]
    assert len(decimal.lstrip("0.")) == MAX_DIGITS == 4000


@pytest.mark.parametrize("argv", [
    ("exact", "--body", "ball", "--d", "3"),
    ("exact", "--body", "ball", "--d", "12", "--k", "40"),
    ("qscan",),
])
def test_digits_above_the_limit_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--digits", str(MAX_DIGITS + 1))
    assert code == EXIT_USAGE
    assert out == ""
    assert "--digits must be at most 4000" in err
    assert "Traceback" not in err and "set_int_max_str_digits" not in err


def test_an_exact_value_too_long_to_print_is_a_usage_error(capsys):
    # l = 10^100 at k = 50: the coefficient has about 5,000 digits
    code, out, err = run_cli(capsys, "exact", "--body", "interval",
                             "--l", "1" + "0" * 100, "--k", "50")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "Traceback" not in err and "set_int_max_str_digits" not in err


# each ran for more than 10 s before the closed form's size was bounded
OVERSIZED = [
    ("exact", "--body", "ball", "--d", "3", "--k", "100000"),
    ("exact", "--body", "ball", "--d", "200000", "--k", "1"),
    ("exact", "--body", "ball", "--fixed", "origin", "--d", "3", "--k", "20000"),
    ("exact", "--body", "triangle", "--k", "20000"),
    ("exact", "--body", "triangle", "--fixed", "edge_midpoint", "--k", "20000"),
    ("exact", "--body", "interval", "--l", "3" * 4000 + "/7", "--k", "2000"),
    ("qscan", "--d", "2", "--k-max", "100000"),
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=range(len(OVERSIZED)))
def test_an_oversized_closed_form_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert f"above the limit {MAX_CLOSED_FORM_SIZE}" in err and "Traceback" not in err


# each points array is above MAX_CHUNK_BYTES: 51*50*8 B for 2^15 simplices, 4*3*8 B for 10^6
OVERSIZED_CHUNKS = [
    ("mc", "--body", "ball", "--d", "50", "--n", "100000"),
    ("counterexample", "halfball-d3", "--n", "1000000", "--chunk", "1000000"),
]


@pytest.mark.parametrize("argv", OVERSIZED_CHUNKS, ids=range(len(OVERSIZED_CHUNKS)))
def test_an_oversized_chunk_is_a_usage_error(capsys, argv):
    from sylvester.montecarlo import MAX_CHUNK_BYTES

    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert f"above the limit of {MAX_CHUNK_BYTES} bytes" in err and "Traceback" not in err


def test_a_chunk_within_the_byte_limit_runs(capsys):
    # 2000 * 51 * 50 * 8 B = 40.8 MB
    code, out, _ = run_cli(capsys, "mc", "--body", "ball", "--d", "50", "--n", "2000")
    assert code == EXIT_OK and json_lines(out)[0]["n"] == 2000


@pytest.mark.parametrize("argv", [
    ("exact", "--body", "ball", "--d", "12", "--k", "40", "--digits", "30"),  # the exact grid's corner
    ("exact", "--body", "halfball", "--fixed", "origin", "--d", "3", "--k", "662"),  # 3*666 = 1998
    ("exact", "--body", "ball", "--d", "43", "--k", "1"),  # 43*45 = 1935
    ("exact", "--body", "triangle", "--fixed", "edge_midpoint", "--k", "997"),  # 2*1000
    ("exact", "--body", "interval", "--l", "3/2", "--k", "1998"),  # 1*2000
    ("qscan", "--d", "3", "--k-max", "662"),
], ids=range(6))
def test_closed_forms_up_to_the_size_limit_are_built(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and out


# (command, config key) -> (base argv, another valid value for that key)
FLAG_CASES = {
    ("exact", "body"): (("exact", "--body", "triangle"), "tetrahedron"),
    ("exact", "fixed"): (("exact", "--body", "triangle"), "edge_midpoint"),
    ("exact", "d"): (("exact", "--body", "ball", "--d", "3"), "4"),
    ("exact", "k"): (("exact", "--body", "triangle"), "2"),
    ("exact", "l"): (("exact", "--body", "interval"), "3/2"),
    ("exact", "digits"): (("exact", "--body", "ball", "--d", "3"), "30"),
    ("mc", "body"): (("mc", "--body", "triangle", "--n", "1000"), "tetrahedron"),
    ("mc", "fixed"): (("mc", "--body", "triangle", "--n", "1000"), "edge_midpoint"),
    ("mc", "d"): (("mc", "--body", "ball", "--d", "2", "--n", "1000"), "3"),
    ("mc", "k"): (("mc", "--body", "triangle", "--n", "1000"), "2"),
    ("mc", "l"): (("mc", "--body", "interval", "--n", "1000"), "3/2"),
    ("mc", "n"): (("mc", "--body", "triangle", "--n", "1000"), "2000"),
    ("mc", "seed"): (("mc", "--body", "triangle", "--n", "1000"), "1"),
    ("mc", "chunk"): (("mc", "--body", "triangle", "--n", "1000"), "300"),
    ("mc", "confidence"): (("mc", "--body", "triangle", "--n", "1000"), "0.9"),
    ("counterexample", "n"): (("counterexample", "halfball-d3", "--n", "2000"), "3000"),
    ("counterexample", "seed"): (("counterexample", "halfball-d3", "--n", "2000"), "1"),
    ("counterexample", "chunk"): (("counterexample", "halfball-d3", "--n", "2000"), "300"),
    ("counterexample", "confidence"): (("counterexample", "halfball-d3", "--n", "2000"), "0.9"),
    ("qscan", "d"): (("qscan", "--k-max", "5"), "3"),
    ("qscan", "k_max"): (("qscan", "--k-max", "5"), "6"),
    ("qscan", "digits"): (("qscan", "--k-max", "5"), "20"),
}


@pytest.mark.parametrize("command, key", sorted(FLAG_CASES))
def test_every_flag_changes_stdout(capsys, command, key):
    # a new flag must join FLAG_CASES, and so show that some output depends on it
    assert set(FLAG_CASES) == {(c, k) for c, keys in CONFIG_KEYS.items() for k in keys}
    base, value = FLAG_CASES[command, key]
    base_code, base_out, _ = run_cli(capsys, *base)
    code, out, _ = run_cli(capsys, *base, f"{CONFIG_KEYS[command][key]}={value}")
    assert EXIT_USAGE not in (base_code, code)
    assert base_out and out != base_out


# ---------------------------------------------------------------------------
# subprocess-level determinism (different thread counts, same bytes)


def _run_subprocess(threads, *args):
    env = dict(os.environ, SYLVESTER_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "sylvester.cli", *args],
        capture_output=True, env=env, check=False,
    )
    return proc.returncode, proc.stdout


def test_mc_stdout_byte_identical_across_thread_counts():
    args = ("mc", "--body", "halfball", "--d", "3", "--k", "1",
            "--n", "120000", "--seed", "314", "--chunk", "20000")
    code1, out1 = _run_subprocess(1, *args)
    code4, out4 = _run_subprocess(4, *args)
    assert code1 == code4 == EXIT_OK
    assert out1 == out4
    code1b, out1b = _run_subprocess(1, *args)
    assert out1b == out1


def test_counterexample_stdout_byte_identical_across_thread_counts():
    args = ("counterexample", "halfball-d3", "--n", "2000000", "--seed", "17")
    code1, out1 = _run_subprocess(1, *args)
    code2, out2 = _run_subprocess(2, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    est = json.loads(out1)["verdict"]["lhs"]["estimate"]
    # whole chunks: the ramp's 1,024 samples, then 2^11 each
    assert (est["n"] + DEFAULT_CHUNK // 32) % (DEFAULT_CHUNK // 16) == 0
    assert est["n"] < 2_000_000


# ---------------------------------------------------------------------------
# runtime dependencies: mpmath is a test-only oracle, numpy only for sampling


# one row of each closed form, table1 and qscan: the commands that need no numpy
EXACT_COMMANDS = [
    ["exact", "--body", body, "--fixed", fixed,
     "--k", str(min(k for k in (1, 2) if row.exact_at(row.d or 3, k))),
     *(["--d", "3"] if row.d is None else [])]  # ball/origin d=3 k=1: 9/1024*pi
    for (body, fixed), row in SUPPORT.items()
] + [["table1"], ["qscan", "--d", "2"], ["qscan", "--d", "3"]]

# Runs each command with the named modules blocked (an import of one raises
# ImportError) and prints what ``import sylvester.cli`` loaded of numpy and
# montecarlo, then each command's exit code and stdout.
_BLOCKED_RUN = """\
import contextlib, io, json, sys
for name in sys.argv[1].split(","):
    sys.modules[name] = None
from sylvester.cli import main
loaded = [m for m in ("numpy", "sylvester.montecarlo") if sys.modules.get(m) is not None]
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def _blocked_run(blocked, commands):
    proc = subprocess.run([sys.executable, "-c", _BLOCKED_RUN, ",".join(blocked),
                           json.dumps(commands)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_run_without_mpmath(capsys):
    # numpy is importable here, so what import sylvester.cli leaves out it really leaves out
    result = _blocked_run(["mpmath"], [["counterexample", "tetra-d3", "--n", "100000"]])
    assert result["loaded"] == []
    assert [code for code, _ in result["runs"]] == [EXIT_OK]

    result = _blocked_run(["mpmath", "numpy"], EXACT_COMMANDS)
    assert len(result["runs"]) == len(EXACT_COMMANDS)
    for argv, (code, out) in zip(EXACT_COMMANDS, result["runs"]):
        assert (code, out) == run_cli(capsys, *argv)[:2], argv
        assert code == EXIT_OK and out, argv


def _json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(allow_nan=True, allow_infinity=True), st.text())
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
        max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _json_values(), max_size=6))
def test_kept_encoder_writes_what_json_dumps_writes(record):
    # nan encodes as NaN on both sides; compare the texts, not the objects
    assert cli._encode(record) == json.dumps(record, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), _json_values(), max_size=6))
def test_encoder_without_the_c_accelerator_writes_what_json_dumps_writes(record):
    expected = json.dumps(record, sort_keys=True)
    # JSONEncoder reads c_make_encoder at each call, so the fallback runs under the patch
    with unittest.mock.patch.object(json.encoder, "c_make_encoder", None):
        fallback = cli._encoder()
        assert isinstance(fallback.__self__, json.JSONEncoder)
        assert fallback(record) == expected


@settings(max_examples=20, deadline=None)
@given(st.lists(st.dictionaries(st.text(), _json_values(), min_size=1, max_size=6),
                min_size=4, max_size=4, unique_by=lambda r: json.dumps(r, sort_keys=True)))
def test_kept_encoder_serves_threads_at_once(records):
    # one encoder, four threads, each encoding its own record over and over,
    # switched as often as the interpreter allows
    start = threading.Barrier(len(records), timeout=60)
    texts = [[] for _ in records]

    def encode(record, out):
        start.wait()
        out.extend(cli._encode(record) for _ in range(200))

    threads = [threading.Thread(target=encode, args=pair) for pair in zip(records, texts)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for record, out in zip(records, texts):
        assert out == [json.dumps(record, sort_keys=True)] * 200


def test_kept_encoder_on_the_commands_records(capsys):
    for argv in (["exact", "--body", "ball", "--d", "5", "--k", "3"], ["table1"],
                 ["qscan", "--d", "3", "--k-max", "6"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        for line in [*out.splitlines(), *err.splitlines()]:
            assert line == json.dumps(json.loads(line), sort_keys=True)
