import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from domroots import cli, dompoly, realroots
from domroots.cli import main

from conftest import time_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_graph6(capsys):
    code, out, _ = run(capsys, "poly", "--graph6", "A_")
    assert code == 0
    assert out.strip() == "x^2 + 2x"


def test_poly_family_star3(capsys):
    code, out, _ = run(capsys, "poly", "--family", "star:3")
    assert code == 0
    assert out.strip() == "x^4 + 4x^3 + 3x^2 + x"


def test_poly_family_complete3(capsys):
    code, out, _ = run(capsys, "poly", "--family", "complete:3")
    assert code == 0
    assert out.strip() == "x^3 + 3x^2 + 3x"


def test_poly_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "poly", "--graph6", "A_")
    assert code == 0
    assert dompoly.from_json(out).coeffs == (0, 2, 1)


def test_poly_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "poly", "--graph6", "A_")
    assert code == 0
    assert out.splitlines() == ["k,coeff", "0,0", "1,2", "2,1"]


def test_poly_methods_agree(capsys):
    # hand count on K_{2,3}: no dominating singleton, 7 dominating pairs,
    # and every larger subset dominates
    for method in ("auto", "brute", "inex"):
        code, out, _ = run(capsys, "poly", "--family", "kbip:2,3", "--method", method)
        assert code == 0
        assert out.strip() == "x^5 + 5x^4 + 10x^3 + 7x^2"


def test_poly_missing_input(capsys):
    code, _, err = run(capsys, "poly")
    assert code == 2
    assert "graph6" in err


def test_poly_route_disagreement_is_exit_4(capsys, monkeypatch):
    from domroots.dompoly import DomPolynomial

    monkeypatch.setattr(
        cli.dompoly, "dom_poly_bruteforce", lambda g: DomPolynomial((0, 9, 9))
    )
    code, _, err = run(capsys, "poly", "--graph6", "A_", "--method", "auto")
    assert code == 4
    assert "disagree" in err


def test_roots_k2(capsys):
    code, out, _ = run(capsys, "roots", "--graph6", "A_")
    assert code == 0
    values = [float(line.split()[0]) for line in out.strip().splitlines()]
    assert len(values) == 2
    assert abs(values[0] + 2) < 1e-9 and values[1] == 0.0


def test_roots_star2(capsys):
    code, out, _ = run(capsys, "roots", "--family", "star:2")
    assert code == 0
    values = [float(line.split()[0]) for line in out.strip().splitlines()]
    assert abs(values[0] + 2.618033989) < 5e-9
    assert abs(values[1] + 0.381966011) < 5e-9
    assert values[2] == 0.0


def test_roots_complete5_single_root(capsys):
    code, out, _ = run(capsys, "roots", "--family", "complete:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 and float(lines[0].split()[0]) == 0.0


def test_roots_window_flag(capsys):
    code, out, _ = run(capsys, "roots", "--graph6", "A_", "--window", "-3", "-1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert abs(float(lines[0].split()[0]) + 2) < 1e-9


def test_witness_happy_path(capsys):
    code, out, err = run(capsys, "witness", "-z", "-1.5", "-e", "0.05")
    assert code == 0
    cert = json.loads(out)
    assert cert["case_tag"] == "case-1.1"
    assert "[pass]" in err


def test_witness_exact(capsys):
    code, out, _ = run(capsys, "witness", "-z", "0", "-e", "0.1")
    assert code == 0
    cert = json.loads(out)
    assert cert["family"]["kind"] == "exact_K2"
    assert cert["enclosure"]["lo"] == "0/1"


def test_witness_rejects_positive_target(capsys):
    code, _, err = run(capsys, "witness", "-z", "1", "-e", "0.1")
    assert code == 2
    assert "z <= 0" in err


@pytest.mark.parametrize("argv, text", [
    (["witness", "-z", "abc", "-e", "1/10"], "abc"),
    (["--tol", "1/0", "star-roots", "3"], "1/0"),
    (["roots", "--graph6", "A_", "--window", "a", "0"], "a"),
    (["--tol", "", "star-roots", "3"], ""),
])
def test_malformed_rational_is_exit_2(capsys, argv, text):
    assert run(capsys, *argv) == (2, "", f"error: not a rational number: {text!r}\n")


def test_witness_budget_exhaustion_exit_3(capsys):
    code, _, err = run(
        capsys,
        "witness", "-z", "-9.37", "-e", "0.001",
        "--max-m", "1", "--max-param", "3", "--max-degree", "10",
    )
    assert code == 3
    assert "budget" in err.lower()


@pytest.mark.parametrize("flag", ["--max-m", "--max-param", "--max-degree"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_witness_rejects_nonpositive_budget(capsys, flag, value):
    code, out, err = run(capsys, "witness", "-z", "-1.5", "-e", "0.05", flag, value)
    assert code == 2
    assert out == ""
    assert "budget bounds must be positive" in err


def test_atlas_cloud(capsys):
    code, out, _ = run(capsys, "atlas", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,n,root_lo,root_hi"
    ids = {line.split(",")[0] for line in lines[1:]}
    assert len(ids) == 8  # all labeled graphs of order 3 appear


def test_atlas_order6_golden_sha256(capsys):
    code, out, _ = run(capsys, "--workers", "1", "atlas", "6")
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == "91d6ef0a84a58116089d9da89eeb1d75e1bd3422623b5b22a12a5ddc896284da"


def test_atlas_dedup_rows_are_the_labeled_rows(capsys):
    # one graph per isomorphism class, each printed as the full sweep prints it
    code, dedup, _ = run(capsys, "atlas", "6", "--mode", "dedup")
    assert code == 0
    code, labeled, _ = run(capsys, "atlas", "6")
    assert code == 0
    classes = {line.split(",")[0] for line in dedup.splitlines()[1:]}
    assert len(classes) == 156
    assert dedup.splitlines() == [line for line in labeled.splitlines()
                                  if line.split(",")[0] in classes | {"graph6"}]


def test_atlas_over_cap_exit_3(capsys):
    code, _, err = run(capsys, "atlas", "9")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("atlas", "0"), 2),
        (("atlas", "8"), 3),
        (("atlas", "0", "--mode", "dedup"), 2),
        (("atlas", "6", "--mode", "file"), 2),
        (("atlas", "6", "--mode", "file", "--input", "no-such-corpus.g6"), 2),
    ],
)
def test_atlas_bad_input_writes_no_header(capsys, argv, exit_code):
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ")


def test_atlas_table(capsys):
    code, out, _ = run(capsys, "atlas", "4", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,root_lo,root_hi,graph6,exhaustive"
    assert len(lines) == 5
    assert lines[2].startswith("2,-2.000000000")


def test_atlas_table_past_the_vertex_cap(capsys):
    code, out, _ = run(capsys, "atlas", "66", "--table")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 67
    assert lines[-1].startswith("66,")


def test_atlas_growth(capsys):
    code, out, _ = run(capsys, "atlas", "5", "--growth")
    assert code == 0
    assert out.splitlines()[0] == "n,magnitude,n_over_log_n,ratio"


def test_atlas_corpus_file(capsys, tmp_path):
    path = tmp_path / "c.g6"
    path.write_text("A_\n@\n")
    code, out, _ = run(capsys, "atlas", "0", "--mode", "file", "--input", str(path))
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows[0].startswith("A_,2,")
    assert rows[-1] == "@,1,0.000000000000,0.000000000000"


def test_star_roots_final_row(capsys):
    code, out, _ = run(capsys, "star-roots", "8")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "k,r_k_lo,r_k_hi,gap,estimate,abs_err"
    last = rows[-1].split(",")
    assert last[0] == "8"
    assert abs(float(last[1]) - 5.309330065) < 5e-9


COARSE_TOL_CALLS = [["star-roots", "2"], ["star-roots", "3"], ["star-roots", "40"],
                    ["atlas", "12", "--table"], ["atlas", "30", "--growth"],
                    ["roots", "--family", "star:9"], ["witness", "-z", "-5", "-e", "1/10"]]


@pytest.mark.parametrize("tol", ["1/2", "1", "2", "1000"])
def test_a_coarse_tol_is_valid_input(capsys, tol):
    # at a tolerance wider than the gaps between star roots, neighbouring
    # enclosures are refined until they part, and no call reports a bug
    for argv in COARSE_TOL_CALLS:
        code, _, err = run(capsys, "--tol", tol, *argv)
        assert code == cli.EXIT_OK, (argv, err)
    for k_max in (2, 3, 40):
        ends = [(r.enclosure.interval.lo, r.enclosure.interval.hi)
                for r in realroots.star_gap_report(k_max, Fraction(tol))]
        assert all(hi - lo <= Fraction(tol) for lo, hi in ends)
        assert all(left[1] < right[0] for left, right in zip(ends, ends[1:]))


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", "--graph6", "A_", "-m", "2")
    assert code == 0
    assert out.strip() == "x^4 + 4x^3 + 6x^2 + 4x"


def test_compose_family(capsys):
    code, out, _ = run(capsys, "--format", "json", "compose", "--family", "star:2", "-m", "3")
    assert code == 0
    assert json.loads(out)["n"] == 9


def test_bad_graph6_exit_2(capsys):
    code, _, err = run(capsys, "poly", "--graph6", "")
    assert code == 2
    assert "graph6" in err or "empty" in err


def test_bad_family_exit_2(capsys):
    code, _, err = run(capsys, "poly", "--family", "wheel:5")
    assert code == 2
    assert "families" in err


def test_bad_rational_exit_2(capsys):
    code, _, err = run(capsys, "witness", "-z", "abc", "-e", "0.1")
    assert code == 2


def test_usage_error_without_command(capsys):
    assert main([]) == 2


def test_negative_fraction_values(capsys):
    # argparse's own negative-number pattern does not cover fractions
    code, decimal, _ = run(capsys, "witness", "-z", "-1.5", "-e", "1/10")
    assert code == 0
    code, fraction, _ = run(capsys, "witness", "-z", "-3/2", "-e", "1/10")
    assert code == 0
    assert fraction == decimal
    code, out, _ = run(capsys, "roots", "--graph6", "A_", "--window", "-3", "-1/2")
    assert code == 0
    assert abs(float(out.split()[0]) + 2) < 1e-9
    assert run(capsys, "roots", "--graph6", "A_", "--window", "-3", "-0.5")[1] == out
    code, _, err = run(capsys, "--tol", "-1/1000", "roots", "--graph6", "A_")
    assert code == 2
    assert "tolerance must be positive" in err


def test_tolerance_flag(capsys):
    code, out, _ = run(capsys, "--tol", "1/1000", "roots", "--graph6", "A_")
    assert code == 0


# Golden stdout per --family spelling, `poly` then `compose -m 3`; any
# change to these bytes is a regression.
FAMILY_GOLDEN = {
    "complete:4": (
        "x^4 + 4x^3 + 6x^2 + 4x",
        "x^12 + 12x^11 + 66x^10 + 220x^9 + 495x^8 + 792x^7 + 924x^6 + 792x^5 + 495x^4"
        " + 220x^3 + 66x^2 + 12x",
    ),
    "kbip:2,3": (
        "x^5 + 5x^4 + 10x^3 + 7x^2",
        "x^15 + 15x^14 + 105x^13 + 455x^12 + 1365x^11 + 3003x^10 + 5005x^9 + 6435x^8"
        " + 6435x^7 + 5002x^6 + 2985x^5 + 1320x^4 + 396x^3 + 63x^2",
    ),
    "star:3": (
        "x^4 + 4x^3 + 3x^2 + x",
        "x^12 + 12x^11 + 66x^10 + 220x^9 + 495x^8 + 792x^7 + 921x^6 + 774x^5 + 450x^4"
        " + 163x^3 + 30x^2 + 3x",
    ),
    "kkk:3": (
        "x^6 + 6x^5 + 15x^4 + 20x^3 + 9x^2",
        "x^18 + 18x^17 + 153x^16 + 816x^15 + 3060x^14 + 8568x^13 + 18564x^12 + 31824x^11"
        " + 43758x^10 + 48620x^9 + 43758x^8 + 31824x^7 + 18558x^6 + 8532x^5 + 2970x^4"
        " + 702x^3 + 81x^2",
    ),
    "empty:4": (
        "x^4",
        "x^12 + 12x^11 + 66x^10 + 216x^9 + 459x^8 + 648x^7 + 594x^6 + 324x^5 + 81x^4",
    ),
}


@pytest.mark.parametrize("spelling", sorted(FAMILY_GOLDEN))
def test_family_spelling_golden_stdout(capsys, spelling):
    poly, composed = FAMILY_GOLDEN[spelling]
    assert run(capsys, "poly", "--family", spelling) == (0, poly + "\n", "")
    assert run(capsys, "compose", "--family", spelling, "-m", "3") == (0, composed + "\n", "")


def test_family_above_order_12_takes_its_closed_form(capsys):
    # inclusion-exclusion doubles its time with each vertex: about 4 h at star:40
    with time_limit(5):
        got = run(capsys, "poly", "--family", "star:40")
    assert got == (0, f"{dompoly.dom_poly_closed_form('star', 40)}\n", "")


def test_method_inex_still_runs_inclusion_exclusion(capsys, monkeypatch):
    calls = []
    inex = cli.dompoly.dom_poly_inclusion_exclusion
    monkeypatch.setattr(cli.dompoly, "dom_poly_inclusion_exclusion",
                        lambda g: calls.append(g.n) or inex(g))
    for method in ("auto", "inex"):
        assert run(capsys, "poly", "--family", "star:13", "--method", method) == (
            0, f"{dompoly.dom_poly_closed_form('star', 13)}\n", "")
    assert calls == [14]


def test_family_past_the_vertex_cap_prints_its_closed_form(capsys):
    # K_{1,100} has 101 vertices, past the 64-vertex cap of a graph
    with time_limit(5):
        got = run(capsys, "poly", "--family", "star:100")
    assert got == (0, f"{dompoly.dom_poly_closed_form('star', 100)}\n", "")


def test_compose_family_past_the_vertex_cap(capsys):
    composed = dompoly.compose_with_complete(dompoly.dom_poly_closed_form("Kkk", 40), 3)
    with time_limit(5):
        got = run(capsys, "compose", "--family", "kkk:40", "-m", "3")
    assert got == (0, f"{composed}\n", "")


def test_roots_family_past_the_vertex_cap(capsys):
    with time_limit(10):
        code, out, err = run(capsys, "roots", "--family", "star:70")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "0.000000000000  [exact]"


@pytest.mark.parametrize("method", ["brute", "inex"])
def test_forced_method_past_the_vertex_cap_is_exit_3(capsys, method):
    assert run(capsys, "poly", "--method", method, "--family", "star:64") == (
        3, "", "error: graph order 65 exceeds the cap of 64\n")


@pytest.mark.parametrize("argv, message", [
    (["--tol", "abc", "--workers", "0", "witness", "-z", "-1.5", "-e", "1/20", "--max-m", "0"],
     "not a rational number: 'abc'"),
    (["--workers", "0", "witness", "-z", "x", "-e", "1/20", "--max-m", "0"],
     "budget bounds must be positive"),
    (["--workers", "0", "witness", "-z", "x", "-e", "1/20"], "worker count must be >= 1"),
])
def test_first_bad_input_is_the_error_reported(capsys, argv, message):
    # tolerance, then budget bounds, then worker count, then the command's inputs
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_atlas_table_and_growth_are_exclusive(capsys):
    code, out, err = run(capsys, "atlas", "4", "--table", "--growth")
    assert (code, out) == (2, "")
    assert "argument --growth: not allowed with argument --table" in err


def test_roots_window_is_half_open(capsys):
    # D(K_2) = x^2 + 2x has the root -2: excluded at lo, exact at hi
    assert run(capsys, "roots", "--graph6", "A_", "--window", "-2", "-1") == (0, "", "")
    assert run(capsys, "roots", "--graph6", "A_", "--window", "-3", "-2") == (
        0, "-2.000000000000  [exact]\n", ""
    )


# Golden output of one query per case: certificate JSON on stdout and the
# verification report on stderr.
WITNESS_GOLDEN = {
    ("-2", "1/10"): (
        '{\n'
        '  "target_z": "-2/1",\n'
        '  "epsilon": "1/10",\n'
        '  "family": {\n'
        '    "kind": "exact_K2",\n'
        '    "param": null\n'
        '  },\n'
        '  "m": 1,\n'
        '  "composed_degree": 2,\n'
        '  "case_tag": "exact",\n'
        '  "enclosure": {\n'
        '    "lo": "-2/1",\n'
        '    "hi": "-2/1",\n'
        '    "sign_lo": 0,\n'
        '    "sign_hi": 0,\n'
        '    "note": "exact"\n'
        '  }\n'
        '}\n',
        '[pass] target_nonpositive: z = -2\n'
        '[pass] epsilon_positive: eps = 1/10\n'
        '[pass] substitution_order_odd: m = 1\n'
        '[pass] family_parameter: exact_K2 carries no parameter\n'
        '[pass] case_tag: exact\n'
        '[pass] composed_degree: 2 vs 2*1\n'
        '[pass] enclosure_within_window: [-2, -2] vs (-21/10, -19/10)\n'
        '[pass] endpoint_certification: value at exact root = 0\n',
    ),
    ("-1.5", "1/20"): (
        '{\n'
        '  "target_z": "-3/2",\n'
        '  "epsilon": "1/20",\n'
        '  "family": {\n'
        '    "kind": "K_2_ell",\n'
        '    "param": 7\n'
        '  },\n'
        '  "m": 3,\n'
        '  "composed_degree": 27,\n'
        '  "case_tag": "case-1.1",\n'
        '  "enclosure": {\n'
        '    "lo": "-402365/268854",\n'
        '    "hi": "-126947/84824",\n'
        '    "sign_lo": -1,\n'
        '    "sign_hi": 1,\n'
        '    "note": "simple-certified"\n'
        '  }\n'
        '}\n',
        '[pass] target_nonpositive: z = -3/2\n'
        '[pass] epsilon_positive: eps = 1/20\n'
        '[pass] substitution_order_odd: m = 3\n'
        '[pass] family_parameter: l = 7 must be odd\n'
        '[pass] case_tag: case-1.1\n'
        '[pass] composed_degree: 27 vs 9*3\n'
        '[pass] enclosure_within_window: [-402365/268854, -126947/84824]'
        ' vs (-31/20, -29/20)\n'
        '[pass] endpoint_certification: recomputed signs (-1, 1) vs stored (-1, 1)\n',
    ),
    ("-0.9", "1/20"): (
        '{\n'
        '  "target_z": "-9/10",\n'
        '  "epsilon": "1/20",\n'
        '  "family": {\n'
        '    "kind": "K_k_k",\n'
        '    "param": 5\n'
        '  },\n'
        '  "m": 1,\n'
        '  "composed_degree": 10,\n'
        '  "case_tag": "case-1.2",\n'
        '  "enclosure": {\n'
        '    "lo": "-48018/55159",\n'
        '    "hi": "-83623/96059",\n'
        '    "sign_lo": -1,\n'
        '    "sign_hi": 1,\n'
        '    "note": "simple-certified"\n'
        '  }\n'
        '}\n',
        '[pass] target_nonpositive: z = -9/10\n'
        '[pass] epsilon_positive: eps = 1/20\n'
        '[pass] substitution_order_odd: m = 1\n'
        '[pass] family_parameter: k = 5 must be odd\n'
        '[pass] case_tag: case-1.2\n'
        '[pass] composed_degree: 10 vs 10*1\n'
        '[pass] enclosure_within_window: [-48018/55159, -83623/96059]'
        ' vs (-19/20, -17/20)\n'
        '[pass] endpoint_certification: recomputed signs (-1, 1) vs stored (-1, 1)\n',
    ),
    ("-3", "1/10"): (
        '{\n'
        '  "target_z": "-3/1",\n'
        '  "epsilon": "1/10",\n'
        '  "family": {\n'
        '    "kind": "star",\n'
        '    "param": 16\n'
        '  },\n'
        '  "m": 3,\n'
        '  "composed_degree": 51,\n'
        '  "case_tag": "case-2",\n'
        '  "enclosure": {\n'
        '    "lo": "-639845/218698",\n'
        '    "hi": "-2274405/777388",\n'
        '    "sign_lo": -1,\n'
        '    "sign_hi": 1,\n'
        '    "note": "simple-certified"\n'
        '  }\n'
        '}\n',
        '[pass] target_nonpositive: z = -3\n'
        '[pass] epsilon_positive: eps = 1/10\n'
        '[pass] substitution_order_odd: m = 3\n'
        '[pass] family_parameter: k = 16\n'
        '[pass] case_tag: case-2\n'
        '[pass] composed_degree: 51 vs 17*3\n'
        '[pass] enclosure_within_window: [-639845/218698, -2274405/777388]'
        ' vs (-31/10, -29/10)\n'
        '[pass] endpoint_certification: recomputed signs (-1, 1) vs stored (-1, 1)\n',
    ),
}


@pytest.mark.parametrize("query", sorted(WITNESS_GOLDEN))
def test_witness_golden_certificate_and_report(capsys, query):
    z, eps = query
    assert run(capsys, "witness", "-z", z, "-e", eps) == (0, *WITNESS_GOLDEN[query])


def test_cached_parser_answers_like_fresh_ones(capsys):
    # main builds its parser once per process; a good call, a usage error,
    # --help and the good call again answer as they do with a new parser each
    calls = [("witness", "-z", "-1.5", "-e", "1/20"), ("witness", "-z", "-1.5"), ("--help",),
             ("witness", "-z", "-1.5", "-e", "1/20")]

    def outcomes(fresh):
        cli._build_parser.cache_clear()
        answers = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            answers.append(run(capsys, *argv))
        return answers

    cached = outcomes(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in cached] == [0, 2, 0, 0]
    assert "the following arguments are required: -e/--eps" in cached[1][2]
    assert cached[2][1].startswith("usage: domroots")
    assert cached[3] == cached[0]
    assert outcomes(fresh=True) == cached


@pytest.mark.parametrize("argv", [["poly", "--family", "star:3"],
                                  ["--workers", "2", "atlas", "4"]])
def test_closed_stdout_ends_quietly(argv):
    # a reader that closes the pipe before the output is written (as
    # `| head` does once it has its lines): the exit code of the cli
    # docstring, and no traceback on stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "domroots", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""
