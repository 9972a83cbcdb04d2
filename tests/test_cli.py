import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import svir
from svir.cli import Session, main


def run(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = main(["--output", str(out), *argv])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_bracket_command(tmp_path, capsys):
    code, report = run(tmp_path, "bracket", "L[1,0]", "L[-1,0]")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["passed"] is True
    assert report["results"][0]["result"] == \
        "-2*d1*L[0,0] + (-1/12*d1^3 + 1/12*d1)*c"
    assert "L[0,0]" in capsys.readouterr().out


def test_act_command(tmp_path):
    code, report = run(tmp_path, "act", "--family", "SA", "L[1,0]", "x[0,1]")
    assert code == 0
    assert report["results"][0]["result"] == "(d1*b + d2 + a)*x[1,1]"


def test_act_names_a_module_vector_in_the_element_slot(tmp_path, capsys):
    code, report = run(tmp_path, "act", "--family", "SA", "x[0,0]", "x[0,0]")
    assert code == 2 and report is None
    assert capsys.readouterr().err == \
        "error: act expects an algebra element and a module vector\n"


def test_jacobi_fuzz_reports_failures(tmp_path):
    code, report = run(tmp_path, "jacobi-fuzz", "--radius", "1")
    assert code == 1
    assert report["passed"] is False
    failures = report["results"][0]["failures"]
    assert failures
    assert all(f["residual"].endswith("*c") for f in failures)
    # every reported failure is a one-L-two-G triple
    for f in failures:
        kinds = sorted(t[0] for t in f["triple"])
        assert kinds == ["G", "G", "L"]


def test_antisym_command(tmp_path):
    code, report = run(tmp_path, "antisym", "--radius", "1")
    assert code == 0
    assert all(r["status"] == "pass" for r in report["results"])


def test_rep_fuzz_small(tmp_path):
    code, report = run(tmp_path, "rep-fuzz", "--family", "SBprime",
                       "--radius", "1", "--vector-radius", "1")
    assert code == 0
    assert report["results"][0]["triples"] > 0
    assert report["results"][0]["failures"] == []


def test_cone_basis_command(tmp_path):
    code, report = run(tmp_path, "cone-basis", "--k", "2")
    assert code == 0
    det_result, inclusion = report["results"]
    assert det_result["det"] == 1
    assert det_result["basis"] == [[3, 2], [4, 3]]
    assert inclusion["violations"] == []


def test_adapted_basis_command(tmp_path):
    code, report = run(tmp_path, "adapted-basis", "--mu", "[1,2]")
    assert code == 0
    result = report["results"][0]
    assert result["adapted_basis"]["basis"] == [[3, 4], [1, 1]]
    assert result["entries"][0]["product"] == "d1"


@pytest.mark.parametrize("argv, needle", [
    (["bracket", "99999^1000*L[1,0]", "L[0,0]"], "L[1,0]"),
    (["adapted-basis", "--mu", "[1,2000]"], "witness verified"),
])
def test_results_past_the_int_digit_limit_are_printed(tmp_path, capsys, argv, needle):
    """Coefficients longer than sys.get_int_max_str_digits() still print."""
    code, report = run(tmp_path, *argv)
    assert code == 0 and report["passed"] is True
    assert needle in capsys.readouterr().out
    printed = report["results"][0]
    longest = (printed["result"] if argv[0] == "bracket"
               else max((e["product"] for e in printed["entries"]), key=len))
    assert len(longest) > sys.get_int_max_str_digits()


def test_ladder_command(tmp_path):
    code, report = run(tmp_path, "ladder", "--m", "4")
    assert code == 0
    assert [r["m"] for r in report["results"]] == [1, 2, 3, 4]


def test_iso_check_commands(tmp_path):
    code, report = run(tmp_path, "iso-check", "--m", "[[1]]", "--s", "[1/2]",
                       "--mprime", "[[2]]", "--sprime", "[1]", "--alpha", "2")
    assert code == 0
    assert report["results"][0]["accepted"] is True
    code, report = run(tmp_path, "iso-check", "--m", "[[1]]", "--s", "[1/2]",
                       "--mprime", "[[3]]", "--sprime", "[1]", "--alpha", "2")
    assert code == 1
    assert report["results"][0]["accepted"] is False


def test_simplicity_command(tmp_path):
    code, report = run(tmp_path, "simplicity", "--family", "SBprime",
                       "--radius", "2")
    assert code == 0
    assert report["results"][0]["candidates"] == [["y[0,0]"]]


def test_ghw_command(tmp_path):
    code, report = run(tmp_path, "ghw", "--family", "SA", "--vector", "x[0,0]",
                       "--k", "1", "--radius", "4")
    assert code == 0
    result = report["results"][0]
    assert result["annihilated"] is False
    assert result["counterexample"] == "L[1,1]"


def test_quotient_command(tmp_path):
    code, report = run(tmp_path, "quotient", "--family", "SBprime",
                       "--seeds", "y[0,0]", "--radius", "2")
    assert code == 0
    table = report["results"][0]["table"]
    removed = [row for row in table if row["dim"] == 0]
    assert removed == [{"weight": "0", "parity": "even", "vector": "y[0,0]",
                        "in_submodule": True, "dim": 0}]


def test_ladder_degenerate_specialization(tmp_path, capsys):
    # mu = 0 makes a ladder factor vanish for m >= 2
    code = main(["--output", str(tmp_path / "r.json"),
                 "ladder", "--m", "2", "--mu", "[0,0]"])
    assert code == 2
    assert "degenerate" in capsys.readouterr().err


def test_quotient_without_seeds(tmp_path):
    code, report = run(tmp_path, "quotient", "--family", "SA", "--radius", "1")
    assert code == 0
    table = report["results"][0]["table"]
    assert len(table) == 15 and all(row["dim"] == 1 for row in table)


def test_flags_accepted_after_the_subcommand(tmp_path):
    out = tmp_path / "after.json"
    assert main(["cone-basis", "--k", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_usage_errors(tmp_path):
    code, _ = run(tmp_path, "simplicity")          # family missing
    assert code == 2
    code, _ = run(tmp_path, "bracket", "L[1,0", "c")
    assert code == 2
    code, _ = run(tmp_path, "bracket", "x[0,0]", "c")
    assert code == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    ["jacobi-fuzz", "--radius", "-1"],
    ["antisym", "--radius", "1/3"],
])
def test_vacuous_radius_is_a_usage_error(tmp_path, capsys, argv):
    code, report = run(tmp_path, *argv)
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith(f"error: radius {argv[-1]} is not")


def test_config_radius_is_validated(tmp_path, capsys):
    config = tmp_path / "session.json"
    config.write_text(json.dumps({"radius": "-1"}))
    code, report = run(tmp_path, "--config", str(config), "jacobi-fuzz")
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: radius -1 is not")


def test_half_radius_stays_valid(tmp_path):
    code, report = run(tmp_path, "rep-fuzz", "--family", "SA", "--radius", "1/2")
    assert code == 0
    assert report["results"][0]["triples"] == 240


@pytest.mark.parametrize("argv", [
    ["bracket", "1/0*L[1,0]", "L[0,0]"],
    ["bracket", "(d1 - d1)^-1*L[1,0]", "L[0,0]"],
])
def test_division_by_zero_literal_is_a_usage_error(tmp_path, capsys, argv):
    code, report = run(tmp_path, *argv)
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: division by zero")


def test_huge_exponent_is_refused_before_any_power_is_computed(tmp_path, capsys):
    code, report = run(tmp_path, "bracket", "d1^1000000000*L[1,0]", "L[0,0]")
    assert code == 2 and report is None
    assert capsys.readouterr().err == (
        "error: exponents must be at most 1000 in magnitude "
        "(at position 3 in 'd1^1000000000*L[1,0]')\n")


def test_division_by_zero_parameter_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "session.json"
    config.write_text(json.dumps({"family": "SA", "params": {"a": "1/(a - a)"}}))
    code, report = run(tmp_path, "--config", str(config), "act", "L[1,0]", "x[0,0]")
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: division by zero")


def test_config_file(tmp_path):
    config = tmp_path / "session.json"
    config.write_text(json.dumps({
        "n": 2,
        "d_names": ["d1", "d2"],
        "sigma": ["0", "0"],
        "family": "SA",
        "params": {"a": "0", "b": "1/2"},
    }))
    out = tmp_path / "report.json"
    code = main(["--config", str(config), "--output", str(out),
                 "simplicity", "--radius", "1"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["sigma"] == ["0", "0"]
    assert report["results"][0]["candidates"] == [["y[0,0]"]]


def test_linear_parameter_denominators_need_no_gcd(tmp_path, monkeypatch):
    """Every denominator of these runs is a product of powers of a + 1 and
    b + 4, so trial division by them cancels everything, also when
    (a + 1)^2 is met before a + 1."""
    import svir.scalar

    calls = []
    real = svir.scalar.poly_gcd

    def counted(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(svir.scalar, "poly_gcd", counted)
    config = tmp_path / "session.json"
    for a in ("1/(a+1)", "1/(a+1)^2"):
        config.write_text(json.dumps({"params": {"a": a, "b": "7/(b+4)"}}))
        code, report = run(tmp_path, "--config", str(config), "rep-fuzz", "--family", "SA",
                           "--radius", "1/2", "--vector-radius", "1")
        assert code == 0 and report["passed"] is True
        assert calls == [], a


def test_reports_are_deterministic(tmp_path):
    _, first = run(tmp_path, "jacobi-fuzz", "--radius", "1", name="a.json")
    _, second = run(tmp_path, "jacobi-fuzz", "--radius", "1", name="b.json")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["jacobi-fuzz", "--radius", "1"],
    ["simplicity", "--family", "SAprime", "--radius", "2"],
    ["quotient", "--family", "SBprime", "--seeds", "y[0,0]", "--radius", "2"],
], ids=["jacobi-fuzz", "simplicity", "quotient"])
def test_reports_are_deterministic_across_processes(tmp_path, argv):
    # Interned symbols hash by address, so a report that read a set of
    # symbols in set order could differ between processes, never within one.
    # The low address bits that set order reads repeat from run to run under
    # one allocator, so the second run also switches to the C allocator.
    outputs = []
    for seed, allocator in (("1", "pymalloc"), ("7", "malloc")):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(svir.__file__).parents[1]),
                   PYTHONHASHSEED=seed, PYTHONMALLOC=allocator)
        proc = subprocess.run([sys.executable, "-m", "svir", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode in (0, 1) and proc.stderr == b""
        outputs.append((proc.stdout, (cwd / "report.json").read_bytes()))
    assert outputs[0] == outputs[1]


def write_config(tmp_path, config):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("family, names", [
    (None, ("d1", "d2")),
    ("SA", ("d1", "d2", "a", "b")),
    ("SAprime", ("d1", "d2", "a'")),
    ("SBprime", ("d1", "d2", "a'")),
])
def test_session_declares_only_the_indeterminates_the_run_uses(family, names):
    assert Session({}, family).config.ctx.names == names
    assert Session({"family": family}).config.ctx.names == names
    extras = Session({"extra_names": ["t", "a"]}, family).config.ctx.names
    assert extras == tuple(dict.fromkeys(names + ("t", "a")))


def test_family_parameters_are_undeclared_without_a_family(tmp_path, capsys):
    code, report = run(tmp_path, "bracket", "a*L[1,0]", "L[0,0]")
    assert code == 2 and report is None
    assert "unknown indeterminate 'a'" in capsys.readouterr().err
    config = write_config(tmp_path, {"extra_names": ["a"]})
    code, report = run(tmp_path, "--config", config, "bracket", "a*L[1,0]", "L[0,0]")
    assert code == 0
    assert report["results"][0]["result"] == "-d1*a*L[1,0]"


def test_rank_alone_derives_the_other_defaults(tmp_path):
    config = write_config(tmp_path, {"n": 3})
    code, report = run(tmp_path, "--config", config, "bracket", "L[1,0,0]", "L[-1,0,0]")
    assert code == 0
    assert report["config"]["d_names"] == ["d1", "d2", "d3"]
    assert report["config"]["sigma"] == ["1/2", "0", "0"]
    assert report["config"]["radius"] == "2"


def test_config_echo_reads_back_as_a_config(tmp_path):
    _, report = run(tmp_path, "bracket", "L[1,0]", "L[0,0]")
    assert report["config"]["family"] is None
    config = write_config(tmp_path, report["config"])
    _, again = run(tmp_path, "--config", config, "bracket", "L[1,0]", "L[0,0]",
                   name="again.json")
    assert again == report


@pytest.mark.parametrize("config", [
    {"n": "2"},
    {"n": True},
    {"n": 0},
    {"sigma": 5},
    {"d_names": "d1"},
    {"extra_names": "a"},
    {"params": ["a"]},
    {"family": 1},
    {"output": 1},
    ["n", 2],
    {"d_names": ["d1", 7]},
    {"d_names": [None]},
    {"extra_names": [None]},
])
def test_config_values_of_the_wrong_type_are_usage_errors(tmp_path, capsys, config):
    code, report = run(tmp_path, "--config", write_config(tmp_path, config),
                       "bracket", "L[1,0]", "L[0,0]")
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_fails_before_any_check(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["--output", str(out), "jacobi-fuzz", "--radius", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write the report to {out}")
    assert not out.exists()


@pytest.mark.parametrize("m", ["0", "-3"])
def test_ladder_without_steps_is_a_usage_error(tmp_path, capsys, m):
    code, report = run(tmp_path, "ladder", "--m", m)
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith(f"error: --m {m} checks no")


def test_non_integral_basis_is_a_usage_error(tmp_path, capsys):
    code, report = run(tmp_path, "ghw", "--family", "SA", "--vector", "x[0,0]",
                       "--k", "1", "--radius", "2", "--basis", "[[3/2,0],[0,1]]")
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: basis entries must be integers")


@pytest.mark.parametrize("basis, rank", [("[]", 0), ("[[1]]", 1),
                                         ("[[1,0,0],[0,1,0],[0,0,1]]", 3)])
def test_ghw_basis_of_the_wrong_rank_is_a_usage_error(tmp_path, capsys, basis, rank):
    code, report = run(tmp_path, "ghw", "--family", "SA", "--vector", "x[0,0]",
                       "--k", "1", "--radius", "1", "--basis", basis)
    assert code == 2 and report is None
    assert capsys.readouterr().err == (
        f"error: --basis {basis} has rank {rank}; the session has rank 2\n")


def test_empty_iso_check_is_a_usage_error(tmp_path, capsys):
    code, report = run(tmp_path, "iso-check", "--m", "[]", "--s", "[]",
                       "--mprime", "[]", "--sprime", "[]", "--alpha", "1")
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: the lattices must have positive rank")


def test_parity_error_names_the_index_literal(tmp_path, capsys):
    code, report = run(tmp_path, "ladder", "--m", "2", "--d", "[1/2,0]")
    assert code == 2 and report is None
    assert capsys.readouterr().err == (
        "error: coordinates [1/2,0] are not in the even class\n")


@pytest.mark.parametrize("key, names", [("d_names", ["d1", 7]), ("extra_names", [None])])
def test_name_lists_must_hold_strings(tmp_path, capsys, key, names):
    config = write_config(tmp_path, {key: names})
    code, report = run(tmp_path, "--config", config, "bracket", "L[1,0]", "L[0,0]")
    assert code == 2 and report is None
    assert capsys.readouterr().err == f"error: config {key!r} must list strings, not {names!r}\n"


def test_unknown_name_error_has_no_key_error_quotes(tmp_path, capsys):
    code, report = run(tmp_path, "bracket", "q*L[1,0]", "L[0,0]")
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: unknown indeterminate 'q'; ")


def test_deeply_nested_literal_is_a_usage_error(tmp_path, capsys):
    nested = "(" * 200 + "1" + ")" * 200 + "*L[1,0]"
    code, report = run(tmp_path, "bracket", nested, "L[0,0]")
    assert code == 2 and report is None
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expression nested too deeply")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("exc", [ValueError("boom"), KeyError("boom"), TypeError("boom")])
def test_internal_errors_exit_3_with_one_line(tmp_path, capsys, monkeypatch, exc):
    def broken(session, args):
        raise exc
    monkeypatch.setattr("svir.cli.cmd_bracket", broken)
    code, report = run(tmp_path, "bracket", "L[1,0]", "L[0,0]")
    assert code == 3 and report is None
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


def _iso(m, s="[0,0]", mprime="[[1,0],[0,1]]", alpha="1"):
    return ["iso-check", "--m", m, "--s", s, "--mprime", mprime, "--sprime", s,
            "--alpha", alpha]


_BRACKET = ["bracket", "L[1,0]", "L[0,0]"]
_NOT_JSON = "error: config session.json is not JSON: "
_LONG_EXPONENT = "d1^" + "9" * 5000 + "*L[1,0]"


def _too_many(checks):
    return (f"error: this run needs {checks} checks, more than the limit of 1,000,000; "
            "choose a smaller radius\n")


# Each case: the config (a JSON value, raw text or None), the argv and the
# expected stderr.  An expectation that ends in a newline is the whole line;
# one that does not is the part svir writes, where the rest of the message
# comes from the interpreter (the JSON decoder, the codec or the OS).
_BAD_INPUTS = {
    "bad-json": ("{not json", _BRACKET, _NOT_JSON),
    "not-utf8": ("\udcff", _BRACKET, _NOT_JSON),
    "json-nested-too-deeply": ("[" * 100_000 + "]" * 100_000, _BRACKET, _NOT_JSON),
    "missing-config": (None, ["--config", "missing.json", *_BRACKET],
                       "error: cannot read config missing.json: "),
    "config-is-a-directory": (None, ["--config", ".", *_BRACKET],
                              "error: cannot read config .: "),
    "duplicate-names": ({"d_names": ["d1", "d1"]}, _BRACKET,
                        "error: bad configuration: indeterminate names must be unique\n"),
    "rank-1-cone-basis": ({"n": 1}, ["cone-basis", "--k", "1"],
                          "error: rank must be at least 2\n"),
    "unknown-family": (None, ["simplicity", "--family", "SC"],
                       "error: unknown family 'SC'; choose from ['SA', 'SAprime', 'SBprime']\n"),
    "rank-1-adapted-basis": ({"n": 1}, ["adapted-basis", "--mu", "[1]"],
                             "error: rank must be at least 2\n"),
    "box-radius-0": (None, ["simplicity", "--family", "SA", "--radius", "0"],
                     "error: the box radius must be at least 1\n"),
    "box-radius-half": (None, ["simplicity", "--family", "SA", "--radius", "1/2"],
                        "error: the box radius must be at least 1\n"),
    "ghw-negative-k": (None, ["ghw", "--family", "SA", "--vector", "x[0,0]", "--k", "-1"],
                       "error: k must be nonnegative\n"),
    "ghw-zero-vector": (None, ["ghw", "--family", "SA", "--vector", "0"],
                        "error: the probe needs a nonzero vector\n"),
    "ghw-vector-outside-box": (None, ["ghw", "--family", "SA", "--vector", "x[5,0]",
                                      "--radius", "1"],
                               "error: the vector must lie inside the box\n"),
    "ghw-non-unimodular": (None, ["ghw", "--family", "SA", "--vector", "x[0,0]",
                                  "--basis", "[[2,0],[0,1]]"],
                           "error: the cone basis must be unimodular\n"),
    "ghw-non-square": (None, ["ghw", "--family", "SA", "--vector", "x[0,0]",
                              "--basis", "[[1,0],[0]]"],
                       "error: basis matrix must be square\n"),
    "quotient-seed-outside-box": (None, ["quotient", "--family", "SBprime",
                                         "--seeds", "y[5,0]", "--radius", "1"],
                                  "error: seed y[5,0] lies outside the box\n"),
    "iso-dependent-rows": (None, _iso("[[1,0],[2,0]]"),
                           "error: basis rows must be linearly independent\n"),
    "iso-ragged-rows": (None, _iso("[[1,0],[1]]"),
                        "error: all vectors must share one ambient dimension\n"),
    "iso-alpha-0": (None, _iso("[[1]]", s="[0]", mprime="[[1]]", alpha="0"),
                    "error: alpha must be nonzero\n"),
    "exponent-literal-5000-digits": (
        None, ["bracket", _LONG_EXPONENT, "L[0,0]"],
        f"error: integer literal has too many digits (at position 3 in '{_LONG_EXPONENT}')\n"),
    # runs refused by their check count, before anything is enumerated
    "jacobi-fuzz-radius-4": (None, ["jacobi-fuzz", "--radius", "4"], _too_many("3,652,264")),
    "jacobi-fuzz-radius-5": (None, ["jacobi-fuzz", "--radius", "5"], _too_many("12,487,168")),
    "antisym-radius-11": (None, ["antisym", "--radius", "11"], _too_many("1,073,296")),
    "rep-fuzz-radius-6": (None, ["rep-fuzz", "--family", "SA", "--radius", "6"],
                          _too_many("1,594,140")),
    "rep-fuzz-vector-radius-100": (None, ["rep-fuzz", "--family", "SA", "--radius", "1",
                                          "--vector-radius", "100"],
                                   _too_many("20,633,856")),
    "simplicity-radius-100": (None, ["simplicity", "--family", "SA", "--radius", "100"],
                              _too_many("6,496,521,201")),
    # (2r + 1)(4r + 1) basis vectors in a box of radius r, so no len() overflow
    "simplicity-radius-10^21": (
        None, ["simplicity", "--family", "SBprime", "--radius", str(10**21)],
        _too_many(f"{((2 * 10**21 + 1) * (4 * 10**21 + 1)) ** 2:,}")),
    "quotient-radius-20": (None, ["quotient", "--family", "SBprime", "--radius", "20"],
                           _too_many("11,029,041")),
    "ghw-radius-200": (None, ["ghw", "--family", "SA", "--vector", "x[0,0]",
                              "--radius", "200"], _too_many("1,282,401")),
    # a count past the interpreter's int-to-str digit limit
    "simplicity-radius-10^3000": (
        None, ["simplicity", "--family", "SA", "--radius", str(10**3000)],
        _too_many(f"{Decimal(((2 * 10**3000 + 1) * (4 * 10**3000 + 1)) ** 2):,}")),
}


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a bad input reached the checks")


@pytest.mark.parametrize("config, argv, expected", list(_BAD_INPUTS.values()),
                         ids=list(_BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, config, argv,
                                               expected):
    monkeypatch.chdir(tmp_path)
    for target in ("svir.algebra.SuperVirasoro.super_jacobi_residual",
                   "svir.algebra.SuperVirasoro.bracket_basis",
                   "svir.repmod.SeriesModule.rep_residual",
                   "svir.repmod.SeriesModule.act",
                   "svir.repmod.SeriesModule._reach"):
        monkeypatch.setattr(target, _refuse_to_run)
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp_path / "session.json").write_text(text, errors="surrogateescape")
        argv = ["--config", "session.json", *argv]
    code, report = run(tmp_path, *argv)
    assert code == 2 and report is None
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(expected) and captured.err.count("\n") == 1


@pytest.mark.parametrize("radius, verdict", [("3", 3), ("4", 2)])
def test_run_size_limit_admits_jacobi_radius_3(tmp_path, capsys, monkeypatch, radius, verdict):
    # radius 3 (778,688 triples) reaches the residual, which raises here;
    # radius 4 (3,652,264) is refused first
    monkeypatch.setattr("svir.algebra.SuperVirasoro.super_jacobi_residual", _refuse_to_run)
    code, report = run(tmp_path, "jacobi-fuzz", "--radius", radius)
    assert code == verdict and report is None
    err = capsys.readouterr().err
    assert ("reached the checks" in err) == (verdict == 3)


@pytest.mark.parametrize("argv, verdict", [
    (["bracket", "L[1,0]", "L[-1,0]"], 0),
    (["iso-check", "--m", "[[1]]", "--s", "[1/2]", "--mprime", "[[3]]",
      "--sprime", "[1]", "--alpha", "2"], 1),
], ids=["pass", "fail"])
def test_closed_stdout_keeps_the_verdict(tmp_path, argv, verdict):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(svir.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "svir", *argv], cwd=tmp_path,
                              env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == verdict
    assert proc.stderr == b""  # no traceback and no "Exception ignored" line
    assert (tmp_path / "report.json").exists()


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # each of these is compiled again on every run when bytecode writing is off
    env = dict(os.environ, PYTHONPATH=str(Path(svir.__file__).parents[1]))
    probe = ("import sys, svir.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
