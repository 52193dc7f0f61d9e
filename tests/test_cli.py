"""The command-line front end: exit codes, JSON output, and round trips."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from unramified.cli import main

B5_TEXT = """field QQ
ring X:1 Y:1
rel X*(2*Y^2 + 5*X^3)
rel Y*(2*X^2 + 5*Y^3)
mode local
"""

GRADED_TEXT = """field QQ
ring X:1 Y:1
rel X^2 - Y^2
mode graded
"""

F3X_TOWER_MAP = """[source]
field Fp 3
ring Y:1
rel Y^3
[target]
field Fp 3
ring Y:1
rel Y^9
[map]
Y = Y^3
"""


@pytest.fixture
def b5_file(tmp_path):
    path = tmp_path / "b5.alg"
    path.write_text(B5_TEXT)
    return str(path)


def test_omega_command(b5_file, capsys):
    assert main(["omega", "--file", b5_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_omega_zero"] is False
    assert payload["omega_dimension"] == 12


def test_dim_command(b5_file, capsys):
    assert main(["dim", "--file", b5_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 11
    assert payload["stabilized_power"] == 6


def test_d_zero_command(b5_file, capsys):
    code = main(["d-zero", "X^2*Y^2 + X^5 + Y^5", "--file", b5_file, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_zero"] is True


def test_kernel_and_veronese(tmp_path, capsys):
    graded = tmp_path / "graded.alg"
    graded.write_text(GRADED_TEXT)
    assert main(["kernel-degree", "--file", str(graded), "--deg", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_dimension"] == 0

    fp = tmp_path / "fp.alg"
    fp.write_text("field Fp 2\nring X:1 Y:1\nrel X*Y\nmode graded\n")
    assert main(["veronese", "--file", str(fp), "--max-deg", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["kernel_dimensions"]["2"] == 2


def test_verify_preparatory(capsys):
    assert main(["verify", "preparatory", "--n", "5", "--field", "QQ", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["status"] == "ok"
    assert payload["elapsed_ms"] is None


def test_verify_preparatory_rejects_small_n(capsys):
    assert main(["verify", "preparatory", "--n", "4", "--json"]) == 2


def test_verify_preparatory_at_the_power_limit(capsys):
    """B(63) stabilizes at m^64, the truncation limit of the local model.
    B(64) is m-primary too but needs m^65, so it stops at the limit, and
    the error says so instead of calling the ideal not m-primary."""
    assert main(["verify", "preparatory", "--n", "63", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert main(["verify", "preparatory", "--n", "64", "--json"]) == 3
    err = capsys.readouterr().err
    assert "truncation limit m^64" in err
    assert "primary" not in err


def test_verify_killing(capsys):
    assert main(["verify", "killing", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    labels = [c["label"] for c in payload["claims"]]
    assert any(label.startswith("B(5)") for label in labels)
    assert any(label.startswith("dual numbers") for label in labels)


def test_verify_charp_and_twisted(capsys):
    assert main(["verify", "charp-tower", "--p", "2", "--n-max", "2", "--json"]) == 0
    capsys.readouterr()
    assert main(["verify", "twisted", "--p", "2", "--n", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_verify_gabber_with_seed(tmp_path, capsys):
    seed = tmp_path / "dual.alg"
    seed.write_text("field QQ\nring Z:1\nrel Z^2\nmode plain\n")
    assert main(["verify", "gabber", "--steps", "1", "--start", str(seed), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_verify_gabber_cap_exit_code(capsys):
    assert main(["verify", "gabber", "--steps", "1", "--cap", "50", "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "cap"


def test_verify_gabber_refuses_positive_characteristic(tmp_path, capsys):
    """The killing step needs characteristic zero: a usage error that names
    the step and the Clebsch-Gordan rule, not a flag the verb lacks."""
    start = tmp_path / "z3_f7.alg"
    start.write_text("field Fp 7\nring Z:1\nrel Z^3\n")
    assert main(["verify", "gabber", "--start", str(start)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the killing step needs characteristic zero: the "
                            "Clebsch-Gordan rule gives the Jordan type of g only there\n")


def test_verify_gabber_refuses_an_infinite_start(tmp_path, capsys):
    """k[X,Y]/(XY) is not finite dimensional: a usage error on one line,
    before any claim, not a traceback."""
    start = tmp_path / "cross_term.alg"
    start.write_text("field QQ\nring X:1 Y:1\nrel X*Y\n")
    assert main(["verify", "gabber", "--steps", "1", "--start", str(start)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the start algebra must be finite dimensional\n"


def test_map_omega(tmp_path, capsys):
    path = tmp_path / "step.map"
    path.write_text(F3X_TOWER_MAP)
    assert main(["map-omega", "--map", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_map_omega_failing_claim(tmp_path, capsys):
    path = tmp_path / "ident.map"
    path.write_text("""[source]
field QQ
ring X:1
[target]
field QQ
ring X:1
[map]
X = X
""")
    assert main(["map-omega", "--map", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False


def test_map_omega_bad_image_cites_its_file_line(tmp_path, capsys):
    """A bad [map] image is a parse error at its own line and column of the
    map file, not at line 1 of the image text."""
    path = tmp_path / "bad_image.map"
    path.write_text("[source]\nfield QQ\nring Y:1\n[target]\nfield QQ\nring Y:1\n"
                    "[map]\nY = Y^2 + Q\n")
    assert main(["map-omega", "--map", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 8, column 11: unknown variable 'Q'\n"


def test_map_omega_unknown_name_cites_its_file_line(tmp_path, capsys):
    """An image for a name that is not a source variable is a parse error
    that names it at its line of the map file."""
    path = tmp_path / "bad_name.map"
    path.write_text("[source]\nfield QQ\nring Y:1\n[target]\nfield QQ\nring Y:1\n"
                    "[map]\nW = Y\n")
    assert main(["map-omega", "--map", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 8, column 1: 'W' is not a source variable\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field QQ\nring X:1\nrel X + @\n")
    assert main(["parse-check", "--file", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_a_bad_weight_cites_its_column(tmp_path, capsys):
    bad = tmp_path / "bad_weight.alg"
    bad.write_text("field QQ\nring X:1 Y:\u00b2\n")
    assert main(["parse-check", "--file", str(bad)]) == 2
    assert capsys.readouterr().err == "parse error: line 2, column 10: bad weight in 'Y:\u00b2'\n"


def test_budget_exit_code(b5_file, capsys):
    assert main(["dim", "--file", b5_file, "--budget", "3"]) == 3
    assert "stopped" in capsys.readouterr().err


def test_budget_binds_a_plain_basis_built_on_first_use(tmp_path, capsys):
    """A plain quotient builds its basis when `dim` first reads it, inside
    the command's budget: (X^2 - Y, XY - 1) spends steps, so budget 0 stops
    it with exit 3 and the default budget does not."""
    path = tmp_path / "hyperbola.alg"
    path.write_text("field QQ\nring X:1 Y:1\nrel X^2 - Y\nrel X*Y - 1\n")
    assert main(["dim", "--file", str(path), "--budget", "0"]) == 3
    assert "reduction-step budget 0 exceeded" in capsys.readouterr().err
    assert main(["dim", "--file", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 3


def test_not_m_primary_exit_code(tmp_path, capsys):
    path = tmp_path / "line.alg"
    path.write_text("field QQ\nring X:1 Y:1\nrel X\nmode local\n")
    assert main(["dim", "--file", str(path)]) == 3


def test_dump_round_trip(b5_file, capsys):
    assert main(["parse-check", "--file", b5_file, "--dump"]) == 0
    dump = capsys.readouterr().out
    assert dump.startswith("field QQ")
    assert "mode local" in dump


def test_usage_error():
    assert main(["no-such-verb"]) == 2


def _env_with_src() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH, so a
    child process imports the package whether or not it is installed."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_cli_runs_as_subprocess_deterministically(b5_file):
    cmd = [sys.executable, "-m", "unramified.cli", "verify", "preparatory",
           "--n", "5", "--json"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=_env_with_src())
    second = subprocess.run(cmd, capture_output=True, text=True, env=_env_with_src())
    assert first.returncode == 0
    assert first.stdout == second.stdout


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,name", [
    (["verify", "charp-tower", "--p", "2", "--n-max", "2", "--json"], "charp_p2_n2.json"),
    (["verify", "twisted", "--p", "2", "--n", "1", "--json"], "twisted_p2_n1.json"),
])
def test_golden_reports(argv, name, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text()


def test_verify_local_case(capsys):
    assert main(["verify", "local-case", "--count", "5", "--seed", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


SAMPLES = pathlib.Path(__file__).parent.parent / "samples"


@pytest.mark.parametrize("argv,name,code", [
    (["omega", "--file", "b5.alg"], "omega_b5.json", 0),
    (["omega", "--file", "b5.alg", "--base", "field"], "omega_b5_field.json", 0),
    (["omega", "--file", "b5.alg", "--base", "degree0"], "omega_b5_degree0.json", 0),
    (["kernel-degree", "--file", "square_difference.alg", "--deg", "3"],
     "kernel_square_difference_deg3.json", 0),
    (["veronese", "--file", "cross_term_f2.alg", "--max-deg", "6"],
     "veronese_cross_term_f2_6.json", 0),
    (["verify", "gabber", "--steps", "1", "--start", "dual_numbers.alg"],
     "gabber_dual_steps1.json", 0),
    (["verify", "gabber", "--steps", "2", "--start", "dual_numbers.alg"],
     "gabber_dual_steps2.json", 3),
    (["verify", "gabber", "--steps", "1"], "gabber_steps1.json", 3),
    (["verify", "local-case", "--count", "20", "--seed", "0"], "local_case_20_0.json", 0),
    (["dim", "--file", "b5.alg"], "dim_b5.json", 0),
    (["d-zero", "X^2*Y^2 + X^5 + Y^5", "--file", "b5.alg"], "d_zero_b5_f.json", 0),
    (["map-omega", "--map", "root_tower_step.map"], "map_omega_root_tower_step.json", 0),
    (["parse-check", "--file", "b5.alg", "--dump"], "parse_check_b5_dump.txt", 0),
    (["verify", "preparatory", "--n", "5", "--field", "QQ"], "preparatory_5_qq.json", 0),
    (["verify", "killing"], "killing.json", 0),
    (["verify", "euler", "--trials", "100", "--field", "Fp:3"], "euler_100_fp3.json", 0),
    (["verify", "gabber", "--steps", "1", "--start", "z5.alg"], "gabber_z5_steps1.json", 0),
    (["veronese", "--file", "weighted_curve_f5.alg", "--max-deg", "12"],
     "veronese_weighted_curve_f5_12.json", 0),
    (["verify", "gabber", "--steps", "2", "--start", "dual_numbers.alg",
      "--cap", "30000000000"], "gabber_dual_steps2_cap3e10.json", 0),
])
def test_golden_outputs(argv, name, code, capsys, monkeypatch):
    """JSON output and exit code of README verbs, byte for byte; `--base`
    is an alias whose value only `omega` echoes.  Sample files are passed as
    `samples/<name>` from the repository root, since `map-omega` echoes the
    path it was given."""
    monkeypatch.chdir(SAMPLES.parent)
    argv = [f"samples/{a}" if a.endswith((".alg", ".map")) else a for a in argv]
    assert main(argv + ["--json"]) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("argv", [
    ["verify", "preparatory"],
    ["verify", "killing"],
    ["verify", "gabber", "--start", "samples/dual_numbers.alg"],
    ["verify", "charp-tower"],
    ["verify", "twisted", "--trials", "3"],
    ["verify", "local-case", "--count", "2"],
    ["verify", "euler", "--trials", "3"],
    ["map-omega", "--map", "samples/root_tower_step.map"],
])
def test_every_report_command_times_itself(argv, capsys, monkeypatch):
    """Every command that takes `--timing` prints the measured time with it
    and null without it."""
    monkeypatch.chdir(SAMPLES.parent)
    assert main(argv + ["--json", "--timing"]) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["elapsed_ms"], float)
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["elapsed_ms"] is None


@pytest.mark.parametrize("argv", [
    ["omega", "--file", "samples/b5.alg", "--budget", "50"],
    ["verify", "killing", "--budget", "50"],
    ["verify", "local-case", "--count", "20", "--budget", "100"],
    ["verify", "gabber", "--steps", "1", "--budget", "30"],
])
def test_budget_binds_the_whole_command(argv, capsys, monkeypatch):
    """Every Groebner run and normal form of a command, Kaehler modules and
    the default start of `verify gabber` included, spends from one budget."""
    monkeypatch.chdir(SAMPLES.parent)
    assert main(argv + ["--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"reduction-step budget {argv[-1]} exceeded" in captured.err


@pytest.mark.parametrize("argv", [
    ["dim", "--file", "samples/b5.alg", "--cap", "5"],
    ["omega", "--file", "samples/b5.alg", "--timing"],
    ["parse-check", "--file", "samples/b5.alg", "--budget", "5"],
    ["verify", "killing", "--n", "7"],
    ["verify", "charp-tower", "--seed", "3"],
    ["verify", "euler", "--cap", "5"],
])
def test_flags_only_on_the_verbs_that_read_them(argv, capsys, monkeypatch):
    monkeypatch.chdir(SAMPLES.parent)
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [
    ["dim", "--file", "samples/b5.alg", "--budget", "-1"],
    ["verify", "euler", "--trials", "3", "--budget", "-7"],
    ["verify", "killing", "--cap", "-1"],
    ["verify", "local-case", "--count", "-1"],
    ["verify", "local-case", "--count", "0"],
    ["verify", "euler", "--trials", "-1"],
    ["verify", "twisted", "--trials", "0"],
])
def test_out_of_range_limits_are_usage_errors(argv, capsys, monkeypatch):
    """A negative budget or cap, a corpus of no entries or a check of no
    trials is refused by the parser before any work, not reported as an
    exhausted limit or a pass."""
    monkeypatch.chdir(SAMPLES.parent)
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be at least" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "local-case", "--count", "\u0663"],
    ["verify", "killing", "--cap", "1\u0660"],
    ["dim", "--file", "samples/b5.alg", "--budget", "\u0665"],
    ["verify", "euler", "--trials", "\uff13"],
], ids=["count", "cap", "budget", "trials"])
def test_integer_limits_are_ascii_digits(argv, capsys, monkeypatch):
    """An integer option is read as ASCII digits, as the text formats read
    numbers: an Arabic-Indic three, ten or five, or a fullwidth three, is a
    usage error before any work, not the number int() makes of it."""
    monkeypatch.chdir(SAMPLES.parent)
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: invalid int value: '{argv[-1]}'" in captured.err


# (argv, exit code, text on stderr): every integer option reads ASCII digits
# only, and an ASCII value outside what the library accepts keeps the
# library's own message
INTEGER_OPTIONS = [
    (["kernel-degree", "--file", "samples/cross_term_f2.alg", "--deg", "\u0663"], 2,
     "argument --deg: invalid int value: '\u0663'"),
    (["kernel-degree", "--file", "samples/cross_term_f2.alg", "--deg", "1_0"], 2,
     "argument --deg: invalid int value: '1_0'"),
    (["veronese", "--file", "samples/cross_term_f2.alg", "--max-deg", "\uff13"], 2,
     "argument --max-deg: invalid int value: '\uff13'"),
    (["verify", "preparatory", "--n", "\u0665"], 2, "argument --n: invalid int value"),
    (["verify", "gabber", "--steps", "\u0661"], 2, "argument --steps: invalid int value"),
    (["verify", "charp-tower", "--p", "\u0663"], 2, "argument --p: invalid int value"),
    (["verify", "charp-tower", "--n-max", "1_0"], 2, "argument --n-max: invalid int value"),
    (["verify", "twisted", "--seed", "\u0663"], 2, "argument --seed: invalid int value"),
    (["verify", "euler", "--trials", "\u0663"], 2, "argument --trials: invalid int value"),
    (["kernel-degree", "--file", "samples/cross_term_f2.alg", "--deg", "0"], 2,
     "degree must be positive"),
    (["kernel-degree", "--file", "samples/cross_term_f2.alg", "--deg", "-2"], 2,
     "degree must be positive"),
    (["verify", "gabber", "--steps", "0"], 2, "at least one step is required"),
    (["verify", "charp-tower", "--p", "4"], 2, "4 is not prime"),
    (["verify", "charp-tower", "--n-max", "0"], 2, "n_max must be at least 1"),
    (["verify", "preparatory", "--n", "-5"], 2, "the construction requires n >= 5"),
    (["verify", "euler", "--trials", "1", "--seed", "-1"], 0, ""),
]


@pytest.mark.parametrize("argv, code, message", INTEGER_OPTIONS)
def test_integer_options_read_ascii_digits(argv, code, message, capsys, monkeypatch):
    """Each integer option reads its text one way: an Arabic-Indic or
    fullwidth digit or an underscore is a usage error before any work, not
    the number int() makes of it, and no range is added to the library's."""
    monkeypatch.chdir(SAMPLES.parent)
    assert main(argv + ["--json"]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    if code:
        assert captured.out == ""


@pytest.mark.parametrize("max_deg", ["0", "-3"])
def test_veronese_of_no_degree_is_a_usage_error(max_deg, capsys, monkeypatch):
    monkeypatch.chdir(SAMPLES.parent)
    argv = ["veronese", "--file", "samples/cross_term_f2.alg", "--max-deg", max_deg, "--json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_degree must be positive" in captured.err


HUGE_DIM_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from unramified.cli import main
sys.exit(main(["dim", "--file", sys.argv[1], "--json"]))
"""


def test_dim_counts_a_huge_staircase(tmp_path):
    """dim of k[X, Y, Z]/(X^200, Y^200, Z^200) is counted, not listed: it
    answers within 1 GB of address space, where listing its 8 million
    standard monomials runs out of memory."""
    path = tmp_path / "cube200.alg"
    path.write_text("field QQ\nring X Y Z\nrel X^200\nrel Y^200\nrel Z^200\n")
    done = subprocess.run([sys.executable, "-c", HUGE_DIM_CHILD, str(path)],
                          capture_output=True, text=True, timeout=120,
                          env=_env_with_src())
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["dimension"] == 8000000
    assert payload["basis"] is None
