"""Error exits of the command line and the permuted-shell-file distance."""

import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from swgeo.cli import main
from swgeo.families import ShellMixture, shell_to_text


@pytest.fixture()
def runner():
    return CliRunner()


def test_measure_error_outside_any_handler_exits_1(runner):
    # mc_directions rejects the node count before any distance is computed
    result = runner.invoke(main, ["circle", "--dirs", "0"])
    assert result.exit_code == 1
    assert result.output == "Error: node count must be >= 1\n"


def test_sw_rejects_non_numeric_shell_field(runner, tmp_path):
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_text("shell 1 1 0 0 x\n")
    good.write_text("shell 1 1 0 0 0\n")
    result = runner.invoke(main, ["sw", "--shell-file", str(bad),
                                  "--shell-file", str(good)])
    assert result.exit_code == 1
    assert result.output.startswith("Error: line 1: cannot parse 'shell 1 1 0 0 x'")


def test_sw_of_permuted_shell_file_is_zero(runner, tmp_path):
    comps = ((0.02, 0.3, [0.2, 0, 0, 0]), (0.71, 0.4, [-0.1, 0, 0, 0]),
             (0.15, 0.8, [0.6, 0, 0, 0]), (0.12, 0.6, [3.6, 0, 0, 0]))
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    fa.write_text(shell_to_text(ShellMixture(4, comps)))
    fb.write_text(shell_to_text(ShellMixture(4, tuple(comps[i] for i in (0, 2, 1, 3)))))
    args = ["sw", "--shell-file", str(fa), "--shell-file", str(fb),
            "--p", "3", "--q", "2", "--quad", "mc", "--dirs", "300"]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert float(result.output.splitlines()[2].split(",")[2]) <= 1e-15


# a numpy warning raised as an error would end the command without its
# Error line, so stderr holds that line only if nothing warned before it
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sw_refuses_a_distance_that_overflows(runner, tmp_path):
    big, unit = tmp_path / "big.txt", tmp_path / "unit.txt"
    big.write_text("shell 1 1e308 0.5 0 0 0\n")
    unit.write_text("shell 1 1 0 0 0 0\n")
    for p in ("1", "2", "inf"):
        result = runner.invoke(main, ["sw", "--shell-file", str(big), "--shell-file", str(unit),
                                      "--quad", "mc", "--dirs", "8", "--p", p, "--q", p])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "Error: sliced distance nan is not finite: the mixtures overflow\n"


def test_cdq_rejects_a_nan_exponent(runner):
    result = runner.invoke(main, ["cdq", "--q", "nan"])
    assert result.exit_code == 1
    assert result.stderr == "Error: q must be >= 1\n"


def test_wp_rejects_a_nan_exponent(runner, tmp_path):
    # refused as an exponent, not as a distance that overflows
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("atom 0 1\n")
    b.write_text("atom 1 1\n")
    result = runner.invoke(main, ["wp", "--measure-file", str(a), "--measure-file", str(b),
                                  "--p", "nan"])
    assert result.exit_code == 1
    assert result.stderr == "Error: p must be >= 1\n"


@pytest.mark.parametrize("option,name", [("--p", "p"), ("--q", "q")])
def test_sw_rejects_nan_exponents(runner, tmp_path, option, name):
    # refused as an exponent, not as a distance that overflows
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("shell 1 1 0 0 0 0\n")
    b.write_text("shell 1 1 0.5 0 0 0\n")
    result = runner.invoke(main, ["sw", "--shell-file", str(a), "--shell-file", str(b),
                                  "--quad", "mc", "--dirs", "8", option, "nan"])
    assert result.exit_code == 1
    assert result.stderr == f"Error: {name} must be >= 1\n"


# one input per command that raises MeasureError inside the command, and
# its message; a fresh interpreter runs the command's own imports only
MEASURE_ERRORS = {
    "density": (["--alpha", "1.5", "--format", "svg"], "alpha must be in (0, 1), got 1.5"),
    "nonequiv": (["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    "holder": (["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    "hopping": (["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    "circle": (["--dirs", "0"], "node count must be >= 1"),
    "cdq": (["--q", "nan"], "q must be >= 1"),
    "geodesic-check": (["--family", "nu:alpha=0.5;x=0.2,0,0;d=4", "--quad", "mc",
                        "--dirs", "0"], "node count must be >= 1"),
    "wp": (["--p", "nan"], "p must be >= 1"),
    "sw": ([], "shell files have different ambient dimensions"),
}


def test_every_command_has_a_measure_error_case():
    assert set(MEASURE_ERRORS) == set(main.commands)


@pytest.mark.parametrize("command", sorted(MEASURE_ERRORS))
def test_measure_error_exits_1_with_one_line_in_a_fresh_interpreter(command, tmp_path):
    args, message = MEASURE_ERRORS[command]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    if command == "wp":
        a.write_text("atom 0 1\n")
        b.write_text("atom 1 1\n")
        args = ["--measure-file", str(a), "--measure-file", str(b), *args]
    if command == "sw":
        a.write_text("shell 1 1 0 0 0\n")
        b.write_text("shell 1 1 0 0 0 0\n")
        args = ["--shell-file", str(a), "--shell-file", str(b)]
    proc = subprocess.run([sys.executable, "-m", "swgeo", command, *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"Error: {message}\n"


CONFIG_VALUES = st.sampled_from([
    "", "0", "1", "2", "3", "4", "-1", "0.5", "1.5", "1e-3", "1e400", "-0", "inf", "-inf",
    "nan", "0,0.5,1", "0.25,0.75", "1,2,inf", "3,4", "log:1e-3:1:5", "log:1:2",
    "log:0:1:3", "csv", "svg", "beta", "mc", "both", "mu:alpha=0.5;beta=0.2",
    "nu:alpha=0.5;x=0.2,0,0;d=4", "control", "nu:", "mu:alpha=2",
]) | st.text(alphabet="abcxyz:;,.-+ eE_=", max_size=8)


@st.composite
def config_files(draw):
    """A command and config lines for it: its own keys (never ``out``) in
    either spelling, unknown keys, lines without '=', comments and blanks.
    Numbers stay small, so every command that runs is quick."""
    command = draw(st.sampled_from(sorted(n for n, c in main.commands.items()
                                          if any(p.name == "config" for p in c.params))))
    keys = [p.name for p in main.commands[command].params
            if p.expose_value and p.name != "out"]
    key = st.sampled_from(keys) | st.sampled_from(["d", "bogus", "", "t-"])
    spelled = key.map(lambda k: k.replace("_", "-")) | key
    line = st.one_of(
        st.tuples(spelled, st.sampled_from(["=", " = "]), CONFIG_VALUES).map("".join),
        CONFIG_VALUES.filter(lambda v: "=" not in v),
        st.sampled_from(["# comment", "", "   "]),
    )
    return command, "\n".join(draw(st.lists(line, max_size=5))) + "\n"


@settings(max_examples=150, deadline=None)
@given(config_files())
def test_config_lines_never_raise(tmp_path_factory, drawn):
    command, text = drawn
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    cfg.write_text(text)
    result = CliRunner().invoke(main, [command, "--config", str(cfg)])
    event(f"exit {result.exit_code}")
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (text, result.exception)
