"""Error exits of the command line and the permuted-shell-file distance."""

import pytest
from click.testing import CliRunner

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
