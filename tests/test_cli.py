import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import mix, sw_per_direction
from swgeo.cli import main
from swgeo.measure1d import Measure1D, measure_to_text
from swgeo.families import nu_family, shell_from_text, shell_to_text
from swgeo.sphere import mc_directions

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


DETERMINISM_CASES = [
    ["density", "--alpha", "0.5", "--beta", "0.2", "--t", "0,0.1,0.5"],
    ["density", "--format", "svg"],
    ["nonequiv", "--alpha", "0.2", "--p", "2", "--t-grid", "log:1e-4:1:9"],
    ["nonequiv", "--alpha", "0.2", "--p", "inf", "--quad", "mc", "--dirs", "200",
     "--seed", "7", "--t-grid", "log:1e-4:1:9"],
    ["holder", "--alpha", "0.2", "--p", "4", "--t-grid", "log:1e-4:1e-1:9"],
    ["hopping", "--alpha", "0.5", "--t-grid", "0,0.25,0.5,0.75,1"],
    ["circle", "--t-grid", "0.1,0.5", "--dirs", "4", "--seed", "1"],
    ["cdq", "--d", "3,4", "--q", "2,inf", "--mc-dirs", "5000", "--seed", "3"],
    ["geodesic-check", "--family", "mu:alpha=0.5;beta=0.2", "--p", "2"],
    ["geodesic-check", "--family", "nu:alpha=0.5;x=0.2,0,0;d=4;a=2;y=0,1,0,0",
     "--p", "2", "--q", "2", "--dirs", "16"],
]


@pytest.mark.parametrize("args", DETERMINISM_CASES,
                         ids=[" ".join(a[:2]) + f"#{i}" for i, a in
                              enumerate(DETERMINISM_CASES)])
def test_commands_are_deterministic(runner, args):
    first = run_ok(runner, args)
    second = run_ok(runner, args)
    assert first == second


def test_csv_schema(runner):
    out = run_ok(runner, ["hopping", "--alpha", "0.5", "--t-grid", "0,1"])
    lines = out.splitlines()
    assert lines[0].startswith("# swgeo hopping 0.1.0 ")
    assert lines[1] == "t,outer_mass,inner_mass,inner_radius"
    assert len(lines) == 4


def test_reals_printed_with_17_significant_digits(runner):
    out = run_ok(runner, ["hopping", "--alpha", "0.5", "--t-grid", "0.5"])
    row = out.splitlines()[2].split(",")
    assert row[1] == "0.66666666666666663"
    assert row[2] == "0.33333333333333331"


def test_density_svg_is_self_contained(runner):
    out = run_ok(runner, ["density", "--format", "svg"])
    assert out.startswith("<svg ")
    assert out.rstrip().endswith("</svg>")
    assert "http" not in out.replace("http://www.w3.org/2000/svg", "")
    assert "alpha=0.5 beta=0.2" in out


@pytest.mark.parametrize("t", ["", ",", "log:0.1:1:0"])
def test_density_empty_t_grid_plots_empty_unit_axes(runner, t):
    svg = run_ok(runner, ["density", "--format", "svg", "--t", t])
    assert svg.rstrip().endswith("</svg>")
    assert "<polyline" not in svg and "<circle" not in svg
    ticks = [line.rsplit(">", 2)[-2].split("<")[0] for line in svg.splitlines()
             if 'font-size="10" text-anchor="middle"' in line]
    assert ticks == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    csv = run_ok(runner, ["density", "--format", "csv", "--t", t]).splitlines()
    assert csv[1:] == ["t,kind,x0,x1,value"]


def test_density_atom_marker_at_t1(runner):
    out = run_ok(runner, ["density", "--t", "1", "--format", "csv"])
    lines = out.splitlines()
    assert any(line.split(",")[1] == "atom" for line in lines[2:])
    atom_row = next(line for line in lines[2:] if ",atom," in line)
    fields = atom_row.split(",")
    assert float(fields[2]) == 0.2 and float(fields[4]) == 0.5


def test_config_precedence(runner, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("alpha=0.7\nt=0,1\n")
    from_config = run_ok(runner, ["density", "--config", str(cfg)])
    assert "alpha=0.69999999999999996" in from_config.splitlines()[0]
    overridden = run_ok(runner, ["density", "--config", str(cfg),
                                 "--alpha", "0.3"])
    assert "alpha=0.29999999999999999" in overridden.splitlines()[0]


def test_nonequiv_rejects_p_one(runner):
    result = runner.invoke(main, ["nonequiv", "--p", "1"])
    assert result.exit_code != 0
    assert "p must be > 1" in result.output


def test_holder_rejects_bad_p(runner):
    assert runner.invoke(main, ["holder", "--p", "1"]).exit_code != 0
    assert runner.invoke(main, ["holder", "--p", "inf"]).exit_code != 0


def test_nonequiv_slope_comment(runner):
    out = run_ok(runner, ["nonequiv", "--alpha", "0.2", "--p", "2",
                          "--t-grid", "log:1e-4:1e-1:13"])
    tail = out.splitlines()[-1]
    assert tail.startswith("# loglog-slope")
    fitted = float(tail.split("fitted=")[1].split()[0])
    assert abs(fitted - (-0.5)) < 0.01


def test_geodesic_check_pass_and_fail_exit_codes(runner):
    ok = runner.invoke(main, ["geodesic-check", "--family", "mu:alpha=0.5;beta=0.2"])
    assert ok.exit_code == 0
    assert "verdict=PASS" in ok.output
    bad = runner.invoke(main, ["geodesic-check", "--family", "control"])
    assert bad.exit_code == 1
    assert "verdict=FAIL" in bad.output


def test_geodesic_check_rejects_garbage_spec(runner):
    result = runner.invoke(main, ["geodesic-check", "--family", "nope"])
    assert result.exit_code != 0


def test_wp_command_reads_measure_files(runner, tmp_path):
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fa.write_text(measure_to_text(Measure1D.uniform(-1, 1)))
    fb.write_text(measure_to_text(mix(
        [(0.5, Measure1D.uniform(-1, 1)), (0.5, Measure1D.dirac(0.0))])))
    out = run_ok(runner, ["wp", "--measure-file", str(fa),
                          "--measure-file", str(fb), "--p", "2"])
    value = float(out.splitlines()[2].split(",")[1])
    assert value == pytest.approx(0.5 / 3 ** 0.5, rel=1e-12)


def test_sw_command_reads_shell_files(runner, tmp_path):
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fa.write_text(shell_to_text(nu_family(0.5, 0.0, 0.5, 3)))
    fb.write_text(shell_to_text(nu_family(0.5, 0.0, 0.0, 3)))
    out = run_ok(runner, ["sw", "--shell-file", str(fa), "--shell-file", str(fb),
                          "--p", "2", "--q", "2", "--dirs", "16"])
    value = float(out.splitlines()[2].split(",")[2])
    assert value == pytest.approx(0.25 / 3 ** 0.5, rel=1e-10)


def translated_shells(tmp_path):
    """The unit shell and its 0.5 e1 translate in d = 4, whose SW_{2,2} is
    0.25: each direction's W_2 is the shift 0.5 |theta_1|."""
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    fa.write_text("shell 1 1 0 0 0 0\n")
    fb.write_text("shell 1 1 0.5 0 0 0\n")
    return ["sw", "--shell-file", str(fa), "--shell-file", str(fb)]


def test_sw_default_takes_mc_nodes_off_center(runner, tmp_path):
    args = translated_shells(tmp_path)
    lines = run_ok(runner, args).splitlines()
    assert "quad=mc" in lines[0].split()
    value = float(lines[2].split(",")[2])
    # SW^2 is the mean of the 64 squared per-direction values; its
    # standard error, carried to SW
    a, b = (shell_from_text(Path(f).read_text()) for f in args[2::2])
    w2 = np.array([sw_per_direction(a, b, 2.0, th) for th in mc_directions(4, 64, 0).thetas]) ** 2
    assert value == pytest.approx(math.sqrt(w2.mean()), rel=1e-12)
    assert abs(value - 0.25) <= 4 * w2.std(ddof=1) / math.sqrt(w2.size) / (2 * value)


def test_sw_refuses_explicit_beta_nodes_off_center(runner, tmp_path):
    # beta nodes are exact only for centered mixtures: here they would
    # give sqrt(3) / 4, not 0.25
    result = runner.invoke(main, translated_shells(tmp_path) + ["--quad", "beta"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == ("Error: beta nodes average functions of s(theta) only: "
                             "off-center mixtures need mc nodes\n")


@pytest.mark.parametrize("args, quad", [
    (["nonequiv", "--t-grid", "0.01,0.1"], "beta"),
    (["geodesic-check", "--family", "mu:alpha=0.5;beta=0.2"], "beta"),
    (["geodesic-check", "--family", "nu:alpha=0.5;d=4", "--grid", "0,1"], "beta"),
    (["geodesic-check", "--family", "nu:alpha=0.5;x=0.6,0,0;d=4", "--grid", "0,1"], "mc"),
])
def test_quad_auto_is_recorded_as_the_rule_taken(runner, args, quad):
    assert f"quad={quad}" in run_ok(runner, args).splitlines()[0].split()


def test_circle_output_matches_golden_file(runner, tmp_path):
    out_path = tmp_path / "circle.csv"
    run_ok(runner, ["circle", "--t-grid", "0.1,0.25,0.5,0.75,1", "--q", "2",
                    "--dirs", "8", "--seed", "0", "--out", str(out_path)])
    assert out_path.read_bytes() == (GOLDEN / "circle.csv").read_bytes()


def test_module_entry_point_deterministic():
    cmd = [sys.executable, "-m", "swgeo", "hopping", "--alpha", "0.5",
           "--t-grid", "0,0.5,1"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
