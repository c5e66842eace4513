"""The --config file: key=value lines act as the command's defaults."""

import pytest
from click.testing import CliRunner

from swgeo.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_with_config(runner, tmp_path, command, text, *args):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    return runner.invoke(main, [command, "--config", str(cfg), *args])


# (command, settings as config keys, the same settings as flags)
EQUIVALENT = [
    ("density", {"alpha": "0.6", "beta": "-0.3", "t": "0,0.4,1", "format": "svg"},
     ["--alpha", "0.6", "--beta", "-0.3", "--t", "0,0.4,1", "--format", "svg"]),
    ("nonequiv", {"alpha": "0.3", "p": "1.5", "q": "inf", "d": "4",
                  "t_grid": "log:1e-4:1:9", "dirs": "16", "quad": "mc", "seed": "5"},
     ["--alpha", "0.3", "--p", "1.5", "--q", "inf", "--d", "4",
      "--t-grid", "log:1e-4:1:9", "--dirs", "16", "--quad", "mc", "--seed", "5"]),
    ("holder", {"alpha": "0.4", "p": "3", "d": "5", "t-grid": "log:1e-4:1:9"},
     ["--alpha", "0.4", "--p", "3", "--d", "5", "--t-grid", "log:1e-4:1:9"]),
    ("hopping", {"alpha": "0.3", "t_grid": "0,0.3,1"},
     ["--alpha", "0.3", "--t-grid", "0,0.3,1"]),
    ("circle", {"t_grid": "0.2,1"}, ["--t-grid", "0.2,1"]),
    ("cdq", {"d_list": "3,5", "q_list": "1,inf", "method": "both", "dirs": "32",
             "mc_dirs": "2000", "seed": "9"},
     ["--d", "3,5", "--q", "1,inf", "--method", "both", "--dirs", "32",
      "--mc-dirs", "2000", "--seed", "9"]),
    ("geodesic-check", {"family": "nu:alpha=0.5;x=0.2,0,0;d=4", "p": "2", "q": "1",
                        "grid": "0,0.5,1", "dirs": "16", "quad": "mc", "seed": "3",
                        "tol": "1e-06"},
     ["--family", "nu:alpha=0.5;x=0.2,0,0;d=4", "--p", "2", "--q", "1",
      "--grid", "0,0.5,1", "--dirs", "16", "--quad", "mc", "--seed", "3",
      "--tol", "1e-06"]),
]


@pytest.mark.parametrize("command,settings,flags", EQUIVALENT,
                         ids=[case[0] for case in EQUIVALENT])
def test_config_and_flags_print_the_same(runner, tmp_path, command, settings, flags):
    text = "".join(f"{k}={v}\n" for k, v in settings.items())
    from_config = invoke_with_config(runner, tmp_path, command, text)
    from_flags = runner.invoke(main, [command, *flags])
    assert from_config.exit_code == from_flags.exit_code == 0, from_config.output
    assert from_config.output == from_flags.output


def test_command_line_beats_config_for_renamed_params(runner, tmp_path):
    result = invoke_with_config(runner, tmp_path, "density", "t=0,1\nformat=svg\n",
                                "--t", "0.5", "--format", "csv")
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0].endswith("format=csv t=0.5")
    assert {line.split(",")[0] for line in lines[2:]} == {"0.5"}


@pytest.mark.parametrize("command,text", [
    ("cdq", "method=xyz\n"),
    ("density", "alpha=abc\n"),
    ("nonequiv", "p=fast\n"),
    ("hopping", "t_grid=log:1:2\n"),
])
def test_invalid_config_values_are_rejected(runner, tmp_path, command, text):
    result = invoke_with_config(runner, tmp_path, command, text)
    assert result.exit_code == 2
    assert "nan" not in result.output


@pytest.mark.parametrize("text", ["d=4\n", "t_list=0,1\n", "config=x\n", "alpha\n"])
def test_unknown_keys_and_bad_lines_are_rejected(runner, tmp_path, text):
    result = invoke_with_config(runner, tmp_path, "cdq", text)
    assert result.exit_code == 2
    assert "cfg.txt:1" in result.output


def test_unreadable_config_is_rejected(runner, tmp_path):
    result = runner.invoke(main, ["hopping", "--config", str(tmp_path / "missing")])
    assert result.exit_code == 2
    assert "cannot read" in result.output


def test_required_option_from_config_alone(runner, tmp_path):
    result = invoke_with_config(runner, tmp_path, "geodesic-check",
                                "family=mu:alpha=0.5;beta=0.2\n")
    assert result.exit_code == 0, result.output
    assert "family=mu:alpha=0.5;beta=0.2" in result.output.splitlines()[0]
    assert "verdict=PASS" in result.output
