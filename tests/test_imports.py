"""The import surface: ``swgeo`` and its CLI load library modules on first
use only, each command loads what it calls, and every public name
resolves to its defining module's object."""

import importlib
import json
import subprocess
import sys

import pytest

import swgeo

LIBRARY = {"families", "measure1d", "sliced", "sphere", "svg", "transport1d"}

REPORT = ("import atexit, json, sys\n"
          "atexit.register(lambda: print(json.dumps(sorted(\n"
          "    m.split('.', 1)[1] for m in sys.modules if m.startswith('swgeo.'))),\n"
          "    file=sys.stderr))\n")


def loaded(code: str) -> set[str]:
    """Library modules a fresh interpreter has loaded when ``code`` exits."""
    proc = subprocess.run([sys.executable, "-c", REPORT + code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1])) & LIBRARY


def loaded_by_command(*argv: str) -> set[str]:
    """Library modules ``python -m swgeo <argv>`` has loaded at exit."""
    return loaded(f"import runpy; sys.argv = ['swgeo', *{list(argv)!r}]\n"
                  "runpy.run_module('swgeo', run_name='__main__', alter_sys=True)")


@pytest.mark.parametrize("code", ["import swgeo", "import swgeo.cli"])
def test_import_loads_no_library_module(code):
    assert loaded(code) == set()


def test_version_loads_no_library_module():
    assert loaded_by_command("--version") == set()


def test_cdq_loads_only_sphere_and_measure1d():
    assert loaded_by_command("cdq", "--d", "3", "--q", "2", "--mc-dirs", "10") \
        == {"sphere", "measure1d"}


def test_wp_loads_no_shell_direction_or_svg_module(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("atom 0 1\n")
    b.write_text("piece -1 1 0.5\n")
    assert loaded_by_command("wp", "--measure-file", str(a), "--measure-file", str(b)) \
        == {"measure1d", "transport1d"}


@pytest.mark.parametrize("name", swgeo.__all__[1:])
def test_public_name_is_its_defining_module_object(name):
    value = getattr(swgeo, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__ == f"swgeo.{swgeo._SOURCE[name]}"
    assert getattr(module, name) is value
    assert name in dir(swgeo)


def test_submodules_resolve_as_attributes():
    for name in LIBRARY | {"cli"}:
        assert getattr(swgeo, name) is importlib.import_module(f"swgeo.{name}")
        assert name in dir(swgeo)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from swgeo import *", namespace)
    assert set(swgeo.__all__) <= set(namespace)
    assert namespace["__version__"] == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        swgeo.no_such_name  # noqa: B018
    assert not hasattr(swgeo, "beta_quadrature")
