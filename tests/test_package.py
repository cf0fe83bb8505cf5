import importlib
import subprocess
import sys

import pytest

import seifknot

LAYERS = {"freegroup", "presentations", "homology", "knots11", "dunwoody", "foxcalc", "verify"}


def test_all_lists_exactly_the_public_names_bound_in_the_package():
    table = [(layer, name) for layer, names in seifknot._EXPORTS.items() for name in names]
    assert set(seifknot._EXPORTS) == LAYERS
    assert seifknot.__all__ == sorted(name for _, name in table)
    assert len(set(seifknot.__all__)) == len(table)
    for layer, name in table:
        obj = getattr(seifknot, name)
        assert obj.__module__ == f"seifknot.{layer}"
        assert obj is getattr(importlib.import_module(f"seifknot.{layer}"), name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from seifknot import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == seifknot.__all__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'seifknot' has no attribute 'no_such_name'"):
        seifknot.no_such_name  # noqa: B018


# Run in a fresh process: import seifknot.cli, then build the parser (no
# arguments) or make one `main` call, and print the layers that ran. A lazy
# layer that has run is a plain module again; reading its type runs nothing.
LAYERS_RUN = """
import contextlib, io, sys, types
from seifknot import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:]) if len(sys.argv) > 1 else cli.build_parser()
print(*sorted(name.split(".")[1] for name, mod in sys.modules.items()
              if name.startswith("seifknot.") and name != "seifknot.cli"
              and type(mod) is types.ModuleType))
"""


def layers_run(*argv: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", LAYERS_RUN, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_building_the_parser_runs_no_layer():
    assert layers_run() == set()


def test_knot_reduce_runs_only_the_knot_layer_and_its_imports():
    ran = layers_run("--json", "knot", "reduce", "40", "41", "3", "40")
    assert "knots11" in ran
    assert not ran & {"dunwoody", "foxcalc", "homology", "verify"}


def test_verify_all_runs_every_layer():
    assert layers_run("verify-all", "--nmax", "2", "--pmax", "3", "--lmax", "2") == LAYERS
