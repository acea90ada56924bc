"""Cold start: each CLI command loads only the layers it runs, the package
namespace resolves lazily, and catalog entries are certified on lookup."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracineq
from fracineq import funclib

# the directory holding the fracineq package, for the child processes
PACKAGE_PARENT = str(Path(fracineq.__file__).resolve().parent.parent)

WATCHED = ("fracineq.sweep", "fracineq.hhbounds", "fracineq.fracint",
           "numpy.polynomial")
CHILD = """
import json, sys
from fracineq.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [m for m in %r if m in sys.modules]}))
""" % (WATCHED,)


def loaded_after(*args):
    """Run ``fracineq.cli.main(args)`` in a fresh interpreter; its exit
    code and which of WATCHED it left in sys.modules."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT
               + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", CHILD, *args],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["loaded"])


def test_certify_loads_no_defect_sweep_or_polynomial_layer():
    code, loaded = loaded_after("certify", "--function", "cube", "--s", "1")
    assert code == 0
    assert loaded == set()


def test_check_identity_loads_neither_sweep_nor_operators():
    code, loaded = loaded_after("check-identity", "--function", "square",
                                "--interval", "0,1", "--alpha", "0.5")
    assert code == 0
    assert loaded.isdisjoint({"fracineq.sweep", "fracineq.fracint"})


def test_every_public_name_and_submodule_resolves():
    for name in fracineq.__all__:
        assert getattr(fracineq, name) is not None, name
    assert fracineq.run_sweep is fracineq.sweep.run_sweep
    assert fracineq.left_rl is fracineq.fracint.left_rl
    assert fracineq.__version__ == "0.1.0"
    assert set(fracineq.__all__) <= set(dir(fracineq))
    assert "sweep" in dir(fracineq)
    namespace = {}
    exec("from fracineq import *", namespace)
    assert set(fracineq.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fracineq.no_such_name  # noqa: B018
    assert not hasattr(fracineq, "no_such_name")


def test_gauss_legendre_literals_are_leggauss_bits():
    import numpy as np

    from fracineq.quadrature import _NODES, _WEIGHTS, PANEL_ORDER

    nodes, weights = np.polynomial.legendre.leggauss(PANEL_ORDER)
    assert np.array(_NODES).tobytes() == nodes.tobytes()
    assert np.array(_WEIGHTS).tobytes() == weights.tobytes()


def test_lookup_certifies_one_entry_once(monkeypatch):
    grids = []

    def counting(*args, **kwargs):
        grids.append(args)
        return cert_grid(*args, **kwargs)

    cert_grid = funclib.cert_grid
    monkeypatch.setattr(funclib, "cert_grid", counting)
    monkeypatch.setattr(funclib, "_RESOLVED", {})
    assert funclib.catalog_names()[3] == "cube"
    assert grids == []
    cube = funclib.get_function("cube")
    assert funclib.get_function("cube") is cube
    assert len(grids) == 1
    # parameterised names are memoised the same way
    s_power = funclib.get_function("s_power_0.3")
    assert funclib.get_function("s_power_0.3") is s_power
    assert len(grids) == 2


def test_entry_failing_its_declared_class_raises(monkeypatch):
    # -t^2 declared convex: the lookup certifies it, fails, and keeps nothing
    monkeypatch.setitem(funclib._CONVEX_BUILTINS, "neg_square",
                        (lambda t: -t ** 2, lambda t: -2.0 + 0.0 * t))
    monkeypatch.setattr(funclib, "_RESOLVED", {})
    for _ in range(2):
        with pytest.raises(fracineq.DomainError, match="neg_square fails"):
            funclib.get_function("neg_square")
    assert funclib._RESOLVED == {}
