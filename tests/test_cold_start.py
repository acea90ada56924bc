"""Cold start: each CLI command loads only the layers it runs, the package
namespace resolves lazily, a catalog lookup builds its entry and judges no
grid, and ``certify`` judges one grid at any s; every catalog entry is
checked against its declared class here."""

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracineq
from fracineq import funclib

# the directory holding the fracineq package, for the child processes
PACKAGE_PARENT = str(Path(fracineq.__file__).resolve().parent.parent)

WATCHED = ("fracineq.quadrature", "fracineq.sweep", "fracineq.hhbounds",
           "fracineq.fracint", "numpy.polynomial")
CHILD = """
import json, sys
from fracineq.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [m for m in %r if m in sys.modules]}))
""" % (WATCHED,)


def child_env() -> dict:
    """This environment, with the fracineq package first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=PACKAGE_PARENT
                + (os.pathsep + path if path else ""))


def loaded_after(*args):
    """Run ``fracineq.cli.main(args)`` in a fresh interpreter; its exit
    code and which of WATCHED it left in sys.modules."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *args],
                          capture_output=True, text=True, env=child_env(),
                          check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["loaded"])


def test_certify_loads_no_defect_sweep_or_polynomial_layer():
    code, loaded = loaded_after("certify", "--function", "cube", "--s", "1")
    assert code == 0
    assert loaded == set()


def test_certify_at_another_s_loads_no_quadrature_engine():
    # a grid of its own at s = 0.5, still without the engine
    code, loaded = loaded_after("certify", "--function", "cube", "--s", "0.5")
    assert code == 0
    assert loaded == set()


def test_catalog_loads_only_the_certifier():
    child = ("import sys, fracineq\n"
             "fracineq.builtin_catalog()\n"
             "print(' '.join(sorted(m for m in sys.modules\n"
             "                      if m.startswith('fracineq.'))))")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=child_env(), check=True)
    assert proc.stdout.split() == ["fracineq.errors", "fracineq.funclib"]


@pytest.mark.parametrize("name", ["_point_value", "Interval"])
def test_the_read_rule_and_interval_live_in_funclib(name):
    from fracineq import quadrature

    obj = getattr(funclib, name)
    assert obj.__module__ == "fracineq.funclib"
    assert getattr(quadrature, name) is obj
    if name == "Interval":
        assert fracineq.Interval is obj


def test_grid_weight_tables_are_built_when_first_read():
    # importing the certifier builds no table of the grid's weights lam^s;
    # the first certification builds its s order's table
    child = ("import fracineq.funclib as f\n"
             "before = f._grid_tables.cache_info().currsize\n"
             "f.certify_s_convex(lambda t: t * t, f.Interval(0.0, 1.0), 0.5)\n"
             "print(before, f._grid_tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=child_env(), check=True)
    assert proc.stdout.split() == ["0", "1"]


def test_check_identity_loads_neither_sweep_nor_operators():
    code, loaded = loaded_after("check-identity", "--function", "square",
                                "--interval", "0,1", "--alpha", "0.5")
    assert code == 0
    assert loaded == {"fracineq.quadrature", "fracineq.hhbounds"}


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


def test_every_name_in_each_submodule_all_resolves():
    # a name left in a submodule's __all__ after its definition is deleted
    # breaks ``from fracineq.<submodule> import *``
    checked = []
    for name in sorted(fracineq._SUBMODULES):
        module = getattr(fracineq, name)
        if hasattr(module, "__all__"):
            missing = [n for n in module.__all__ if not hasattr(module, n)]
            assert not missing, (name, missing)
            checked.append(name)
    assert checked == ["fracint", "funclib", "hhbounds", "quadrature",
                       "specfun", "sweep"]


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


@pytest.fixture
def grids(monkeypatch):
    """The arguments of every ``funclib.cert_grid`` call of the test, which
    starts from an empty catalog: no entry kept, no builtin tuple built."""
    made = []
    cert_grid = funclib.cert_grid

    def counting(*args, **kwargs):
        made.append(args)
        return cert_grid(*args, **kwargs)

    monkeypatch.setattr(funclib, "cert_grid", counting)
    monkeypatch.setattr(funclib, "_RESOLVED", {})
    funclib.builtin_catalog.cache_clear()
    yield made
    funclib.builtin_catalog.cache_clear()


def test_lookup_builds_no_grid_and_memoises(grids, capsys):
    from fracineq.cli import main

    assert funclib.catalog_names()[3] == "cube"
    assert funclib._RESOLVED == {}
    cube = funclib.get_function("cube")
    assert funclib.get_function("cube") is cube
    # parameterised names are memoised the same way
    s_power = funclib.get_function("s_power_0.3")
    assert funclib.get_function("s_power_0.3") is s_power
    catalog = funclib.builtin_catalog()
    assert catalog[3] is cube and len(catalog) == 9
    config = fracineq.parse_config_text(README_CONFIG)
    assert config.functions == ("square", "cube", "s_power_0.5")
    assert main(["check-identity", "--function", "square", "--interval",
                 "0,1", "--alpha", "0.5"]) == 0
    assert "PASS" in capsys.readouterr().out
    # a refused name raises each time it is asked for and is not kept
    far = "shifted_square_20000000000000"
    for _ in range(2):
        with pytest.raises(fracineq.DomainError, match=f"^{far}: .*too narrow"):
            funclib.get_function(far)
    assert far not in funclib._RESOLVED
    assert grids == []


# family members at several s and shifts, beside the nine builtin entries
FAMILY_NAMES = ([f"{family}_{s:f}" for family in ("s_power", "root_power")
                 for s in (1e-6, 0.001, 0.3, 0.5, 1.0)]
                + [f"shifted_square_{a:.0f}" for a in (0, 1, 1e6, 1e13)])


def _failing_their_declared_class(names) -> list[str]:
    return [name for name in names
            if not funclib.certify_declared(funclib.get_function(name))]


def test_every_catalog_entry_certifies_its_declared_class(monkeypatch):
    # a lookup judges no grid, so this is where a declared class is held to
    names = funclib.catalog_names() + FAMILY_NAMES
    assert len(names) == 23
    assert _failing_their_declared_class(names) == []
    # and it flags an entry that fails: -t^2 declared convex
    monkeypatch.setitem(funclib._CONVEX_BUILTINS, "neg_square",
                        (lambda t: -t ** 2, lambda t: -2.0 + 0.0 * t))
    monkeypatch.setattr(funclib, "_RESOLVED", {})
    assert _failing_their_declared_class([*names, "neg_square"]) == [
        "neg_square"]


# ---------------------------------------------------------------------------
# the records are validated NamedTuples, and no module creates a dataclass

README_CONFIG = """\
functions = square cube s_power_0.5
intervals = 0,1 0,2 1,3
alphas    = 0.25 0.5 0.75 1 1.5 2 3
s_values  = 0.25 0.5 0.75 1
p_values  = 1.5 2 3 5
q_values  = 1 2 3
"""

FOOTPRINT = """
import json, sys
import fracineq
from fracineq.cli import main

def footprint(step):
    records = sorted(f"{name}.{attr}" for name, mod in list(sys.modules.items())
                     if name.split(".")[0] == "fracineq"
                     for attr, obj in vars(mod).items()
                     if isinstance(obj, type)
                     and hasattr(obj, "__dataclass_fields__"))
    return [step, "dataclasses" in sys.modules, records]

steps = [footprint("import")]
fracineq.builtin_catalog()
steps.append(footprint("builtin_catalog"))
fracineq.parse_config_text(%r)
steps.append(footprint("parse_config_text"))
main(["certify", "--function", "cube", "--s", "1"])
steps.append(footprint("certify"))
main(["check-identity", "--function", "square", "--interval", "0,1",
      "--alpha", "0.5"])
steps.append(footprint("check-identity"))
import fracineq.fracint, fracineq.hhbounds, fracineq.sweep
steps.append(footprint("every module"))
print(json.dumps(steps))
""" % (README_CONFIG,)


def test_cold_start_creates_no_dataclass():
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True,
                          text=True, env=child_env(), check=True)
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert [step for step, *_ in steps] == [
        "import", "builtin_catalog", "parse_config_text", "certify",
        "check-identity", "every module"]
    for step, loaded, records in steps:
        assert not loaded, step
        assert records == [], step


def _square_d2(t):
    return 2.0 + 0.0 * t


def _records():
    """One instance of each record type, its fields and its defaults;
    built from picklable parts only."""
    from fracineq.funclib import ConvexityClass, TestFunction
    from fracineq.hhbounds import (BoundParams, DefectResult, SandwichResult,
                                   WeightIntegralEntry, WeightIntegralReport)
    from fracineq.quadrature import Interval
    from fracineq.sweep import SweepConfig, SweepReport, parse_config_text

    unit = Interval(0.0, 1.0)
    entry = WeightIntegralEntry("weight_int_plain", 0.5, 0.5, 0.0, True, True)
    config = parse_config_text(README_CONFIG)
    return [
        (unit, ("a", "b"), {}),
        (ConvexityClass("s_convex", 0.5), ("kind", "s"), {"s": None}),
        (TestFunction("sq", math.exp, _square_d2, ConvexityClass("convex"),
                      Interval(0.0, 4.0)),
         ("name", "fn", "d2", "declared_class", "natural_domain"), {}),
        (BoundParams(0.5, 0.5, p=2.0), ("alpha", "s", "p", "q"),
         {"p": None, "q": None}),
        (DefectResult(-0.25, 1e-10, 0.0, 1.0, 0.5, unit),
         ("lhs", "quad_tol_used", "fa", "fb", "alpha", "interval"), {}),
        (SandwichResult(0.5, 0.6, 0.7, 0.5),
         ("lower", "mean", "upper", "upper_classical"), {}),
        (entry, ("check_id", "lhs", "rhs", "margin", "holds",
                 "in_validated_range"), {}),
        (WeightIntegralReport(0.5, 1.0, 2.0, (entry,)),
         ("alpha", "s", "p", "entries"), {}),
        (config, ("functions", "intervals", "alphas", "s_values", "p_values",
                  "q_values", "slack", "quad_tol", "output_format", "seed"),
         {"slack": 1e-8, "quad_tol": 1e-10, "output_format": "csv",
          "seed": 0}),
        (SweepReport(rows=()), ("rows",), {}),
    ]


@pytest.mark.parametrize("index", range(10))
def test_records_keep_their_fields_and_value_semantics(index):
    record, fields, defaults = _records()[index]
    cls = type(record)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    # immutable, and no attribute beyond the fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    # equal, hashed and shown by value, like the frozen dataclasses were
    twin = cls(*record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert record == tuple(record)
    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join(
        f"{name}={getattr(record, name)!r}" for name in fields))
    copied = pickle.loads(pickle.dumps(record))
    assert type(copied) is cls and copied == record


def test_record_defaults_fill_in():
    from fracineq.funclib import ConvexityClass
    from fracineq.hhbounds import BoundParams
    from fracineq.quadrature import Interval
    from fracineq.sweep import SweepConfig

    assert ConvexityClass("convex") == ("convex", None)
    assert BoundParams(0.5, 0.5) == (0.5, 0.5, None, None)
    config = SweepConfig(("square",), (Interval(0.0, 1.0),), (0.5,), (1.0,),
                         (2.0,), (1.0,))
    assert config[6:] == (1e-8, 1e-10, "csv", 0)


def test_convexity_class_text_and_test_function_call():
    from fracineq.funclib import ConvexityClass

    assert str(ConvexityClass("s_convex", 0.5)) == "s_convex(0.5)"
    assert str(ConvexityClass("convex")) == "convex"
    square = funclib.get_function("square")
    assert square(3.0) == 9.0
    assert list(square(np.array([1.0, 2.0]))) == [1.0, 4.0]


def test_test_function_is_not_a_pytest_target(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text("from fracineq.funclib import TestFunction\n\n\n"
                     "def test_nothing():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "-W", "error", str(probe)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "test_probe.py::test_nothing" in proc.stdout
    assert "TestFunction" not in proc.stdout + proc.stderr


def _outcome(make):
    """The record ``make`` builds, or the DomainError it raises."""
    try:
        record = make()
    except fracineq.DomainError as exc:
        return "DomainError", str(exc)
    return type(record), tuple(record)


def _replace_cases():
    from fracineq.funclib import ConvexityClass
    from fracineq.hhbounds import BoundParams
    from fracineq.quadrature import Interval

    nan, inf = math.nan, math.inf
    return [
        (Interval(0.0, 1.0), {"a": (-1.0, 0.5, 1.0, 2.0, -inf, nan),
                              "b": (-1.0, 0.0, 0.5, 3.0, inf, nan)}),
        (ConvexityClass("convex"),
         {"kind": ("convex", "concave", "s_convex", "none", "bogus"),
          "s": (None, 0.25, 1, 0.0, 1.5, nan)}),
        (ConvexityClass("s_concave", 0.5),
         {"kind": ("convex", "s_convex", "s_concave", "none", "bogus"),
          "s": (None, 0.25, 1, 0.0, 1.5, nan)}),
        (BoundParams(1.0, 1.0, p=2.0),
         {"alpha": (0.5, 0.0, -1.0, 2e150, nan),
          "s": (0.25, 1.0, 0.0, 1.5),
          "p": (None, 2.0, 3.0, 1.0, inf),
          "q": (None, 2.0, 1.5, 0.5, inf)}),
        (BoundParams(0.5, 0.5, q=3.0),
         {"alpha": (2.0, 0.0), "s": (0.75, 2.0),
          "p": (None, 1.5, 3.0, 0.5), "q": (None, 1.0, 0.5, 2.0)}),
    ]


def test_replace_on_validating_records_runs_the_constructor():
    from fracineq.hhbounds import BoundParams
    from fracineq.quadrature import Interval

    raised = 0
    for record, values in _replace_cases():
        cls = type(record)
        for name, options in values.items():
            for value in options:
                changed = {**record._asdict(), name: value}
                expected = _outcome(lambda: cls(**changed))
                got = _outcome(lambda: record._replace(**{name: value}))
                assert got == expected, (record, name, value)
                raised += expected[0] == "DomainError"
    assert raised >= 20
    # the two cases NamedTuple's own _replace would let through
    with pytest.raises(fracineq.DomainError, match="a < b"):
        Interval(0.0, 1.0)._replace(b=-1.0)
    with pytest.raises(fracineq.DomainError, match="conjugate"):
        BoundParams(1.0, 1.0, p=2.0)._replace(p=3.0)
    assert BoundParams(1.0, 1.0, p=2.0)._replace(p=3.0, q=None).q == 1.5


# ---------------------------------------------------------------------------
# certify judges one grid at any s, the declared s included


@pytest.mark.parametrize("name, s, made", [
    ("cube", "1", 1), ("cube", "0.5", 1), ("s_power_0.5", "0.5", 1),
    ("s_power_0.5", "1", 1), ("root_power_0.5", "1", 1),
    ("shifted_square_1", "1.0", 1),
])
def test_certify_reuses_the_lookup_verdict_at_the_declared_s(
        grids, capsys, name, s, made):
    # a lookup judges no grid, so certify judges its own one grid at the
    # declared s as at any other
    from fracineq.cli import main

    code = main(["certify", "--function", name, "--s", s])
    printed = capsys.readouterr().out
    assert len(grids) == made
    # the line a fresh certification at that s prints, byte for byte
    f = funclib.get_function(name)
    result = funclib.certify_declared(f, s=float(s))
    label = f"{name} as {f.declared_class.kind} at s={float(s):g}"
    if result.passed:
        assert printed == f"PASS {label} (35937 triples checked)\n"
        assert code == 0
    else:
        w = result.witness
        assert printed == (
            f"FAIL {label}: witness x={w.x:.17g} y={w.y:.17g} "
            f"lam={w.lam:.17g} lhs={w.lhs:.17g} rhs={w.rhs:.17g}\n")
        assert code == 1
