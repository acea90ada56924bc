"""Command-line interface.

Subcommands:
  fracineq sweep --config FILE [--alpha X]... [--interval a,b]...
                 [--function NAME]... [--format csv|json] [--out FILE]
  fracineq check-identity --function NAME --interval a,b --alpha X
  fracineq certify --function NAME --s X

Exit codes: 0 all checks pass, 1 at least one check fails, 2 bad
configuration or arguments (an unreadable config file or an unwritable
--out included; an argument's error names its flag).  The environment
variable FRACINEQ_QUAD_TOL overrides the quadrature tolerance of sweep and
check-identity.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (ConfigError, DomainError, FracineqError, IntegrandError,
                     PreconditionError)
from .funclib import (Interval, _check_resolvable, _check_s, _grid_values,
                      abs_d2, certify_declared, get_function)

# Each command imports the layers it runs when it runs: ``certify`` needs
# only the catalog and the certifier, ``check-identity`` adds the defect
# and identity evaluators with the quadrature engine, and only ``sweep``
# loads the sweep harness.

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracineq",
        description="Verify fractional trapezoid-defect identities and bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured check sweep")
    p_sweep.add_argument("--config", required=True, help="path to config file")
    p_sweep.add_argument("--alpha", action="append", default=None,
                         help="override the alphas list (repeatable)")
    p_sweep.add_argument("--interval", action="append", default=None,
                         metavar="a,b", help="override the intervals list (repeatable)")
    p_sweep.add_argument("--function", action="append", default=None,
                         help="override the functions list (repeatable)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None)
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")

    p_id = sub.add_parser("check-identity",
                          help="check the defect identity for one tuple")
    p_id.add_argument("--function", required=True)
    p_id.add_argument("--interval", required=True, metavar="a,b")
    p_id.add_argument("--alpha", required=True)

    p_cert = sub.add_parser("certify",
                            help="certify a catalog function's declared class")
    p_cert.add_argument("--function", required=True)
    p_cert.add_argument("--s", required=True)

    return parser


def _env_quad_tol(default: float) -> float:
    """The quadrature tolerance: FRACINEQ_QUAD_TOL where it is set, else
    ``default``; a malformed or out-of-range value is a ConfigError naming
    quad_tol."""
    from .quadrature import _check_abs_tol

    raw = os.environ.get("FRACINEQ_QUAD_TOL")
    if raw is None:
        return default
    try:
        return _check_abs_tol(float(raw), "quad_tol")
    except ValueError as exc:
        raise ConfigError("quad_tol",
                          f"FRACINEQ_QUAD_TOL={raw!r}: {exc}") from exc


def _flag(flag: str, check, token: str):
    """``check(token)``; a value out of its domain, or a token ``check``
    cannot read, is a ConfigError naming ``flag``."""
    try:
        return check(token)
    except DomainError as exc:
        raise ConfigError(flag, str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(flag, f"cannot read {token!r} as float") from exc


def _cmd_sweep(args) -> int:
    from .sweep import _load, render_report, run_sweep

    # each flag's tokens replace the file's, and the config is judged once,
    # first; then --out is opened, so an unwritable path costs no sweep
    config = _load(args.config, {
        key: tokens for key, tokens in (
            ("alphas", args.alpha), ("intervals", args.interval),
            ("functions", args.function),
            ("format", args.format and [args.format])) if tokens})
    config = config._replace(quad_tol=_env_quad_tol(config.quad_tol))
    if not args.out:
        report = run_sweep(config)
        sys.stdout.buffer.write(render_report(report, config.output_format))
    else:
        try:
            with open(args.out, "wb") as out:
                report = run_sweep(config)
                out.write(render_report(report, config.output_format))
        except OSError as exc:
            raise ConfigError("--out",
                              f"cannot write {args.out!r}: {exc}") from exc
    return EXIT_FAIL if report.any_fail else EXIT_OK


def _cmd_check_identity(args) -> int:
    from .hhbounds import (DEFAULT_CHECK_SLACK, DEFAULT_QUAD_TOL,
                           defect_identity_rhs, trapezoid_defect)
    from .specfun import check_alpha

    f = _flag("--function", get_function, args.function)
    iv = _flag("--interval", Interval.parse, args.interval)
    _flag("--interval", _check_resolvable, iv)
    alpha = _flag("--alpha", check_alpha, args.alpha)
    quad_tol = _env_quad_tol(DEFAULT_QUAD_TOL)
    # the identity's hypothesis, as in the sweep: |f''| finite on the grid
    try:
        _grid_values(abs_d2(f), iv)
    except IntegrandError as exc:
        raise PreconditionError("identity hypothesis fails: f'' is not finite "
                                f"on [{iv.a}, {iv.b}] ({exc})") from None
    lhs = trapezoid_defect(f, iv, alpha, quad_tol).lhs
    rhs = defect_identity_rhs(f, iv, alpha, quad_tol)
    diff = abs(lhs - rhs)
    slack = DEFAULT_CHECK_SLACK
    ok = diff <= slack
    # repr, so the header names the tuple computed, to the last bit
    print(f"function={f.name} interval=[{iv.a!r},{iv.b!r}] alpha={alpha!r}")
    print(f"defect lhs      = {lhs:.17g}")
    print(f"identity rhs    = {rhs:.17g}")
    print(f"|lhs - rhs|     = {diff:.3e}  ({'PASS' if ok else 'FAIL'} at {slack:g})")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_certify(args) -> int:
    f = _flag("--function", get_function, args.function)
    s = _flag("--s", _check_s, args.s)
    result = certify_declared(f, s=s)
    label = f"{f.name} as {f.declared_class.kind} at s={s:g}"
    if result.passed:
        print(f"PASS {label} ({result.checked} triples checked)")
        return EXIT_OK
    w = result.witness
    print(f"FAIL {label}: witness x={w.x:.17g} y={w.y:.17g} lam={w.lam:.17g} "
          f"lhs={w.lhs:.17g} rhs={w.rhs:.17g}")
    return EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, matching the config-error code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "check-identity":
            return _cmd_check_identity(args)
        return _cmd_certify(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FracineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
