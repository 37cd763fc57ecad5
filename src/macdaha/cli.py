"""Command-line front end: compute polynomials and coefficients, run the
named verification suites, and emit canonical JSON on standard output.

Exit codes: 0 success (all checks pass), 1 verification failure, 2 usage
error (malformed signatures, non-interlacing pairs, mu outside the
matrix-element window, k < 1, --vars < 1, verify sizes below their minimum,
unknown suite), 3 internal error (any other exception, reported as one
line).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import intertwiner, macops, suites
from .combinat import in_window, interlaces, parse_signature
from .sympoly import npoly_to_json, sym_to_json


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    top = _Parser(prog="macdaha", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    poly = sub.add_parser("poly", help="compute a polynomial")
    poly.add_argument("--lambda", dest="lam", required=True)
    poly.add_argument("--vars", type=int, required=True)
    poly.add_argument("--method", choices=("eigen", "branch", "gt"), default="eigen")
    group = poly.add_mutually_exclusive_group()
    group.add_argument("--generic", action="store_true")
    group.add_argument("--k", type=int)

    psi = sub.add_parser("psi", help="compute a branching coefficient")
    psi.add_argument("--lambda", dest="lam", required=True)
    psi.add_argument("--mu", required=True)
    group = psi.add_mutually_exclusive_group()
    group.add_argument("--generic", action="store_true")
    group.add_argument("--k", type=int)

    mat = sub.add_parser("matelt", help="compute a diagonal matrix element")
    mat.add_argument("--lambda", dest="lam", required=True)
    mat.add_argument("--mu", required=True)
    mat.add_argument("--k", type=int, required=True)
    mat.add_argument("--route", choices=("mat_elt", "diag_sum", "cg_sq"),
                     default="mat_elt")

    tr = sub.add_parser("trace", help="reconstruct a weighted trace")
    tr.add_argument("--lambda", dest="lam", required=True)
    tr.add_argument("--vars", type=int, required=True)
    tr.add_argument("--k", type=int, required=True)
    tr.add_argument("--ratio", action="store_true",
                    help="divide by the zero-weight trace")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite")
    ver.add_argument("--list", action="store_true")
    ver.add_argument("--n", type=int, default=2)
    ver.add_argument("--l", type=int, default=2)
    ver.add_argument("--k", type=int, default=2)
    ver.add_argument("--maxdeg", type=int, default=4)
    ver.add_argument("--samples", type=int, default=10)
    ver.add_argument("--seed", type=int, default=0)
    return top


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def _require_k(k):
    if k < 1:
        raise _UsageError("k must be a positive integer")
    return k


def _signature(text):
    try:
        return parse_signature(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _require_vars(n):
    if n < 1:
        raise _UsageError("--vars must be at least 1")
    return n


def _run(args):
    if args.verb == "poly":
        lam = _signature(args.lam)
        n = _require_vars(args.vars)
        if len(lam) != n:
            raise _UsageError("signature length must equal --vars")
        method = {"eigen": macops.macdonald_eigen,
                  "branch": macops.macdonald_branch,
                  "gt": macops.macdonald_gt}[args.method]
        if args.k is not None:
            _require_k(args.k)
        f = method(lam, n)
        if args.k is not None:
            f = macops.specialize_qk(f, args.k)
        _emit(sym_to_json(f))
        return 0

    if args.verb == "psi":
        lam = _signature(args.lam)
        mu = _signature(args.mu)
        if len(mu) != len(lam) - 1:
            raise _UsageError("mu must be one entry shorter than lambda")
        if not interlaces(mu, lam):
            raise _UsageError("mu must interlace lambda")
        if args.k is not None:
            k = _require_k(args.k)
            value = intertwiner.psi_qnum(lam, mu, k)
            route = "psi_qnum"
        else:
            value = macops.psi_branch(lam, mu)
            route = "psi_branch"
        _emit({"value": str(value), "route": route})
        return 0

    if args.verb == "matelt":
        lam = _signature(args.lam)
        mu = _signature(args.mu)
        if len(mu) != len(lam) - 1:
            raise _UsageError("mu must be one entry shorter than lambda")
        k = _require_k(args.k)
        if not in_window(mu, lam, k):
            raise _UsageError("mu must satisfy lambda_{i+1} - (k-1) <= mu_i <= lambda_i")
        if args.route == "diag_sum":
            value = intertwiner.diag_coeff_sum(mu, lam, k)
        elif args.route == "cg_sq":
            value = intertwiner.c_squared_chain(mu, lam, k)
        else:
            value = intertwiner.mat_elt(mu, lam, k)
        _emit({"value": str(value), "route": args.route})
        return 0

    if args.verb == "trace":
        lam = _signature(args.lam)
        n = _require_vars(args.vars)
        if len(lam) != n:
            raise _UsageError("signature length must equal --vars")
        k = _require_k(args.k)
        if args.ratio:
            _emit(sym_to_json(intertwiner.trace_ratio(lam, n, k)))
        else:
            _emit(npoly_to_json(intertwiner.trace_reconstruct(lam, n, k)))
        return 0

    if args.verb == "verify":
        if args.list:
            _emit({"suites": suites.list_suites()})
            return 0
        if not args.suite:
            raise _UsageError("verify needs --suite NAME or --list")
        _require_k(args.k)
        for name, value, least in (("n", args.n, 1), ("l", args.l, 1),
                                   ("samples", args.samples, 1),
                                   ("maxdeg", args.maxdeg, 0)):
            if value < least:
                raise _UsageError(f"--{name} must be at least {least}")
        if args.suite == "all":
            names = list(suites.SUITES)
        elif args.suite in suites.SUITES:
            names = [args.suite]
        else:
            raise _UsageError(f"unknown suite {args.suite!r}")
        reports = [suites.run_suite(name, n=args.n, l=args.l, k=args.k,
                                    maxdeg=args.maxdeg, samples=args.samples,
                                    seed=args.seed)
                   for name in names]
        if len(reports) == 1:
            _emit(reports[0])
        else:
            _emit({"suites": reports, "pass": all(r["pass"] for r in reports)})
        return 0 if all(r["pass"] for r in reports) else 1

    raise _UsageError(f"unknown verb {args.verb!r}")


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
