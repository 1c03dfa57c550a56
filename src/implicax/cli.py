"""Command-line surface.

    implicax implicitize problem.txt [--nu N] [--method M] [--seed S]
                                     [--check-eval K] [--format text|json]
                                     [--allow-sub-bound] [--syzygetic]
    implicax analyze     problem.txt [--syzygetic] [--format text|json]
    implicax resultant   problem.txt --kind sylvester|bezout|kravitsky
                                     [--emit-matrix] [--format text|json]

Exit codes: 0 success, 2 parse/usage error, 3 hypothesis violation,
4 internal consistency failure, 5 runtime failure (any other error, such as
the evaluation oracle failing to sample points).  Results go to stdout,
diagnostics to stderr.  The IMPLICAX_SEED environment variable overrides the
default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

from .arith import ParseError, normalize
from .errors import ConsistencyError, HypothesisViolation, ImplicaxError, UsageError
from .linalg import DEFAULT_SEED, det_fraction_free
from .pipeline import analyze, implicitize
from .problems import load_problem
from .resultants import (
    bezout_matrix,
    binary_form,
    curve_implicitize_resultant,
    kravitsky_pencil,
    sylvester_matrix,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_CONSISTENCY = 4
EXIT_RUNTIME = 5


def _default_seed():
    env = os.environ.get("IMPLICAX_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError("IMPLICAX_SEED must be an integer, got %r" % env)
    return DEFAULT_SEED


def build_parser():
    ap = argparse.ArgumentParser(
        prog="implicax",
        description="Exact implicitization of rational curves and surfaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file (text or JSON)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=None)

    p_imp = sub.add_parser("implicitize", parents=[common],
                           help="compute the implicit equation")
    p_imp.add_argument("--nu", type=int, default=None,
                       help="strand degree (default: the proven bound)")
    p_imp.add_argument("--method", choices=("det-complex", "gcd-minors", "resultant"),
                       default="det-complex")
    p_imp.add_argument("--check-eval", type=int, default=20, metavar="K",
                       help="evaluation-oracle sample points (0 disables)")
    p_imp.add_argument("--allow-sub-bound", action="store_true",
                       help="permit strand degrees below the proven bound")
    p_imp.add_argument("--syzygetic", action="store_true",
                       help="include the Koszul-syzygy verdict in diagnostics")

    p_ana = sub.add_parser("analyze", parents=[common],
                           help="base-point diagnostics only")
    p_ana.add_argument("--syzygetic", action="store_true",
                       help="force the Koszul-syzygy test for any shape")

    p_res = sub.add_parser("resultant", parents=[common],
                           help="classical resultant matrices")
    p_res.add_argument("--kind", choices=("sylvester", "bezout", "kravitsky"),
                       required=True)
    p_res.add_argument("--emit-matrix", action="store_true")
    return ap


def _render_text(doc):
    lines = []
    for key, value in doc.items():
        if value is None:
            continue
        if key == "diagnostics":
            lines.append("diagnostics:")
            for k, v in value.items():
                lines.append("  %s: %s" % (k, v))
        elif key == "matrix":
            lines.append("matrix:")
            for row in value:
                lines.append("  [%s]" % ", ".join(row))
        elif key == "minor_sizes":
            lines.append("minor_sizes: %s" % " ".join(str(s) for s in value))
        elif key == "timing_seconds":
            lines.append("timing_seconds: %.3f" % value)
        else:
            lines.append("%s: %s" % (key, value))
    return "\n".join(lines) + "\n"


def _emit(doc, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_text(doc))


def _base_doc(command, problem):
    return {
        "command": command,
        "field": problem.field_spec,
        "implicit": None,
        "reduced": None,
        "exponent": None,
        "degree": None,
        "nu": None,
        "method": None,
        "seed": None,
        "verified": None,
        "minor_sizes": None,
        "dehomogenized": None,
        "kind": None,
        "determinant": None,
        "matrix": None,
        "diagnostics": None,
    }


def cmd_implicitize(args):
    problem = load_problem(args.problem)
    param = problem.parameterization()
    seed = args.seed if args.seed is not None else _default_seed()
    t0 = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = implicitize(
            param,
            nu=args.nu,
            method=args.method,
            seed=seed,
            allow_sub_bound=args.allow_sub_bound,
            check_eval=args.check_eval,
            run_syzygetic=args.syzygetic,
        )
        for w in caught:
            print("warning: %s" % w.message, file=sys.stderr)
    doc = _base_doc("implicitize", problem)
    doc.update(
        implicit=str(result.determinant),
        reduced=str(result.reduced),
        exponent=result.exponent,
        degree=result.degree,
        nu=result.nu_used,
        method=result.method,
        seed=seed,
        verified=result.verified,
        minor_sizes=result.minor_sizes,
        dehomogenized=None if result.dehomogenized is None else str(result.dehomogenized),
        diagnostics=result.report.to_dict(),
        timing_seconds=time.monotonic() - t0,
    )
    _emit(doc, args.format)
    return EXIT_OK


def cmd_analyze(args):
    problem = load_problem(args.problem)
    param = problem.parameterization()
    t0 = time.monotonic()
    report = analyze(param, run_syzygetic=True if args.syzygetic else None)
    doc = _base_doc("analyze", problem)
    doc.update(
        nu=report.nu_bound,
        degree=report.predicted_degree,
        diagnostics=report.to_dict(),
        timing_seconds=time.monotonic() - t0,
    )
    _emit(doc, args.format)
    return EXIT_OK


def cmd_resultant(args):
    problem = load_problem(args.problem)
    t0 = time.monotonic()
    doc = _base_doc("resultant", problem)
    doc["kind"] = args.kind
    if args.kind in ("sylvester", "bezout"):
        if len(problem.polys) != 2:
            raise ParseError("%s needs exactly two polynomials" % args.kind)
        ring = problem.binary_ring()
        try:
            forms = [binary_form(ring, ring.poly(t)) for t in problem.polys]
        except ImplicaxError as exc:
            raise ParseError(str(exc)) from None
        if args.kind == "sylvester":
            matrix = sylvester_matrix(*forms)
        else:
            matrix = bezout_matrix(*forms)
        det = det_fraction_free(matrix)
    else:
        param = problem.parameterization()
        if param.n != 3:
            raise ParseError("kravitsky needs exactly three polynomials")
        out = curve_implicitize_resultant(param)
        matrix = kravitsky_pencil(*[binary_form(param, p) for p in param.polys])
        det = det_fraction_free(matrix)
        doc["dehomogenized"] = str(out.dehomogenized)
        doc["reduced"] = str(normalize(det))
    doc["determinant"] = str(det)
    doc["degree"] = max(det.total_degree(), 0)
    if args.emit_matrix:
        doc["matrix"] = [[str(e) for e in row] for row in matrix.data]
    doc["timing_seconds"] = time.monotonic() - t0
    _emit(doc, args.format)
    return EXIT_OK


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    handler = {
        "implicitize": cmd_implicitize,
        "analyze": cmd_analyze,
        "resultant": cmd_resultant,
    }[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except HypothesisViolation as exc:
        print("hypothesis violation: %s" % exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_CONSISTENCY
    except ImplicaxError as exc:
        print("runtime failure: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
