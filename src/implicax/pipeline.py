"""End-to-end implicitization: analyze, pick a strand degree, compute the
determinant (or minors gcd, or resultant), extract the reduced equation and
the map degree, and verify by evaluation.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from .arith import Poly, _check_characteristic, normalize, perfect_power_decompose, unit_multiple_of
from .errors import ConsistencyError, HypothesisViolation, ImplicaxError, UsageError
from .geometry import BasePointReport, analyze_parameterization
from .linalg import DEFAULT_SEED
from .resultants import curve_implicitize_resultant
from .strands import (
    check_rank_profile,  # no caller here; bench/tracer.py wraps it (ROADMAP item 5 removes it)
    complex_determinant,
    gcd_of_maximal_minors,
    z_strand,
)

__all__ = ["ImplicitResult", "analyze", "implicitize", "verify"]

METHODS = ("det-complex", "gcd-minors", "resultant")


@dataclass
class ImplicitResult:
    """Implicit equation package: determinant = unit * reduced ** exponent."""

    determinant: Poly
    reduced: Poly
    exponent: int
    nu_used: int
    method: str
    report: BasePointReport
    verified: bool
    minor_sizes: list | None = None
    dehomogenized: Poly | None = None  # resultant method only

    @property
    def degree(self):
        return self.determinant.total_degree()


def analyze(param, run_syzygetic=None):
    """Base-point diagnostics; never raises on degenerate input."""
    return analyze_parameterization(param, run_syzygetic=run_syzygetic)


def verify(reduced, param, trials=20, seed=DEFAULT_SEED):
    """Evaluation oracle: reduced(f(x)) == 0 at `trials` random points.

    Points with f identically zero are rejected (resampled); failing to find
    enough valid points is an error.  Everything is evaluated on field
    scalars: the f's at x, then `reduced` at T = f(x).
    """
    if trials < 1:
        raise UsageError("need at least one trial")
    ring = param.ring
    field = ring.field
    rng = random.Random("%s:verify" % (seed,))
    fs = [_scalar_value(f) for f in param.polys]
    value = _scalar_value(reduced)
    t_index = [ring.var_index(nm) for nm in param.t_names()]
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 60 * trials:
            raise ImplicaxError(
                "could not sample %d points off the base locus" % trials
            )
        point = [field.random(rng) for _ in range(ring.nx)] + [0] * (ring.nv - ring.nx)
        vals = [f(point) for f in fs]
        if not any(vals):
            continue
        for i, v in zip(t_index, vals):
            point[i] = v
        if value(point):
            return False
        done += 1
    return True


def _scalar_value(poly):
    """The map from a point (one field scalar per ring variable) to the
    value of `poly` there."""
    p = poly.ring.field.char
    unpack = poly.ring.unpack
    terms = [
        (c, [(i, e) for i, e in enumerate(unpack(m)) if e]) for m, c in poly.terms.items()
    ]

    def value(point):
        total = 0
        for c, factors in terms:
            for i, e in factors:
                c *= pow(point[i], e, p) if p else point[i] ** e
            total += c
        return total % p if p else total

    return value


def implicitize(
    param,
    nu=None,
    method="det-complex",
    seed=DEFAULT_SEED,
    allow_sub_bound=False,
    check_eval=20,
    run_syzygetic=False,
):
    """Compute the implicit equation of the closed image of f.

    Default strand degree is nu0 = (n-2)(d-1) - indeg(I^sat), the sharp
    bound for isolated base points ((n-2)(d-1) without base points); smaller
    degrees sometimes work but must be requested with allow_sub_bound.  The
    result carries the full diagnostics report and the verification status.
    A characteristic at most the predicted degree raises
    SmallCharacteristicError before any method runs, after the usage checks
    of nu and of the method.
    """
    if method not in METHODS:
        raise UsageError("unknown method %r (choose from %s)" % (method, METHODS))
    param.require_map_shape()
    report = analyze(param, run_syzygetic=run_syzygetic)
    if report.base_locus_dim > 0:
        raise HypothesisViolation(
            "positive-dimensional base locus: the strand theorems need "
            "isolated base points"
        )
    if not report.generically_finite:
        raise HypothesisViolation(
            "map is not generically finite (predicted degree 0)"
        )
    bound = report.nu0
    if nu is None:
        nu_used = bound
    else:
        nu_used = nu
        if nu_used < bound:
            if not allow_sub_bound:
                raise UsageError(
                    "degree %d is below the proven bound nu0 = %d; pass "
                    "allow_sub_bound to try it anyway" % (nu_used, bound)
                )
            warnings.warn(
                "strand degree %d below the proven bound nu0 = %d: the method "
                "may fail or give a wrong-degree result" % (nu_used, bound),
                stacklevel=2,
            )
    if method == "resultant" and param.n != 3:
        # the route's own usage check, ahead of the characteristic's
        raise UsageError("resultant implicitization needs exactly 3 polynomials")
    predicted = report.predicted_degree
    # the power extraction would refuse the answer, so no route is run
    _check_characteristic(param.ring.field, predicted)
    minor_sizes = None
    dehom = None
    if method == "resultant":
        out = curve_implicitize_resultant(param)
        det = out.homogeneous
        dehom = out.dehomogenized
    else:
        strand = z_strand(param, nu_used, report)
        if method == "det-complex":
            cd = complex_determinant(strand, seed=seed)
            det = cd.value
            minor_sizes = cd.minor_sizes()
        else:
            det = gcd_of_maximal_minors(strand, report.predicted_degree, seed=seed)
    det = normalize(det)
    if det.total_degree() != predicted:
        raise ConsistencyError(
            "determinant degree %d does not match the predicted degree %d"
            % (det.total_degree(), predicted)
        )
    reduced, exponent = perfect_power_decompose(det)
    if not unit_multiple_of(reduced**exponent, det):
        raise ConsistencyError("power decomposition failed to reproduce the determinant")
    if reduced.total_degree() * exponent != predicted:
        raise ConsistencyError(
            "deg(reduced) * exponent = %d * %d does not match predicted %d"
            % (reduced.total_degree(), exponent, predicted)
        )
    verified = False
    if check_eval:
        if not verify(reduced, param, trials=check_eval, seed=seed):
            raise ConsistencyError(
                "evaluation oracle failed: the computed equation does not "
                "vanish on the parameterization"
            )
        verified = True
    return ImplicitResult(
        determinant=det,
        reduced=reduced,
        exponent=exponent,
        nu_used=nu_used,
        method=method,
        report=report,
        verified=verified,
        minor_sizes=minor_sizes,
        dehomogenized=dehom,
    )
