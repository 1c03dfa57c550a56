"""Timing wrappers for the traced run, installed from outside the package.

Each wrapper replaces the module-level name that a caller looks up, such as
`implicax.strands.det_fraction_free`, so the package's own code stays as it
is.  A span records its wall time; a layer's self time is its spans' time
minus the time of the spans opened inside them.  A call into a layer that
is already the innermost open span (a recursive gcd, say) runs unwrapped and
belongs to the outer span.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

SOLVE = "solve"

# per-layer self times, reported as <name>_s
LAYERS = (
    "problems.parse",
    "geometry.analyze",
    "geometry.hilbert",
    "geometry.syzygetic",
    "strands.build",
    "strands.rank_profile",
    "strands.chain",
    "strands.minors_gcd",
    "linalg.bareiss",
    "arith.gcd",
    "arith.quotient",
    "arith.power",
    "resultants.curve",
    "pipeline.verify",
)
COUNTS = (
    "linalg.bareiss_calls",
    "linalg.bareiss_max_n",
    "linalg.bareiss_out_terms",
    "geometry.hilbert_calls",
    "strands.dims_sum",
    "arith.gcd_calls",
    "arith.gcd_by_lines_calls",
)


def _bareiss_sizes(counts, args, out):
    counts["linalg.bareiss_max_n"] = max(counts["linalg.bareiss_max_n"], args[0].rows)
    counts["linalg.bareiss_out_terms"] += len(out.terms)


def _strand_dims(counts, args, out):
    counts["strands.dims_sum"] += sum(out.dims)


def _targets():
    """(span name, [(owner, attribute)], counters bumped per span, on_exit)."""
    from implicax import arith, geometry, linalg, pipeline, problems, resultants, strands

    return [
        ("problems.parse", [(problems, "parse_problem"), (problems.ProblemFile, "parameterization")], (), None),
        ("geometry.analyze", [(pipeline, "analyze_parameterization")], (), None),
        ("geometry.hilbert", [(geometry, "hilbert_value")], ("geometry.hilbert_calls",), None),
        ("geometry.syzygetic", [(geometry, "syzygetic_test")], (), None),
        ("strands.build", [(pipeline, "z_strand")], (), _strand_dims),
        ("strands.rank_profile", [(pipeline, "check_rank_profile"), (strands, "check_rank_profile")], (), None),
        ("strands.chain", [(pipeline, "complex_determinant")], (), None),
        ("strands.minors_gcd", [(pipeline, "gcd_of_maximal_minors")], (), None),
        (
            "linalg.bareiss",
            [(strands, "det_fraction_free"), (resultants, "det_fraction_free"), (linalg, "det_fraction_free")],
            ("linalg.bareiss_calls",),
            _bareiss_sizes,
        ),
        (
            "arith.gcd",
            [(arith, "multivariate_gcd"), (strands, "multivariate_gcd"), (resultants, "multivariate_gcd")],
            ("arith.gcd_calls",),
            None,
        ),
        (
            "arith.gcd",
            [(strands, "gcd_homogeneous_by_lines")],
            ("arith.gcd_calls", "arith.gcd_by_lines_calls"),
            None,
        ),
        ("arith.quotient", [(strands, "exact_divide")], (), None),
        ("arith.power", [(pipeline, "perfect_power_decompose")], (), None),
        ("resultants.curve", [(pipeline, "curve_implicitize_resultant")], (), None),
        ("pipeline.verify", [(pipeline, "verify")], (), None),
    ]


class Tracer:
    """Self time per span name and counters, kept in memory."""

    def __init__(self):
        self.stack = []  # open spans: [name, time of child spans]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, name, fn, bumps=(), on_exit=None):
        stack = self.stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            for key in bumps:
                self.counts[key] += 1
            if on_exit is not None:
                on_exit(self.counts, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for name, owners, bumps, on_exit in _targets():
                for owner, attr in owners:
                    fn = owner.__dict__[attr]
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self.wrap(name, fn, bumps, on_exit))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
