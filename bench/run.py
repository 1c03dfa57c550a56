"""Benchmark of implicax.implicitize() on seeded workloads.

Run from the repository root; the package is imported from src/:

    python3 bench/run.py --workload sparse-maps --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One run builds the seed's inputs, times set-up in fresh processes, then
solves rounds of inputs for --seconds in this single process, checking every
answer against references.json.  --trace 0 reports the end-to-end metrics.
--trace 1 repeats the first round, solving each input untraced and then
traced, and reports per-layer self times and counts; the counts must repeat
exactly in every round.  The last line of output is one JSON object.
`--workload all` runs every workload in both modes, runs each traced run a
second time under another PYTHONHASHSEED and compares the counts, and exits
non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 11


def import_implicax():
    if not os.path.isfile(os.path.join(SRC, "implicax", "__init__.py")):
        sys.exit("bench: no implicax package under %s" % SRC)
    sys.path.insert(0, SRC)
    import implicax.problems

    return implicax


def parse(implicax, inp):
    return implicax.problems.parse_problem(inp.text).parameterization()


def setup_probe(workload, seed):
    """Print what a fresh process pays to import implicax and build and parse
    the first round's inputs, in reference seconds (see untraced())."""
    before = host_speed(SLICE_MIN_S)
    t0 = perf_counter()
    implicax = import_implicax()
    for inp in wl.round_inputs(workload, seed, 0):
        parse(implicax, inp)
    dt = perf_counter() - t0
    print(dt * (before + host_speed(SLICE_MIN_S)) / 2)


def setup_seconds(workload, seed):
    """Median over fresh processes of their set-up time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        times.append(float(out.stdout))
    return statistics.median(times)


class Checker:
    """Compares each answer with the reference of its base problem."""

    def __init__(self):
        self.refs = wl.load_references()
        self.failed = 0
        self.attempted = 0

    def solve(self, implicitize, inp, param):
        """(seconds, answer) of one verified solve, or (seconds, None) on failure."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            res = implicitize(param, method=inp.method, run_syzygetic=inp.syzygetic)
            dt = perf_counter() - t0
            got = (wl.answer(inp, str(res.reduced)), res.degree, res.exponent) if res.verified else None
        except Exception:
            dt = perf_counter() - t0
            traceback.print_exc()
            got = None
        ref = self.refs[wl.ref_key(inp.base)]
        if got == (ref["digest"], ref["degree"], ref["exponent"]):
            return dt, got
        self.failed += 1
        print("FAILED %s (%s): got %s, want %s" % (inp.tag, wl.ref_key(inp.base), got, ref), file=sys.stderr)
        return dt, None


def run_rounds(seconds, one_round):
    """Call one_round(index) until the next round would end past `seconds`."""
    start = perf_counter()
    index = 0
    last = 0.0
    while index == 0 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        one_round(index)
        last = perf_counter() - t0
        index += 1


def tail(times):
    """(p90 by nearest rank, the number of solves above it).

    A round holds one solve of each input, and inputs of different cost
    form separate bands of times.  A fixed percentile lies in the same band
    however many rounds fit in a run; a percentile chosen by the number of
    solves above it jumps between bands as that number changes.
    """
    ordered = sorted(times)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


# Two sparse polynomials as {monomial key: coefficient}; multiplying them is
# the inner loop of symbolic Bareiss, written here so that the reference does
# not change when the package does.
_REF_A = {i * 7919 % 100003: i % 97 + 1 for i in range(60)}
_REF_B = {i * 104729 % 100019: i % 89 + 1 for i in range(60)}


def _reference_chunk():
    out = {}
    for ma, ca in _REF_A.items():
        for mb, cb in _REF_B.items():
            m = ma + mb
            out[m] = out.get(m, 0) + ca * cb


# Chunks per second of a typical moment of the reference host (Python 3.11,
# 2 vCPUs); a host speed of 1.0 runs the reference loop at this rate.
REFERENCE_RATE = 2000.0
SLICE_MIN_S = 0.02
SLICE_SHARE = 0.1


def host_speed(seconds):
    """This host's current speed, from a fixed pure-Python loop run for `seconds`."""
    t0 = perf_counter()
    chunks = 0
    while True:
        _reference_chunk()
        chunks += 1
        dt = perf_counter() - t0
        if dt >= seconds:
            return chunks / dt / REFERENCE_RATE


def untraced(implicax, args, checker):
    """End-to-end metrics.

    The host's speed drifts by a fifth or more over seconds, so each solve's
    wall time is scaled by the host speed sampled just before and just after
    it: the latency metrics are in reference seconds (ref_s), the time the
    solve would take on the reference host at speed 1.0.
    """
    wall, scaled, by_tag, rates = [], [], {}, []
    before = host_speed(SLICE_MIN_S)
    peak_mb = 0.0

    def one_round(index):
        nonlocal before, peak_mb
        solved, busy = 0, 0.0
        for inp in wl.round_inputs(args.workload, args.seed, index):
            dt, got = checker.solve(implicax.implicitize, inp, parse(implicax, inp))
            after = host_speed(max(SLICE_MIN_S, SLICE_SHARE * dt))
            busy += dt * (before + after) / 2
            if got is not None:
                solved += 1
                wall.append(dt)
                scaled.append(dt * (before + after) / 2)
                by_tag.setdefault(inp.tag, []).append(dt)
            before = after
        rates.append(solved / busy)
        if index == 0:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_rounds(args.seconds, one_round)
    for tag, ts in sorted(by_tag.items()):
        print("  class %-34s n=%-4d median %.4f s wall" % (tag, len(ts), statistics.median(ts)))
    value, above = tail(scaled)
    print("  wall: median %.4f s, tail %.4f s, %.4f solves/s" % (statistics.median(wall), tail(wall)[0], len(wall) / sum(wall)))
    print("  host speed %.3f (median ratio of ref_s to wall s)" % statistics.median(r / w for r, w in zip(scaled, wall)))
    print("  solve_s_tail is p90 of %d solves, %d above it" % (len(scaled), above))
    print("  peak RSS %.1f MB after the first round, %.1f MB at the end" % (peak_mb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
    print("  fail_ratio = %.4f ratio (%d of %d)" % (checker.failed / checker.attempted, checker.failed, checker.attempted))
    return {
        "solve_s_p50": (statistics.median(scaled), "ref_s"),
        "solve_s_tail": (value, "ref_s"),
        "solves_per_s": (statistics.median(rates), "1/ref_s"),
        "setup_s": (setup_seconds(args.workload, args.seed), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced(implicax, args, checker):
    from tracer import COUNTS, LAYERS, SOLVE, Tracer

    inputs = wl.round_inputs(args.workload, args.seed, 0)
    plain, spanned = [], []
    rounds = []

    def one_round(index):
        tracer = Tracer()
        for inp in inputs:
            with tracer.installed():
                param = parse(implicax, inp)
            dt, want = checker.solve(implicax.implicitize, inp, param)
            plain.append(dt)
            with tracer.installed():
                dt, got = checker.solve(tracer.wrap(SOLVE, implicax.implicitize), inp, param)
            spanned.append(dt)
            if got != want:
                print("FAILED %s: traced answer %s, untraced %s" % (inp.tag, got, want), file=sys.stderr)
                checker.failed += 1
        rounds.append(tracer)

    run_rounds(args.seconds, one_round)
    counts = {key: rounds[0].counts[key] for key in COUNTS}
    for i, tracer in enumerate(rounds[1:], 1):
        again = {key: tracer.counts[key] for key in COUNTS}
        if again != counts:
            print("FAILED counts of round %d differ: %s vs %s" % (i, again, counts), file=sys.stderr)
            checker.failed += 1
    metrics = {"%s_s" % name: (statistics.median(t.self_s[name] for t in rounds), "s") for name in LAYERS}
    metrics.update({key: (value, "count") for key, value in counts.items()})
    uncovered = sum(t.self_s[SOLVE] for t in rounds)
    metrics["trace.overhead_s"] = (statistics.median(spanned) - statistics.median(plain), "s")
    metrics["trace.coverage"] = (1.0 - uncovered / sum(spanned), "ratio")
    print("  %d rounds of %d inputs, each solved untraced and traced" % (len(rounds), len(inputs)))
    return metrics


def run_all(args):
    """Every workload in both modes; traced counts compared across hash seeds."""
    ok = True
    for workload in wl.WORKLOADS:
        counts = []
        for trace, hashseed in ((0, "0"), (1, "1"), (1, "2")):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
            print(out.stdout, end="", flush=True)
            ok = ok and out.returncode == 0
            if trace and out.returncode == 0:
                metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
                counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
        if len(counts) == 2 and counts[0] != counts[1]:
            print("FAILED %s: counts differ across PYTHONHASHSEED: %s" % (workload, counts), file=sys.stderr)
            ok = False
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    implicax = import_implicax()
    checker = Checker()
    mode = traced if args.trace else untraced
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    metrics = mode(implicax, args, checker)
    for name, (value, unit) in metrics.items():
        print("  %-26s %.6g %s" % (name, value, unit))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
