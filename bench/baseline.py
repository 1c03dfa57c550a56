"""Time the rows of the ROADMAP baseline table, one implicitize() call each.

Run from the repository root: `python3 bench/baseline.py`.  The dense rows
use this benchmark's generator (dense cubic forms, coefficients 1..5),
which is not the generator behind the ROADMAP's figures.
"""

from __future__ import annotations

import os
import platform
from time import perf_counter

import workloads as wl
from run import import_implicax, parse

ROWS = [
    ("curve_conic", ("det-complex", "gcd-minors")),
    ("curve_with_base_point", ("det-complex", "gcd-minors")),
    ("surface_quadric", ("det-complex", "gcd-minors")),
    ("surface_cubic", ("det-complex", "gcd-minors")),
    ("surface_lci", ("det-complex", "gcd-minors")),
    (("surface3", wl.QQ), ("det-complex",)),
    (("surface3", wl.GF), ("det-complex",)),
]


def main():
    implicax = import_implicax()
    print("python %s, nproc %d" % (platform.python_version(), os.cpu_count()))
    print("| input | method | strand dims | seconds |")
    print("|---|---|---|---|")
    for key, methods in ROWS:
        for method in methods:
            inp = wl.transformed(key, None, method)
            param = parse(implicax, inp)
            t0 = perf_counter()
            res = implicax.implicitize(param, method=method)
            dt = perf_counter() - t0
            dims = implicax.z_strand(param, res.nu_used).dims
            print("| %s | %s | %s | %.3f |" % (wl.ref_key(key), method, dims, dt), flush=True)


if __name__ == "__main__":
    main()
