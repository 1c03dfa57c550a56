"""Rewrite bench/references.json: the answer digest of every base problem.

Run from the repository root: `python3 bench/make_references.py`.  Each
base problem is solved untransformed by det-complex; curves must give the
same answer by gcd-minors and resultant, and dense quadrics by gcd-minors.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl
from run import import_implicax, parse


def main():
    implicax = import_implicax()
    refs = {}
    for key in wl.all_bases():
        routes = ("det-complex",)
        if not isinstance(key, str):
            routes = wl.ROUTES if key[0].startswith("curve") else ("det-complex", "gcd-minors")
        answers = set()
        for method in routes:
            inp = wl.transformed(key, None, method)
            res = implicax.implicitize(parse(implicax, inp), method=method)
            answers.add((wl.answer(inp, str(res.reduced)), res.degree, res.exponent))
        if len(answers) != 1:
            sys.exit("routes disagree on %s: %s" % (wl.ref_key(key), answers))
        digest, degree, exponent = answers.pop()
        refs[wl.ref_key(key)] = {"digest": digest, "degree": degree, "exponent": exponent}
        print(wl.ref_key(key), refs[wl.ref_key(key)], flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
