"""Run eval_power over a fixed sweep of 2,916 calls and print, per t, the
calls, their total terms, the refusals, and the width and the count of the
values that coeffs._STORE holds at |t| after the last of them; then one
SHA-256 of every call's report in hex (value, terms_used and tail_bound, or
the type of the error it raised), in sweep order.  Equal digests mean
reports equal bit for bit.

The sweep takes each t below, then each tol, |z|/R and argument of z, in
that order.  --cold clears the store before each call; --shuffle SEED runs
the calls in a shuffled order, but prints and hashes them in sweep order.

    python3 tools/power_sweep.py [--cold] [--shuffle SEED]
"""

import argparse
import cmath
import hashlib
import pathlib
import random
import sys
from fractions import Fraction

sys.path[:0] = [str(pathlib.Path(__file__).resolve().parents[1] / "src")]

from kapteyn import KapteynError, coeffs, eval_power, solve_R_true  # noqa: E402

T = (1e-300, 1e-100, 1e-30, 1e-8, 1e-3, 0.05, 0.1, 0.3, 0.5, 0.9, 0.95, 0.99, 0.995,
     0.999, 0.9999, 1.0, 1.0001, 1.001, 1.005, 1.02, 1.1, 1.5, 3.0, 10.0, -0.5, -1.5, -0.999)
TOLS = (1e-4, 1e-10, 1e-13)
RATIOS = (0.1, 0.5, 0.9, 0.95, 0.98, 0.985)  # |z|/R
ARGS = (0.0, 0.7, 1.2, 1.5, 2.0, 3.0)  # arguments of z

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--cold", action="store_true", help="clear the store before each call")
parser.add_argument("--shuffle", type=int, metavar="SEED", help="run the calls in a shuffled order")
opts = parser.parse_args()

calls = [(t, tol, x, a) for t in T for tol in TOLS for x in RATIOS for a in ARGS]
order = list(range(len(calls)))
if opts.shuffle is not None:
    random.Random(opts.shuffle).shuffle(order)
radius = {t: solve_R_true(abs(t)).radius for t in T}
reports, held = [None] * len(calls), {}
for i in order:
    t, tol, x, a = calls[i]
    if opts.cold:
        coeffs._STORE.clear()
    try:
        rep = eval_power(x * radius[t] * cmath.exp(1j * a), t, tol)
        reports[i] = (rep.value.real.hex(), rep.value.imag.hex(), rep.terms_used,
                      rep.tail_bound.hex())
    except KapteynError as exc:
        reports[i] = (type(exc).__name__,)
    entry = coeffs._STORE.get(Fraction(abs(t)).as_integer_ratio())
    held[t] = (entry[1], entry[2][0]) if entry else ("-", 0)  # (width, values held)

print("t calls terms refused width held")
for t in T:
    mine = [rep for (u, *_), rep in zip(calls, reports) if u == t]
    terms = sum(rep[2] for rep in mine if len(rep) > 1)
    print(f"{t!r} {len(mine)} {terms} {sum(len(rep) == 1 for rep in mine)} {held[t][0]} {held[t][1]}")
text = "".join(" ".join(map(str, rep)) + "\n" for rep in reports)
print("calls", len(calls), "sha256", hashlib.sha256(text.encode()).hexdigest())
