"""CLI stdout compared byte for byte with recorded files
(tests/golden/<name>.csv).

Each file was recorded from the code as it stood before a refactor that
had to leave the output unchanged: the figure, coeff, radius and direct
eval cases before the integer A_n kernel replaced the Fraction caches; the
expand cases (on the committed 40-entry input seq40.csv), the figure
cases with an explicit --range, the power eval and the JSON figure before
the coefficient maps took their weights from a_poly and theta_poly, float
t became exact in a_eval_logabs, and figures 1, 3 and 4 moved to one loop;
the eval (both methods, JSON direct), single-entry coeff, single-radius and
figure 2 --range cases before every CLI cell went through one formatter and
eval, radius and expand took their work from tables.  Line 2 of
coeff200.csv was re-recorded when a rational whose float is subnormal
started printing its own digits (-1.13676663124626e-316, as mpmath gives)
instead of the subnormal float's.  eval_direct, eval_direct_json and
eval_both were re-recorded when eval_direct became a trapezoid rule (its
value, node count and bound all changed: F(0.3, 1) now prints 3/14 to all
15 digits), and eval_power and eval_both again when eval_power's
tail_bound gained a rounding term (its value and term count are as
before).  figure1, figure2, figure3, their --range cases, eval_power and
eval_both were re-recorded when ln|A_n(t)| came to be taken from the ratio
of the top bits of its numerator and denominator rather than as the
difference of their logs, and the stream behind eval_power and figure 2
to be summed in certified fixed precision: only last digits moved, each
changed coefficient cell no farther from mpmath than before, and
eval_power's tail_bound moved with its re-derived per-term rounding.
figure4, figure4_range and the five radius cases were re-recorded when
solve_r and solve_R came to find their roots by false position
(bessel._widest) instead of bisection: the iterations column now counts
evaluations of the equation, residual cells moved within a few eps, five
radius cells moved in their last digit, and R at t = 1 + 9e-16, where the
large-t equation is flat, by 1e-12 (see CHANGES.md for each cell's
distance from the root).  eval_direct, eval_direct_json and eval_both
were re-recorded when eval_direct came to take its strip at the best of
three fractions of the widest one, with no floor of 33 nodes (F(0.3, 1):
43 -> 25 nodes, now 3.1e-13 from 3/14 with a bound of 4.3e-11), and
eval_power and eval_both when eval_power's stop and tail came to read the
envelope of |A_n(t)| R^n over one swing of its sign (380 terms, one more;
see CHANGES.md for each cell's distance from mpmath).  eval_direct and
eval_direct_json were re-recorded when eval_direct's bound came to be
taken in logs by bessel._plan: tail_bound 4.30158580827171e-11 ->
4.3015858082717e-11, its last digit; the value and node count are as
before.  eval_direct_near (README's 59-node example) was recorded before
that change and pins the plan near the domain's edge.  The five radius
cases and figure4_range were re-recorded when solve_r and solve_R came to
take Newton steps: the iterations column now counts the steps, and one
radius cell moved, R at t = 1.0000000000000009 in figure4_range,
0.999999999898638 -> 0.999999999903901, from 47,406 to 0.58 ulps of the
40-digit root of y - tanh y = ln t, R = 1/cosh y.  figure2_900_1000 was
recorded before the stream's rows became fixed-point integers over one
unit per row; it restarts once, from 256 to 512 bits, with no term count
given.  eval_power and eval_both were re-recorded when eval_power came to
sum A_n - g_n and add the singular part g(z) in closed form: F(1.5, 0.5)
takes 241 terms, not 380, and is 1.16e-10 from a 40-digit sum of exact
terms (1.18e-10 before); the power cells of eval_both take 15 terms, not
16, and are 9.8e-16 from mpmath's Kapteyn sum (1.3e-14 before).
eval_power was re-recorded when eval_power came to subtract the second
term M (1 - z/z0)^(1/2) of the singular part as well: F(1.5, 0.5) takes
149 terms, not 241, and is 1.4e-11 from a 40-digit sum of exact terms
(1.16e-10 before); eval_both, too far in for M, stayed as it was.
eval_power_near was recorded then, at |z|/R = 0.987 for t = 0.3, near
the refusal at 0.98855: 364 terms (773 with K alone), 3.7e-10 from a
40-digit sum of 4000 terms, within its bound of 1.4e-8.  eval_power and
eval_power_near were re-recorded when eval_power came to subtract the
third term P (1 - z/z0)^(3/2) as well: F(1.5, 0.5) takes 101 terms, not
149, and is 7.8e-11 from a 40-digit sum of exact terms (1.4e-11 before,
its bound 2.6e-9); eval_power_near takes 173, not 364, 3.3e-10 from the
sum (3.7e-10 before), its bound 1.2e-8.  eval_power_real was recorded
then, at a real singularity near the radius: F(0.52, 1.5), |z|/R =
0.986, 116 terms (261 before), 1.3e-8 from a 40-digit sum, within its
bound of 7.6e-8.  eval_power, eval_power_near and eval_power_real were
re-recorded when eval_power came to subtract the fourth term Q (1 -
z/z0)^(5/2) as well: F(1.5, 0.5) takes 78 terms, not 101, and is 6.7e-11
from a 40-digit sum of exact terms (7.8e-11 before, its bound 2.5e-9);
eval_power_near takes 101, not 173, 2.6e-10 from the sum (3.3e-10
before), its bound 1.1e-8; eval_power_real takes 66, not 116, 5.4e-9 from
the sum (1.3e-8 before), its bound 6.2e-8.  eval_both stayed as it was.
eval_power, eval_power_near and eval_power_real were re-recorded when
eval_power came to subtract the fifth term S (1 - z/z0)^(7/2) wherever
it subtracts Q: F(1.5, 0.5) takes 62 terms, not 78, and is 4.7e-11 from a
40-digit sum of exact terms (6.7e-11 before), its bound 2.1e-9;
eval_power_near takes 69, not 101, 1.6e-10 from the sum (2.6e-10
before), its bound 9.6e-9; eval_power_real takes 37, not 66, 1.4e-9 from
the sum (5.4e-9 before), its bound 3.8e-8.  eval_both stayed as it was.
eval_both was re-recorded when eval_power dropped M's floor of n0 >= 20
and came to subtract M wherever n0 >= 32 |mu|: its power cells take 15
terms, as before, and are 4.4e-17 from a 40-digit sum of exact terms
(9.8e-16 before), their bound 3.6e-15 (8.3e-15 before).
eval_power_above_one was recorded then, at t = 1.001 and tol 1e-13, where
P's rule nu < 0 keeps the rounding down: 386 terms, 1.0e-11 from a
40-digit sum, within its bound of 3.6e-11 (without the rule, 364 terms,
4.4e-9 off, its bound 9.4e-6).  eval_power_near was re-recorded when
domain.singular_part came to return the rungs' ratios from one table,
evaluated by Horner in K^2, and eval_power to read them directly rather
than through M/K and back: value_im 0.859818472224976 ->
0.859818472224977, its last digit; the other cells, and every other case,
are as before.

stream.csv is not CLI output: it holds n, t, ln|A_n(t)| to 15 significant
digits and the sign from coeffs._a_logabs_stream, for n = 1..300 at ten t
on both sides of the rows' 1/8 switch, recorded before the two row formats
came to share one generator and one certificate.  At t = 0.9 it covers a
restart at twice the width.
"""

from itertools import islice
from pathlib import Path

import pytest

from kapteyn.cli import EXIT_OK, main
from kapteyn.coeffs import _a_logabs_stream

GOLDEN = Path(__file__).parent / "golden"
SEQ40 = str(GOLDEN / "seq40.csv")
STREAM_T = [1e-30, 2.0**-40, 0.05, 0.1249, 0.125, 0.3, -0.4, 0.9, 1.5, 20.0]

CASES = {
    "figure1": ["figure", "1", "--samples", "12"],
    "figure2": ["figure", "2"],
    "figure3": ["figure", "3", "--samples", "8"],
    "figure4": ["figure", "4"],
    "figure1_range": ["figure", "1", "--range", "0.2", "5", "--samples", "7"],
    "figure3_range": ["figure", "3", "--range", "0.3", "3", "--samples", "5"],
    "figure4_range": ["figure", "4", "--range", "0.01", "100", "--samples", "9"],
    "figure4_json": ["--json", "figure", "4", "--samples", "5"],
    "figure2_range": ["figure", "2", "--range", "40", "80"],
    "figure2_900_1000": ["figure", "2", "--range", "900", "1000"],
    "coeff60_exact": ["coeff", "60", "--exact"],
    "coeff200": ["coeff", "200"],
    "coeff7_3": ["coeff", "7", "3"],
    "coeff60_5_exact": ["coeff", "60", "5", "--exact"],
    "coeff60_6_exact": ["coeff", "60", "6", "--exact"],
    "radius_0.1": ["radius", "0.1"],
    "radius_1": ["radius", "1"],
    "radius_7.5": ["radius", "7.5"],
    "radius_-2_R": ["radius", "-2", "--which", "R"],
    "radius_0.5_r": ["radius", "0.5", "--which", "r"],
    "eval_direct": ["eval", "0.3", "0", "1", "--method", "direct"],
    "eval_direct_near": ["eval", "0.9", "0", "0.95", "--method", "direct"],
    "eval_power": ["eval", "1.5", "0", "0.5", "--method", "power"],
    "eval_power_near": ["eval", "1.2", "1.526", "0.3", "--method", "power"],
    "eval_power_real": ["eval", "0.52", "0", "1.5", "--method", "power"],
    "eval_power_above_one": ["eval", "0.9401", "0", "1.001", "--method", "power",
                             "--tol", "1e-13"],
    "eval_both": ["eval", "0.2", "0.1", "0.7"],
    "eval_direct_json": ["--json", "eval", "0.3", "0", "1", "--method", "direct"],
    "expand_to_taylor": ["expand", "--direction", "to-taylor", "--input", SEQ40],
    "expand_to_kapteyn": ["expand", "--direction", "to-kapteyn", "--input", SEQ40],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"{name}.csv").read_bytes()


def stream_csv() -> str:
    # n, t, ln|A_n(t)| and sign for n = 1..300 at each of STREAM_T, t by t
    lines = ["n,t,ln_abs,sign"]
    for t in STREAM_T:
        for n, (ln, sign) in enumerate(islice(_a_logabs_stream(t), 300), 1):
            lines.append(f"{n},{t!r},{ln:.15g},{sign}")
    return "\n".join(lines) + "\n"


def test_stream_matches_golden():
    assert stream_csv().encode() == (GOLDEN / "stream.csv").read_bytes()
