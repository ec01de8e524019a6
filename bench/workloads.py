"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of items made only from (workload, seed);
the library sees nothing else.  Draws are stratified: the input space is
cut into a grid of equal cells (for a disk, equal-area rings times equal
angles), and each seed places one point uniformly in the central JITTER
share of every cell.  Two seeds therefore give different points with the
same mix of easy, slow and failing items, which keeps outcome shares and
timings steady from seed to seed, and no region of the space is dropped
beyond the grid's resolution.  The order of the items, which decides when
the library's caches warm up, does not change with the seed: a fixed
shuffle, or on power_disk an outward sweep.

An item is a JSON-ready dict: ``{"id", "fn", "args"}`` for a library call,
``{"id", "fn": "cli", "argv"}`` for a command-line invocation.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("figure_tables", "power_disk", "direct_domain", "radius_grid")

JITTER = 0.05  # share of a cell, along each axis, that its point is drawn from

# Per-item deadline, in reference seconds (worker.wall_deadline stretches it
# in a slow stretch of the machine): a call still running after it has
# failed, and is stopped.  On power_disk a call costs several times more
# than the one a ring further in at its t, as |z| nears the radius of
# convergence.  The slowest calls that finish take up to about 0.31 s on a
# quiet 2-core Xeon, and the quickest that do not would take about 1.3 s;
# 0.62 s sits twofold from both, so the same calls miss it in every run even
# though the machine's speed wanders by a fifth within a second.
# direct_domain's slowest legitimate calls (2000 outer terms, then a typed
# refusal) take about 0.7 s, far below its 2.5 s.  A CLI command is one
# whole process.
DEADLINE_S = {"figure_tables": 60.0, "power_disk": 0.62, "direct_domain": 2.5,
              "radius_grid": 1.0}

# Seconds one pass takes on the reference machine (worker.REF_CAL_S), with
# its process start and result output; a run makes seconds // PASS_S passes.
PASS_S = {"figure_tables": 2.8, "power_disk": 9.0, "direct_domain": 7.5,
          "radius_grid": 0.3}

# power_disk: nominal t values, each jittered by up to +-0.1% per seed, and 12
# rings of area-uniform points per t.  0.1 is the t where the stated radius
# 3.0006 overshoots the nearest singularity (modulus 2.8652), so the annulus
# between them is drawn every time.  The rings are coarse so that the cost of
# a call steps by a large factor from one ring to the next, and the t are
# ones where no step lands near the deadline (at t = 0.2 and 0.45 one does).
POWER_T = (0.1, 0.3, 0.35, 0.7, 0.8, 0.9)
POWER_Z_PER_T = 12

# direct_domain: one jittered point per cell of a grid over
# t in [-2, 2] x Re z in [-4, 4] x Im z in [-4, 4]; points outside the
# Kapteyn domain or beyond the library's |z| <= 4 are not drawn.
DIRECT_GRID = 11
DIRECT_T_MAX = 2.0
DIRECT_Z_MAX = 4.0

# radius_grid: t log-spaced over twelve decades, plus a dense cluster and
# the exact value at the t = 1 seam where the two R(t) branches meet.
RADIUS_DECADES = (-6.0, 6.0)
RADIUS_T_COUNT = 1500
RADIUS_SEAM_COUNT = 60

# figure_tables: CLI invocations; ranges are jittered, sizes fixed, so the
# amount of exact-rational work is the same for every seed.
FIG_T_RANGE = (0.05, 20.0)
FIG1_SAMPLES = 8
FIG3_SAMPLES = 6
FIG2_N_HI = 200
EXPAND_LEN = 12

_SMALL_T_PREFACTOR = math.exp(-math.sqrt(2.0)) * (1.0 + math.sqrt(2.0))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _cell(i: int, count: int, rng: random.Random) -> float:
    """A point of cell i of count equal cells of [0, 1), drawn near its centre."""
    return (i + 0.5 + JITTER * (rng.random() - 0.5)) / count


def stated_radius(t: float) -> float:
    """R(t) for 0 < t < 1 from the paper's small-t equation, by bisection.

    Independent of the library's solver; used only to size the power_disk
    draw, so the library receives nothing but the drawn points.
    """
    def lhs(x):
        s = math.sqrt(1.0 + x * x)
        return _SMALL_T_PREFACTOR * x * math.exp(s) / (1.0 + s) * t

    lo, hi = 0.0, 1.0
    while lhs(hi) < 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def omega(z: complex) -> float:
    """Kapteyn modulus |z e^s / (1 + s)|, s = sqrt(1 - z^2) with Re s >= 0."""
    if z == 0:
        return 0.0
    s = cmath.sqrt(1.0 - z * z)
    if s.real < 0.0 or (s.real == 0.0 and s.imag < 0.0):
        s = -s
    return abs(z) * math.exp(s.real) / abs(1.0 + s)


def _power_disk(rng: random.Random) -> list[dict]:
    layout = random.Random("power_disk:layout")
    rings = [[] for _ in range(POWER_Z_PER_T)]
    for base in POWER_T:
        t = base * (1.0 + 0.002 * (rng.random() - 0.5))
        radius = stated_radius(t)
        m = POWER_Z_PER_T
        angle_strata = list(range(m))
        layout.shuffle(angle_strata)
        for i in range(m):
            # area-uniform: |z|^2 / R^2 is uniform, one draw per stratum
            mod = radius * math.sqrt(_cell(i, m, rng))
            ang = 2.0 * math.pi * _cell(angle_strata[i], m, rng)
            z = cmath.rect(mod, ang)
            rings[i].append({"fn": "eval_power", "args": [z.real, z.imag, t]})
    # an outward sweep, the t taking turns: a call stopped at its deadline
    # is followed at its t only by points farther out, which need more
    # coefficients than it was computing, so how far it got before it was
    # stopped does not decide whether a later call finishes in time
    return [item for ring in rings for item in ring]


def _direct_domain(rng: random.Random) -> list[dict]:
    g = DIRECT_GRID
    items = []
    for i in range(g):
        for j in range(g):
            for k in range(g):
                t = DIRECT_T_MAX * (2.0 * _cell(i, g, rng) - 1.0)
                x = DIRECT_Z_MAX * (2.0 * _cell(j, g, rng) - 1.0)
                y = DIRECT_Z_MAX * (2.0 * _cell(k, g, rng) - 1.0)
                z = complex(x, y)
                if t != 0.0 and abs(z) <= DIRECT_Z_MAX and omega(z) * abs(t) < 1.0:
                    items.append({"fn": "eval_direct", "args": [x, y, t]})
    random.Random("direct_domain:layout").shuffle(items)
    return items


def _radius_grid(rng: random.Random) -> list[dict]:
    lo, hi = RADIUS_DECADES
    n = RADIUS_T_COUNT
    ts = [10.0 ** (lo + (hi - lo) * _cell(i, n, rng)) for i in range(n)]
    ts += [1.0 + 1e-3 * (2.0 * rng.random() - 1.0) ** 3 for _ in range(RADIUS_SEAM_COUNT)]
    ts.append(1.0)
    items = []
    for t in ts:
        items.append({"fn": "solve_r", "args": [t]})
        items.append({"fn": "solve_R", "args": [t]})
    random.Random("radius_grid:layout").shuffle(items)
    return items


def _jitter(x: float, rng: random.Random, frac: float = 0.05) -> float:
    return x * math.exp(frac * (2.0 * rng.random() - 1.0))


def _figure_tables(rng: random.Random) -> list[dict]:
    lo, hi = FIG_T_RANGE
    fig1 = [_jitter(lo, rng), _jitter(hi, rng)]
    fig3 = [_jitter(lo, rng), _jitter(hi, rng)]
    n_lo = 1 + rng.randrange(20)
    n_hi = FIG2_N_HI + rng.randrange(-1, 2)
    alpha = [round(rng.uniform(-1.0, 1.0), 12) for _ in range(EXPAND_LEN)]
    return [
        {"fn": "cli", "argv": ["figure", "1", "--range", repr(fig1[0]), repr(fig1[1]),
                               "--samples", str(FIG1_SAMPLES)]},
        {"fn": "cli", "argv": ["figure", "2", "--range", str(n_lo), str(n_hi)]},
        {"fn": "cli", "argv": ["figure", "3", "--range", repr(fig3[0]), repr(fig3[1]),
                               "--samples", str(FIG3_SAMPLES)]},
        # the round trip: alpha -> Taylor a, then the doubled a -> Kapteyn;
        # "{input}" is filled in by the runner with a CSV it writes
        {"fn": "cli", "argv": ["expand", "--direction", "to-taylor", "--input", "{input}"],
         "sequence": alpha},
        {"fn": "cli", "argv": ["expand", "--direction", "to-kapteyn", "--input", "{input}"],
         "doubles": 3},
    ]


_MAKERS = {
    "figure_tables": _figure_tables,
    "power_disk": _power_disk,
    "direct_domain": _direct_domain,
    "radius_grid": _radius_grid,
}


def make_items(workload: str, seed: int) -> list[dict]:
    """The fixed, ordered item list of one workload for one seed."""
    items = _MAKERS[workload](rng_for(workload, seed))
    for i, item in enumerate(items):
        item["id"] = i
    return items
