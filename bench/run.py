"""The kapteyn benchmark: seeded workloads, oracle-checked, with a traced run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of figure_tables, power_disk, direct_domain, radius_grid.  Each
pass runs the workload's fixed item list in a fresh interpreter (one
closed-loop caller, no threads); a run makes a fixed number of passes for
the workload, as many as take S seconds on the reference machine.  Values
are judged by oracles after the passes, outside the timed region.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of traced passes,
interleaved with untraced ones to measure the tracing overhead.  ``all``
runs every workload both ways and prints everything.  A full record, with
metadata, goes to .bench_out/.  See bench/NOTES.md for the metric
definitions and the baseline inventory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path[:0] = [BENCH, SRC]  # the oracles import kapteyn's closed form
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import combine, layer_metrics  # noqa: E402
from worker import (  # noqa: E402
    DEADLINE, REF_CAL_S, REFUSED as CALL_REFUSED, VALUE, calibration_s)

RUN_CAP_S = 150.0       # passes stop starting after this; the run must end < 180 s
SETUP_BATCH = 3   # set-up samples taken at a time, about five times a run
SETUP_MIN = 11
# `python3 -c pass` on a quiet 2-core Xeon at 2.1 GHz: set-up times are
# scaled to this speed of starting a process
REF_START_S = 0.04

OK, REFUSED, FAILED = "ok", "refused", "failed"

END_TO_END = {"wall_s": "s", "item_ms_p50": "ms", "item_ms_p90": "ms", "ok_frac": "1",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {"coeffs.calls": "count", "coeffs.self_s": "s", "coeffs.max_n": "count",
             "coeffs.repeat_frac": "1", "bessel.calls": "count", "bessel.terms": "count",
             "bessel.self_s": "s", "series.calls": "count", "series.outer_terms": "count",
             "series.self_s": "s", "series.refused": "count", "domain.calls": "count",
             "domain.iterations": "count", "domain.max_residual": "1",
             "domain.self_s": "s", "cli.self_s": "s", "trace.overhead_frac": "1"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


# -- running passes --------------------------------------------------------------

def _spawn_worker(items, deadline_s, trace, spans_path, timeout_s):
    spec = {"root": ROOT, "items": items, "deadline_s": deadline_s,
            "trace": trace, "spans_path": spans_path}
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    results, summary = {}, None
    for line in out.splitlines():
        rec = json.loads(line)
        if "summary" in rec:
            summary = rec["summary"]
        else:
            results[rec["id"]] = rec
    if summary is None and proc.returncode not in (0, -9):
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {err.strip()[-500:]}")
    # items the pass never reached (it was cut at the run cap) count as deadline misses
    for item in items:
        results.setdefault(item["id"], {"id": item["id"], "outcome": DEADLINE,
                                        "value": "not reached", "s": deadline_s})
    return results, summary


def _write_csv(path, values):
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(values, start=1):
            fh.write(f"{i},{v!r}\n")


def _parse_csv(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _cli_pass(items, seed, trace, spans_prefix, stop_at):
    """figure_tables: every CLI command in its own fresh process."""
    results, rss, layers = {}, [], []
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    start = time.perf_counter()
    for item in items:
        item = dict(item)
        if "sequence" in item or "doubles" in item:
            if "sequence" in item:
                values = item["sequence"]
            else:
                prev = results[item["doubles"]]
                try:
                    values = [2.0 * float(r[1]) for r in _parse_csv(prev["value"]["stdout"])[1]]
                except (TypeError, KeyError, IndexError, ValueError):
                    values = [0.0]  # the input item failed; this one runs on a stub
            path = os.path.join(tmp, f"expand-{seed}-{item['id']}.csv")
            _write_csv(path, values)
            item["argv"] = [path if a == "{input}" else a for a in item["argv"]]
        spans = f"{spans_prefix}-{item['id']}.jsonl.gz" if spans_prefix else None
        cal = calibration_s()
        t0 = time.perf_counter()
        deadline = workloads.DEADLINE_S["figure_tables"]
        res, summary = _spawn_worker([item], deadline, trace, spans,
                                     min(deadline + 30.0, stop_at - time.monotonic()))
        rec = res[item["id"]]
        rec["s"] = time.perf_counter() - t0  # a CLI user waits for the whole process
        rec["norm_s"] = _scaled(rec, (cal + calibration_s()) / 2)
        results[item["id"]] = rec
        if summary:
            rss.append(summary["maxrss_mb"])
            layers.append(summary.get("layers", {}))
    wall = time.perf_counter() - start
    return results, {"wall_s": wall, "norm_wall_s": sum(r["norm_s"] for r in results.values()),
                     "maxrss_mb": max(rss) if rss else math.nan, "layers": layers}


def _library_pass(workload, items, trace, spans_prefix, stop_at):
    spans = f"{spans_prefix}.jsonl.gz" if spans_prefix else None
    results, summary = _spawn_worker(items, workloads.DEADLINE_S[workload], trace, spans,
                                     stop_at - time.monotonic())
    if summary is None:  # cut at the run cap: no calibration, times stay as measured
        summary = {"wall_s": sum(r["s"] for r in results.values()), "maxrss_mb": math.nan,
                   "cal": []}
    cal = summary["cal"]
    for rec in results.values():
        i = rec.get("cal")
        if i is None or i >= len(cal):
            c = REF_CAL_S
        else:  # the calibrations just before and just after the item
            c = (cal[i] + cal[i + 1]) / 2 if i + 1 < len(cal) else cal[i]
        rec["norm_s"] = _scaled(rec, c)
    raw = sum(r["s"] for r in results.values())
    scale = sum(r["norm_s"] for r in results.values()) / raw if raw > 0 else 1.0
    summary["norm_wall_s"] = summary["wall_s"] * scale
    summary["layers"] = [summary["layers"]] if "layers" in summary else []
    return results, summary


def _scaled(rec, cal_s):
    """An item's time at the reference machine speed (see worker.REF_CAL_S).

    A deadline miss is scaled by the stretch its deadline was given, so it
    reads as the deadline in reference seconds plus the time the alarm took.
    """
    if rec["outcome"] == DEADLINE and rec.get("stretch"):
        return rec["s"] / rec["stretch"]
    return rec["s"] * REF_CAL_S / cal_s


def pass_count(workload, seconds, trace):
    """How many passes a run makes: a fixed number for the workload and --seconds.

    The count does not depend on how fast the machine is, so two runs with
    one seed attempt the same items and fail the same ones.  A traced run
    alternates untraced and traced passes, and makes half as many rounds.
    """
    rounds = seconds / workloads.PASS_S[workload]
    return max(1, int(rounds / 2 if trace else rounds))


def run_passes(workload, seed, seconds, trace):
    """Untraced passes (and, with trace, traced ones interleaved).

    An untraced run also samples set-up time before, between and after its
    passes, so that its median is not taken within one phase of a shared
    machine.
    """
    items = workloads.make_items(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    t_start = time.monotonic()
    stop_at = t_start + RUN_CAP_S
    modes = [False, True] if trace else [False]
    rounds = pass_count(workload, seconds, trace)
    passes, setup = [], []
    next_setup = t_start
    for _ in range(rounds):
        if not trace and time.monotonic() >= next_setup:
            setup += sample_setup(SETUP_BATCH)
            next_setup = time.monotonic() + seconds / 5
        for traced in modes:
            first_traced = traced and not any(p["traced"] for p in passes)
            prefix = os.path.join(OUT, f"spans-{workload}-seed{seed}") if first_traced else None
            if workload == "figure_tables":
                results, summary = _cli_pass(items, seed, traced, prefix, stop_at)
            else:
                results, summary = _library_pass(workload, items, traced, prefix, stop_at)
            passes.append({"traced": traced, "results": results, "summary": summary})
        if time.monotonic() >= stop_at:
            break
    if not trace:
        setup += sample_setup(max(SETUP_BATCH, SETUP_MIN - len(setup)))
    return items, passes, setup


def sample_setup(repeats: int) -> list[float]:
    """Times for a fresh interpreter to import kapteyn and be ready, speed-scaled.

    Each sample is timed next to a bare interpreter start and scaled by it
    to REF_START_S: process start-up slows with the machine much as the
    import does, and unlike the calibration loop, so the ratio holds within
    about 1% while either time alone wanders by a quarter.
    """
    times = []
    for _ in range(repeats):
        bare = _process_s("pass")
        times.append(_process_s("import kapteyn") * REF_START_S / bare)
    return times


def _process_s(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


# -- judging values ----------------------------------------------------------------

class Judge:
    """Maps a raw item result to ok / refused / failed, caching oracle verdicts."""

    def __init__(self, workload, seed, items):
        self.items = {it["id"]: it for it in items}
        self.rng = random.Random(f"oracle:{workload}:{seed}")
        self.cache = {}
        self.rejections = []

    def classify(self, rec, pass_results) -> str:
        outcome = rec["outcome"]
        if outcome == CALL_REFUSED:
            return REFUSED
        if outcome != VALUE:
            return FAILED
        key = (rec["id"], json.dumps(rec["value"], sort_keys=True),
               self._partner_key(rec, pass_results))
        if key not in self.cache:
            try:
                reason = self._check(self.items[rec["id"]], rec["value"], pass_results)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                reason = f"malformed output: {type(exc).__name__}: {exc}"
            self.cache[key] = reason
            if reason:
                self.rejections.append({"id": rec["id"], "reason": reason})
        return FAILED if self.cache[key] else OK

    def _partner_key(self, rec, pass_results):
        item = self.items[rec["id"]]
        if item["fn"] in ("solve_r", "solve_R"):
            p = pass_results.get(item.get("partner"))
            return json.dumps(p and p.get("value"), sort_keys=True)
        return None

    def _check(self, item, value, pass_results) -> str | None:
        """None when the value is accepted, else the reason it is rejected."""
        fn = item["fn"]
        if fn in ("eval_power", "eval_direct"):
            x, y, t = item["args"]
            got = complex(*value["value"])
            try:
                ref = oracles.reference_value(complex(x, y), t)
            except oracles.OracleUnavailable as exc:
                return f"no oracle: {exc}"
            if not oracles.agrees(got, ref):
                return f"{fn}{(x, y, t)} = {got!r}, oracle {ref!r}"
            return None
        if fn in ("solve_r", "solve_R"):
            return self._check_radius(item, value, pass_results)
        return self._check_cli(item, value, pass_results)

    def _check_radius(self, item, value, pass_results):
        t = item["args"][0]
        which = item["fn"][-1]
        radius = value["radius"]
        if not (math.isfinite(radius) and radius > 0.0):
            return f"{item['fn']}({t!r}) radius {radius!r}"
        res = oracles.radius_residual(which, t, radius)
        if not res <= oracles.RESIDUAL_TOL:
            return f"{item['fn']}({t!r}) = {radius!r}: residual {res:.3e}"
        partner = pass_results.get(item.get("partner"))
        if partner and partner["outcome"] == VALUE:
            other = partner["value"]["radius"]
            r, big_r = (radius, other) if which == "r" else (other, radius)
            if not r <= big_r:
                return f"r({t!r}) = {r!r} > R = {big_r!r}"
        return None

    def _check_cli(self, item, value, pass_results):
        if value["exit"] != 0:
            return f"exit {value['exit']}"
        header, rows = _parse_csv(value["stdout"])
        argv = item["argv"]
        if argv[0] == "expand":
            return self._check_expand(item, header, rows, pass_results)
        fid = argv[1]
        lo, hi = float(argv[3]), float(argv[4])
        if fid == "2":
            ns = list(range(int(lo), int(hi) + 1))
            if header != ["n", "ln_abs_A_n", "sign"] or [r[0] for r in rows] != [str(n) for n in ns]:
                return "figure 2: wrong header or n column"
            for i in self.rng.sample(range(len(rows)), 3):
                n = ns[i]
                exact = oracles.coeff_closed_form_sum(n, Fraction(0.1))
                sign = (exact > 0) - (exact < 0)
                if int(rows[i][2]) != sign or not _close(float(rows[i][1]),
                                                         oracles.log_abs(exact)):
                    return f"figure 2 row n={n}: {rows[i]} vs closed form"
            return None
        ts = _log_grid(lo, hi, int(argv[6]))
        if [r[0] for r in rows] != [f"{t:.15g}" for t in ts]:
            return f"figure {fid}: t column differs from the log grid"
        i = self.rng.randrange(len(rows))
        est = math.exp(-oracles.log_abs(
            oracles.coeff_closed_form_sum(500, Fraction(ts[i]))) / 500)
        if not _close(float(rows[i][-1]), est):
            return f"figure {fid} row {i}: estimate {rows[i][-1]} vs closed form {est!r}"
        if fid == "3":
            res = oracles.radius_residual("R", ts[i], float(rows[i][1]))
            if not res <= oracles.RESIDUAL_TOL:
                return f"figure 3 row {i}: R residual {res:.3e}"
        return None

    def _check_expand(self, item, header, rows, pass_results):
        if header != ["index", "value"] or len(rows) != workloads.EXPAND_LEN:
            return "expand: wrong header or length"
        got = [float(r[1]) for r in rows]
        if "sequence" in item:  # to-Taylor: a_k = sum_n alpha_n C_n^k, exactly
            from kapteyn.coeffs import coeff_closed_form
            alpha = [Fraction(v) for v in item["sequence"]]
            for k in range(1, len(alpha) + 1):
                terms = [alpha[n - 1] * coeff_closed_form(k, n) for n in range(1, k + 1)]
                scale = float(sum(abs(x) for x in terms))
                if abs(got[k - 1] - float(sum(terms))) > 1e-12 * max(scale, 1e-300):
                    return f"expand to-taylor index {k}: {got[k - 1]!r}"
            return None
        alpha = self.items[item["doubles"]]["sequence"]  # the round trip returns alpha
        bad = [i for i, (g, a) in enumerate(zip(got, alpha), 1) if abs(g - a) > 1e-9]
        return f"round trip differs at indices {bad}" if bad else None


def _close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _log_grid(lo, hi, count):
    # the CLI's t grid, recomputed here so the printed t column can be checked
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(count)]


# -- metrics -------------------------------------------------------------------------

def _pair_radius_items(items):
    by_t = {}
    for it in items:
        if it["fn"] in ("solve_r", "solve_R"):
            by_t.setdefault(it["args"][0], {})[it["fn"]] = it["id"]
    for it in items:
        if it["fn"] in ("solve_r", "solve_R"):
            other = "solve_R" if it["fn"] == "solve_r" else "solve_r"
            it["partner"] = by_t[it["args"][0]].get(other)


def judge_passes(workload, seed, items, passes):
    _pair_radius_items(items)
    judge = Judge(workload, seed, items)
    for p in passes:
        p["classes"] = {i: judge.classify(rec, p["results"]) for i, rec in p["results"].items()}
    return judge


def end_to_end(passes, setup_s):
    plain = [p for p in passes if not p["traced"]]
    # latency percentiles are taken within each pass, then the median over
    # passes: pooled, the copies of two neighbouring items of a sparse
    # latency distribution decide the percentile by their noise alone
    lat = [[rec["norm_s"] * 1e3 for rec in p["results"].values()] for p in plain]
    classes = [c for p in plain for c in p["classes"].values()]
    values = {
        "wall_s": statistics.median(p["summary"]["norm_wall_s"] for p in plain),
        "item_ms_p50": statistics.median(statistics.median(v) for v in lat),
        "item_ms_p90": statistics.median(_p90(v) for v in lat),
        "ok_frac": classes.count(OK) / len(classes),
        "peak_rss_mb": statistics.median(p["summary"]["maxrss_mb"] for p in plain),
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [layer_metrics(combine(p["summary"]["layers"])) for p in traced]
    values = {k: statistics.median(m.get(k, 0) for m in per_pass)
              for k in PER_LAYER if k != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (
        statistics.median(p["summary"]["norm_wall_s"] for p in traced)
        / statistics.median(p["summary"]["norm_wall_s"] for p in plain) - 1.0)
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def metadata(workload, seed, seconds, trace):
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = 0
    pkg = os.path.join(SRC, "kapteyn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines,
            "deadline_s": workloads.DEADLINE_S[workload]}


def run_workload(workload, seed, seconds, trace):
    items, passes, setup = run_passes(workload, seed, seconds, trace)
    judge = judge_passes(workload, seed, items, passes)
    plain = [p for p in passes if not p["traced"]]
    counts = {c: sum(list(p["classes"].values()).count(c) for p in plain)
              for c in (OK, REFUSED, FAILED)}
    raw = {}
    for p in plain:
        for i, rec in p["results"].items():
            key = rec["outcome"] if rec["outcome"] != VALUE else p["classes"][i]
            raw[key] = raw.get(key, 0) + 1
    if trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, statistics.median(setup))
    result = {"correct": not judge.rejections,
              "attempted": sum(counts.values()), "failed": counts[FAILED],
              "metrics": metrics}
    record = {"meta": metadata(workload, seed, seconds, trace), "result": result,
              "passes": len(plain), "traced_passes": len(passes) - len(plain),
              "setup_samples": len(setup),
              "unscaled": {"wall_s": statistics.median(p["summary"]["wall_s"] for p in plain),
                           "item_ms_p50": statistics.median(
                               rec["s"] * 1e3 for p in plain for rec in p["results"].values())},
              "items_per_pass": len(items), "outcomes": counts, "raw_outcomes": raw,
              "shares": {"refused_frac": counts[REFUSED] / result["attempted"],
                         "fail_frac": counts[FAILED] / result["attempted"]},
              "rejections": judge.rejections[:50],
              "first_pass": sorted((i, p["classes"][i], rec["outcome"], round(rec["s"] * 1e3, 4))
                                   for i, rec in plain[0]["results"].items())}
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def _print_table(workload, record):
    meta, result = record["meta"], record["result"]
    print(f"# {workload} seed={meta['seed']} trace={meta['trace']} passes={record['passes']}"
          f" items/pass={record['items_per_pass']} outcomes={record['raw_outcomes']}"
          f" python={meta['python']} nproc={meta['nproc']} src_lines={meta['src_lines']}"
          f" commit={meta['commit'][:12]}")
    for name, m in result["metrics"].items():
        print(f"  {workload:14s} {name:22s} {m['value']:.6g} {m['unit']}")
    for name, share in record["shares"].items():
        print(f"  {workload:14s} {name:22s} {share:.6g} 1 (unbounded; see NOTES.md)")
    for rej in record["rejections"][:5]:
        print(f"  rejected: {rej}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kapteyn", "__init__.py")):
        print(f"no kapteyn package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_table(args.workload, record)
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, record = run_workload(workload, args.seed, args.seconds, trace)
            _print_table(workload, record)
            combined["correct"] &= result["correct"]
            if not trace:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
