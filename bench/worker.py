"""One pass of a workload in a fresh interpreter.

Usage: python3 bench/worker.py < spec.json

The spec names the checkout root, the items, the per-item deadline, and
whether to trace.  Items run one after another in this process (a single
closed-loop caller, no threads).  An item that outlives its deadline is
stopped by SIGALRM inside the process, so the library's caches stay as a
user who gave up on that call would leave them.  The deadline is in
reference seconds (see REF_CAL_S): its wall-clock length follows the
recent calibrations, so a slow stretch of the machine does not turn a
call that finishes in time on a quiet machine into a failure.  One JSON line is printed
per item as it finishes, then a summary line; the parent judges the values.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

# outcome of a call, before any oracle has looked at the value
VALUE = "value"
REFUSED = "refused"
UNTYPED = "untyped"
DEADLINE = "deadline"


# Machine-speed calibration.  The shared machine this benchmark was built on
# runs the same Python code up to 1.8x slower for seconds to minutes at a
# time, so every measured time is also reported scaled by REF_CAL_S / cal,
# where cal is the time of this fixed loop measured next to it.  REF_CAL_S is
# the loop's time in a fast phase of a 2-core Xeon at 2.1 GHz, so scaled
# times read as seconds on that machine when it is quiet.
REF_CAL_S = 0.7e-3
CAL_EVERY_S = 0.02
# bounds on how far the calibration may stretch or shrink a deadline
DEADLINE_SCALE = (0.5, 3.0)


def calibration_s() -> float:
    """Best of two runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc, x = 0, 1.0
        for i in range(10000):
            acc += i * i
            x = x * 1.0000001 + 0.5
        best = min(best, time.perf_counter() - start)
    return best


def wall_deadline(deadline_s: float, cal: list[float]) -> float:
    """The wall-clock length of a deadline of deadline_s reference seconds.

    The median of the last five calibrations sets the machine's speed, so
    that one noisy calibration does not move the deadline.
    """
    lo, hi = DEADLINE_SCALE
    return deadline_s * min(max(statistics.median(cal[-5:]) / REF_CAL_S, lo), hi)


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so library handlers cannot eat it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def run_call(fn, args, deadline_s: float, refusals: tuple) -> tuple[str, object, float]:
    """Call fn(*args) under a deadline; return (outcome, value or error name, seconds)."""
    if signal.getsignal(signal.SIGALRM) is not _on_alarm:
        signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            value = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        outcome = VALUE
    except DeadlineExceeded:
        outcome, value = DEADLINE, "DeadlineExceeded"
    except refusals as exc:
        outcome, value = REFUSED, type(exc).__name__
    except Exception as exc:  # an untyped escape is an outcome to report, not a crash
        outcome, value = UNTYPED, type(exc).__name__
    return outcome, value, time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    VmHWM belongs to the address space made at exec; ru_maxrss would also
    count the parent's size at fork time.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _encode(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if hasattr(value, "value") and hasattr(value, "terms_used"):
        return {"value": [value.value.real, value.value.imag],
                "terms_used": value.terms_used, "tail_bound": value.tail_bound}
    if hasattr(value, "radius"):
        return {"radius": value.radius, "branch": value.branch,
                "residual": value.residual, "iterations": value.iterations}
    return value


def _cli_call(main):
    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return {"exit": code, "stdout": buf.getvalue()}
    return call


def main() -> int:
    spec = json.load(sys.stdin)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import kapteyn
    from kapteyn import cli, domain, series

    if not os.path.abspath(kapteyn.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"kapteyn imported from {kapteyn.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer().install()
    entries = {"eval_power": series.eval_power, "eval_direct": series.eval_direct,
               "solve_r": domain.solve_r, "solve_R": domain.solve_R, "cli": cli.main}
    if tracer:
        entries = {k: tracer.wrap(fn) for k, fn in entries.items()}
    entries["cli"] = _cli_call(entries["cli"])
    refusals = (kapteyn.DomainError, kapteyn.ConvergenceError)

    out = sys.stdout
    pending = []
    cal = []  # calibration times; each item notes the index of the last one before it
    side_s = 0.0  # time spent writing results and calibrating, kept out of the pass time

    def flush():
        nonlocal side_s
        t0 = time.perf_counter()
        for item_id, outcome, value, elapsed, ci, stretch in pending:
            out.write(json.dumps({"id": item_id, "outcome": outcome, "value": _encode(value),
                                  "s": elapsed, "cal": ci, "stretch": stretch}) + "\n")
        out.flush()
        pending.clear()
        side_s += time.perf_counter() - t0

    start = last_flush = last_cal = time.perf_counter()
    cal.append(calibration_s())
    side_s += time.perf_counter() - start
    for item in spec["items"]:
        if time.perf_counter() - last_cal > CAL_EVERY_S:
            t0 = time.perf_counter()
            cal.append(calibration_s())
            last_cal = time.perf_counter()
            side_s += last_cal - t0
        args = item.get("argv")
        args = [args] if args is not None else list(item["args"])
        if item["fn"] in ("eval_power", "eval_direct"):
            args = [complex(args[0], args[1]), args[2]]
        if tracer:
            tracer.item = item["id"]
        deadline = wall_deadline(spec["deadline_s"], cal)
        outcome, value, elapsed = run_call(entries[item["fn"]], args, deadline, refusals)
        if tracer:
            tracer.end_item()
        pending.append((item["id"], outcome, value, elapsed, len(cal) - 1,
                        deadline / spec["deadline_s"]))
        if time.perf_counter() - last_flush > 1.0:  # a pass cut short keeps its results
            flush()
            last_flush = time.perf_counter()
    wall = time.perf_counter() - start - side_s
    cal.append(calibration_s())
    flush()

    summary = {"wall_s": wall, "maxrss_mb": peak_rss_mb(), "cal": cal}
    if tracer:
        tracer.uninstall()
        summary["layers"] = tracer.aggregates()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    out.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
