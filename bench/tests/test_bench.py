"""Self-tests of the benchmark: outcome classes, oracles, seeding, tracing.

Run from the repository root with: python3 -m pytest bench/tests -q
"""

import dataclasses
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import kapteyn  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import (  # noqa: E402
    DEADLINE, REF_CAL_S, REFUSED, UNTYPED, VALUE, _encode, run_call, wall_deadline)

REFUSALS = (kapteyn.DomainError, kapteyn.ConvergenceError)
POINT = {"id": 0, "fn": "eval_direct", "args": [0.2, 0.1, 0.7]}


def classify(item, outcome, value):
    judge = run.Judge("test", 0, [item])
    rec = {"id": item["id"], "outcome": outcome, "value": _encode(value), "s": 0.0}
    return judge.classify(rec, {item["id"]: rec})


def _raise(exc):
    raise exc


def _spin():
    while True:
        pass


def test_untyped_exception_fails():
    outcome, value, _ = run_call(lambda: _raise(OverflowError("boom")), (), 1.0, REFUSALS)
    assert (outcome, value) == (UNTYPED, "OverflowError")
    assert classify(POINT, outcome, value) == run.FAILED


def test_deadline_miss_fails_and_stops_promptly():
    outcome, _, elapsed = run_call(_spin, (), 0.05, REFUSALS)
    assert outcome == DEADLINE
    assert 0.05 <= elapsed < 1.0
    assert classify(POINT, outcome, None) == run.FAILED


def test_perturbed_value_fails_and_true_value_passes():
    outcome, report, _ = run_call(kapteyn.eval_direct, (0.2 + 0.1j, 0.7), 5.0, REFUSALS)
    assert outcome == VALUE
    assert classify(POINT, outcome, report) == run.OK
    perturbed = dataclasses.replace(report, value=report.value * (1 + 1e-6))
    assert classify(POINT, outcome, perturbed) == run.FAILED


def test_deadline_stretches_with_a_slow_machine():
    slow = 2 * REF_CAL_S  # a calibration loop running at half the reference speed
    assert wall_deadline(1.0, [REF_CAL_S, slow, slow]) == 2.0
    assert wall_deadline(1.0, [100 * REF_CAL_S]) == 3.0  # but not without limit
    # a miss stopped at the stretched deadline reads as the deadline itself
    assert run._scaled({"outcome": DEADLINE, "s": 2.0, "stretch": 2.0}, REF_CAL_S) == 1.0
    assert run._scaled({"outcome": VALUE, "s": 1.0}, slow) == 0.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_count_does_not_depend_on_machine_speed(workload):
    plain = run.pass_count(workload, 20, False)
    assert plain >= 1 and run.pass_count(workload, 20, True) == max(1, plain // 2)


def test_malformed_cli_output_fails():
    item = {"id": 0, "fn": "cli", "argv": ["figure", "2", "--range", "1", "5"]}
    assert classify(item, VALUE, {"exit": 0, "stdout": ""}) == run.FAILED


def test_typed_error_is_refused():
    outcome, value, _ = run_call(kapteyn.eval_direct, (3j, 1.0), 1.0, REFUSALS)
    assert (outcome, value) == (REFUSED, "DomainError")
    assert classify(POINT, outcome, value) == run.REFUSED


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert workloads.make_items(workload, 7) == workloads.make_items(workload, 7)
    assert workloads.make_items(workload, 7) != workloads.make_items(workload, 8)


def test_contour_oracle_matches_closed_form_and_power_series():
    z = 0.3 + 0.2j
    assert oracles.agrees(oracles.contour_value(z, 1.0), z / (2 * (1 - z)), 1e-12)
    # past the pole-crossing curve, outside the Kapteyn domain
    z, t = 1.2 + 0.9j, 0.5
    assert oracles.agrees(oracles.contour_value(z, t), kapteyn.eval_power(z, t).value)


def test_tracer_wraps_only_while_installed():
    from kapteyn import cli, coeffs, series

    original = series.a_eval_logabs
    tracer = Tracer().install()
    try:
        assert series.a_eval_logabs is not original
        entry = tracer.wrap(series.eval_power)
        tracer.item = 3
        entry(0.5, 0.5)
        assert cli.coeffs.a_eval_logabs is not coeffs.a_eval_logabs
    finally:
        tracer.uninstall()
    assert series.a_eval_logabs is original and cli.coeffs is coeffs
    names = {s[0] for s in tracer.spans}
    assert {"series.eval_power", "domain.solve_R", "coeffs.a_eval_logabs"} <= names
    root = tracer.spans[0]
    assert root[0] == "series.eval_power" and root[3] == -1
    assert all(s[3] == 0 and s[4] == 3 for s in tracer.spans[1:])
    agg = tracer.aggregates()
    assert agg["series.calls"] == 1 and agg["series.outer_terms"] > 0
    assert agg["coeffs.calls"] == agg["coeffs.logabs_calls"]
