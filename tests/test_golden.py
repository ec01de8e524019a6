"""CLI stdout compared byte for byte with files recorded before the integer
A_n kernel replaced the Fraction caches (tests/golden/<name>.csv)."""

from pathlib import Path

import pytest

from kapteyn.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "figure1": ["figure", "1", "--samples", "12"],
    "figure2": ["figure", "2"],
    "figure3": ["figure", "3", "--samples", "8"],
    "figure4": ["figure", "4"],
    "coeff60_exact": ["coeff", "60", "--exact"],
    "coeff200": ["coeff", "200"],
    "radius_0.1": ["radius", "0.1"],
    "radius_1": ["radius", "1"],
    "radius_7.5": ["radius", "7.5"],
    "eval_direct": ["eval", "0.3", "0", "1", "--method", "direct"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"{name}.csv").read_bytes()
