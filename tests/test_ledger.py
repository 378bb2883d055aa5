"""The ledger's fold over canned contract lines.

``benchmarks/ledger.py compare`` runs two revisions in alternating pairs
and folds what each run printed.  The runs are slow and machine-bound;
the fold is pure, and it alone decides what a row claims: who wins a
pair in each metric's direction, that a tie is nobody's win, and which
quartiles the parent's spread is read from.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "ledger.py"
_spec = importlib.util.spec_from_file_location("ledger", _SCRIPT)
ledger = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = ledger  # its dataclasses resolve names through it
_spec.loader.exec_module(ledger)

LOWER = ledger.Metric("converge_s", "s", "lower")
HIGHER = ledger.Metric("rounds_per_s", "1/s", "higher")


def contract_line(**values):
    """One run's stdout, ending in the contract line as run.py prints it."""
    line = {
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "u"} for name, value in values.items()},
    }
    return "warming up\n" + json.dumps(line, separators=(", ", ": ")) + "\n"


def pairs_of(a_values, b_values, name):
    return [
        (
            ledger.parse_contract(contract_line(**{name: a})),
            ledger.parse_contract(contract_line(**{name: b})),
        )
        for a, b in zip(a_values, b_values)
    ]


def test_the_contract_line_is_the_last_line():
    parsed = ledger.parse_contract(contract_line(converge_s=0.25))
    assert parsed["metrics"]["converge_s"]["value"] == 0.25
    with pytest.raises(ValueError):
        ledger.parse_contract("\n")


@pytest.mark.parametrize(
    "metric, a, b, b_wins",
    [
        (LOWER, 0.20, 0.15, True),
        (LOWER, 0.15, 0.20, False),
        (HIGHER, 100.0, 120.0, True),
        (HIGHER, 120.0, 100.0, False),
    ],
)
def test_a_win_follows_the_metric_direction(metric, a, b, b_wins):
    (row,) = ledger.fold(pairs_of([a], [b], metric.name), [metric])
    assert row.wins == (1 if b_wins else 0)
    assert row.pairs == 1


def test_ties_count_for_neither_side():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [1.0, 1.5, 3.0, 5.0]  # tie, win, tie, loss
    (lower,) = ledger.fold(pairs_of(a, b, "converge_s"), [LOWER])
    assert lower.wins == 1
    (higher,) = ledger.fold(pairs_of(a, b, "rounds_per_s"), [HIGHER])
    assert higher.wins == 1
    assert lower.pairs == higher.pairs == 4


def test_medians_quartiles_and_per_pair_ratios():
    a = [0.20, 0.18, 0.22, 0.19, 0.21]
    b = [0.15, 0.14, 0.16, 0.15, 0.17]
    (row,) = ledger.fold(pairs_of(a, b, "converge_s"), [LOWER])
    assert row.a_median == pytest.approx(0.20)
    assert row.b_median == pytest.approx(0.15)
    # statistics.quantiles(n=4), exclusive method: Q1 = 0.185, Q3 = 0.215.
    assert (row.a_q1, row.a_q3) == (pytest.approx(0.185), pytest.approx(0.215))
    assert row.ratio == pytest.approx(0.75)
    assert row.ratios == pytest.approx(tuple(y / x for x, y in zip(a, b)))
    assert row.wins == 5


def test_quartiles_of_an_even_count_and_of_one_run():
    assert ledger.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    assert ledger.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_zero_parent_has_no_ratio_unless_both_are_zero():
    (row,) = ledger.fold(pairs_of([0.0, 0.0], [0.0, 2.0], "converge_s"), [LOWER])
    assert row.ratios == (1.0, None)
    assert row.wins == 0


def test_a_metric_no_run_reports_gets_no_row():
    pairs = pairs_of([1.0], [2.0], "converge_s")
    assert [row.metric for row in ledger.fold(pairs, [LOWER, HIGHER])] == [LOWER]


def test_every_declared_metric_renders():
    metrics, seconds = ledger.declared()
    assert seconds == 35
    assert {m.better for m in metrics} == {"lower", "higher"}
    values = {m.name: 1.0 for m in metrics}
    pairs = [(ledger.parse_contract(contract_line(**values)),) * 2]
    table = ledger.render(ledger.fold(pairs, metrics))
    assert len(table.splitlines()) == 1 + len(metrics)
    assert "×1.000" in table and "0/1" in table
