"""Checks of the benchmark's own parts: its quantile function and its oracle.

Run from the repository root::

    python -m pytest blogbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
from harness import quantile  # noqa: E402
from oracle import check_answers, queens_boards  # noqa: E402


def test_quantile_of_0_to_9999():
    xs = list(range(10_000))
    assert quantile(xs, 0.5) == 4999.5
    assert quantile(xs, 0.99) == pytest.approx(9899.01)
    assert quantile(xs, 0.0) == 0 and quantile(xs, 1.0) == 9999


def test_quantile_small_and_unsorted():
    assert quantile([3.0], 0.99) == 3.0
    assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_queens_board_counts():
    assert queens_boards(4) == {"[2, 4, 1, 3]", "[3, 1, 4, 2]"}
    assert len(queens_boards(6)) == 4
    assert len(queens_boards(8)) == 92


def test_check_answers():
    expected = frozenset({"a", "b"})
    assert check_answers([{"X": "a"}, {"X": "b"}, {"X": "a"}], "X", expected, None) is None
    assert check_answers([{"X": "a"}], "X", expected, None) is not None
    assert check_answers([{"Y": "a"}, {"Y": "b"}], "X", expected, None) is not None
    assert check_answers([{"X": "b"}], "X", expected, 1) is None
    assert check_answers([{"X": "c"}], "X", expected, 1) is not None
    assert check_answers([], "X", frozenset(), 1) is None
    assert check_answers([], "X", expected, 1) is not None


def _queries(w: inputs.Workload) -> list[inputs.Op]:
    ops = list(w.prime)
    for index in range(4):
        for block in (0, inputs.BLOCKS - 1):
            ops += w.round(index, block)
    return [op for op in ops if op.kind == "query"]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_oracle_matches_prolog_baseline(name, seed):
    """The oracle, which never runs the engine, agrees with the repository's
    depth-first Prolog baseline on every query the workload sends."""
    from repro.logic import Program
    from repro.logic.solver import prolog_solutions

    w = inputs.build(name, seed)
    programs = {stem: Program.from_source(src) for stem, src in w.programs.items()}
    for op in _queries(w):
        baseline = {str(s.bindings[op.var]) for s in prolog_solutions(programs[op.program], op.query)}
        assert baseline == set(op.expected), op.query


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    a, b = inputs.build(name, 3), inputs.build(name, 3)
    assert a.programs == b.programs
    assert [op.body for op in _queries(a)] == [op.body for op in _queries(b)]
    assert a.programs != inputs.build(name, 4).programs
