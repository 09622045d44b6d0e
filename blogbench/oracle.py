"""Answers computed apart from the engine, and the reply checks that use them.

The family relations are computed in plain Python from the generated
instance's ``fathers``/``mothers`` maps; N-queens boards come from a plain
backtracker.  Neither touches ``repro.logic`` or ``repro.core``, so a
reply that agrees with them was not merely agreed with by the engine
that produced it.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["FamilyOracle", "queens_boards", "check_answers"]


class FamilyOracle:
    """``gf``, ``gm``, ``anc`` and ``sib`` of a scaled family, ground first
    argument, as sets of person names."""

    def __init__(self, fathers: dict[str, str], mothers: dict[str, str]):
        self.fchildren: dict[str, list[str]] = {}
        self.mchildren: dict[str, list[str]] = {}
        for child, dad in fathers.items():
            self.fchildren.setdefault(dad, []).append(child)
        for child, mom in mothers.items():
            self.mchildren.setdefault(mom, []).append(child)
        self.fathers = dict(fathers)

    def children(self, person: str) -> list[str]:
        return self.fchildren.get(person, []) + self.mchildren.get(person, [])

    def relation(self, predicate: str, subject: str) -> set[str]:
        if predicate == "gf":  # f(X,Y), f(Y,Z) ; f(X,Y), m(Y,Z)
            return {z for y in self.fchildren.get(subject, []) for z in self.children(y)}
        if predicate == "gm":  # m(X,Y), f(Y,Z) ; m(X,Y), m(Y,Z)
            return {z for y in self.mchildren.get(subject, []) for z in self.children(y)}
        if predicate == "anc":  # transitive closure of f ∪ m
            seen: set[str] = set()
            frontier = self.children(subject)
            while frontier:
                person = frontier.pop()
                if person not in seen:
                    seen.add(person)
                    frontier.extend(self.children(person))
            return seen
        if predicate == "sib":  # f(P,X), f(P,Y), X \= Y
            dad = self.fathers.get(subject)
            if dad is None:
                return set()
            return {y for y in self.fchildren[dad] if y != subject}
        raise ValueError(f"no oracle for {predicate!r}")


def queens_boards(n: int) -> set[str]:
    """Every N-queens board, printed as the program binds ``Qs``:
    ``[r1, r2, ...]``.  The set of boards is closed under reversal, so the
    order in which the program accumulates rows does not matter."""
    boards: set[str] = set()
    rows: list[int] = []

    def place() -> None:
        if len(rows) == n:
            boards.add("[" + ", ".join(map(str, rows)) + "]")
            return
        col = len(rows)
        for row in range(1, n + 1):
            if all(r != row and abs(r - row) != col - c for c, r in enumerate(rows)):
                rows.append(row)
                place()
                rows.pop()

    place()
    return boards


def check_answers(
    answers: object, var: str, expected: frozenset, max_solutions: Optional[int]
) -> Optional[str]:
    """None when ``answers`` (a reply's answer list) is right, else why not.

    All-answers queries must return exactly the expected set (repeated
    proofs of one answer are allowed).  A query capped at ``k`` solutions
    must return members of it: ``k`` of them, or fewer only when the
    search ran out, in which case it found the whole set.
    """
    if not isinstance(answers, list):
        return f"answers is {type(answers).__name__}, not a list"
    got = []
    for answer in answers:
        if not isinstance(answer, dict) or set(answer) != {var}:
            return f"answer {answer!r} does not bind exactly {var}"
        got.append(answer[var])
    values = set(got)
    if max_solutions is None:
        if values != expected:
            return f"answer set {sorted(values)} != expected {sorted(expected)}"
        return None
    if not values <= expected:
        return f"answers {sorted(values - expected)} are not in the expected set"
    if len(got) > max_solutions or (len(got) < max_solutions and values != expected):
        return f"{len(got)} answers for a cap of {max_solutions}: {got}"
    return None
