"""The workloads: generated program files and request streams.

Everything here is a pure function of the workload name and the seed.
The server receives only the program files written from
``Workload.programs`` and the request lines built from ``Op.body``.

Each workload drives one connection.  It repeats *rounds*, a list of
operations; every run attempts whole rounds, so the share
of failed operations cannot depend on the run's length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from oracle import FamilyOracle, queens_boards

__all__ = ["Op", "Workload", "build", "WORKLOADS", "BLOCKS"]

#: the timed phase is this many equal blocks of rounds, with an untimed
#: window after each for the workload's window merges
BLOCKS = 8
#: search-cold sessions that learn one query each before the warm-up
LEARNERS = 96

#: scaled_family arguments: 5 generations of 12 people (60 people,
#: 96 f/m facts under the nine gf/gm/anc/sib rules)
FAMILY_SHAPE = {"generations": 5, "children_per_couple": 2, "couples_per_generation": 6}
#: learn-merge's larger family (6 generations of 96 people, 960 f/m
#: facts).  §5 learning on a fixed program converges: once every arc a
#: goal crosses is known, a session asking it learns nothing and its
#: merge changes nothing.  query_sequence draws from 1152 goals here
#: (384 subjects, three predicates), so sessions keep meeting goals that
#: no earlier session learned well into the timed phase.
LEARN_SHAPE = {"generations": 6, "children_per_couple": 2, "couples_per_generation": 48}

QUEENS_N = 4

#: the N-queens program of repro.workloads.nqueens, as a file the server loads
QUEENS_SOURCE = f"""\
queens(Qs) :- place({QUEENS_N}, [], Qs).
place(0, Acc, Acc).
place(N, Acc, Qs) :-
    N > 0,
    between(1, {QUEENS_N}, Row),
    noattack(Row, Acc, 1),
    M is N - 1,
    place(M, [Row|Acc], Qs).
noattack(_, [], _).
noattack(Row, [Q|Rest], Dist) :-
    Row =\\= Q,
    Diff is Row - Q,
    NegDiff is Q - Row,
    Diff =\\= Dist,
    NegDiff =\\= Dist,
    D2 is Dist + 1,
    noattack(Row, Rest, D2).
"""

VAR_NAMES = ("G", "Who", "X", "Y")


@dataclass(frozen=True)
class Op:
    """One request: its JSON body (all keys but ``id``) and how to check
    the reply."""

    kind: str  # "query" or "merge"
    body: bytes  # the JSON object's text after its opening brace
    program: str
    session: str
    query: str = ""
    var: str = ""
    expected: frozenset = frozenset()
    max_solutions: Optional[int] = None

    def line(self, rid: str) -> bytes:
        return b'{"id": "' + rid.encode() + b'", ' + self.body + b"\n"


def _body(msg: dict) -> bytes:
    return json.dumps(msg)[1:].encode()


def query_op(
    program: str,
    session: str,
    goal: str,
    var: str,
    expected: frozenset,
    cache: bool,
    max_solutions: Optional[int] = None,
) -> Op:
    msg = {"op": "query", "program": program, "query": goal, "session": session}
    if max_solutions is not None:
        msg["max_solutions"] = max_solutions
    if not cache:
        msg["cache"] = False
    return Op("query", _body(msg), program, session, goal, var, expected, max_solutions)


def merge_op(program: str, session: str) -> Op:
    msg = {"op": "end_session", "program": program, "session": session}
    return Op("merge", _body(msg), program, session)


@dataclass
class Workload:
    """One workload's inputs for one seed."""

    name: str
    backend: str  # the server's --backend
    programs: dict[str, str]  # file stem -> program source
    #: timed rounds per second of ``--seconds``: the work
    #: is fixed by the argument, never by how fast the server is
    rounds_per_s: float
    kins: list["_Kin"]  # learn-merge: one family per timed block
    seed: int
    prime: list[Op] = field(default_factory=list)  # sent in order first
    fixed_round: Optional[list[Op]] = None  # search-cold: the same every round
    #: merges of sessions that learned before the timed phase, made in
    #: windows between its blocks (see ``window``)
    window_merges: list[Op] = field(default_factory=list)
    #: end_session requests sent after the timed phase
    closing: list[Op] = field(default_factory=list)

    def round(self, index: int, block: int = 0) -> list[Op]:
        """Round ``index``, sent in timed block ``block`` (the warm-up
        round counts as block 0)."""
        if self.fixed_round is not None:
            return self.fixed_round
        return _learn_merge_round(self, index, block)

    def window(self, block: int, blocks: int) -> list[Op]:
        """The untimed merges after timed block ``block``: its share of
        ``window_merges``.  Spreading them over the run samples their
        latency across it rather than in one burst at its end."""
        n = len(self.window_merges)
        return self.window_merges[block * n // blocks:(block + 1) * n // blocks]


class _Kin:
    """The scaled family, its oracle, and subjects grouped for drawing."""

    def __init__(self, seed: int, shape: dict):
        from repro.workloads import scaled_family

        self.instance = scaled_family(seed=seed, **shape)
        self.oracle = FamilyOracle(self.instance.fathers, self.instance.mothers)
        self.gens = self.instance.generations
        dads = set(self.instance.fathers.values())
        moms = set(self.instance.mothers.values())
        self.fathers_by_gen = [[p for p in g if p in dads] for g in self.gens]
        self.mothers_by_gen = [[p for p in g if p in moms] for g in self.gens]

    def goal(self, predicate: str, subject: str, var: str) -> tuple[str, frozenset]:
        return (
            f"{predicate}({subject},{var})",
            frozenset(self.oracle.relation(predicate, subject)),
        )


#: search-cold's family slots per round: (predicate,
#: generation).  Fixed, in this order, so that every seed asks the same
#: sequence of search sizes and only the people change: the answer
#: sizes, and so the expansions, depend on the generation alone.  gf
#: draws fathers and gm mothers, so neither fails at its first goal.
SEARCH_SLOTS = (
    ("anc", 0), ("anc", 1), ("anc", 1), ("anc", 2), ("anc", 3),
    ("gf", 0), ("gf", 1), ("gf", 2),
    ("gm", 0), ("gm", 1), ("gm", 2),
    ("sib", 1), ("sib", 2), ("sib", 3), ("sib", 4),
)


def _search_cold(seed: int) -> Workload:
    """Cache off, thread lanes: every request runs the engine.  Per round,
    15 all-answers family queries and one 4-queens query capped at two
    solutions, each in its own session.  With all
    answers asked for, learned weights reorder the search but never
    shorten it, so merges do not change the engine's work."""
    rng = random.Random(seed)
    kin = _Kin(seed, FAMILY_SHAPE)
    boards = frozenset(queens_boards(QUEENS_N))
    ops = [("queens(Qs)", boards, "Qs", "queens", 2)]
    for predicate, gen in SEARCH_SLOTS:
        pool = {
            "gf": kin.fathers_by_gen, "gm": kin.mothers_by_gen
        }.get(predicate, kin.gens)[gen]
        var = rng.choice(VAR_NAMES)
        goal, expected = kin.goal(predicate, rng.choice(pool), var)
        ops.append((goal, expected, var, "kin", None))
    names = [f"cold-{k}" for k in range(len(ops))]
    slots = [merge_op(op[3], name) for name, op in zip(names, ops)]
    fixed_round = [
        query_op(program, name, goal, var, expected, cache=False, max_solutions=cap)
        for name, (goal, expected, var, program, cap) in zip(names, ops)
    ]
    # 96 more sessions each learn one family query before the warm-up,
    # so that each window merges 14 sessions: 2 of the rounds' and 12 of
    # these.  Every one of them changes the store.
    family = [op for op in fixed_round if op.program == "kin"]
    prime = []
    for j in range(LEARNERS):
        op = family[j % len(family)]
        prime.append(query_op("kin", f"learner-{j}", op.query, op.var, op.expected, cache=False))
    learners = [merge_op("kin", f"learner-{j}") for j in range(LEARNERS)]
    per_window = len(slots) // BLOCKS, LEARNERS // BLOCKS
    window_merges = []
    for b in range(BLOCKS):
        window_merges += slots[b * per_window[0]:(b + 1) * per_window[0]]
        window_merges += learners[b * per_window[1]:(b + 1) * per_window[1]]
    return Workload(
        "search-cold", "thread", {"kin": kin.instance.source, "queens": QUEENS_SOURCE},
        8.5, [kin], seed, prime=prime, fixed_round=fixed_round,
        # each round's session learned its query in the warm-up round; once
        # merged, the next round reopens it from a store that already knows it
        window_merges=window_merges, closing=slots,
    )


LEARN_PREDICATES = ("gf", "gm", "anc")


def _learn_merge(seed: int) -> Workload:
    """Process lanes, cache on: sessions of 8 similar first-answer queries
    (``query_sequence``), each followed by end_session.  Round ``r`` is a
    fresh session with its own sequence.

    Each timed block asks its own family program, ``kin<b>``, which no
    earlier block has touched.  On one program the timed phase is not
    stationary: as learning converges, merges stop changing the store,
    the generation stops moving, cached answers stay valid, and blocks
    got 2-6 times faster from first to last, by an amount that depended
    on the seed.  With a fresh program per block, every block goes
    through the same stretch of learning from cold, so the median over
    blocks measures one regime."""
    kins = [_Kin(seed * BLOCKS + b, LEARN_SHAPE) for b in range(BLOCKS)]
    programs = {f"kin{b}": kin.instance.source for b, kin in enumerate(kins)}
    return Workload("learn-merge", "process", programs, 50.0, kins, seed)


def _learn_merge_round(w: Workload, index: int, block: int) -> list[Op]:
    from repro.workloads import query_sequence

    kin, program = w.kins[block], f"kin{block}"
    predicate = LEARN_PREDICATES[index % len(LEARN_PREDICATES)]
    session = f"learn-{index}"
    ops = []
    for goal in query_sequence(
        kin.instance, 8, predicate=predicate, seed=[w.seed % 2**32, index]
    ):
        subject = goal[len(predicate) + 1:goal.index(",")]
        expected = frozenset(kin.oracle.relation(predicate, subject))
        ops.append(query_op(program, session, goal, "G", expected, cache=True, max_solutions=1))
    ops.append(merge_op(program, session))
    return ops


WORKLOADS = {
    "search-cold": _search_cold,
    "learn-merge": _learn_merge,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
