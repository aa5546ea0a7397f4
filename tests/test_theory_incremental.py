"""Differential tests for the incremental theory backend.

:class:`repro.smt.theory.IncrementalTheory` maintains one persistent
term bank, congruence closure, and simplex tableau across
``push``/``pop``-bracketed assertion scopes, un-merging and retracting
via undo trails.  These tests pin its behaviour to the stateless
:class:`repro.smt.theory.TheoryChecker` oracle: on every prefix of every
random assert/push/pop sequence the two must agree on consistency.

The explainer tests pin conflict minimization: linear deletion over the
solver's private incremental theory must return exactly the core it
returns over the stateless oracle, that core must be minimal, and
production must never reach the oracle.

The lemma-generalization tests pin the cross-candidate replay path: a
theory conflict refuted once must answer every alpha-renamed copy of
itself propositionally, without the renamed query ever reaching the
theory.
"""

import random
from pathlib import Path

import pytest

from repro.logic import ops
from repro.logic.formulas import IntLit
from repro.logic.sorts import BOOL, INT
from repro.smt.solver import IncrementalSolver, SolverStatistics, _shrink_conflict
from repro.smt.theory import IncrementalTheory, Literal, TheoryChecker
from repro.syntax.parser import parse_program
from repro.synth import SynthesisGoal, Synthesizer

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _atom_pool():
    x = ops.var("x", INT)
    y = ops.var("y", INT)
    z = ops.var("z", INT)
    p = ops.var("p", BOOL)
    q = ops.var("q", BOOL)
    len_x = ops.measure("len", x, INT)
    len_y = ops.measure("len", y, INT)
    return [
        ops.le(x, y),
        ops.lt(y, z),
        ops.ge(x, IntLit(0)),
        ops.le(z, IntLit(5)),
        ops.eq(x, y),
        ops.neq(y, z),
        ops.eq(x, IntLit(3)),
        ops.lt(x, IntLit(10)),
        ops.eq(len_x, len_y),
        ops.le(len_x, IntLit(4)),
        ops.ge(len_y, IntLit(7)),
        ops.eq(x, z),
        ops.neq(x, IntLit(0)),
        p,
        q,
        ops.eq(p, q),
        ops.le(ops.plus(x, y), IntLit(8)),
        ops.ge(ops.plus(x, y), IntLit(2)),
        ops.eq(ops.times(IntLit(2), x), IntLit(1)),
        ops.le(ops.minus(x, y), IntLit(-1)),
    ]


class TestDifferential:
    """IncrementalTheory vs fresh TheoryChecker on random sequences.

    Every step either asserts a literal inside a new scope, opens an
    empty scope, or pops the innermost scope; after every step the
    incremental verdict for the live prefix must match what a stateless
    check of that prefix says.  Four seeds x 80 sequences x 25 steps
    gives 320 sequences (8000 differential verdicts) per run.
    """

    @pytest.mark.parametrize("seed", [7, 99, 2024, 31337])
    def test_random_sequences_agree_with_stateless_oracle(self, seed):
        rng = random.Random(seed)
        pool = _atom_pool()
        oracle = TheoryChecker()
        for _ in range(80):
            theory = IncrementalTheory()
            frames = []  # literals asserted per live scope
            prefix = []  # flat live-literal list, oracle's input
            for _ in range(25):
                roll = rng.random()
                if roll < 0.6 or not frames:
                    literal = Literal(rng.choice(pool), rng.random() < 0.7)
                    theory.push()
                    frames.append([literal])
                    conflict = theory.assert_literal(literal)
                    prefix.append(literal)
                    incremental_ok = conflict is None and theory.check() is None
                elif roll < 0.85:
                    theory.push()
                    frames.append([])
                    incremental_ok = theory.check() is None
                else:
                    for _ in frames.pop():
                        prefix.pop()
                    theory.pop()
                    incremental_ok = theory.check() is None
                oracle_ok = oracle.is_consistent(list(prefix))
                assert incremental_ok == oracle_ok, (
                    f"divergence (seed {seed}): incremental={incremental_ok} "
                    f"oracle={oracle_ok} on prefix {prefix}"
                )

    def test_conflict_retracts_on_pop(self):
        x = ops.var("x", INT)
        theory = IncrementalTheory()
        theory.push()
        assert theory.assert_literal(Literal(ops.ge(x, IntLit(5)), True)) is None
        assert theory.check() is None
        theory.push()
        conflict = theory.assert_literal(Literal(ops.le(x, IntLit(2)), True))
        if conflict is None:
            conflict = theory.check()
        assert conflict is not None
        theory.pop()
        # The surviving scope must be consistent again, and remain usable.
        assert theory.check() is None
        theory.push()
        assert theory.assert_literal(Literal(ops.le(x, IntLit(9)), True)) is None
        assert theory.check() is None

    def test_congruence_unmerges_on_pop(self):
        x = ops.var("x", INT)
        y = ops.var("y", INT)
        len_x = ops.measure("len", x, INT)
        len_y = ops.measure("len", y, INT)
        theory = IncrementalTheory()
        theory.push()
        assert theory.assert_literal(Literal(ops.neq(len_x, len_y), True)) is None
        assert theory.check() is None
        theory.push()
        # x = y forces len x = len y by congruence: conflict.
        conflict = theory.assert_literal(Literal(ops.eq(x, y), True))
        if conflict is None:
            conflict = theory.check()
        assert conflict is not None
        theory.pop()
        # Un-merging must restore consistency of the disequality alone.
        assert theory.check() is None


class _OracleTheory:
    """The push/assert/check/pop protocol answered by one stateless
    :class:`TheoryChecker` call per check: the reference explainer."""

    def __init__(self):
        self._oracle = TheoryChecker()
        self._frames = []

    def push(self):
        self._frames.append([])

    def pop(self):
        self._frames.pop()

    def assert_literal(self, literal):
        self._frames[-1].append(literal)
        return None

    def check(self):
        literals = [lit for frame in self._frames for lit in frame]
        return None if self._oracle.is_consistent(literals) else ([], False)


class TestExplainer:
    """Conflict minimization on the solver's private incremental theory."""

    def test_cores_match_the_stateless_oracle(self):
        rng = random.Random(1913)
        pool = _atom_pool()
        oracle = TheoryChecker()
        explainer = IncrementalTheory()
        drawn = 0
        while drawn < 150:
            size = rng.randint(2, 16)
            literals = [Literal(rng.choice(pool), rng.random() < 0.7) for _ in range(size)]
            if oracle.is_consistent(literals):
                continue
            drawn += 1
            incremental_stats, oracle_stats = SolverStatistics(), SolverStatistics()
            core = _shrink_conflict(explainer, literals, incremental_stats)
            assert explainer.depth == 0
            expected = _shrink_conflict(_OracleTheory(), literals, oracle_stats)
            assert core == expected, f"cores differ on {literals}"
            assert incremental_stats.shrink_theory_checks == oracle_stats.shrink_theory_checks
            assert not oracle.is_consistent(core)
            for index in range(len(core)):
                assert oracle.is_consistent(core[:index] + core[index + 1 :]), "not minimal"

    def test_synthesis_never_consults_the_oracle(self, monkeypatch):
        def refuse(self, literals):
            raise AssertionError("production reached the reference oracle")

        monkeypatch.setattr(TheoryChecker, "is_consistent", refuse)
        source = (EXAMPLES / "replicate.sq").read_text()
        goal = SynthesisGoal.from_program(parse_program(source), "replicate")
        synthesizer = Synthesizer(goal, max_depth=4)
        result = synthesizer.synthesize()
        assert result.solved and result.verified
        assert result.pretty() == (
            "replicate = fix replicate . \\n . \\x . "
            "if leq n 0 then Nil else Cons x (replicate (dec n) x)"
        )
        stats = synthesizer.session.backend.statistics
        # Conflicts were explained (not only blocked whole) on the explainer.
        assert stats.shrink_theory_checks == 11
        assert (stats.sat_queries, stats.conflicts, stats.tableau_pivots) == (70, 1, 69)


class TestLemmaGeneralization:
    """Alpha-renamed copies of a refuted conflict replay propositionally."""

    def test_renamed_conflict_skips_the_theory(self):
        solver = IncrementalSolver()
        tv0 = ops.var("_tv0", INT)
        tv1 = ops.var("_tv1", INT)

        solver.push()
        solver.assert_(ops.le(tv0, IntLit(2)))
        solver.assert_(ops.ge(tv0, IntLit(5)))
        assert solver.check() is False
        solver.pop()
        assert solver.statistics.lemmas_generalized == 0

        theory = solver._bridge.theory
        calls = {"asserts": 0, "checks": 0}
        original_assert = theory.assert_literal
        original_check = theory.check

        def spying_assert(literal):
            calls["asserts"] += 1
            return original_assert(literal)

        def spying_check():
            calls["checks"] += 1
            return original_check()

        theory.assert_literal = spying_assert
        theory.check = spying_check
        try:
            solver.push()
            solver.assert_(ops.le(tv1, IntLit(2)))
            solver.assert_(ops.ge(tv1, IntLit(5)))
            # The generalized lemma instantiates at interning time ...
            assert solver.statistics.lemmas_generalized == 1
            # ... so the renamed query is refuted by unit propagation alone.
            assert solver.check() is False
            assert calls == {"asserts": 0, "checks": 0}
        finally:
            solver.pop()
            theory.assert_literal = original_assert
            theory.check = original_check

    def test_renamed_satisfiable_queries_unaffected(self):
        solver = IncrementalSolver()
        tv0 = ops.var("_tv0", INT)
        tv1 = ops.var("_tv1", INT)

        solver.push()
        solver.assert_(ops.le(tv0, IntLit(2)))
        solver.assert_(ops.ge(tv0, IntLit(5)))
        assert solver.check() is False
        solver.pop()

        # A renaming asserting only half the conflict stays satisfiable.
        solver.push()
        solver.assert_(ops.le(tv1, IntLit(2)))
        assert solver.check() is True
        solver.pop()
