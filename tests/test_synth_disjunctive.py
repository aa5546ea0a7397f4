"""Disjunctive condition abduction and multi-guard conditional realization.

The candidate-set Horn search can return a surviving-candidate *antichain*
with several incomparable guards; the synthesizer realizes the antichain as
a nested conditional chain (``if g1 ... else if g2 ... else ...``) and
discharges a whole-term coverage obligation before accepting it.  These
tests pin the antichain itself, the realized multi-guard programs, and
guard order independence.
"""

import random
from pathlib import Path

import pytest

from repro.horn.musfix import MusFixSolver
from repro.logic import ops
from repro.logic.formulas import Var, value_var
from repro.logic.qualifiers import default_qualifiers, make_qualifier, placeholder
from repro.logic.sorts import INT
from repro.synth import SynthesisGoal, Synthesizer, abduce_condition
from repro.syntax import IfTerm, parse_program, parse_term, parse_type
from repro.syntax.types import int_type
from repro.typecheck import EMPTY, TypecheckSession

pytestmark = pytest.mark.timeout(120)

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

X = Var("x", INT)
Y = Var("y", INT)
ZERO = ops.int_lit(0)

MAX_GOAL = "{Int | nu >= x && nu >= y && (nu == x || nu == y)}"


def synth_example(filename: str, goal_name: str, depth: int, **kw):
    source = (EXAMPLES / filename).read_text()
    goal = SynthesisGoal.from_program(parse_program(source), goal_name)
    synthesizer = Synthesizer(goal, max_depth=depth, **kw)
    return synthesizer, synthesizer.synthesize()


def eq_session():
    a, b = placeholder(0, INT), placeholder(1, INT)
    return TypecheckSession(qualifiers=[make_qualifier(ops.eq(a, b))], literals=(ZERO,))


class TestAntichain:
    """The abduced condition keeps *all* incomparable surviving guards."""

    def setup_method(self):
        self.session = eq_session()
        self.env = EMPTY.bind("x", int_type()).bind("y", int_type())
        nu = value_var(INT)
        # `0` meets `nu == x || nu == y` under `x == 0` OR under `y == 0` —
        # two guards neither of which implies the other.
        self.goal = int_type(ops.disj([ops.eq(nu, X), ops.eq(nu, Y)]))

    def abduce(self):
        abduced = abduce_condition(self.session, self.env, parse_term("0"), self.goal)
        assert abduced is not None
        return abduced

    def test_both_incomparable_guards_survive(self):
        abduced = self.abduce()
        assert abduced.candidates == ((ops.eq(X, ZERO),), (ops.eq(Y, ZERO),))
        assert abduced.qualifiers == abduced.candidates[0]

    def test_members_are_pairwise_incomparable(self):
        backend = self.session.backend
        context = list(self.env.embedding())
        members = [ops.conj(member) for member in self.abduce().candidates]
        for i, lhs in enumerate(members):
            for rhs in members[i + 1:]:
                assert not backend.is_valid_implication(context + [lhs], rhs)
                assert not backend.is_valid_implication(context + [rhs], lhs)

    def test_every_branch_of_the_chain_is_reachable(self):
        """Realized as a chain, each guard fires somewhere: member k is
        satisfiable under the negations of members 1..k-1, and so is the
        final else branch under all negations."""
        backend = self.session.backend
        context = list(self.env.embedding())
        FALSE = ops.bool_lit(False)
        taken = []
        for member in self.abduce().candidates:
            guard = ops.conj(member)
            assert not backend.is_valid_implication(context + taken + [guard], FALSE)
            taken.append(ops.neg(guard))
        assert not backend.is_valid_implication(context + taken, FALSE)


class TestDisjunctiveSynthesis:
    """sign.sq: the first example that *needs* a two-guard chain."""

    def test_sign_synthesizes_a_nested_conditional(self):
        _, result = synth_example("sign.sq", "sign", 3)
        assert result.solved and result.verified
        body = result.program
        while hasattr(body, "body"):
            body = body.body
        assert isinstance(body, IfTerm)
        assert isinstance(body.else_, IfTerm)
        assert body.cond != body.else_.cond

    def test_sign_recheck_in_fresh_session(self):
        """The coverage obligation is real: the whole chained program
        re-verifies branch by branch in a fresh checker session."""
        _, result = synth_example("sign.sq", "sign", 3)
        goal = result.goal
        session, env = goal.session_environment()
        session.check_program(result.program, goal.goal, env, where="re-check")
        assert session.solve().solved

    def test_single_conditional_budget_cannot_express_sign(self):
        _, result = synth_example("sign.sq", "sign", 3, max_conditionals=1)
        assert not result.solved

    def test_statistics_expose_candidate_search_counters(self):
        _, result = synth_example("sign.sq", "sign", 3)
        stats = result.statistics.as_dict()
        assert stats["candidates_explored"] > 1
        assert stats["muses_enumerated"] > 0
        assert stats["candidates_pruned"] > 0


class TestAbductionFrontierWork:
    """Cold ``drop`` does the most abduction of the goals here: its
    frontiers hold over a thousand candidates.  Queued candidates were all
    tested against the MUS store when enqueued, so the frontier is
    re-pruned only after a new MUS; pinning the number of candidate tests
    keeps a full re-scan per failed candidate (~85,000 tests) from
    returning."""

    @staticmethod
    def synthesize_drop():
        source = (ROOT / "synthbench" / "inputs" / "drop.sq").read_text()
        goal = SynthesisGoal.from_program(parse_program(source), "drop")
        result = Synthesizer(goal, max_depth=3).synthesize()
        assert result.solved and result.verified
        assert result.statistics.as_dict()["abductions"] > 0

    def test_cold_drop_tests_few_candidates(self, monkeypatch):
        tests = []
        real_dooms = MusFixSolver.dooms_everywhere

        def dooms(self, candidate, mentioning):
            tests.append(1)
            return real_dooms(self, candidate, mentioning)

        monkeypatch.setattr(MusFixSolver, "dooms_everywhere", dooms)
        self.synthesize_drop()
        assert len(tests) < 5000

    def test_cold_drop_reprunes_only_after_a_new_mus(self, monkeypatch):
        epochs = {}
        real_prune = MusFixSolver.prune_everywhere

        def prune(self, candidates, mentioning):
            epochs.setdefault(id(self), []).append(self.epoch)
            return real_prune(self, candidates, mentioning)

        monkeypatch.setattr(MusFixSolver, "prune_everywhere", prune)
        self.synthesize_drop()
        assert epochs
        for seen in epochs.values():
            assert seen[0] > 0
            assert all(a < b for a, b in zip(seen, seen[1:]))


class TestGuardOrderIndependence:
    def test_weakest_guard_survives_pool_shuffling(self):
        """Regression for the conditions docstring case: abduction for the
        `max` x-branch must pick (something equivalent to) the weakest
        guard `y <= x`, never a stronger incidental solution like
        `x == 0 && y == 0`, no matter how the qualifier pool is ordered."""
        goal = parse_type(MAX_GOAL, scope={"x": INT, "y": INT})
        expected = ops.le(Y, X)
        for seed in range(10):
            pool = list(default_qualifiers())
            random.Random(seed).shuffle(pool)
            session = TypecheckSession(qualifiers=pool, literals=(ZERO,))
            env = EMPTY.bind("x", int_type()).bind("y", int_type())
            abduced = abduce_condition(session, env, parse_term("x"), goal)
            assert abduced is not None and not abduced.is_trivial(), f"seed {seed}"
            got = ops.conj(abduced.qualifiers)
            context = list(env.embedding())
            backend = session.backend
            assert backend.is_valid_implication(context + [got], expected), f"seed {seed}"
            assert backend.is_valid_implication(context + [expected], got), f"seed {seed}"
