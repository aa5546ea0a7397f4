"""Tests for the SMT pipeline: query semantics and the incremental backend."""

import gc
import weakref

import pytest

from repro.logic import ops
from repro.logic.formulas import IntLit
from repro.logic.sorts import BOOL, INT, set_of
from repro.smt import IncrementalSolver

x = ops.var("x", INT)
y = ops.var("y", INT)
z = ops.var("z", INT)
p = ops.var("p", BOOL)


def is_valid(solver, formula):
    return not solver.check_assuming([ops.not_(formula)])


def is_satisfiable(solver, formula):
    return solver.check_assuming([formula])


class TestSmtSolver:
    """One-query semantics: each formula checked in its own scope."""

    def test_valid_implication(self):
        solver = IncrementalSolver()
        assert is_valid(solver, ops.implies(ops.lt(x, y), ops.le(x, y)))
        assert not is_valid(solver, ops.implies(ops.le(x, y), ops.lt(x, y)))

    def test_satisfiability(self):
        solver = IncrementalSolver()
        assert is_satisfiable(solver, ops.and_(ops.le(x, y), ops.neq(x, y)))
        assert not is_satisfiable(solver, ops.and_(ops.le(x, y), ops.lt(y, x)))

    def test_boolean_structure(self):
        solver = IncrementalSolver()
        assert is_valid(solver, ops.or_(p, ops.not_(p)))
        assert not is_satisfiable(solver, ops.and_(p, ops.not_(p)))
        assert is_valid(solver, ops.iff(p, p))

    def test_boolean_equality_rewrite(self):
        solver = IncrementalSolver()
        q = ops.var("q", BOOL)
        assert is_valid(solver, ops.implies(ops.and_(ops.eq(p, q), p), q))

    def test_ite_lifting(self):
        solver = IncrementalSolver()
        absval = ops.ite(ops.ge(x, IntLit(0)), x, ops.neg(x))
        assert is_valid(solver, ops.ge(absval, IntLit(0)))

    def test_uninterpreted_measures(self):
        solver = IncrementalSolver()
        length = ops.measure("len", x, INT)
        same = ops.measure("len", ops.var("x", INT), INT)
        assert is_valid(solver, ops.eq(length, same))

    def test_sets(self):
        solver = IncrementalSolver()
        s = ops.var("s", set_of(INT))
        singleton = ops.singleton(x)
        assert is_valid(solver, ops.member(x, ops.union(singleton, s)))
        assert not is_valid(solver, ops.member(y, ops.union(singleton, s)))

    def test_solver_instances_are_independent(self):
        # Fresh-name generation is per solver: the same ite-heavy query run
        # on two fresh solvers yields identical results and statistics.
        query = ops.ge(ops.ite(ops.ge(x, y), x, y), x)
        first, second = IncrementalSolver(), IncrementalSolver()
        assert is_valid(first, query) and is_valid(second, query)
        assert first.statistics == second.statistics


class TestIncrementalSolver:
    def test_push_pop_scoping(self):
        solver = IncrementalSolver()
        solver.assert_(ops.le(x, y))
        assert solver.check()
        solver.push()
        solver.assert_(ops.lt(y, x))
        assert not solver.check()
        solver.pop()
        assert solver.check()

    def test_pop_without_push_raises(self):
        with pytest.raises(RuntimeError):
            IncrementalSolver().pop()

    def test_solver_is_freed_without_the_cycle_collector(self):
        # The SAT core keeps the theory bridge between solves; the bridge
        # must not keep the solver alive, or every solver (and all its
        # clauses and theory state) lingers until a full collection.
        gc.disable()
        try:
            solver = IncrementalSolver()
            assert solver.is_valid_implication([ops.le(x, y), ops.le(y, z)], ops.le(x, z))
            alive = weakref.ref(solver)
            del solver
            assert alive() is None
        finally:
            gc.enable()

    def test_assertions_accumulate_within_scope(self):
        solver = IncrementalSolver()
        solver.push()
        solver.assert_(ops.le(x, y))
        solver.assert_(ops.le(y, z))
        solver.assert_(ops.lt(z, x))
        assert not solver.check()
        solver.pop()
        assert solver.check()

    def test_reasserted_formulas_are_not_reencoded(self):
        solver = IncrementalSolver()
        formula = ops.and_(ops.le(x, y), ops.neq(x, y))
        for _ in range(5):
            solver.push()
            solver.assert_(formula)
            assert solver.check()
            solver.pop()
        assert solver.statistics.encoded_assertions == 1
        assert solver.statistics.reused_assertions == 4

    def test_trivial_assertions(self):
        solver = IncrementalSolver()
        solver.push()
        solver.assert_(ops.bool_lit(True))
        assert solver.check()
        solver.assert_(ops.bool_lit(False))
        assert not solver.check()
        solver.pop()
        assert solver.check()

    def test_check_assuming_restores_state(self):
        solver = IncrementalSolver()
        solver.assert_(ops.le(x, y))
        assert not solver.check_assuming([ops.lt(y, x)])
        assert solver.check()

    def test_is_valid_implication(self):
        solver = IncrementalSolver()
        assert solver.is_valid_implication([ops.le(x, y), ops.le(y, z)], ops.le(x, z))
        assert not solver.is_valid_implication([ops.le(x, y)], ops.le(y, x))

    def test_learned_lemmas_survive_pop(self):
        solver = IncrementalSolver()
        # Run a query that forces theory lemmas, then re-run it: the second
        # round must not need more theory checks than the first.
        query = ops.and_(ops.le(x, y), ops.lt(y, x))
        solver.push()
        solver.assert_(query)
        solver.check()
        first_round = solver.statistics.theory_checks
        solver.pop()
        solver.push()
        solver.assert_(query)
        solver.check()
        solver.pop()
        second_round = solver.statistics.theory_checks - first_round
        assert second_round <= first_round

    def test_check_assuming_conjoins_set_formulas(self):
        solver = IncrementalSolver()
        s = ops.var("s", set_of(INT))
        empty = ops.empty_set(INT)
        # x in s together with s <= [] is unsatisfiable only if both
        # assertions share one element universe.
        assert not solver.check_assuming([ops.member(x, s), ops.subset(s, empty)])
        assert solver.check_assuming([ops.member(x, s)])

    def test_set_reasoning_across_premises(self):
        # Set elimination is per assertion; is_valid_implication must still
        # decide cross-assertion set entailments exactly (it conjoins).
        solver = IncrementalSolver()
        s = ops.var("s", set_of(INT))
        t = ops.var("t", set_of(INT))
        assert solver.is_valid_implication([ops.member(x, s), ops.subset(s, t)], ops.member(x, t))
        assert not solver.is_valid_implication([ops.member(x, s)], ops.member(x, t))

    def test_one_persistent_sat_solver_no_per_check_copying(self):
        # The SAT core lives for the solver's whole lifetime: every check
        # reuses the same solver object, and clauses are loaded into it
        # exactly once per encoded formula — never copied per query.
        solver = IncrementalSolver()
        core = solver._sat
        for k in range(50):
            solver.push()
            solver.assert_(ops.le(ops.var(f"v{k}", INT), IntLit(k)))
            assert solver.check()
            solver.pop()
        assert solver._sat is core
        loaded = core.num_clauses
        # Re-running the same scopes encodes and loads nothing new.
        for k in range(50):
            solver.push()
            solver.assert_(ops.le(ops.var(f"v{k}", INT), IntLit(k)))
            assert solver.check()
            solver.pop()
        assert solver._sat is core
        assert core.num_clauses == loaded
        assert solver.statistics.encoded_assertions == 50
        assert solver.statistics.reused_assertions == 50

    def test_active_atoms_cache_tracks_scopes(self):
        # The active-atom multiset is maintained incrementally across
        # assert_/push/pop instead of re-unioned per check.
        solver = IncrementalSolver()
        solver.assert_(ops.le(x, y))
        base = dict(solver._active_atom_counts)
        assert base  # the base-frame assertion contributes its atoms
        solver.push()
        solver.assert_(ops.lt(y, z))
        solver.assert_(ops.le(x, y))  # re-assertion counts twice
        assert len(solver._active_atom_counts) > len(base)
        solver.pop()
        assert dict(solver._active_atom_counts) == base

    def test_check_evaluating_reads_back_counterexample(self):
        solver = IncrementalSolver()
        solver.push()
        a, b = ops.le(x, y), ops.le(y, z)
        solver.assert_(a)
        # The negated conjunction forces the model to falsify one conjunct;
        # the probes read that counterexample back, atom for atom.
        solver.push()
        solver.assert_(ops.not_(ops.and_(a, b)))
        values = solver.check_evaluating([a, b, ops.and_(a, b)])
        assert values[0] is True  # asserted, so true in every model
        assert values[1] is False  # the only way to falsify the conjunction
        assert values[2] is False
        solver.pop()
        solver.assert_(ops.lt(y, x))
        assert solver.check_evaluating([a]) is None  # UNSAT
        solver.pop()

    def test_check_evaluating_trivial_and_unevaluable_probes(self):
        solver = IncrementalSolver()
        solver.push()
        solver.assert_(ops.le(x, y))
        t = ops.bool_lit(True)
        s = ops.var("s", set_of(INT))
        values = solver.check_evaluating([t, ops.not_(t), ops.member(x, s)])
        assert values[0] is True
        assert values[1] is False
        assert values[2] is None  # set probes cannot be read from a model
        solver.pop()
