"""A process portfolio over candidate branches of the Horn search.

The candidate-set search of :meth:`repro.horn.solver.HornSolver.solve`
explores a frontier of abducible valuations; the branches below the root
are independent — each is a self-contained breadth-first search — which
is exactly the shape that fans out across cores.  This module runs that
fan-out:

1. The **coordinator** evaluates the root candidate in-process (one
   :meth:`~repro.horn.solver.HornSolver.search_candidates` step).  If the
   root already solves, there is nothing to distribute.
2. The root's successor frontier is split round-robin into
   ``max_workers`` branch groups.  With ``max_workers == 1`` the groups
   run sequentially in-process (the serial fallback — same decomposition,
   so serial and parallel runs agree); otherwise each group is dispatched
   to a ``concurrent.futures.ProcessPoolExecutor`` worker, which builds
   its own backend via a picklable factory (by default the
   :class:`~repro.smt.solver.IncrementalSolver` class itself, which pickles
   by reference) and searches its branches to exhaustion.
3. The **lemma bus**: MUSes are facts about a constraint and its
   qualifier pool, independent of any candidate, so a MUS learned on one
   branch soundly prunes every other.  The coordinator seeds each
   dispatched group with all lemmas known so far and folds the lemmas
   each group returns back into the pool (sequential groups therefore
   see earlier groups' lemmas; parallel groups share through the root's).
   ``lemmas_shared`` counts every adoption.
4. Results merge deterministically: solutions are deduplicated,
   dominance-filtered to the weakest antichain, and ordered by a
   process-independent key, so the outcome does not depend on worker
   scheduling.

If the executor cannot be created or a worker dies (restricted
environments, pickling regressions), the affected groups transparently
fall back to the in-process path — the portfolio degrades to serial
search rather than failing.  A dead worker (``BrokenProcessPool``) is
counted in ``HornStatistics.worker_deaths`` and its branch group is
re-searched inline under whatever remains of the caller's deadline: the
coordinator ships its active :class:`repro.limits.Budget` to every
worker and keeps the same scope installed for the inline reruns, so
serial and degraded-parallel runs obey one clock.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import limits
from ..smt.solver import IncrementalSolver
from ..testing import faults
from .constraints import HornConstraint
from .musfix import MusLemma
from .solver import (
    Assignment,
    CandidateSearchResult,
    HornSolution,
    HornSolver,
    HornStatistics,
    SolveOptions,
)
from .spaces import QualifierSpace, SpacesLike, as_space_map

#: What a branch run yields: its search result, plus the worker's counters
#: (``None`` when it ran inline on the coordinator, whose counters already
#: include it).
BranchOutcome = Tuple[CandidateSearchResult, Optional[HornStatistics]]

BackendFactory = Callable[[], IncrementalSolver]


def _search_branch(
    constraints: Tuple[HornConstraint, ...],
    spaces: Dict[str, QualifierSpace],
    options: SolveOptions,
    roots: Tuple[Assignment, ...],
    lemmas: Tuple[MusLemma, ...],
    backend_factory: BackendFactory,
    group_index: int = 0,
    budget: Optional[limits.Budget] = None,
) -> BranchOutcome:
    """Search one branch group to exhaustion (runs inside a worker).

    Module-level so the executor can pickle it by reference; everything it
    receives is plain data (constraints, spaces, options, seeds, lemmas)
    plus the backend factory, and everything it returns is plain data too.
    ``budget`` is the coordinator's active budget, re-installed here so a
    deadline governs worker processes exactly as it governs the
    coordinator (the monotonic deadline is system-wide).
    """
    if faults.maybe_fire(f"portfolio.worker-death.{group_index}"):
        os._exit(13)  # chaos: the worker dies mid-solve, abruptly
    with limits.budget_scope(budget):
        solver = HornSolver(backend_factory())
        result = solver.search_candidates(
            constraints, spaces, options, roots=list(roots), lemmas=lemmas
        )
        return result, solver.statistics


def solve_portfolio(
    constraints: Sequence[HornConstraint],
    spaces: SpacesLike,
    options: Optional[SolveOptions] = None,
    solver: Optional[HornSolver] = None,
    backend_factory: BackendFactory = IncrementalSolver,
) -> HornSolution:
    """Candidate-set Horn search with branches fanned across processes.

    ``solver`` is the coordinator (statistics accumulate there; its
    backend evaluates the root candidate).  Returns the same
    :class:`~repro.horn.solver.HornSolution` the serial search would.
    """
    opts = options if options is not None else SolveOptions()
    coordinator = solver if solver is not None else HornSolver()
    space_map = as_space_map(spaces)

    root = coordinator.search_candidates(constraints, space_map, opts, explore_limit=1)
    solutions: List[Assignment] = list(root.solutions)
    failed = root.failed
    lemma_pool: List[MusLemma] = []
    lemma_keys = set()

    def adopt(lemmas: Sequence[MusLemma]) -> int:
        adopted = 0
        for constr, mus in lemmas:
            key = (constr, frozenset(mus))
            if key not in lemma_keys:
                lemma_keys.add(key)
                lemma_pool.append((constr, mus))
                adopted += 1
        return adopted

    adopt(root.lemmas)

    branches = list(root.frontier)
    workers = max(1, opts.max_workers)
    groups = [branches[i::workers] for i in range(workers) if branches[i::workers]]

    if not groups:
        return coordinator.assemble_solution(constraints, solutions, failed, opts, space_map)

    payload = (tuple(constraints), dict(space_map), opts)
    outcomes: List[BranchOutcome] = []
    pending = list(groups)

    if workers > 1 and len(groups) > 1:
        shared = tuple(lemma_pool)
        budget = limits.active_budget()
        try:
            import concurrent.futures
            from concurrent.futures.process import BrokenProcessPool

            if faults.maybe_fire("portfolio.executor-down"):
                raise OSError("injected: process pool unavailable")
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _search_branch,
                        *payload,
                        tuple(group),
                        shared,
                        backend_factory,
                        index,
                        budget,
                    )
                    for index, group in enumerate(groups)
                ]
                still_pending = []
                for group, future in zip(groups, futures):
                    try:
                        outcomes.append(future.result())
                    except limits.BudgetExhausted:
                        # The shared deadline tripped inside a worker; it
                        # governs the whole solve, so stop dispatching and
                        # let the coordinator's owner handle it.
                        raise
                    except BrokenProcessPool:
                        # A dead worker (SIGKILL, OOM, os._exit) breaks the
                        # pool: every unfinished future raises this.  The
                        # group is re-searched inline below, under whatever
                        # remains of the same deadline (the active scope is
                        # still installed on this thread).
                        coordinator.statistics.worker_deaths += 1
                        still_pending.append(group)
                    except Exception:
                        still_pending.append(group)  # worker died: redo inline
                pending = still_pending
        except (ImportError, OSError, PermissionError):
            pending = list(groups)  # no process pool here: serial fallback

    for group in pending:
        # Serial path (and parallel stragglers): run on the coordinator's
        # own backend, threading the lemma pool from group to group.
        result = coordinator.search_candidates(
            constraints, space_map, opts, roots=group, lemmas=tuple(lemma_pool)
        )
        outcomes.append((result, None))

    for result, stats in outcomes:
        solutions.extend(result.solutions)
        if result.failed is not None:
            failed = result.failed
        shared_count = adopt(result.lemmas)
        if stats is not None:
            coordinator.statistics.merge(stats)
            coordinator.statistics.lemmas_shared += shared_count

    return coordinator.assemble_solution(constraints, solutions, failed, opts, space_map)
