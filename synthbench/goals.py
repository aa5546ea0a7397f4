"""The benchmark's inputs: synthesis goals, ``/check`` cases, and the work
counters that must repeat exactly from run to run.

Paths are relative to the repository root.  Depths follow the ones the
package's own perf scripts use for the example goals.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Goal(NamedTuple):
    name: str
    path: str
    depth: int

    def source(self) -> str:
        return (ROOT / self.path).read_text()


#: The six ``examples/*.sq`` goals plus ``abs``: an odd number of goals run
#: equally often, so the median latency falls inside one goal's cluster.
CORPUS: List[Goal] = [
    Goal("max", "examples/max.sq", 3),
    Goal("replicate", "examples/replicate.sq", 4),
    Goal("stutter", "examples/stutter.sq", 4),
    Goal("length", "examples/list.sq", 3),
    Goal("append", "examples/list.sq", 4),
    Goal("sign", "examples/sign.sq", 3),
    Goal("abs", "synthbench/inputs/abs.sq", 3),
]

#: The length-indexed ``drop``: its time is spent explaining theory
#: conflicts, not encoding assertions.
DEEP: List[Goal] = [Goal("drop", "synthbench/inputs/drop.sq", 3)]

#: ``/synth`` request goals: the cheap corpus goals, so no single request
#: sets the service's latency tail.
SERVICE_SYNTH: List[Goal] = [g for g in CORPUS if g.name != "append"]

CHECKS_DIR = HERE / "inputs" / "checks"


def check_cases() -> Dict[str, str]:
    """``/check`` case name -> ``.sq`` source (one definition each)."""
    return {path.stem: path.read_text() for path in sorted(CHECKS_DIR.glob("*.sq"))}


def check_function(case: str) -> str:
    """The defined function of a case: ``max_swapped`` defines ``max``."""
    return case.split("_", 1)[0]


#: Search counters that must repeat exactly across runs and hash seeds:
#: from the synthesizer's ``EnumerationStatistics`` ...
ENUMERATION_COUNTERS = (
    "generated",
    "pruned_early",
    "checked",
    "goal_checks",
    "abductions",
    "candidates_explored",
    "candidates_pruned",
    "muses_enumerated",
)
#: ... and from the search session's ``SolverStatistics``.
SOLVER_COUNTERS = ("sat_queries", "tableau_pivots", "theory_propagations", "lemmas_generalized")


def search_counters(enumeration: Dict[str, int], solver: object) -> Dict[str, int]:
    """The deterministic counters of one synthesis query."""
    counters = {name: enumeration[name] for name in ENUMERATION_COUNTERS}
    counters.update({name: getattr(solver, name) for name in SOLVER_COUNTERS})
    return counters
