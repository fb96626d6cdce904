"""What the direct saturations share: statistics, the engine runner and
the empty-stack closure.  Their rule source is the `SMPDS`, and the
worklist both cores run on is `automaton.DeltaWorklist`.

The engines count nothing themselves: `run_engine` reads the statistics
off the result, as its counts minus the input's, so a counter means the
same thing whatever engine filled it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .automaton import Initial, PAutomaton
from .model import Phase, SMPDS


@dataclass
class SaturationStats:
    transitions_added: int = 0
    finals_added: int = 0
    # distinct phases on the initial states of the result
    phases_materialized: int = 0
    wall_seconds: float = 0.0


def run_engine(engine_class, smpds: SMPDS, aut: PAutomaton,
               stats: SaturationStats | None) -> PAutomaton:
    """Build and run a saturation engine, filling `stats` if given.

    It raises `ValueError` on a rule that pushes more than two symbols
    (`SMPDS.wide_rules`); every other system saturates as it is, modifying
    rules that remove themselves included.  Every counter is read off the
    run, the same way for every engine: transitions and finals as the
    result's count minus the input's.
    """
    t0 = time.perf_counter()
    if smpds.wide_rules:
        raise ValueError(f"rule {smpds.wide_rules[0]} pushes more than 2 "
                         "symbols; run normalize_push first")
    result = engine_class(smpds, aut).run()
    if stats is not None:
        stats.wall_seconds = time.perf_counter() - t0
        stats.transitions_added = _count_transitions(result) - _count_transitions(aut)
        stats.finals_added = len(result.finals) - len(aut.finals)
        stats.phases_materialized = len({q.phase for q in result.initial_states()})
    return result


def _count_transitions(aut: PAutomaton) -> int:
    return sum(len(targets) for by_label in aut._out.values()
               for targets in by_label.values())


def close_empty_stack(aut: PAutomaton, seeds: Iterable[Initial],
                      moves: Callable[[str, Phase], list[tuple[str, Phase]]]
                      ) -> None:
    """Make final every initial state that `moves` reaches from `seeds`, the
    initial states whose empty stack is accepted.

    A modifying rule fires on the empty stack too, so with (<p, eps>, theta)
    each (<p', eps>, theta') in `moves(p, theta)` is accepted: the rule's
    successors in post*, its predecessors in pre*."""
    todo = list(seeds)
    seen = set(todo)
    while todo:
        q = todo.pop()
        for p, theta in moves(q.control, q.phase):
            succ = Initial(p, theta)
            aut.add_final(succ)
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
