"""What the direct saturations share: statistics, the engine runner, the
delta worklist and the empty-stack closure.  The rule indexes and the
modifying-rule moves they fire live on `SMPDS`.

Both engines move whole target sets: a unit of work is a key
(src, label) together with the targets added under it that the engine
has not processed yet.  A rule that fires on a key is applied to that
set at once, so the per-element work is left to C set operations.
Every insert goes through `PAutomaton.add_targets`, which hands back a
fresh mutable set of the new targets; the worklist keeps that set as the
key's delta and grows it in place.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .automaton import _NO_LABELS, AutState, Initial, Label, PAutomaton
from .model import Phase, PdsRule, SelfModRule, SMPDS


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

    The engine counts transitions and finals; phases and wall time are
    read off the run the same way for every engine.
    """
    t0 = time.perf_counter()
    for rid, r in smpds.rules.items():
        if isinstance(r, PdsRule) and len(r.rhs_word) > 2:
            raise ValueError(f"rule {rid} pushes more than 2 symbols; "
                             "run normalize_push first")
        if isinstance(r, SelfModRule) and r.removed == rid:
            raise ValueError(
                "self-referential modifying rule; run normalize_selfmod first")
    engine = engine_class(smpds, aut)
    result = engine.run()
    if stats is not None:
        vars(stats).update(
            vars(engine.stats),
            phases_materialized=len({q.phase for q in result.initial_states()}),
            wall_seconds=time.perf_counter() - t0)
    return result


def close_empty_stack(aut: PAutomaton, stats: SaturationStats,
                      seeds: Iterable[Initial],
                      moves: Callable[[str, Phase], list[tuple[str, Phase]]]
                      ) -> None:
    """Make final every initial state that `moves` reaches from `seeds`, the
    initial states whose empty stack is accepted.

    A modifying rule fires on the empty stack too, so with (<p, eps>, theta)
    each (<p', eps>, theta') in `moves(p, theta)` is accepted: the rule's
    successors in post*, its predecessors in pre*."""
    finals = aut.finals
    todo = list(seeds)
    seen = set(todo)
    while todo:
        q = todo.pop()
        for p, theta in moves(q.control, q.phase):
            succ = Initial(p, theta)
            if succ not in finals:
                aut.add_final(succ)
                stats.finals_added += 1
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)


class DeltaWorklist:
    """The pending work of a saturation over `aut`.

    Each queued key (src, label) carries the set of its targets that were
    added since the key was last popped; a key is queued once however
    many inserts land on it before it is popped.
    """

    def __init__(self, aut: PAutomaton, stats: SaturationStats):
        self.aut = aut
        self.stats = stats
        self._deltas: dict[tuple[AutState, Label], set[AutState]] = {}
        self._keys: deque[tuple[AutState, Label]] = deque()

    def add(self, edges: Iterable[tuple[AutState, Label]],
            dsts: set[AutState]) -> None:
        """Insert src --label--> d for every (src, label) in `edges` and d
        in `dsts`, and queue the new targets under their key.

        Once the automaton fills up most inserts bring nothing new, so
        each edge is first tested with one subset test in C.
        """
        out = self.aut._out
        for key in edges:
            src, label = key
            current = out.get(src, _NO_LABELS).get(label)
            if current is None or not dsts <= current:
                new = self.aut.add_targets(src, label, dsts)
                self.stats.transitions_added += len(new)
                self.queue(key, new)

    def queue(self, key: tuple[AutState, Label], dsts: set[AutState]) -> None:
        """Queue targets already in the automaton; `dsts` must be a `set`,
        which the worklist owns and may grow."""
        delta = self._deltas.get(key)
        if delta is None:
            self._deltas[key] = dsts
            self._keys.append(key)
        else:
            delta |= dsts

    def __iter__(self) -> Iterator[tuple[tuple[AutState, Label], set[AutState]]]:
        """Pop each key with its delta, in the order first queued, until no
        key is left; keys queued meanwhile are popped too."""
        keys, deltas = self._keys, self._deltas
        while keys:
            key = keys.popleft()
            yield key, deltas.pop(key)
