"""Direct backward saturation: compute pre*(L(A)) on the P-automaton itself.

Two saturation rules, applied until fixpoint:

  alpha1: for a plain rule <p,g> -> <p1,w> in a phase theta, whenever the
          automaton has a path (p1,theta) --w--> q, add ((p,theta), g, q).

  alpha2: for a modifying rule p --(r1,r2)--> p1, whenever a transition
          (p1,theta) --g--> q exists with the rule and r2 in theta, add
          ((p,theta'), g, q) for every predecessor phase theta' with
          theta = (theta' - {r1}) | {r2}.

The input automaton may contain epsilon transitions (they are honoured
during matching); the saturation itself only adds symbol-labelled
transitions, plus final-state markings for empty-stack predecessors
reached through modifying rules.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .automaton import EPS, AutState, Initial, PAutomaton
from .model import Phase, PdsRule, RuleId, SelfModRule, SMPDS, rule_bit


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


def solve_predecessor_phases(theta: Phase, rid: RuleId,
                             rule: SelfModRule) -> list[Phase]:
    """Phases theta' from which firing `rule` yields `theta`.

    The set equation theta = (theta' - {removed}) | {added} has at most two
    solutions; each candidate is verified on masks by applying the forward
    update, and must contain both the modifying rule itself and its removed
    rule.  Only verified candidates are interned.
    """
    mask = theta.mask
    added = rule_bit(rule.added)
    if not mask & added:
        return []
    removed = rule_bit(rule.removed)
    needed = rule_bit(rid) | removed
    out = []
    for cand in {mask | removed, (mask & ~added) | removed}:
        if cand & needed == needed and (cand & ~removed) | added == mask:
            out.append(Phase.of_mask(cand))
    return out


class _PrestarEngine:
    def __init__(self, smpds: SMPDS, aut: PAutomaton):
        self.smpds = smpds
        self.aut = aut.copy()
        self.stats = SaturationStats()

        # rule indexes
        self.pop_rules: list[tuple[RuleId, PdsRule]] = []
        self.one_rules: dict[tuple[str, str], list[tuple[RuleId, PdsRule]]] = {}
        self.two_rules: dict[tuple[str, str], list[tuple[RuleId, PdsRule]]] = {}
        for rid in smpds.delta:
            r = smpds.rules[rid]
            if len(r.rhs_word) == 0:
                self.pop_rules.append((rid, r))
            elif len(r.rhs_word) == 1:
                self.one_rules.setdefault(
                    (r.rhs_state, r.rhs_word[0]), []).append((rid, r))
            else:
                self.two_rules.setdefault(
                    (r.rhs_state, r.rhs_word[0]), []).append((rid, r))
        self.sm_by_target: dict[str, list[tuple[RuleId, SelfModRule]]] = {}
        for rid in smpds.delta_c:
            r = smpds.rules[rid]
            self.sm_by_target.setdefault(r.to_state, []).append((rid, r))

        # epsilon structure is static: the input may carry eps edges but the
        # saturation never adds any
        self.eps_succ: dict[AutState, frozenset[AutState]] = {}
        self.eps_pred: dict[AutState, set[AutState]] = {}
        for q in self.aut.states:
            cl = self.aut.eclosure(q)
            self.eps_succ[q] = cl
            for q2 in cl:
                self.eps_pred.setdefault(q2, set()).add(q)

        # eps-folded reading facts: (src, symbol) -> set of dst
        self.facts: dict[tuple[AutState, str], set[AutState]] = {}
        # partial matches for two-symbol rules: (mid-state, symbol) ->
        # transitions ((p,theta), g) waiting for the second edge
        self.pending: dict[tuple[AutState, str], set[tuple[Initial, str]]] = {}

        self.phases: set[Phase] = set()
        self.worklist: deque[tuple[AutState, str, AutState]] = deque()

    def _eps_succ(self, q: AutState) -> frozenset[AutState]:
        return self.eps_succ.get(q, frozenset((q,)))

    def _eps_pred(self, q: AutState) -> set[AutState]:
        return self.eps_pred.get(q, {q})

    def run(self) -> PAutomaton:
        for q in self.aut.initial_states():
            self._materialize_phase(q.phase)
        for src, label, dst in list(self.aut.transitions):
            if label is not EPS:
                self.worklist.append((src, label, dst))
        self._mark_initial_eps_accepting()
        while self.worklist:
            self._process(*self.worklist.popleft())
        return self.aut

    # -- transition insertion --------------------------------------------

    def _add(self, src: Initial, label: str, dst: AutState) -> None:
        if self.aut.add_transition(src, label, dst):
            self.stats.transitions_added += 1
            self.worklist.append((src, label, dst))
            self._materialize_phase(src.phase)

    def _materialize_phase(self, theta: Phase) -> None:
        if theta in self.phases:
            return
        self.phases.add(theta)
        # alpha1 for pop rules: the path (p1,theta) --eps--> q always exists
        for rid, r in self.pop_rules:
            if rid in theta:
                for q in self._eps_succ(Initial(r.rhs_state, theta)):
                    self._add(Initial(r.lhs_state, theta), r.lhs_symbol, q)

    # -- fact-driven rule firing -------------------------------------------

    def _process(self, src: AutState, label: str, dst: AutState) -> None:
        for s in self._eps_pred(src):
            for d in self._eps_succ(dst):
                key = (s, label)
                known = self.facts.setdefault(key, set())
                if d in known:
                    continue
                known.add(d)
                self._new_fact(s, label, d)

    def _new_fact(self, src: AutState, label: str, dst: AutState) -> None:
        for waiting_src, waiting_label in self.pending.get((src, label), ()):
            self._add(waiting_src, waiting_label, dst)
        if not isinstance(src, Initial):
            return
        p1, theta = src.control, src.phase
        for rid, r in self.one_rules.get((p1, label), ()):
            if rid in theta:
                self._add(Initial(r.lhs_state, theta), r.lhs_symbol, dst)
        for rid, r in self.two_rules.get((p1, label), ()):
            if rid in theta:
                trigger = (Initial(r.lhs_state, theta), r.lhs_symbol)
                waiting = self.pending.setdefault((dst, r.rhs_word[1]), set())
                if trigger in waiting:
                    # linked to every fact known when it was first added;
                    # each later fact replays the pending set
                    continue
                waiting.add(trigger)
                for q2 in self.facts.get((dst, r.rhs_word[1]), ()):
                    self._add(trigger[0], trigger[1], q2)
        for rid, r in self.sm_by_target.get(p1, ()):
            if rid in theta and r.added in theta:
                for theta_pred in solve_predecessor_phases(theta, rid, r):
                    self._add(Initial(r.from_state, theta_pred), label, dst)

    # -- empty-stack predecessors through modifying rules ------------------

    def _mark_initial_eps_accepting(self) -> None:
        # A modifying rule fires on an empty stack too: if (<p1, eps>, theta)
        # is accepted, its predecessor (<p, eps>, theta') must be as well,
        # which is only expressible by making (p, theta') final.
        queue = deque(q for q in self.aut.states
                      if isinstance(q, Initial)
                      and self._eps_succ(q) & self.aut.finals)
        seen = set(queue)
        while queue:
            q = queue.popleft()
            for rid, r in self.sm_by_target.get(q.control, ()):
                if rid in q.phase and r.added in q.phase:
                    for theta_pred in solve_predecessor_phases(q.phase, rid, r):
                        pred = Initial(r.from_state, theta_pred)
                        if pred not in self.aut.finals:
                            self.aut.add_final(pred)
                            self.stats.finals_added += 1
                            self._materialize_phase(theta_pred)
                        if pred not in seen:
                            seen.add(pred)
                            queue.append(pred)


def prestar(smpds: SMPDS, aut: PAutomaton,
            stats: SaturationStats | None = None) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts pre*(L(aut))."""
    return run_engine(_PrestarEngine, smpds, aut, stats)
