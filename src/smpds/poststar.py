"""Direct forward saturation: compute post*(L(A)) on the P-automaton itself.

Saturation rules, applied until fixpoint, given a reading fact
(p,theta) --g--> q (a direct transition or an epsilon edge followed by a
symbol edge):

  beta1: <p,g> -> <p',eps>   in theta: add ((p',theta), eps, q).
  beta2: <p,g> -> <p',g'>    in theta: add ((p',theta), g', q).
  beta3: <p,g> -> <p',g1 g2> in theta: add ((p',theta), g1, G) and
         (G, g2, q) where G is the generated state for (p', g1, theta).
  beta4: p --(r1,r2)--> p' and r1 both in theta: add ((p',theta'), g, q)
         with theta' = (theta - {r1}) | {r2}.

The rule for the empty stack: a modifying rule also fires when the stack
is empty, so whenever (<p, eps>, theta) is accepted the successor
(<p', eps>, theta') must be as well; this is realized with an extra
epsilon edge (or final marking when the initial state itself is final).
"""

from __future__ import annotations

from collections import deque

from .automaton import EPS, AutState, Generated, Initial, Label, PAutomaton
from .model import PdsRule, RuleId, SelfModRule, SMPDS
from .prestar import SaturationStats, run_engine


class _PoststarEngine:
    def __init__(self, smpds: SMPDS, aut: PAutomaton):
        if aut.has_transition_into_initial():
            raise ValueError("input automaton has a transition into an initial state")
        for src, label, _ in aut.transitions:
            # the saturation's own output has eps edges, but only leaving
            # initial states; anything else is rejected rather than closed
            if label is EPS and not isinstance(src, Initial):
                raise ValueError("epsilon edges may only leave initial states")
        self.smpds = smpds
        self.aut = aut.copy()
        self.stats = SaturationStats()

        self.rules_by_lhs: dict[tuple[str, str], list[tuple[RuleId, PdsRule]]] = {}
        for rid in smpds.delta:
            r = smpds.rules[rid]
            self.rules_by_lhs.setdefault((r.lhs_state, r.lhs_symbol), []).append((rid, r))
        self.sm_by_source: dict[str, list[tuple[RuleId, SelfModRule]]] = {}
        for rid in smpds.delta_c:
            r = smpds.rules[rid]
            self.sm_by_source.setdefault(r.from_state, []).append((rid, r))

        # epsilon edges go from initial states to non-initial states only,
        # so closures never chain
        self.eps_out: dict[Initial, set[AutState]] = {}
        self.eps_into: dict[AutState, set[Initial]] = {}
        # reading fact key ((p,theta), g) -> (the q's seen so far, its firing plan)
        self.facts: dict[tuple[Initial, str],
                         tuple[set[AutState], list[tuple[AutState, Label]]]] = {}
        self.worklist: deque[tuple[AutState, Label, AutState]] = deque()

    def run(self) -> PAutomaton:
        for q in list(self.aut.states):
            if isinstance(q, Initial) and q in self.aut.finals:
                self._empty_stack_successors(q)
        for t in list(self.aut.transitions):
            self.worklist.append(t)
        while self.worklist:
            self._process(*self.worklist.popleft())
        return self.aut

    def _add(self, src: AutState, label: Label, dst: AutState) -> None:
        if self.aut.add_transition(src, label, dst):
            self.stats.transitions_added += 1
            self.worklist.append((src, label, dst))

    def _process(self, src: AutState, label: Label, dst: AutState) -> None:
        if isinstance(src, Initial):
            if label is EPS:
                self.eps_out.setdefault(src, set()).add(dst)
                self.eps_into.setdefault(dst, set()).add(src)
                for symbol, targets in list(self.aut._out.get(dst, {}).items()):
                    if symbol is not EPS:
                        for q in list(targets):
                            self._new_fact(src, symbol, q)
                if dst in self.aut.finals:
                    self._empty_stack_successors(src)
            else:
                self._new_fact(src, label, dst)
        else:
            for init in list(self.eps_into.get(src, ())):
                self._new_fact(init, label, dst)

    def _new_fact(self, init: Initial, symbol: str, q: AutState) -> None:
        key = (init, symbol)
        fact = self.facts.get(key)
        if fact is None:
            fact = self.facts[key] = (set(), self._firing_plan(init, symbol))
        known, plan = fact
        if q in known:
            return
        known.add(q)
        for src, label in plan:
            self._add(src, label, q)

    def _firing_plan(self, init: Initial, symbol: str) -> list[tuple[AutState, Label]]:
        """The edges (src, label) that every fact (init, symbol, q) links to q.

        Built once per fact key, when its first q arrives: the rules that
        fire depend on the control point, the phase and the symbol only.
        The first edge of a beta3 push does not depend on q, so it is
        added here, once.
        """
        p, theta = init.control, init.phase
        plan: list[tuple[AutState, Label]] = []
        for rid, r in self.rules_by_lhs.get((p, symbol), ()):
            if rid not in theta:
                continue
            src = Initial(r.rhs_state, theta)
            if len(r.rhs_word) == 0:
                plan.append((src, EPS))
            elif len(r.rhs_word) == 1:
                plan.append((src, r.rhs_word[0]))
            else:
                gen = Generated(r.rhs_state, r.rhs_word[0], theta)
                self._add(src, r.rhs_word[0], gen)
                plan.append((gen, r.rhs_word[1]))
        for rid, r in self.sm_by_source.get(p, ()):
            if rid in theta and r.removed in theta:
                plan.append((Initial(r.to_state, theta.update(r.removed, r.added)),
                             symbol))
        return plan

    def _empty_stack_successors(self, init: Initial) -> None:
        """Fire modifying rules from a state that accepts the empty stack,
        and from each successor that comes to accept it in turn."""
        todo = [init]
        while todo:
            q = todo.pop()
            theta = q.phase
            eps_final = next((f for f in self.eps_out.get(q, ())
                              if f in self.aut.finals), None)
            for rid, r in self.sm_by_source.get(q.control, ()):
                if rid in theta and r.removed in theta:
                    succ = Initial(r.to_state, theta.update(r.removed, r.added))
                    if eps_final is not None:
                        self._add(succ, EPS, eps_final)
                    elif succ not in self.aut.finals:
                        self.aut.add_final(succ)
                        self.stats.finals_added += 1
                        todo.append(succ)


def poststar(smpds: SMPDS, aut: PAutomaton,
             stats: SaturationStats | None = None) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts post*(L(aut))."""
    return run_engine(_PoststarEngine, smpds, aut, stats)
