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
reached through modifying rules (`saturation.close_empty_stack`).  Rule
indexes and `mod_predecessors` come from the `SMPDS`.

The unit of work is a key (src, g) with the set of its targets added
since the key was last processed (see `automaton.DeltaWorklist`); the
eps keys of the input are popped and skipped.  The delta is widened once
by the epsilon closures of its targets, which the automaton caches
(`PAutomaton._close`: the saturation adds no eps edge, so they never
change), and each state whose closure holds src gains the new reading
facts as one set.
Every rule, and every two-symbol rule waiting on the key, then inserts
the new facts' targets in one call.
"""

from __future__ import annotations

from .automaton import EPS, AutState, DeltaWorklist, Initial, PAutomaton
from .model import Phase, SMPDS
from .saturation import SaturationStats, close_empty_stack, run_engine


class _PrestarEngine:
    def __init__(self, smpds: SMPDS, aut: PAutomaton):
        self.smpds = smpds
        self.aut = aut.copy()
        self.work = DeltaWorklist(self.aut)

        # epsilon structure is static: the input may carry eps edges but the
        # saturation never adds any, so the automaton's cached closures hold
        # throughout.  eps_pred maps a state to every state whose closure
        # holds it; only states with an eps edge on either side have entries.
        self.eps_pred: dict[AutState, set[AutState]] = {}
        if self.aut.has_epsilon():
            for q in self.aut.states:
                cl = self.aut.eclosure(q)
                if len(cl) > 1:
                    for q2 in cl:
                        self.eps_pred.setdefault(q2, {q2}).add(q)

        # eps-folded reading facts: (src, symbol) -> set of dst
        self.facts: dict[tuple[AutState, str], set[AutState]] = {}
        # partial matches for two-symbol rules: (mid-state, symbol) ->
        # transitions ((p,theta), g) waiting for the second edge
        self.pending: dict[tuple[AutState, str], set[tuple[Initial, str]]] = {}
        # fact key ((p1,theta), g) -> its firing plan, see _firing_plan
        self.plans: dict[tuple[Initial, str],
                         tuple[list[tuple[Initial, str]],
                               dict[str, set[tuple[Initial, str]]]]] = {}

        self.phases: set[Phase] = set()

    def run(self) -> PAutomaton:
        aut = self.aut
        close_empty_stack(aut, [q for q in aut.initial_states()
                                 if aut._close({q}) & aut.finals],
                          self.smpds.mod_predecessors)
        for q in aut.initial_states():
            self._materialize_phase(q.phase)
        for (src, label), delta in self.work:
            if label is not EPS:
                self._process(src, label, delta)
        return aut

    def _materialize_phase(self, theta: Phase) -> None:
        if theta in self.phases:
            return
        self.phases.add(theta)
        # alpha1 for pop rules: the path (p1,theta) --eps--> q always exists
        for rid, r in self.smpds.pop_rules:
            if rid in theta:
                self.work.add([(Initial(r.lhs_state, theta), r.lhs_symbol)],
                              self.aut._close({Initial(r.rhs_state, theta)}))

    # -- fact-driven rule firing -------------------------------------------

    def _process(self, src: AutState, label: str, delta: set[AutState]) -> None:
        """Fold the eps edges around the new transitions src --label--> delta
        and fire the rules on the facts that are new."""
        delta = self.aut._close(delta)
        for s in self.eps_pred.get(src, (src,)):
            key = (s, label)
            known = self.facts.get(key)
            if known is None:
                fresh = self.facts[key] = set(delta)
            else:
                fresh = delta - known
                if not fresh:
                    continue
                known |= fresh
            self._new_facts(s, label, fresh)

    def _new_facts(self, src: AutState, label: str, dsts: set[AutState]) -> None:
        """Fire every rule on the new facts src --label--> d, d in `dsts`."""
        add = self.work.add
        add(self.pending.get((src, label), ()), dsts)
        if not isinstance(src, Initial):
            return
        key = (src, label)
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = self._firing_plan(src, label)
        edges, triggers = plan
        add(edges, dsts)
        pending, facts = self.pending, self.facts
        for g2, group in triggers.items():
            for dst in dsts:
                second = (dst, g2)
                waiting = pending.get(second)
                if waiting is None:
                    fresh = pending[second] = set(group)
                else:
                    # a trigger already waiting was linked to every fact
                    # known when it was first added; each later fact
                    # replays the pending set
                    fresh = group - waiting
                    if not fresh:
                        continue
                    waiting |= fresh
                known = facts.get(second)
                if known:
                    add(fresh, known)

    def _firing_plan(self, init: Initial, label: str) -> tuple[
            list[tuple[Initial, str]], dict[str, set[tuple[Initial, str]]]]:
        """What every fact (init, label, q) fires, whatever q is.

        The edges (src, g) that alpha1 for one-symbol rules and alpha2 link
        to q, and, by g2, the transitions ((p,theta), g) that two-symbol
        rules leave waiting at (q, g2).  Built once per fact key, when its
        first q arrives and the edges are about to be inserted, so the
        phases of the alpha2 sources are materialized here.
        """
        p1, theta = init.control, init.phase
        edges: list[tuple[Initial, str]] = []
        triggers: dict[str, set[tuple[Initial, str]]] = {}
        for rid, r in self.smpds.plain_by_rhs_head.get((p1, label), ()):
            if rid in theta:
                lhs = (Initial(r.lhs_state, theta), r.lhs_symbol)
                if len(r.rhs_word) == 1:
                    edges.append(lhs)
                else:
                    triggers.setdefault(r.rhs_word[1], set()).add(lhs)
        for p, theta_pred in self.smpds.mod_predecessors(p1, theta):
            edges.append((Initial(p, theta_pred), label))
            self._materialize_phase(theta_pred)
        return edges, triggers


def prestar(smpds: SMPDS, aut: PAutomaton,
            stats: SaturationStats | None = None) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts pre*(L(aut))."""
    return run_engine(_PrestarEngine, smpds, aut, stats)
