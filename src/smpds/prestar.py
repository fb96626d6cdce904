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

The unit of work is a key (src, g) with the set of its targets added
since the key was last processed (see `saturation.DeltaWorklist`).  The
delta is widened by the epsilon closure of its targets once, and each
state whose closure holds src gains the new reading facts as one set.
Every rule, and every two-symbol rule waiting on the key, then inserts
the new facts' targets in one call.
"""

from __future__ import annotations

from collections import deque

from .automaton import EPS, AutState, Initial, PAutomaton
from .model import Phase, PdsRule, RuleId, SelfModRule, SMPDS, rule_bit
from .saturation import DeltaWorklist, SaturationStats, run_engine


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
        self.work = DeltaWorklist(self.aut, self.stats)

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
        # saturation never adds any.  Only states with an eps edge on either
        # side have entries; every other state closes to itself.
        self.eps_succ: dict[AutState, set[AutState]] = {}
        self.eps_pred: dict[AutState, set[AutState]] = {}
        for q in self.aut.states:
            cl = self.aut.eclosure(q)
            if len(cl) > 1:
                self.eps_succ[q] = set(cl)
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

    def _eps_succ(self, q: AutState) -> set[AutState]:
        return self.eps_succ.get(q) or {q}

    def run(self) -> PAutomaton:
        for q in self.aut.initial_states():
            self._materialize_phase(q.phase)
        for src, by_label in self.aut._out.items():
            for label, targets in by_label.items():
                if label is not EPS:
                    self.work.queue((src, label), set(targets))
        self._mark_initial_eps_accepting()
        for (src, label), delta in self.work:
            self._process(src, label, delta)
        return self.aut

    def _materialize_phase(self, theta: Phase) -> None:
        if theta in self.phases:
            return
        self.phases.add(theta)
        # alpha1 for pop rules: the path (p1,theta) --eps--> q always exists
        for rid, r in self.pop_rules:
            if rid in theta:
                self.work.add([(Initial(r.lhs_state, theta), r.lhs_symbol)],
                              self._eps_succ(Initial(r.rhs_state, theta)))

    # -- fact-driven rule firing -------------------------------------------

    def _process(self, src: AutState, label: str, delta: set[AutState]) -> None:
        """Fold the eps edges around the new transitions src --label--> delta
        and fire the rules on the facts that are new."""
        if self.eps_succ:
            closed = set(delta)
            for d in delta:
                cl = self.eps_succ.get(d)
                if cl is not None:
                    closed |= cl
            delta = closed
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
        for rid, r in self.one_rules.get((p1, label), ()):
            if rid in theta:
                edges.append((Initial(r.lhs_state, theta), r.lhs_symbol))
        for rid, r in self.sm_by_target.get(p1, ()):
            if rid in theta and r.added in theta:
                for theta_pred in solve_predecessor_phases(theta, rid, r):
                    edges.append((Initial(r.from_state, theta_pred), label))
                    self._materialize_phase(theta_pred)
        triggers: dict[str, set[tuple[Initial, str]]] = {}
        for rid, r in self.two_rules.get((p1, label), ()):
            if rid in theta:
                triggers.setdefault(r.rhs_word[1], set()).add(
                    (Initial(r.lhs_state, theta), r.lhs_symbol))
        return edges, triggers

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
