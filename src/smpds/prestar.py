"""Backward saturation: compute pre*(L(A)) on the P-automaton itself.

One loop serves direct pre* of an SM-PDS, whose rule source is the
`SMPDS`, and classical pre* of the translated PDS, whose source is the
paired rules (`translate.pds_prestar`).  Saturation rules, applied until
fixpoint:

  alpha1: for a plain rule <p,g> -> <p1,w> in a phase theta, whenever the
          automaton has a path (p1,theta) --w--> q, add ((p,theta), g, q).

  alpha2: for a modifying rule p --(r1,r2)--> p1, whenever a transition
          (p1,theta) --g--> q exists with the rule and r2 in theta, add
          ((p,theta'), g, q) for every predecessor phase theta' with
          theta = (theta' - {r1}) | {r2}.

`pre_moves` gives both but alpha1 for pop rules (`pop_moves`), which
fires into (p1,theta) only once that state is live: its empty stack is
accepted or it is the source of a reading fact.  So a transition it
adds leads to a dead end only through the input's.  A modifying rule
fires on the empty stack too, so `run` first makes final the
empty-stack predecessors (`mod_predecessors`) of every accepted state.
The input may contain epsilon transitions (they are honoured during
matching); the saturation only adds symbol-labelled ones.

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
from .model import SMPDS


class _PrestarEngine:
    def __init__(self, rules, aut: PAutomaton):
        self.rules = rules
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
        # the initial states whose pop rules have fired
        self.live: set[Initial] = set()

    def run(self) -> PAutomaton:
        aut = self.aut
        # each state whose empty stack is accepted is live, and the modifying
        # rules into it accept their sources' empty stacks
        todo = [q for q in aut.initial_states() if aut._close({q}) & aut.finals]
        while todo:
            q = todo.pop()
            if q not in self.live:
                self._make_live(q)
                for p, theta in self.rules.mod_predecessors(q.control, q.phase):
                    aut.add_final(Initial(p, theta))
                    todo.append(Initial(p, theta))
        for (src, label), delta in self.work:
            if label is not EPS:
                self._process(src, label, delta)
        return aut

    def _make_live(self, q: Initial) -> None:
        """alpha1 for the pop rules into q: the path q --eps--> q' exists for
        every q' in the closure of q, and q reaches a final state."""
        if q in self.live:
            return
        self.live.add(q)
        moves = self.rules.pop_moves(q.control, q.phase)
        if moves:
            self.work.add([(Initial(p, theta), g) for p, theta, g in moves],
                          self.aut._close({q}))

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
            self._make_live(src)
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
        first q arrives.
        """
        edges: list[tuple[Initial, str]] = []
        triggers: dict[str, set[tuple[Initial, str]]] = {}
        for p, theta, g, rest in self.rules.pre_moves(init.control, init.phase, label):
            lhs = (Initial(p, theta), g)
            if rest:
                triggers.setdefault(rest[0], set()).add(lhs)
            else:
                edges.append(lhs)
        return edges, triggers


def prestar(smpds: SMPDS, aut: PAutomaton) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts pre*(L(aut)).

    Raises `ValueError` on a wide rule (`SMPDS.check_narrow`), and on an
    input with a transition into an initial state unless pre* leaves it
    unchanged, as a pre* result fed back in: what the saturation adds at
    that state would also be read through the edge."""
    smpds.check_narrow()
    result = _PrestarEngine(smpds, aut).run()
    if aut.has_transition_into_initial() and (
            result.transition_count() > aut.transition_count()
            or len(result.finals) > len(aut.finals)):
        raise ValueError("input automaton has a transition into an initial "
                         "state, which pre* would extend")
    return result
