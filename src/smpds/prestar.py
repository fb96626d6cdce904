"""Backward saturation: compute pre*(L(A)) on the P-automaton itself.

One loop serves direct pre* of an SM-PDS, whose rule source is the
`SMPDS`, and classical pre* of the translated PDS, whose source is the
paired rules (`translate.pds_prestar`).  Saturation rules, applied until
fixpoint:

  alpha1: for a plain rule <p,g> -> <p1,w> in a phase theta, whenever the
          automaton has a path (p1,theta) --w--> q, add ((p,theta), g, q).
          w may have any length; the path is followed one symbol at a
          time, as the facts arrive.

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

The unit of work is a key (src, g) with the mask of its targets added
since the key was last processed (see `automaton.DeltaWorklist`); the
eps keys of the input are popped and skipped.  The delta is widened once
by the epsilon closures of its targets, whose masks the automaton caches
(`PAutomaton._close`: the saturation adds no eps edge, so they never
change), and each state whose closure holds src gains the new reading
facts as one mask, diffed against the known ones with one `&~`.
Every rule, and every rule waiting on the key for the last symbol of
its word, then inserts the new facts' targets in one call; a rule with
more of its word to read moves on to wait at each new target, which is
where a mask is decoded into its states.
"""

from __future__ import annotations

from .automaton import EPS, AutState, DeltaWorklist, Initial, PAutomaton

# a transition ((p,theta), g) that a rule adds; a group of them waiting
# for the rest of their word, split into its next symbol and the tail
# after it; and the firing plan of a fact key: the edges and the groups
_Lhs = tuple[Initial, str]
_Rest = tuple[str, tuple[str, ...], set[_Lhs]]
_Plan = tuple[list[_Lhs], list[_Rest]]


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

        # eps-folded reading facts: (src, symbol) -> mask of dst
        self.facts: dict[tuple[AutState, str], int] = {}
        # partial matches: (mid-state, symbol) -> transitions ((p,theta), g)
        # waiting for the last edge of their rule's word
        self.pending: dict[tuple[AutState, str], set[_Lhs]] = {}
        # the same for rules with more than one symbol still to read after
        # (mid-state, symbol), by the tail that follows it
        self.waiting: dict[tuple[AutState, str], dict[tuple[str, ...], set[_Lhs]]] = {}
        # fact key ((p1,theta), g) -> its firing plan, see _firing_plan
        self.plans: dict[tuple[Initial, str], _Plan] = {}
        # the initial states whose pop rules have fired
        self.live: set[Initial] = set()

    def run(self) -> PAutomaton:
        aut = self.aut
        # each state whose empty stack is accepted is live, and the modifying
        # rules into it accept their sources' empty stacks
        todo = [q for q in aut.initial_states()
                if aut._close(aut.bit(q)) & aut._finals]
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
                          self.aut._close(self.aut.bit(q)))

    # -- fact-driven rule firing -------------------------------------------

    def _process(self, src: AutState, label: str, delta: int) -> None:
        """Fold the eps edges around the new transitions src --label--> delta
        and fire the rules on the facts that are new."""
        delta = self.aut._close(delta)
        for s in self.eps_pred.get(src, (src,)):
            key = (s, label)
            known = self.facts.get(key)
            if known is None:
                fresh = self.facts[key] = delta
            else:
                fresh = delta & ~known
                if not fresh:
                    continue
                self.facts[key] = known | fresh
            self._new_facts(s, label, fresh)

    def _new_facts(self, src: AutState, label: str, dsts: int) -> None:
        """Fire every rule on the new facts src --label--> d, d in the mask
        `dsts`."""
        add = self.work.add
        key = (src, label)
        add(self.pending.get(key, ()), dsts)
        by_tail = self.waiting.get(key)
        if by_tail:
            self._wait([(t[0], t[1:], group) for t, group in by_tail.items()], dsts)
        if not isinstance(src, Initial):
            return
        plan = self.plans.get(key)
        if plan is None:
            self._make_live(src)
            plan = self.plans[key] = self._firing_plan(src, label)
        edges, rests = plan
        add(edges, dsts)
        if rests:
            self._wait(rests, dsts)

    def _firing_plan(self, init: Initial, label: str) -> _Plan:
        """What every fact (init, label, q) fires, whatever q is.

        The edges (src, g) that alpha1 for one-symbol rules and alpha2 link
        to q, and the transitions ((p,theta), g) that longer rules leave
        waiting at q, grouped by the rest of the word, as `_wait` reads
        them.  Built once per fact key, when its first q arrives.
        """
        edges: list[_Lhs] = []
        rests: dict[tuple[str, ...], set[_Lhs]] = {}
        for p, theta, g, rest in self.rules.pre_moves(init.control, init.phase, label):
            lhs = (Initial(p, theta), g)
            if rest:
                rests.setdefault(rest, set()).add(lhs)
            else:
                edges.append(lhs)
        return edges, [(w[0], w[1:], group) for w, group in rests.items()]

    def _wait(self, rests: list[_Rest], dsts: int) -> None:
        """Leave each group of transitions in `rests` waiting at every
        state q in the mask `dsts` for the rest of its word, and move it
        on along the facts already known: a group that waits at (q, g2)
        was linked to every fact known then, and each later fact replays
        the waiting set.  A worklist, not recursion, so a long pushed word
        does not deepen the Python stack."""
        add = self.work.add
        states_of = self.aut.states_of
        pending, waiting, facts = self.pending, self.waiting, self.facts
        todo = [(rests, dsts)]
        while todo:
            rests, dsts = todo.pop()
            states = states_of(dsts)
            for g2, tail, group in rests:
                for q in states:
                    key = (q, g2)
                    known = (waiting.setdefault(key, {}).get(tail) if tail
                             else pending.get(key))
                    if known is None:
                        fresh = set(group)
                        if tail:
                            waiting[key][tail] = fresh
                        else:
                            pending[key] = fresh
                    else:
                        fresh = group - known
                        if not fresh:
                            continue
                        known |= fresh
                    targets = facts.get(key)
                    if not targets:
                        continue
                    if tail:
                        todo.append(([(tail[0], tail[1:], fresh)], targets))
                    else:
                        add(fresh, targets)


def prestar(rules, aut: PAutomaton) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts pre*(L(aut)) under `rules`,
    the `SMPDS` or any rule source with its moves, such as the paired
    rules of a translated PDS (`translate.pds_prestar`).

    Raises `ValueError` on an input with a transition into an initial
    state unless pre* leaves it unchanged, as a pre* result fed back in:
    what the saturation adds at that state would also be read through the
    edge."""
    result = _PrestarEngine(rules, aut).run()
    if aut.has_transition_into_initial() and (
            result.transition_count() > aut.transition_count()
            or len(result.finals) > len(aut.finals)):
        raise ValueError("input automaton has a transition into an initial "
                         "state, which pre* would extend")
    return result
