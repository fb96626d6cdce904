"""Backward saturation: compute pre*(L(A)) on the P-automaton itself.

One loop serves direct pre* of an SM-PDS, whose rule source is the
`SMPDS`, and classical pre* of the translated PDS
(`translate.pds_prestar`), whose source forwards the `SMPDS`'s moves
less the empty-stack ones and builds no paired rule.  Saturation rules, applied
until fixpoint:

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
since the key was last processed (see `automaton.DeltaWorklist`), popped
phase by phase: alpha2 and the empty-stack rule hand a phase's facts
back to its predecessor phases, which the worklist ranks after it
unless the phases form a cycle.  The
eps keys of the input are popped and skipped.  `run` is one flat loop.
It widens the delta once by the epsilon closures of its targets, whose
masks the automaton caches (`PAutomaton._close`: the saturation adds no
eps edge, so they never change), and each state s whose closure holds
src gains the new reading facts as one mask, diffed against the known
ones with one `&~`.  The rules waiting at (s, g) then fire on them:
those whose word ends with g (`pending`) insert the new facts' targets
in one `DeltaWorklist.add`, and those with more of their word to read
(`waiting`) move on to wait at each new target, which is where a mask is
decoded into its states (`_wait`).  A group of them that reaches several
states q at once waits at every (q, g2), and moves on once: the OR of
the facts at the keys where some of it is new goes into one
`DeltaWorklist.add`, or on along the rest of a longer word; a state
where the whole group waits already adds nothing.  The two tables are
Delta', the half-matched rules of the pre* of Esparza, Hansel,
Rossmanith and Schwoon (CAV 2000).  The rules that read an initial
state's own fact key wait there too: `_seed` puts them in the two
tables at the key's first fact, so pre* keeps no firing plan.
"""

from __future__ import annotations

from .automaton import EPS, AutState, DeltaWorklist, Initial, PAutomaton
from .model import Phase

# a transition ((p,theta), g) that a rule adds, and a group of them
# waiting for the rest of their word, split into its next symbol and the
# tail after it
_Lhs = tuple[Initial, str]
_Rest = tuple[str, tuple[str, ...], set[_Lhs]]


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
        # the rules waiting at a fact key (state, symbol), Delta': the
        # transitions ((p,theta), g) whose word ends with that symbol, and
        # those with more of it to read after, by that tail.  The rules that
        # read an initial state's key join them at its first fact (_seed).
        self.pending: dict[tuple[AutState, str], set[_Lhs]] = {}
        self.waiting: dict[tuple[AutState, str], dict[tuple[str, ...], set[_Lhs]]] = {}
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
            if self._make_live(q):
                for p, theta in self.rules.mod_predecessors(q.control, q.phase):
                    aut.add_final(Initial(p, theta))
                    todo.append(Initial(p, theta))
        close = aut._close
        eps_pred = self.eps_pred
        facts, pending, waiting = self.facts, self.pending, self.waiting
        add, wait, seed = self.work.add, self._wait, self._seed
        for (src, label), delta in self.work:
            if label is EPS:
                continue
            # the new facts s --label--> d for each state s whose closure
            # holds src, and the rules waiting at (s, label) fire on them
            delta = close(delta)
            for s in eps_pred.get(src, (src,)):
                key = (s, label)
                known = facts.get(key)
                if known is None:
                    if isinstance(s, Initial):
                        seed(s, label)
                    fresh = facts[key] = delta
                else:
                    fresh = delta & ~known
                    if not fresh:
                        continue
                    facts[key] = known | fresh
                add(pending.get(key, ()), fresh)
                by_tail = waiting.get(key)
                if by_tail:
                    wait([(t[0], t[1:], group) for t, group in by_tail.items()], fresh)
        return aut

    def _make_live(self, q: Initial) -> bool:
        """alpha1 for the pop rules into q: the path q --eps--> q' exists for
        every q' in the closure of q, and q reaches a final state.  False
        if q was live already."""
        if q in self.live:
            return False
        self.live.add(q)
        moves = self.rules.pop_moves(q.control, q.phase)
        if moves:
            # each (control, phase) is interned once, however many moves
            # share it; an explicit PDS's pop rules may change the phase
            initial: dict[tuple[str, Phase], Initial] = {}
            edges = []
            for p, theta, g in moves:
                src = initial.get((p, theta))
                if src is None:
                    src = initial[p, theta] = Initial(p, theta)
                edges.append((src, g))
            self.work.add(edges, self.aut._close(self.aut.bit(q)))
        return True

    def _seed(self, init: Initial, label: str) -> None:
        """At the first fact of the key (init, label): init is live, and
        every rule that alpha1 or alpha2 reads from it on `label` waits at
        the key like a half-matched rule, in `pending` if its word ends
        there and in `waiting` under the rest of its word if not."""
        self._make_live(init)
        key = (init, label)
        ends = self.pending.setdefault(key, set())
        by_tail = self.waiting.setdefault(key, {})
        # each (control, phase) is interned once, however many moves share it
        initial: dict[tuple[str, Phase], Initial] = {}
        for p, theta, g, rest in self.rules.pre_moves(init.control, init.phase, label):
            src = initial.get((p, theta))
            if src is None:
                src = initial[p, theta] = Initial(p, theta)
            if rest:
                by_tail.setdefault(rest, set()).add((src, g))
            else:
                ends.add((src, g))

    def _wait(self, rests: list[_Rest], dsts: int) -> None:
        """Leave each group of transitions in `rests` waiting at every
        state q in the mask `dsts` for the rest of its word, and move it
        on along the facts already known: a group that waits at (q, g2)
        was linked to every fact known then, and each later fact replays
        the waiting set.  A group moves on once, with the OR of the facts
        at each (q, g2) where some of it is new: one `DeltaWorklist.add`
        if its word ends with g2, else one worklist entry for the rest of
        it.  Members that waited at q already add nothing there, and a q
        where the whole group waits is skipped, so a long push stays
        bounded.  A group is handed on as the stored set it is, which may
        grow before it is popped; every member of it may move on along
        every fact of its key, so that stays sound.  A worklist, not
        recursion, so a long pushed word does not deepen the Python
        stack."""
        add = self.work.add
        states_of = self.aut.states_of
        pending, waiting, facts = self.pending, self.waiting, self.facts
        todo = [(rests, dsts)]
        while todo:
            rests, dsts = todo.pop()
            states = states_of(dsts)
            for g2, tail, group in rests:
                joined = 0
                for q in states:
                    key = (q, g2)
                    known = (waiting.setdefault(key, {}).get(tail) if tail
                             else pending.get(key))
                    if known is None:
                        if tail:
                            waiting[key][tail] = set(group)
                        else:
                            pending[key] = set(group)
                    elif group <= known:
                        continue
                    else:
                        known |= group
                    joined |= facts.get(key, 0)
                if joined:
                    if tail:
                        todo.append(([(tail[0], tail[1:], group)], joined))
                    else:
                        add(group, joined)


def prestar(rules, aut: PAutomaton) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts pre*(L(aut)) under `rules`,
    the `SMPDS` or any rule source with its moves, such as a translated
    PDS, which forwards the moves of its SM-PDS (`translate.pds_prestar`).

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
