"""Backward saturation: compute pre*(L(A)) by saturating the P-automaton.

One function serves direct pre* of an SM-PDS, whose rule source is the
`SMPDS`, and classical pre* of the translated PDS, whose source forwards
the `SMPDS`'s moves less the empty-stack ones and builds no paired rule:
`translate.pds_prestar` is another name for `prestar`.  Saturation
rules, applied until fixpoint:

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
fires on the empty stack too, so `prestar` first makes final the
empty-stack predecessors (`mod_predecessors`) of every accepted state.
The input may contain epsilon transitions (they are honoured during
matching); the saturation only adds symbol-labelled ones.

The unit of work is a key (src, g) with the mask of its targets added
since the key was last processed (see `automaton.DeltaWorklist`), popped
phase by phase: alpha2 and the empty-stack rule hand a phase's facts
back to its predecessor phases, which the worklist ranks after it
unless the phases form a cycle.  The eps keys of the input are popped
and skipped.  `prestar` is one function, whose locals are the run's
state, with one flat loop.  It widens the delta once by the epsilon
closures of its targets, whose masks the automaton caches
(`PAutomaton._close`: the saturation adds no eps edge, so they never
change), and each state s whose closure holds src gains the new reading
facts as one mask, diffed against the known ones with one `&~`.  The
rules waiting at (s, g) then fire on them: those whose word ends with g
(`pending`) insert the new facts' targets in one `PAutomaton.insert`,
and those with more of their word to read (`waiting`) move on to wait
at each new target, which is where a mask is decoded into its states
(`wait`).  A group of them that reaches several states q at once waits
at every (q, g2), and moves on once: the OR of the facts at the keys
where some of it is new goes into one `PAutomaton.insert`, or on along
the rest of a longer word; a state where the whole group waits already
adds nothing.  The two tables are Delta', the half-matched rules of the
pre* of Esparza, Hansel, Rossmanith and Schwoon (CAV 2000).  The rules
that read an initial state's own fact key wait there too: `seed` puts
them in the two tables at the key's first fact, so pre* keeps no firing
plan.

The facts and the two tables are keyed by symbol, then by state: one
dict per symbol of the alphabet, which maps a state to its facts mask,
its pending set or its waiting-by-tail dict.  The loop fetches a popped
label's three dicts once per key, and `wait` those of a group's next
symbol once per group, so each lookup inside hashes a state, an
identity hash, and builds no (state, symbol) tuple.  `seed`,
`make_live` and the empty-stack rule find the initial states their moves
lead to with one subscript of `Initial`'s intern table, which builds a
state only the first time any run meets it: pre* keeps no memo of its
own and calls no constructor.  A run makes no reference cycle and runs
with the cyclic collector paused (see `model`).
"""

from __future__ import annotations

from .automaton import EPS, AutState, DeltaWorklist, Initial, PAutomaton
from .model import collector_paused

# a transition ((p,theta), g) that a rule adds, and a group of them
# waiting for the rest of their word, split into its next symbol and the
# tail after it
_Lhs = tuple[Initial, str]
_Rest = tuple[str, tuple[str, ...], set[_Lhs]]


@collector_paused
def prestar(rules, aut: PAutomaton) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts pre*(L(aut)) under `rules`,
    the `SMPDS` or any rule source with its moves, such as a translated
    PDS, which forwards the moves of its SM-PDS (`translate.to_pds`).

    Raises `ValueError` on an input with a transition into an initial
    state unless pre* leaves it unchanged, as a pre* result fed back in:
    what the saturation adds at that state would also be read through the
    edge."""
    result = aut.copy()
    work = DeltaWorklist(result)
    insert, deltas, queue = result.insert, work.deltas, work.queue
    close = result._close
    bit = result.bit
    states_of = result.states_of

    # epsilon structure is static: the input may carry eps edges but the
    # saturation never adds any, so the automaton's cached closures hold
    # throughout.  eps_pred maps a state to every state whose closure
    # holds it; only states with an eps edge on either side have entries.
    eps_pred: dict[AutState, set[AutState]] = {}
    if result.has_epsilon():
        for q in result.states:
            cl = result.eclosure(q)
            if len(cl) > 1:
                for q2 in cl:
                    eps_pred.setdefault(q2, {q2}).add(q)

    # the run's tables are keyed by symbol, then by state: one dict per
    # symbol of the alphabet, fetched once per popped key and once per
    # group that `wait` moves on.  A symbol outside the alphabet labels
    # no fact, so it has no tables.
    # eps-folded reading facts: symbol -> src -> mask of dst
    facts: dict[str, dict[AutState, int]] = {g: {} for g in result.alphabet}
    # the rules waiting at a fact key, Delta', by its symbol, then its
    # state: the transitions ((p,theta), g) whose word ends with that
    # symbol (`pending`), and those with more of it to read after, by that
    # tail (`waiting`).  The rules that read an initial state's key join
    # them at its first fact (seed).
    pending: dict[str, dict[AutState, set[_Lhs]]] = {g: {} for g in result.alphabet}
    waiting: dict[str, dict[AutState, dict[tuple[str, ...], set[_Lhs]]]] = {
        g: {} for g in result.alphabet}
    # the initial states whose pop rules have fired
    live: set[Initial] = set()
    # (control, phase) -> its initial state, built on a miss
    initial = Initial._table

    def make_live(q: Initial) -> None:
        """alpha1 for the pop rules into q, which is not live yet: the path
        q --eps--> q' exists for every q' in the closure of q, and q
        reaches a final state."""
        live.add(q)
        moves = rules.pop_moves(q.control, q.phase)
        if moves:
            # an explicit PDS's pop rules may change the phase
            insert([(initial[p, theta], g) for p, theta, g in moves], close(bit(q)),
                   deltas, queue)

    def seed(init: Initial, label: str, pending_g: dict, waiting_g: dict) -> None:
        """At the first fact of the key (init, label): init is live, and
        every rule that alpha1 or alpha2 reads from it on `label` waits at
        the key like a half-matched rule, in `pending_g` if its word ends
        there and in `waiting_g` under the rest of its word if not: the
        two tables of `label`."""
        if init not in live:
            make_live(init)
        ends = pending_g.setdefault(init, set())
        by_tail = waiting_g.setdefault(init, {})
        for p, theta, g, rest in rules.pre_moves(init.control, init.phase, label):
            src = initial[p, theta]
            if rest:
                by_tail.setdefault(rest, set()).add((src, g))
            else:
                ends.add((src, g))

    def wait(rests: list[_Rest], dsts: int) -> None:
        """Leave each group of transitions in `rests` waiting at every
        state q in the mask `dsts` for the rest of its word, and move it
        on along the facts already known: a group that waits at (q, g2)
        was linked to every fact known then, and each later fact replays
        the waiting set.  A group moves on once, with the OR of the facts
        at each (q, g2) where some of it is new: one `PAutomaton.insert`
        if its word ends with g2, else one worklist entry for the rest of
        it.  Members that waited at q already add nothing there, and a q
        where the whole group waits is skipped, so a long push stays
        bounded.  A group is handed on as the stored set it is, which may
        grow before it is popped; every member of it may move on along
        every fact of its key, so that stays sound.  A worklist, not
        recursion, so a long pushed word does not deepen the Python
        stack."""
        todo = [(rests, dsts)]
        while todo:
            rests, dsts = todo.pop()
            states = states_of(dsts)
            for g2, tail, group in rests:
                facts_g = facts.get(g2)
                if facts_g is None:
                    continue
                pending_g, waiting_g = pending[g2], waiting[g2]
                joined = 0
                for q in states:
                    known = (waiting_g.setdefault(q, {}).get(tail) if tail
                             else pending_g.get(q))
                    if known is None:
                        if tail:
                            waiting_g[q][tail] = set(group)
                        else:
                            pending_g[q] = set(group)
                    elif group <= known:
                        continue
                    else:
                        known |= group
                    joined |= facts_g.get(q, 0)
                if joined:
                    if tail:
                        todo.append(([(tail[0], tail[1:], group)], joined))
                    else:
                        insert(group, joined, deltas, queue)

    # each state whose empty stack is accepted is live, and the modifying
    # rules into it accept their sources' empty stacks
    todo = [q for q in result.initial_states()
            if close(bit(q)) & result._finals]
    while todo:
        q = todo.pop()
        if q not in live:
            make_live(q)
            for p, theta in rules.mod_predecessors(q.control, q.phase):
                src = initial[p, theta]
                result.add_final(src)
                todo.append(src)
    for (src, label), delta in work:
        if label is EPS:
            continue
        # the new facts s --label--> d for each state s whose closure
        # holds src, and the rules waiting at (s, label) fire on them
        facts_g, pending_g, waiting_g = facts[label], pending[label], waiting[label]
        delta = close(delta)
        for s in eps_pred.get(src, (src,)):
            known = facts_g.get(s)
            if known is None:
                if isinstance(s, Initial):
                    seed(s, label, pending_g, waiting_g)
                fresh = facts_g[s] = delta
            else:
                fresh = delta & ~known
                if not fresh:
                    continue
                facts_g[s] = known | fresh
            ends = pending_g.get(s)
            if ends:
                insert(ends, fresh, deltas, queue)
            by_tail = waiting_g.get(s)
            if by_tail:
                wait([(t[0], t[1:], group) for t, group in by_tail.items()], fresh)
    if aut.has_transition_into_initial() and (
            result.transition_count() > aut.transition_count()
            or len(result.finals) > len(aut.finals)):
        raise ValueError("input automaton has a transition into an initial "
                         "state, which pre* would extend")
    return result
