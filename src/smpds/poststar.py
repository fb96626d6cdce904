"""Forward saturation: compute post*(L(A)) by saturating the P-automaton.

One function serves direct post* of an SM-PDS, whose rule source is the
`SMPDS`, and classical post* of the translated PDS, whose source forwards
the `SMPDS`'s moves less the empty-stack ones and builds no paired rule:
`translate.pds_poststar` is another name for `poststar`.  Saturation
rules, applied until fixpoint, given a reading fact (p,theta) --g--> q
(a direct transition or an epsilon edge followed by a symbol edge):

  beta1: <p,g> -> <p',eps>   in theta: add ((p',theta), eps, q).
  beta2: <p,g> -> <p',g'>    in theta: add ((p',theta), g', q).
  beta3: <p,g> -> <p',g1...gn> (n >= 2) in theta: add the chain
         (p',theta) --g1--> G1 --g2--> ... G(n-1) and (G(n-1), gn, q),
         where Gk is the generated state for (p', (g1, ..., gk), theta).
  beta4: p --(r1,r2)--> p' and r1 both in theta: add ((p',theta'), g, q)
         with theta' = (theta - {r1}) | {r2}.

The rule for the empty stack: a modifying rule also fires when the stack
is empty, so whenever (<p, eps>, theta) is accepted the successor
(<p', eps>, theta') must be as well; this is realized with an epsilon
edge from the successor to every final eps-target of (p,theta) (or a
final marking, made before the loop, when the initial state itself
is final).  `post_moves` gives beta1-beta4 as right sides (p', theta',
w), and `mod_successors` the empty-stack moves.

The unit of work is a key (src, g) with the mask of its targets added
since the key was last processed (see `automaton.DeltaWorklist`), popped
phase by phase: a phase's facts reach its successor phases through beta4
and the empty-stack rule, and the worklist pops the earlier phase's keys
first, so each successor takes most of them in one batch.  `poststar`
is one function, whose locals are the run's state, with one flat loop:
a popped symbol key gives its delta to the facts of (src, g) when src is
initial, else of (init, g) for each eps edge init --eps--> src, and a
new eps edge gives the targets of each (q, g') it reaches, joined per g'
with `|`.  Each costs one `&~` against the facts known and, when that
leaves new ones, one `DeltaWorklist.add` along the fact key's firing
plan, built once, with the key's first facts (`new_fact`).  As in pre*,
the facts are keyed by symbol, then by state, so a lookup builds no
(state, symbol) tuple, and the moves find their states with one
subscript of an intern table, `Initial._table` or `Generated._table`,
which builds a missing state: post* calls no constructor.
"""

from __future__ import annotations

from .automaton import (EPS, AutState, DeltaWorklist, Generated, Initial, Label,
                        PAutomaton)


def poststar(rules, aut: PAutomaton) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts post*(L(aut)) under `rules`,
    the `SMPDS` or any rule source with its moves, such as a translated
    PDS, which forwards the moves of its SM-PDS (`translate.to_pds`).

    Raises `ValueError` on an input with a transition into an initial
    state, and on an eps edge from a non-initial state."""
    if aut.has_transition_into_initial():
        raise ValueError("input automaton has a transition into an initial state")
    for src, by_label in aut._out.items():
        # the saturation's own output has eps edges, but only leaving
        # initial states; anything else is rejected rather than closed
        if EPS in by_label and not isinstance(src, Initial):
            raise ValueError("epsilon edges may only leave initial states")
    result = aut.copy()
    work = DeltaWorklist(result)
    add = work.add
    bit = result.bit
    # the intern tables, which build a missing state
    initial = Initial._table
    generated = Generated._table
    # epsilon edges go from initial states to non-initial states only,
    # so closures never chain
    eps_into: dict[AutState, set[Initial]] = {}
    # reading facts: g -> (p,theta) -> [mask of the q's seen so far, its
    # firing plan]; every label of the automaton is in its alphabet
    facts: dict[str, dict[Initial, list]] = {g: {} for g in result.alphabet}

    def new_fact(init: Initial, symbol: str) -> list:
        """The record of a fact key (init, symbol) met for the first time:
        no q known yet, and the key's firing plan, the edges (src, label)
        that every fact (init, symbol, q) links to q.

        The plan is built once per fact key, when its first q arrives: the
        rules that fire depend on the control point, the phase and the
        symbol only.  The chain of a beta3 push, all but its last edge,
        does not depend on q, so it is added here, once.
        """
        plan: list[tuple[AutState, Label]] = []
        for p, theta, word in rules.post_moves(init.control, init.phase, symbol):
            src = initial[p, theta]
            if not word:
                plan.append((src, EPS))
                continue
            for k in range(1, len(word)):
                gen = generated[p, word[:k], theta]
                add([(src, word[k - 1])], bit(gen))
                src = gen
            plan.append((src, word[-1]))
        fact = facts[symbol][init] = [0, plan]
        return fact

    # a final initial state makes its modifying-rule successors final;
    # later empty-stack acceptance is linked in the loop, with eps edges
    todo = [q for q in result.initial_states() if bit(q) & result._finals]
    while todo:
        q = todo.pop()
        for p, theta in rules.mod_successors(q.control, q.phase):
            succ = initial[p, theta]
            if not bit(succ) & result._finals:
                result.add_final(succ)
                todo.append(succ)
    finals = result._finals      # no state turns final after this point
    out = result._out
    states_of = result.states_of
    mod_successors = rules.mod_successors
    for (src, label), delta in work:
        if label is not EPS:
            # the facts init --label--> q for src itself when it is
            # initial, else through every eps edge into src
            facts_g = facts[label]
            for init in ((src,) if isinstance(src, Initial)
                         else eps_into.get(src, ())):
                fact = facts_g.get(init) or new_fact(init, label)
                fresh = delta & ~fact[0]
                if fresh:
                    fact[0] |= fresh
                    add(fact[1], fresh)
        else:
            # the facts src --symbol--> q through the new eps edges,
            # joined per symbol; the mids are not initial, so none has
            # eps edges
            joined: dict[str, int] = {}
            for mid in states_of(delta):
                eps_into.setdefault(mid, set()).add(src)
                for symbol, targets in out.get(mid, {}).items():
                    joined[symbol] = joined.get(symbol, 0) | targets
            for symbol, targets in joined.items():
                fact = facts[symbol].get(src) or new_fact(src, symbol)
                fresh = targets & ~fact[0]
                if fresh:
                    fact[0] |= fresh
                    add(fact[1], fresh)
            # the rule for the empty stack, linked to every final
            # eps-target so that the result does not depend on set order
            if delta & finals:
                add([(initial[p, theta], EPS) for p, theta
                     in mod_successors(src.control, src.phase)], delta & finals)
    return result
