"""Forward saturation: compute post*(L(A)) on the P-automaton itself.

One loop serves direct post* of an SM-PDS, whose rule source is the
`SMPDS`, and classical post* of the translated PDS
(`translate.pds_poststar`), whose source forwards the `SMPDS`'s moves
less the empty-stack ones and builds no paired rule.  Saturation rules, applied
until fixpoint, given a reading fact (p,theta) --g--> q (a direct transition
or an epsilon edge followed by a symbol edge):

  beta1: <p,g> -> <p',eps>   in theta: add ((p',theta), eps, q).
  beta2: <p,g> -> <p',g'>    in theta: add ((p',theta), g', q).
  beta3: <p,g> -> <p',g1...gn> (n >= 2) in theta: add the chain
         (p',theta) --g1--> G1 --g2--> ... G(n-1) and (G(n-1), gn, q),
         where Gk is the generated state for (p', g1...gk, theta).
  beta4: p --(r1,r2)--> p' and r1 both in theta: add ((p',theta'), g, q)
         with theta' = (theta - {r1}) | {r2}.

The rule for the empty stack: a modifying rule also fires when the stack
is empty, so whenever (<p, eps>, theta) is accepted the successor
(<p', eps>, theta') must be as well; this is realized with an epsilon
edge from the successor to every final eps-target of (p,theta) (or a
final marking, made at the start of `run`, when the initial state itself
is final).  `post_moves` gives beta1-beta4 as right sides (p', theta',
w), and `mod_successors` the empty-stack moves.

The unit of work is a key (src, g) with the mask of its targets added
since the key was last processed (see `automaton.DeltaWorklist`), popped
phase by phase: a phase's facts reach its successor phases through beta4
and the empty-stack rule, and the worklist pops the earlier phase's keys
first, so each successor takes most of them in one batch.  `run`
is one flat loop: it pops a key and turns it straight into (fact key,
mask) pairs, in one of three ways: through every eps edge into src when
src is not initial, as the key itself when src is initial and g a
symbol, and, for a new eps edge, as the targets of each (q, g') it
reaches, joined per g' with `|`.  Each pair costs one `&~` against the
facts known under its key and, when that leaves new facts, one
`DeltaWorklist.add` along the key's firing plan, which merges them into
the store; the plan is built once, with the key's first facts.
"""

from __future__ import annotations

from .automaton import (EPS, AutState, DeltaWorklist, Generated, Initial, Label,
                        PAutomaton)
from .model import colon_violations


class _PoststarEngine:
    def __init__(self, rules, aut: PAutomaton):
        if aut.has_transition_into_initial():
            raise ValueError("input automaton has a transition into an initial state")
        for src, by_label in aut._out.items():
            # the saturation's own output has eps edges, but only leaving
            # initial states; anything else is rejected rather than closed
            if EPS in by_label and not isinstance(src, Initial):
                raise ValueError("epsilon edges may only leave initial states")
        self.rules = rules
        self.aut = aut.copy()

        # epsilon edges go from initial states to non-initial states only,
        # so closures never chain
        self.eps_into: dict[AutState, set[Initial]] = {}
        # reading fact key ((p,theta), g) -> [mask of the q's seen so far,
        # its firing plan]
        self.facts: dict[tuple[Initial, str], list] = {}
        self.work = DeltaWorklist(self.aut)

    def run(self) -> PAutomaton:
        aut = self.aut
        # a final initial state makes its modifying-rule successors final;
        # later empty-stack acceptance is linked in the loop, with eps edges
        todo = [q for q in aut.initial_states() if aut.bit(q) & aut._finals]
        while todo:
            q = todo.pop()
            for p, theta in self.rules.mod_successors(q.control, q.phase):
                succ = Initial(p, theta)
                if not aut.bit(succ) & aut._finals:
                    aut.add_final(succ)
                    todo.append(succ)
        finals = aut._finals      # no state turns final after this point
        out = aut._out
        states_of = aut.states_of
        eps_into = self.eps_into
        facts = self.facts
        add = self.work.add
        mod_successors = self.rules.mod_successors
        new_fact = self._new_fact
        for key, delta in self.work:
            src, label = key
            if not isinstance(src, Initial):
                # the facts init --label--> q through every eps edge into src
                for init in eps_into.get(src, ()):
                    fact_key = (init, label)
                    fact = facts.get(fact_key) or new_fact(fact_key)
                    fresh = delta & ~fact[0]
                    if fresh:
                        fact[0] |= fresh
                        add(fact[1], fresh)
            elif label is not EPS:
                fact = facts.get(key) or new_fact(key)
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
                    fact_key = (src, symbol)
                    fact = facts.get(fact_key) or new_fact(fact_key)
                    fresh = targets & ~fact[0]
                    if fresh:
                        fact[0] |= fresh
                        add(fact[1], fresh)
                # the rule for the empty stack, linked to every final
                # eps-target so that the result does not depend on set order
                if delta & finals:
                    add([(Initial(p, theta), EPS) for p, theta
                         in mod_successors(src.control, src.phase)], delta & finals)
        return aut

    def _new_fact(self, key: tuple[Initial, str]) -> list:
        """The record of a fact key met for the first time: no q known
        yet, and the key's firing plan."""
        fact = self.facts[key] = [0, self._firing_plan(*key)]
        return fact

    def _firing_plan(self, init: Initial, symbol: str) -> list[tuple[AutState, Label]]:
        """The edges (src, label) that every fact (init, symbol, q) links to q.

        Built once per fact key, when its first q arrives: the rules that
        fire depend on the control point, the phase and the symbol only.
        The chain of a beta3 push, all but its last edge, does not depend
        on q, so it is added here, once.
        """
        plan: list[tuple[AutState, Label]] = []
        for p, theta, word in self.rules.post_moves(init.control, init.phase, symbol):
            src = Initial(p, theta)
            if not word:
                plan.append((src, EPS))
                continue
            for k in range(1, len(word)):
                gen = Generated(p, ":".join(word[:k]), theta)
                self.work.add([(src, word[k - 1])], self.aut.bit(gen))
                src = gen
            plan.append((src, word[-1]))
        return plan


def poststar(rules, aut: PAutomaton) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts post*(L(aut)) under `rules`,
    the `SMPDS` or any rule source with its moves and the names `states`
    and `alphabet`, such as a translated PDS, which forwards the moves
    and the names of its SM-PDS (`translate.pds_poststar`).

    Raises `ValueError` on a state or symbol that holds ':', which would
    let two pushed prefixes share a generated state (see beta3), with
    `validate`'s text; on an input with a transition into an initial
    state; and on an eps edge from a non-initial state."""
    bad = colon_violations(rules.states, rules.alphabet)
    if bad:
        raise ValueError(bad[0])
    return _PoststarEngine(rules, aut).run()
