"""Forward saturation: compute post*(L(A)) on the P-automaton itself.

One loop serves direct post* of an SM-PDS, whose rule source is the
`SMPDS`, and classical post* of the translated PDS, whose source is the
paired rules (`translate.pds_poststar`).  Saturation rules, applied until
fixpoint, given a reading fact (p,theta) --g--> q (a direct transition
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

The unit of work is a key (src, g) with the set of its targets added
since the key was last processed (see `automaton.DeltaWorklist`).  A
key turns into reading facts as one set: directly when src is initial,
through every eps edge into src otherwise, and, for a new eps edge, as
the whole target set of each (q, g) it reaches.  The facts that are new
then go along the firing plan of their key, one insert per plan edge.
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
        # reading fact key ((p,theta), g) -> (the q's seen so far, its firing plan)
        self.facts: dict[tuple[Initial, str],
                         tuple[set[AutState], list[tuple[AutState, Label]]]] = {}
        self.work = DeltaWorklist(self.aut)

    def run(self) -> PAutomaton:
        aut = self.aut
        # a final initial state makes its modifying-rule successors final;
        # later empty-stack acceptance is linked by `_process`, with eps edges
        todo = [q for q in aut.initial_states() if q in aut.finals]
        while todo:
            q = todo.pop()
            for p, theta in self.rules.mod_successors(q.control, q.phase):
                succ = Initial(p, theta)
                if succ not in aut.finals:
                    aut.add_final(succ)
                    todo.append(succ)
        for (src, label), delta in self.work:
            self._process(src, label, delta)
        return aut

    def _process(self, src: AutState, label: Label, delta: set[AutState]) -> None:
        if not isinstance(src, Initial):
            self._new_facts([(init, label) for init in self.eps_into.get(src, ())],
                            delta)
        elif label is not EPS:
            self._new_facts([(src, label)], delta)
        else:
            # the facts src --symbol--> q through the new eps edges, joined
            # per symbol; the mids are not initial, so none has eps edges
            joined: dict[str, set[AutState]] = {}
            for mid in delta:
                self.eps_into.setdefault(mid, set()).add(src)
                for symbol, targets in self.aut._out.get(mid, {}).items():
                    joined.setdefault(symbol, set()).update(targets)
            for symbol, targets in joined.items():
                self._new_facts([(src, symbol)], targets)
            # the rule for the empty stack, linked to every final eps-target
            # so that the result does not depend on set order
            finals = delta & self.aut.finals
            if finals:
                self.work.add([(Initial(p, theta), EPS) for p, theta
                               in self.rules.mod_successors(src.control, src.phase)],
                              finals)

    def _new_facts(self, keys: list[tuple[Initial, str]], dsts: set[AutState]) -> None:
        """Link the facts init --symbol--> q, q in `dsts`, for every key
        (init, symbol) in `keys`, along the key's firing plan, as far as
        they are new."""
        facts = self.facts
        for key in keys:
            fact = facts.get(key)
            if fact is None:
                fresh = set(dsts)
                plan = self._firing_plan(*key)
                facts[key] = (fresh, plan)
            else:
                known, plan = fact
                if dsts <= known:
                    continue
                fresh = dsts - known
                known |= fresh
            self.work.add(plan, fresh)

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
                self.work.add([(src, word[k - 1])], {gen})
                src = gen
            plan.append((src, word[-1]))
        return plan


def poststar(rules, aut: PAutomaton) -> PAutomaton:
    """Saturate a copy of `aut` so it accepts post*(L(aut)) under `rules`,
    the `SMPDS` or any rule source with its moves and the names `states`
    and `alphabet`, such as the paired rules of a translated PDS
    (`translate.pds_poststar`).

    Raises `ValueError` on a state or symbol that holds ':', which would
    let two pushed prefixes share a generated state (see beta3), with
    `validate`'s text; on an input with a transition into an initial
    state; and on an eps edge from a non-initial state."""
    bad = colon_violations(rules.states, rules.alphabet)
    if bad:
        raise ValueError(bad[0])
    return _PoststarEngine(rules, aut).run()
