"""Per-transition reference versions of `to_pds` and of classical
pre*/post* on a paired PDS, sharing no code with the saturation cores,
and the phase closure on interned phases.

`reference_pds_prestar` and `reference_pds_poststar` are the classical
saturations as they were before they ran on the cores of `smpds.prestar`
and `smpds.poststar`: one worklist entry per transition, each inserted
with `add_transition`, and rules indexed by (control, phase, symbol).
`reference_to_pds` is `to_pds` as it was before paired states were
shared.  The direct and the translated route both run those cores, so a
cross-route check that should not share their faults compares with
these, or with the oracle in `oracles.py`.  `pds_step` and
`symbolic_step` are the one-step relations of the paired and of the
printed symbolic PDS, checked against `model.step`; `symbolic_step`
reads the printed text, so it shares no code with `SMPDS`'s moves.
`reference_phase_closure` is `phase_closure` as it was before it
searched on masks: `Phase.update` forward and `solve_predecessor_phases`
backward, one modifying rule at a time.  `solve_predecessor_phases` is
the predecessor solver that `SMPDS.mod_predecessors` called before the
saturations read only masks, moved here and rewritten on id sets, so
that it shares no code with `model.predecessor_masks`.
"""

import re
from collections import deque
from functools import lru_cache

from smpds.automaton import EPS, Generated, Initial
from smpds.model import Configuration, PdsRule, Phase


def targets_of(aut, q, label):
    """The targets of the `label` edges from `q` in `aut`, as a new set."""
    return set(aut.states_of(aut._out.get(q, {}).get(label, 0)))


def solve_predecessor_phases(theta, rid, rule):
    """Phases theta' from which firing modifying rule `rid` yields `theta`.

    The set equation theta = (theta' - {removed}) | {added} has at most two
    solutions; each is checked on id sets, must contain both the modifying
    rule itself and its removed rule, and only then is interned.
    """
    ids = frozenset(theta)
    if rule.added not in ids:
        return []
    cands = {ids | {rule.removed}, (ids - {rule.added}) | {rule.removed}}
    return [Phase.of(cand) for cand in cands
            if {rid, rule.removed} <= cand
            and (cand - {rule.removed}) | {rule.added} == ids]


def reference_phase_closure(smpds, seeds):
    closed = set()
    queue = deque(seeds)
    smrules = [(rid, smpds.rules[rid]) for rid in smpds.delta_c]
    while queue:
        theta = queue.popleft()
        if theta in closed:
            continue
        closed.add(theta)
        for rid, r in smrules:
            if rid in theta and r.removed in theta:
                queue.append(theta.update(r.removed, r.added))
            for pred in solve_predecessor_phases(theta, rid, r):
                queue.append(pred)
    return closed


def reference_to_pds(smpds, phases):
    phase_set = set(phases)
    rules = []
    gammas = sorted(smpds.alphabet)
    for theta in sorted(phase_set, key=tuple):
        for rid in theta:
            r = smpds.rules.get(rid)
            if r is None:
                continue
            if isinstance(r, PdsRule):
                rules.append(((r.lhs_state, theta), r.lhs_symbol,
                              (r.rhs_state, theta), r.rhs_word))
            elif r.removed in theta:
                theta2 = theta.update(r.removed, r.added)
                for g in gammas:
                    rules.append(((r.from_state, theta), g,
                                  (r.to_state, theta2), (g,)))
    return rules


def pds_step(rules, state, stack):
    """The paired configurations that (state, stack) steps to under the
    paired rules `rules`."""
    out = set()
    for r in rules:
        if r.lhs_state == state and stack and stack[0] == r.lhs_symbol:
            out.add((r.rhs_state, r.rhs_word + stack[1:]))
    return frozenset(out)


_SYMRULE = re.compile(r"symrule \d+: (\S+) (\S+) -\[(id|mod)\(([-\d,]+)\)\]-> (\S+)(.*)")


@lru_cache(maxsize=16)
def _symrules(printed):
    """The rules of a printed symbolic PDS: (p, gamma, relation, ids, p',
    word) per `symrule` line."""
    rules = []
    for line in printed.splitlines():
        match = _SYMRULE.fullmatch(line)
        assert match, line
        p, gamma, rel, ids, q, word = match.groups()
        rules.append((p, gamma, rel, tuple(map(int, ids.split(","))), q,
                      tuple(word.split())))
    return tuple(rules)


def symbolic_step(printed, c):
    """The successors of `c` under the symbolic PDS `printed`, the text of
    `formats.print_symbolic_pds`, read line by line.  An id(r) rule fires
    in a phase that holds r and keeps it; a mod(r,r1,r2) rule fires in a
    phase that holds r and r1 and leads to the phase with r1 swapped for
    r2.  Guards are checked and phases built on id sets, with `Phase.of`."""
    if not c.stack:
        return frozenset()
    ids = frozenset(c.phase)
    out = set()
    for p, gamma, rel, rule, q, word in _symrules(printed):
        # the guard: r, and for mod(r,r1,r2) also r1
        if p != c.state or gamma != c.stack[0] or not ids.issuperset(rule[:2]):
            continue
        if rel == "id":
            theta = c.phase
        else:
            _, removed, added = rule
            theta = Phase.of((ids - {removed}) | {added})
        out.add(Configuration(q, word + c.stack[1:], theta))
    return frozenset(out)


def reference_pds_prestar(pds, aut):
    result = aut.copy()
    one_rules = {}
    two_rules = {}
    worklist = deque(result.transitions)
    pending = {}
    out_index = {}

    def add(src, label, dst):
        if result.add_transition(src, label, dst):
            worklist.append((src, label, dst))

    for r in pds.rules:
        lhs = Initial(*r.lhs_state)
        if len(r.rhs_word) == 0:
            add(lhs, r.lhs_symbol, Initial(*r.rhs_state))
        elif len(r.rhs_word) == 1:
            one_rules.setdefault((*r.rhs_state, r.rhs_word[0]), []).append(
                (lhs, r.lhs_symbol))
        else:
            two_rules.setdefault((*r.rhs_state, r.rhs_word[0]), []).append(
                (lhs, r.lhs_symbol, r.rhs_word[1]))
    while worklist:
        src, label, dst = worklist.popleft()
        out_index.setdefault((src, label), set()).add(dst)
        for wsrc, wlabel in pending.get((src, label), set()):
            add(wsrc, wlabel, dst)
        if isinstance(src, Initial):
            key = (src.control, src.phase, label)
            for lhs, symbol in one_rules.get(key, ()):
                add(lhs, symbol, dst)
            for lhs, symbol, second in two_rules.get(key, ()):
                pending.setdefault((dst, second), set()).add((lhs, symbol))
                for d2 in out_index.get((dst, second), ()):
                    add(lhs, symbol, d2)
    return result


def reference_pds_poststar(pds, aut):
    result = aut.copy()
    by_lhs = {}
    for r in pds.rules:
        by_lhs.setdefault((*r.lhs_state, r.lhs_symbol), []).append(r)
    worklist = deque(result.transitions)
    facts = {}
    eps_into = {}

    def add(src, label, dst):
        if result.add_transition(src, label, dst):
            worklist.append((src, label, dst))

    def new_fact(init, symbol, q):
        key = (init.control, init.phase, symbol)
        known = facts.setdefault(key, set())
        if q in known:
            return
        known.add(q)
        for r in by_lhs.get(key, ()):
            src = Initial(*r.rhs_state)
            if len(r.rhs_word) == 0:
                add(src, EPS, q)
            elif len(r.rhs_word) == 1:
                add(src, r.rhs_word[0], q)
            else:
                gen = Generated(src.control, r.rhs_word[:1], src.phase)
                add(src, r.rhs_word[0], gen)
                add(gen, r.rhs_word[1], q)

    while worklist:
        src, label, dst = worklist.popleft()
        if isinstance(src, Initial):
            if label is EPS:
                eps_into.setdefault(dst, set()).add(src)
                for symbol in sorted(result.alphabet):
                    for q in targets_of(result, dst, symbol):
                        new_fact(src, symbol, q)
            else:
                new_fact(src, label, dst)
        else:
            for init in list(eps_into.get(src, ())):
                new_fact(init, label, dst)
    return result


def useful(aut):
    """The transitions of `aut` whose target reaches a final state."""
    transitions = aut.transitions
    into = {}
    for src, _, dst in transitions:
        into.setdefault(dst, []).append(src)
    alive = set(aut.finals)
    stack = list(alive)
    while stack:
        for src in into.get(stack.pop(), ()):
            if src not in alive:
                alive.add(src)
                stack.append(src)
    return {t for t in transitions if t[2] in alive}
