"""Baseline route: translate an SM-PDS to an ordinary or symbolic PDS.

The ordinary translation encodes phases in control points, so it is only
computed over a closed set of phases of interest (full enumeration of all
2^|rules| phases is pointless for queries anchored at known phases).  The
symbolic translation keeps one rule per SM-PDS rule and attaches a phase
relation, stored intensionally.

Classical pre*/post* saturations for ordinary PDSs are included as an
independent implementation used for cross-checking the direct engines;
this module imports none of theirs (`prestar`, `poststar`, `saturation`).
A paired configuration ((p, theta), w) is the SM-PDS configuration
(<p, w>, theta), so they take and return ordinary P-automata.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from .automaton import EPS, AutState, Generated, Initial, PAutomaton, from_configs
from .model import (Configuration, Phase, PdsRule, RuleId, SelfModRule, SMPDS,
                    solve_predecessor_phases)

# a control point of the translated PDS: (original control point, phase)
PdsState = tuple[str, Phase]


@dataclass
class PDS:
    states: frozenset[PdsState]
    alphabet: frozenset[str]
    rules: tuple["PairedRule", ...]


@dataclass(frozen=True)
class PairedRule:
    lhs_state: PdsState
    lhs_symbol: str
    rhs_state: PdsState
    rhs_word: tuple[str, ...]


@dataclass(frozen=True)
class Identity:
    """The identity on phases containing the guard rule."""
    guard: RuleId

    def holds(self, theta: Phase, theta2: Phase) -> bool:
        return self.guard in theta and theta is theta2

    def image(self, theta: Phase) -> Phase | None:
        return theta if self.guard in theta else None


@dataclass(frozen=True)
class Modify:
    """Relates theta1 to theta2 iff the guard rule is in theta1 (with its
    removed rule) and theta2 is the updated phase."""
    guard: RuleId
    removed: RuleId
    added: RuleId

    def holds(self, theta: Phase, theta2: Phase) -> bool:
        return self.image(theta) is theta2

    def image(self, theta: Phase) -> Phase | None:
        if self.guard in theta and self.removed in theta:
            return theta.update(self.removed, self.added)
        return None


PhaseRelation = Union[Identity, Modify]


@dataclass(frozen=True)
class SymbolicRule:
    lhs_state: str
    lhs_symbol: str
    rhs_state: str
    rhs_word: tuple[str, ...]
    rel: PhaseRelation


@dataclass
class SymbolicPDS:
    states: frozenset[str]
    alphabet: frozenset[str]
    rules: tuple[SymbolicRule, ...]


def phase_closure(smpds: SMPDS, seeds: Iterable[Phase]) -> set[Phase]:
    """Seeds closed under modifying-rule updates, forward and backward."""
    closed: set[Phase] = set()
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


def to_pds(smpds: SMPDS, phases: Iterable[Phase]) -> PDS:
    """Encode phases into control points, restricted to the given phase set.

    Rules come out phase by phase in sorted member order, so their order
    does not depend on how phases hash.
    """
    phase_set = set(phases)
    for theta in phase_set:
        for rid in theta:
            r = smpds.rules.get(rid)
            if isinstance(r, SelfModRule) and r.removed in theta:
                if theta.update(r.removed, r.added) not in phase_set:
                    raise ValueError("phase set is not closed; run phase_closure")
    rules: list[PairedRule] = []
    states: set[PdsState] = {(p, theta) for p in smpds.states for theta in phase_set}
    gammas = sorted(smpds.alphabet)
    for theta in sorted(phase_set, key=tuple):
        for rid in theta:
            r = smpds.rules.get(rid)
            if r is None:
                continue
            if isinstance(r, PdsRule):
                rules.append(PairedRule((r.lhs_state, theta), r.lhs_symbol,
                                        (r.rhs_state, theta), r.rhs_word))
            elif r.removed in theta:
                theta2 = theta.update(r.removed, r.added)
                for g in gammas:
                    rules.append(PairedRule((r.from_state, theta), g,
                                            (r.to_state, theta2), (g,)))
    return PDS(frozenset(states), smpds.alphabet, tuple(rules))


def to_symbolic_pds(smpds: SMPDS) -> SymbolicPDS:
    """One Identity rule per plain rule, |Gamma| Modify rules per modifying rule."""
    rules: list[SymbolicRule] = []
    for rid in sorted(smpds.delta):
        r = smpds.rules[rid]
        rules.append(SymbolicRule(r.lhs_state, r.lhs_symbol,
                                  r.rhs_state, r.rhs_word, Identity(rid)))
    for rid in sorted(smpds.delta_c):
        r = smpds.rules[rid]
        rel = Modify(rid, r.removed, r.added)
        for g in sorted(smpds.alphabet):
            rules.append(SymbolicRule(r.from_state, g, r.to_state, (g,), rel))
    return SymbolicPDS(smpds.states, smpds.alphabet, tuple(rules))


def pds_step(pds: PDS, state: PdsState, stack: tuple[str, ...]
             ) -> frozenset[tuple[PdsState, tuple[str, ...]]]:
    out = set()
    for r in pds.rules:
        if r.lhs_state == state and stack and stack[0] == r.lhs_symbol:
            out.add((r.rhs_state, r.rhs_word + stack[1:]))
    return frozenset(out)


def symbolic_step(spds: SymbolicPDS, c: Configuration) -> frozenset[Configuration]:
    """All successors under the symbolic relation, evaluated intensionally."""
    out = set()
    for r in spds.rules:
        if r.lhs_state == c.state and c.stack and c.stack[0] == r.lhs_symbol:
            theta2 = r.rel.image(c.phase)
            if theta2 is not None:
                out.add(Configuration(r.rhs_state, r.rhs_word + c.stack[1:], theta2))
    return frozenset(out)


# -- automata over paired states ------------------------------------------

def config_to_pds(c: Configuration) -> tuple[PdsState, tuple[str, ...]]:
    return ((c.state, c.phase), c.stack)


def pds_from_configs(pds: PDS,
                     configs: Iterable[tuple[PdsState, tuple[str, ...]]]
                     ) -> PAutomaton:
    """`from_configs` for paired configurations ((p, theta), w)."""
    return from_configs(pds, (Configuration(p, stack, theta)
                              for (p, theta), stack in configs))


def pds_accepts(aut: PAutomaton, state: PdsState, stack: tuple[str, ...]) -> bool:
    return aut.accepts(Configuration(state[0], stack, state[1]))


def pds_prestar(pds: PDS, aut: PAutomaton) -> PAutomaton:
    """Classical backward saturation for ordinary PDSs."""
    if aut.has_transition_into_initial():
        raise ValueError("input automaton has a transition into an initial state")
    if aut.has_epsilon():
        raise ValueError("input automaton must be epsilon-free")
    result = aut.copy()
    # rules indexed by (p', theta, first pushed symbol) of their right side,
    # each with its left side as an initial state
    one_rules: dict[tuple[str, Phase, str], list[tuple[Initial, str]]] = {}
    two_rules: dict[tuple[str, Phase, str], list[tuple[Initial, str, str]]] = {}
    worklist: deque[tuple[AutState, str, AutState]] = deque(result.transitions)
    pending: dict[tuple[AutState, str], set[tuple[Initial, str]]] = {}
    out_index: dict[tuple[AutState, str], set[AutState]] = {}

    def add(src: AutState, label: str, dst: AutState) -> None:
        if result.add_transition(src, label, dst):
            worklist.append((src, label, dst))

    for r in pds.rules:
        lhs = Initial(*r.lhs_state)
        if len(r.rhs_word) == 0:
            add(lhs, r.lhs_symbol, Initial(*r.rhs_state))
        elif len(r.rhs_word) == 1:
            one_rules.setdefault((*r.rhs_state, r.rhs_word[0]), []).append(
                (lhs, r.lhs_symbol))
        elif len(r.rhs_word) == 2:
            two_rules.setdefault((*r.rhs_state, r.rhs_word[0]), []).append(
                (lhs, r.lhs_symbol, r.rhs_word[1]))
        else:
            raise ValueError("classical pre* expects |w| <= 2 rules")
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


def pds_poststar(pds: PDS, aut: PAutomaton) -> PAutomaton:
    """Classical forward saturation for ordinary PDSs."""
    if aut.has_transition_into_initial():
        raise ValueError("input automaton has a transition into an initial state")
    if aut.has_epsilon():
        raise ValueError("input automaton must be epsilon-free")
    result = aut.copy()
    by_lhs: dict[tuple[str, Phase, str], list[PairedRule]] = {}
    for r in pds.rules:
        if len(r.rhs_word) > 2:
            raise ValueError("classical post* expects |w| <= 2 rules")
        by_lhs.setdefault((*r.lhs_state, r.lhs_symbol), []).append(r)
    worklist: deque[tuple[AutState, object, AutState]] = deque(result.transitions)
    facts: dict[tuple[str, Phase, str], set[AutState]] = {}
    eps_into: dict[AutState, set[Initial]] = {}

    def add(src: AutState, label, dst: AutState) -> None:
        if result.add_transition(src, label, dst):
            worklist.append((src, label, dst))

    def new_fact(init: Initial, symbol: str, q: AutState) -> None:
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
                gen = Generated(src.control, r.rhs_word[0], src.phase)
                add(src, r.rhs_word[0], gen)
                add(gen, r.rhs_word[1], q)

    while worklist:
        src, label, dst = worklist.popleft()
        if isinstance(src, Initial):
            if label is EPS:
                eps_into.setdefault(dst, set()).add(src)
                for symbol, targets in list(result._out.get(dst, {}).items()):
                    if symbol is not EPS:
                        for q in list(targets):
                            new_fact(src, symbol, q)
            else:
                new_fact(src, label, dst)
        else:
            for init in list(eps_into.get(src, ())):
                new_fact(init, label, dst)
    return result
