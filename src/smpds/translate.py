"""Baseline route: translate an SM-PDS to an ordinary or symbolic PDS.

The ordinary translation encodes phases in control points, so it is only
computed over a closed set of phases of interest (full enumeration of all
2^|rules| phases is pointless for queries anchored at known phases).  It
builds one paired-state tuple (p, theta) per control point and phase,
shared by every rule and by `PDS.states`, and checks that the set is
closed on the modifying rules alone.  The symbolic translation keeps one
rule per SM-PDS rule and attaches a phase relation, stored intensionally.

Classical pre*/post* for ordinary PDSs run the same saturation cores as
the direct engines (`prestar`, `poststar`), with the phase moved into the
control point: `_PairedRules` is their rule source for a paired PDS.  A
paired configuration ((p, theta), w) is the SM-PDS configuration
(<p, w>, theta), so they take and return ordinary P-automata.  A paired
rule pushes the word of its SM-PDS rule, of any length, which the cores
take as it is.  The paired PDS fires no modifying rule on an empty
stack, so the two routes agree on nonempty stacks only.  Code that shares nothing with the cores
lives in the tests: `tests/classical_reference.py` and the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Union

from .automaton import PAutomaton, from_configs
from .model import (Configuration, Phase, PdsRule, RuleId, SMPDS,
                    solve_predecessor_phases)
from .poststar import _PoststarEngine
from .prestar import _PrestarEngine

# a control point of the translated PDS: (original control point, phase)
PdsState = tuple[str, Phase]


@dataclass
class PDS:
    states: frozenset[PdsState]
    alphabet: frozenset[str]
    rules: tuple["PairedRule", ...]


class PairedRule(NamedTuple):
    lhs_state: PdsState
    lhs_symbol: str
    rhs_state: PdsState
    rhs_word: tuple[str, ...]


@dataclass(frozen=True)
class Identity:
    """The identity on phases containing the guard rule."""
    guard: RuleId

    def image(self, theta: Phase) -> Phase | None:
        return theta if self.guard in theta else None


@dataclass(frozen=True)
class Modify:
    """Relates theta1 to theta2 iff the guard rule is in theta1 (with its
    removed rule) and theta2 is the updated phase."""
    guard: RuleId
    removed: RuleId
    added: RuleId

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


class _Pairs(dict):
    """Control point p -> the paired state (p, theta) of one phase, built
    on first use, so every rule at (p, theta) shares one tuple."""

    def __init__(self, theta: Phase):
        super().__init__()
        self.theta = theta

    def __missing__(self, p: str) -> PdsState:
        pair = self[p] = (p, self.theta)
        return pair


def to_pds(smpds: SMPDS, phases: Iterable[Phase]) -> PDS:
    """Encode phases into control points, restricted to the given phase set.

    Rules come out phase by phase in sorted member order, so their order
    does not depend on how phases hash.
    """
    phase_set = set(phases)
    mods = [(rid, smpds.rules[rid]) for rid in smpds.delta_c]
    for theta in phase_set:
        for rid, r in mods:
            if rid in theta and r.removed in theta:
                if theta.update(r.removed, r.added) not in phase_set:
                    raise ValueError("phase set is not closed; run phase_closure")
    pairs = {theta: _Pairs(theta) for theta in phase_set}
    states = frozenset(pairs[theta][p] for theta in phase_set for p in smpds.states)
    gammas = sorted(smpds.alphabet)
    words = [(g,) for g in gammas]
    rules: list[PairedRule] = []
    # rules are built by `tuple.__new__`, in C, rather than by the
    # NamedTuple's Python-level `__new__`
    new = tuple.__new__
    # the plain rules as exact tuples: CPython specializes unpacking those,
    # not reading a NamedTuple's fields
    plain_of = {rid: tuple(r) for rid, r in smpds.rules.items()
                if isinstance(r, PdsRule)}.get
    rule_of = smpds.rules.get
    append = rules.append
    for theta in sorted(phase_set, key=tuple):
        pair = pairs[theta]
        for rid in theta:
            plain = plain_of(rid)
            if plain is not None:
                p, gamma, q, word = plain
                append(new(PairedRule, (pair[p], gamma, pair[q], word)))
                continue
            r = rule_of(rid)
            if r is not None and r.removed in theta:
                rhs = pairs[theta.update(r.removed, r.added)][r.to_state]
                rules.extend(map(new, repeat(PairedRule),
                                 zip(repeat(pair[r.from_state]), gammas,
                                     repeat(rhs), words)))
    return PDS(states, smpds.alphabet, tuple(rules))


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


class _PairedRules:
    """The rule source of the saturation cores for a paired PDS, which has
    no empty-stack moves.  Rules are indexed once, as raw `PairedRule`s,
    for one direction; the cores read a group once."""

    def __init__(self, pds: PDS, backward: bool):
        # post* groups by left side ((p, theta), g), pre* by right-side head
        # ((p', theta), w[0]) and, for pop rules, by right-side state
        groups: dict[tuple, list[PairedRule]] = {}
        self.groups = groups
        for r in pds.rules:
            word = r[3]
            if not backward:
                key = (r[0], r[1])
            else:
                key = (r[2], word[0]) if word else r[2]
            group = groups.get(key)
            if group is None:
                groups[key] = [r]
            else:
                group.append(r)

    def post_moves(self, p: str, theta: Phase, g: str
                   ) -> list[tuple[str, Phase, tuple[str, ...]]]:
        return [(*rhs, word) for _, _, rhs, word in self.groups.get(((p, theta), g), ())]

    def pre_moves(self, p1: str, theta: Phase, g1: str
                  ) -> list[tuple[str, Phase, str, tuple[str, ...]]]:
        return [(*lhs, g, word[1:])
                for lhs, g, _, word in self.groups.get(((p1, theta), g1), ())]

    def pop_moves(self, p1: str, theta: Phase) -> list[tuple[str, Phase, str]]:
        return [(*lhs, g) for lhs, g, _, _ in self.groups.get((p1, theta), ())]

    def mod_successors(self, p: str, theta: Phase) -> list[tuple[str, Phase]]:
        return []

    mod_predecessors = mod_successors


def _check_input(aut: PAutomaton) -> None:
    if aut.has_transition_into_initial():
        raise ValueError("input automaton has a transition into an initial state")
    if aut.has_epsilon():
        raise ValueError("input automaton must be epsilon-free")


def pds_prestar(pds: PDS, aut: PAutomaton) -> PAutomaton:
    """Classical backward saturation for ordinary PDSs: the goal-directed
    pre* core (`prestar`) on the paired rules.

    The result has the finals and the language of the full classical
    saturation.  When every transition of the input leads to a state that
    reaches a final state, as in `from_configs` automata, it is that
    saturation trimmed to the transitions whose target reaches a final
    state.  On the `translated` benchmark pool that is 28-63 transitions
    where the full saturation builds 4.5k-16k.
    """
    _check_input(aut)
    return _PrestarEngine(_PairedRules(pds, backward=True), aut).run()


def pds_poststar(pds: PDS, aut: PAutomaton) -> PAutomaton:
    """Classical forward saturation for ordinary PDSs: the post* core
    (`poststar`) on the paired rules.  A key's rules are read at its first
    fact, so a saturation from a few configurations leaves most rules
    unread."""
    _check_input(aut)
    return _PoststarEngine(_PairedRules(pds, backward=False), aut).run()
