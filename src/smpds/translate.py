"""Baseline route: translate an SM-PDS to an ordinary or symbolic PDS.

The ordinary translation encodes phases in control points, so it is only
computed over a closed set of phases of interest (full enumeration of all
2^|rules| phases is pointless for queries anchored at known phases).
`to_pds` checks that the set is closed on the modifying rules alone and
builds no rule: the `PairedPDS` it returns builds the rules of a phase
when a saturation first asks for that phase, the on-the-fly construction
of Schwoon (Model-Checking Pushdown Systems, 2002), so a goal-directed
saturation pays for the phases it reaches and not for the whole set.
Each phase's paired states (p, theta) are one tuple per control point,
shared by the rules of every phase that names them.  The symbolic
translation keeps one rule per SM-PDS rule and attaches a phase
relation, stored intensionally.

Classical pre*/post* for ordinary PDSs run the same saturation cores as
the direct engines (`prestar`, `poststar`), with the phase moved into the
control point: `_PairedRules` is their rule source for a paired PDS,
indexing the rules entering (pre*) or leaving (post*) a phase when the
saturation first reads it.  A paired configuration ((p, theta), w) is the
SM-PDS configuration (<p, w>, theta), so they take and return ordinary
P-automata.  A paired rule pushes the word of its SM-PDS rule, of any
length, which the cores take as it is.  The paired PDS fires no
modifying rule on an empty stack, so the two routes agree on nonempty
stacks only.  Code that shares nothing with the cores lives in the
tests: `tests/classical_reference.py` and the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Union

from .automaton import PAutomaton, from_configs
from .model import (Configuration, Phase, PdsRule, RuleId, SMPDS,
                    solve_predecessor_phases)
from .poststar import _PoststarEngine, check_names
from .prestar import _PrestarEngine

# a control point of the translated PDS: (original control point, phase)
PdsState = tuple[str, Phase]


class PDS:
    """An ordinary PDS over paired states (p, theta), given by its rules.

    The saturations read it a phase at a time: `leaving(theta)` gives the
    rules whose left side is at theta, `entering(theta)` those whose right
    side is.  Both group the rule tuple by phase once, on first use.
    """

    def __init__(self, states: Iterable[PdsState], alphabet: Iterable[str],
                 rules: Iterable[PairedRule]):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.rules = tuple(rules)
        # the control points p of the paired states, as post* names them
        self.controls = frozenset(p for p, _ in self.states)
        self._by_phase: tuple[dict, dict] | None = None

    def leaving(self, theta: Phase) -> list[PairedRule]:
        return self._grouped()[0].get(theta, [])

    def entering(self, theta: Phase) -> list[PairedRule]:
        return self._grouped()[1].get(theta, [])

    def _grouped(self) -> tuple[dict, dict]:
        if self._by_phase is None:
            by_lhs: dict[Phase, list[PairedRule]] = {}
            by_rhs: dict[Phase, list[PairedRule]] = {}
            for r in self.rules:
                by_lhs.setdefault(r[0][1], []).append(r)
                by_rhs.setdefault(r[2][1], []).append(r)
            self._by_phase = by_lhs, by_rhs
        return self._by_phase


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


class PairedPDS(PDS):
    """The paired PDS of an SM-PDS over a closed phase set (`to_pds`).

    The rules of a phase are built when they are first asked for, and kept
    in `phase_rules`: `leaving(theta)` builds theta, and `entering(theta)`
    builds theta and the phases of the set that reach it by one modifying
    rule.  Iterating `rules` builds every phase, in sorted member order;
    `len(rules)` counts them without building any.  `states` is also
    built on first read.
    """

    def __init__(self, smpds: SMPDS, phases: set[Phase]):
        self.smpds = smpds
        self.phases = phases
        self.alphabet = smpds.alphabet
        self.controls = smpds.states
        self.rules = _PhaseOrderedRules(self)
        # phase -> its rules, for the phases built so far
        self.phase_rules: dict[Phase, list[PairedRule]] = {}
        self._pairs: dict[Phase, _Pairs] = {}
        self._gammas = sorted(smpds.alphabet)
        self._words = [(g,) for g in self._gammas]
        self._mods = [(rid, smpds.rules[rid]) for rid in smpds.delta_c]
        # the plain rules as exact tuples: CPython specializes unpacking
        # those, not reading a NamedTuple's fields
        self._plain_of = {rid: tuple(r) for rid, r in smpds.rules.items()
                          if isinstance(r, PdsRule)}.get

    @cached_property
    def states(self) -> frozenset[PdsState]:
        return frozenset(self._pairs_of(theta)[p]
                         for theta in self.phases for p in self.controls)

    def leaving(self, theta: Phase) -> list[PairedRule]:
        rules = self.phase_rules.get(theta)
        if rules is None:
            rules = self.phase_rules[theta] = self._build(theta)
        return rules

    def entering(self, theta: Phase) -> list[PairedRule]:
        sources = {theta: None}
        for rid, r in self._mods:
            for pred in solve_predecessor_phases(theta, rid, r):
                if pred in self.phases:
                    sources[pred] = None
        return [r for source in sources for r in self.leaving(source)
                if r[2][1] is theta]

    def _pairs_of(self, theta: Phase) -> _Pairs:
        pairs = self._pairs.get(theta)
        if pairs is None:
            pairs = self._pairs[theta] = _Pairs(theta)
        return pairs

    def _build(self, theta: Phase) -> list[PairedRule]:
        """The rules at phase theta: each plain rule in theta, and each
        modifying rule in theta with its removed rule, once per symbol."""
        rules: list[PairedRule] = []
        if theta not in self.phases:
            return rules
        # rules are built by `tuple.__new__`, in C, rather than by the
        # NamedTuple's Python-level `__new__`
        new = tuple.__new__
        append = rules.append
        plain_of, rule_of = self._plain_of, self.smpds.rules.get
        gammas, words = self._gammas, self._words
        pair = self._pairs_of(theta)
        for rid in theta:
            plain = plain_of(rid)
            if plain is not None:
                p, gamma, q, word = plain
                append(new(PairedRule, (pair[p], gamma, pair[q], word)))
                continue
            r = rule_of(rid)
            if r is not None and r.removed in theta:
                rhs = self._pairs_of(theta.update(r.removed, r.added))[r.to_state]
                rules.extend(map(new, repeat(PairedRule),
                                 zip(repeat(pair[r.from_state]), gammas,
                                     repeat(rhs), words)))
        return rules


class _PhaseOrderedRules:
    """`PairedPDS.rules`: the rules phase by phase, in sorted member order,
    so their order does not depend on how phases hash."""

    def __init__(self, pds: PairedPDS):
        self.pds = pds

    def __iter__(self) -> Iterator[PairedRule]:
        pds = self.pds
        for theta in sorted(pds.phases, key=tuple):
            yield from pds.leaving(theta)

    def __len__(self) -> int:
        """The number of rules, counted without building them."""
        pds = self.pds
        delta, width = pds.smpds.delta, len(pds._gammas)
        mods = [(rid, r.removed) for rid, r in pds._mods]
        n = 0
        for theta in pds.phases:
            members = theta.members
            n += len(members & delta)
            for rid, removed in mods:
                if rid in members and removed in members:
                    n += width
        return n


def to_pds(smpds: SMPDS, phases: Iterable[Phase]) -> PairedPDS:
    """Encode phases into control points, restricted to the given phase set.

    Raises `ValueError` unless the set is closed on the modifying rules.
    The rules of a phase are built when a saturation first reads them, or
    when `rules` is iterated (see `PairedPDS`).
    """
    phase_set = set(phases)
    mods = [(rid, smpds.rules[rid]) for rid in smpds.delta_c]
    for theta in phase_set:
        members = theta.members
        for rid, r in mods:
            if rid in members and r.removed in members:
                if theta.update(r.removed, r.added) not in phase_set:
                    raise ValueError("phase set is not closed; run phase_closure")
    return PairedPDS(smpds, phase_set)


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
    no empty-stack moves.  The rules of a phase are indexed when the
    saturation first asks for that phase, as raw `PairedRule`s, for one
    direction; the cores read a group once."""

    def __init__(self, pds: PDS, backward: bool):
        # post* reads the rules leaving a phase, grouped by left side
        # ((p, theta), g); pre* those entering it, grouped by right-side head
        # ((p', theta), w[0]) and, for pop rules, by right-side state
        self.rules_of = pds.entering if backward else pds.leaving
        self.backward = backward
        self.groups: dict[tuple, list[PairedRule]] = {}
        self.indexed: set[Phase] = set()

    def _index(self, theta: Phase) -> None:
        self.indexed.add(theta)
        groups, backward = self.groups, self.backward
        for r in self.rules_of(theta):
            if not backward:
                key = (r[0], r[1])
            else:
                word = r[3]
                key = (r[2], word[0]) if word else r[2]
            group = groups.get(key)
            if group is None:
                groups[key] = [r]
            else:
                group.append(r)

    def post_moves(self, p: str, theta: Phase, g: str
                   ) -> list[tuple[str, Phase, tuple[str, ...]]]:
        if theta not in self.indexed:
            self._index(theta)
        return [(*rhs, word) for _, _, rhs, word in self.groups.get(((p, theta), g), ())]

    def pre_moves(self, p1: str, theta: Phase, g1: str
                  ) -> list[tuple[str, Phase, str, tuple[str, ...]]]:
        if theta not in self.indexed:
            self._index(theta)
        return [(*lhs, g, word[1:])
                for lhs, g, _, word in self.groups.get(((p1, theta), g1), ())]

    def pop_moves(self, p1: str, theta: Phase) -> list[tuple[str, Phase, str]]:
        if theta not in self.indexed:
            self._index(theta)
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
    state.  Rules are read, and on a `PairedPDS` built, only for the
    phases that hold a state of the result and the phases that reach
    those by one modifying rule: on the `translated` benchmark pool that
    is one phase of the 81-phase closure.
    """
    _check_input(aut)
    return _PrestarEngine(_PairedRules(pds, backward=True), aut).run()


def pds_poststar(pds: PDS, aut: PAutomaton) -> PAutomaton:
    """Classical forward saturation for ordinary PDSs: the post* core
    (`poststar`) on the paired rules.  A key's rules are read at its first
    fact, so a saturation from a few configurations leaves most rules
    unread.  Raises `ValueError` on a control point or symbol that holds
    ':', as `poststar` does."""
    check_names(pds.controls, pds.alphabet)
    _check_input(aut)
    return _PoststarEngine(_PairedRules(pds, backward=False), aut).run()
