"""Baseline route: translate an SM-PDS to an ordinary or symbolic PDS.

The ordinary translation encodes phases in control points, so it is only
computed over a closed set of phases of interest (full enumeration of all
2^|rules| phases is pointless for queries anchored at known phases).
`to_pds` checks that the set is closed on the modifying rules alone and
builds no rule: the `PairedPDS` it returns builds the rules of a phase
when a saturation first asks for that phase, the on-the-fly construction
of Schwoon (Model-Checking Pushdown Systems, 2002), so a goal-directed
saturation pays for the phases it reaches and not for the whole set.
The set is the PDS's `phases`, the ones that `rules` iterates and
counts; a saturation builds any phase it reaches, in the set or not.
The symbolic translation keeps one rule per SM-PDS rule and attaches a
phase relation, stored intensionally.

The phase arithmetic of the ordinary translation runs on int masks, with
the bit table of the modifying rules, `SMPDS.mod_bits`, and the solver
`model.predecessor_masks` that the direct saturations use:
`phase_closure` searches on masks and interns only the phases of the
finished closure, `to_pds` checks closedness on the masks of the set,
`PairedPDS.entering` finds the phases that lead into a phase from its
mask, and a phase's rules are built and counted from its mask.

Classical pre*/post* for ordinary PDSs are `prestar` and `poststar`,
with the phase moved into the control point: `_PairedRules` is their
rule source for a paired PDS, indexing the rules entering (pre*) or
leaving (post*) a phase when the saturation first reads it.  So each
direction has one input contract, the direct one.  A paired
configuration ((p, theta), w) is the SM-PDS configuration
(<p, w>, theta), so they take and return ordinary P-automata.  A paired
rule pushes the word of its SM-PDS rule, of any length, which the cores
take as it is.  The paired PDS fires no modifying rule on an empty
stack, so the two routes agree on nonempty stacks only.  Code that
shares nothing with the cores lives in the tests:
`tests/classical_reference.py` and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Union

from .automaton import PAutomaton, from_configs
from .model import Configuration, Phase, RuleId, SMPDS, predecessor_masks, rule_bit
from .poststar import poststar
from .prestar import prestar

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
    """Seeds closed under modifying-rule updates, forward and backward.

    The search runs on int masks and reads the bit table `smpds.mod_bits`:
    a rule leads forward from a mask that holds its guard bits, and back
    to the masks `model.predecessor_masks` finds.  Only the phases of the
    finished closure are interned.
    """
    mods = list(smpds.mod_bits.values())
    closed: set[int] = set()
    stack = [theta.mask for theta in seeds]
    while stack:
        mask = stack.pop()
        if mask in closed:
            continue
        closed.add(mask)
        for guard, removed, added in mods:
            if mask & guard == guard:
                # the guard holds the removed bit, so xor drops it
                stack.append((mask ^ removed) | added)
            stack += predecessor_masks(mask, guard, removed, added)
    return set(map(Phase.of_mask, closed))


class PairedPDS:
    """The paired PDS of an SM-PDS over a closed phase set (`to_pds`).

    `phases` is that set: iterating `rules` builds every phase of it, in
    sorted member order, and `len(rules)` counts their rules without
    building any.  A saturation reads rules a phase at a time and builds
    them on first use, for any phase it reaches, and keeps them in
    `phase_rules`: `leaving(theta)` builds theta, and `entering(theta)`
    builds theta and the phases that reach it by one modifying rule.
    """

    def __init__(self, smpds: SMPDS, phases: set[Phase]):
        self.smpds = smpds
        self.phases = phases
        self.alphabet = smpds.alphabet
        self.controls = smpds.states
        self.rules = _PhaseOrderedRules(self)
        # phase -> its rules, for the phases built so far
        self.phase_rules: dict[Phase, list[PairedRule]] = {}
        self._gammas = sorted(smpds.alphabet)
        self._words = [(g,) for g in self._gammas]
        # the rules in id order, the order a phase's rules are built in,
        # each behind the bits a phase needs for it to fire: a modifying
        # rule with its `mod_bits`, a plain rule as an exact tuple, which
        # CPython unpacks faster than it reads a NamedTuple's fields
        mod_bits = smpds.mod_bits
        self._by_id = [(*mod_bits[rid], r) if rid in mod_bits
                       else (rule_bit(rid), None, None, tuple(r))
                       for rid, r in sorted(smpds.rules.items())]

    def leaving(self, theta: Phase) -> list[PairedRule]:
        rules = self.phase_rules.get(theta)
        if rules is None:
            rules = self.phase_rules[theta] = self._build(theta)
        return rules

    def entering(self, theta: Phase) -> list[PairedRule]:
        sources = {theta: None}
        for bits in self.smpds.mod_bits.values():
            for mask in predecessor_masks(theta.mask, *bits):
                sources[Phase.of_mask(mask)] = None
        return [r for source in sources for r in self.leaving(source)
                if r[2][1] is theta]

    def _build(self, theta: Phase) -> list[PairedRule]:
        """The rules at phase theta, in rule id order: each plain rule in
        theta, and each modifying rule in theta with its removed rule,
        once per symbol."""
        rules: list[PairedRule] = []
        # rules are built by `tuple.__new__`, in C, rather than by the
        # NamedTuple's Python-level `__new__`
        new = tuple.__new__
        append = rules.append
        gammas, words = self._gammas, self._words
        mask = theta.mask
        for guard, removed, added, r in self._by_id:
            if mask & guard != guard:
                continue
            if removed is None:
                p, gamma, q, word = r
                append(new(PairedRule, ((p, theta), gamma, (q, theta), word)))
            else:
                # the guard holds the removed bit, so xor drops it
                rhs = (r.to_state, Phase.of_mask((mask ^ removed) | added))
                rules.extend(map(new, repeat(PairedRule),
                                 zip(repeat((r.from_state, theta)), gammas,
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
        """The number of rules, counted from the phase masks without
        building them: a phase's plain rules, and |Gamma| for each
        modifying rule whose guard bits it holds."""
        pds = self.pds
        plain = sum(map(rule_bit, pds.smpds.delta))
        width = len(pds._gammas)
        guards = [guard for guard, _, _ in pds.smpds.mod_bits.values()]
        n = 0
        for theta in pds.phases:
            mask = theta.mask
            n += (mask & plain).bit_count()
            for guard in guards:
                if mask & guard == guard:
                    n += width
        return n


def to_pds(smpds: SMPDS, phases: Iterable[Phase]) -> PairedPDS:
    """Encode phases into control points over the given phase set.

    Raises `ValueError` unless the set is closed on the modifying rules:
    the check runs on the masks of the set, with the bit table
    `smpds.mod_bits`, and interns no phase.  The set becomes the PDS's
    `phases`, which `rules` iterates and counts; a saturation builds the
    rules of each phase it reaches when it first reads them (see
    `PairedPDS`).
    """
    phase_set = set(phases)
    masks = {theta.mask for theta in phase_set}
    mods = smpds.mod_bits.values()
    for mask in masks:
        for guard, removed, added in mods:
            if mask & guard == guard and (mask ^ removed) | added not in masks:
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


def pds_from_configs(pds: PDS | PairedPDS,
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
    direction; the cores read a group once.  `states` and `alphabet` are
    the names that post* checks."""

    def __init__(self, pds: PDS | PairedPDS, backward: bool):
        self.states = pds.controls
        self.alphabet = pds.alphabet
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


def pds_prestar(pds: PDS | PairedPDS, aut: PAutomaton) -> PAutomaton:
    """Classical backward saturation for ordinary PDSs: `prestar`, input
    contract and all, on the paired rules.  The paired PDS fires no
    modifying rule on an empty stack, so the result agrees with direct
    pre* on nonempty stacks.  Rules are read, and on a `PairedPDS` built,
    only for the phases that hold a state of the result and the phases
    that reach those by one modifying rule: on the `translated` benchmark
    pool that is one phase of the 81-phase closure."""
    return prestar(_PairedRules(pds, backward=True), aut)


def pds_poststar(pds: PDS | PairedPDS, aut: PAutomaton) -> PAutomaton:
    """Classical forward saturation for ordinary PDSs: `poststar`, input
    contract and name check and all, on the paired rules.  A key's
    rules are read at its first fact, so a saturation from a few
    configurations leaves most rules unread."""
    return poststar(_PairedRules(pds, backward=False), aut)
