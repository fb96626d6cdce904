"""Baseline route: translate an SM-PDS to an ordinary or symbolic PDS.

The ordinary translation encodes phases in control points, so it is only
computed over a closed set of phases of interest (full enumeration of all
2^|rules| phases is pointless for queries anchored at known phases).  It
builds one paired-state tuple (p, theta) per control point and phase,
shared by every rule and by `PDS.states`, and checks that the set is
closed on the modifying rules alone.  The symbolic translation keeps one
rule per SM-PDS rule and attaches a phase relation, stored intensionally.

Classical pre*/post* saturations for ordinary PDSs are included as an
independent implementation used for cross-checking the direct engines;
this module imports none of theirs (`prestar`, `poststar`, `saturation`).
A paired configuration ((p, theta), w) is the SM-PDS configuration
(<p, w>, theta), so they take and return ordinary P-automata.  Each call
turns a paired state into its `Initial` once.  Both run on the worklist
every saturation shares (`automaton.DeltaWorklist`) and move the whole
set of new targets of a key (src, symbol) at a time.  Both resolve rules
only where the saturation reaches them: post* builds the plan of a left
side (Initial, symbol) at its first fact, and pre* is goal-directed.  It
fires a pop rule into Initial(p') only once that state is live (final,
or the source of a popped key), and turns the rules whose right-side
head is (p', g) into edges when the key (Initial(p'), g) is first popped.
So pre* returns the classical automaton trimmed to the transitions whose
target reaches a final state: the same language, with initial states only
in phases from which modifying rules reach a phase of the input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Union

from .automaton import (EPS, AutState, DeltaWorklist, Generated, Initial, Label,
                        PAutomaton, from_configs)
from .model import (Configuration, Phase, PdsRule, RuleId, SMPDS,
                    solve_predecessor_phases)

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


class _Interned(dict):
    """Paired state (p, theta) -> Initial(p, theta), interned on first use,
    so a classical saturation builds each state once per call."""

    def __missing__(self, pair: PdsState) -> Initial:
        q = self[pair] = Initial(*pair)
        return q


def _check_input(aut: PAutomaton) -> None:
    if aut.has_transition_into_initial():
        raise ValueError("input automaton has a transition into an initial state")
    if aut.has_epsilon():
        raise ValueError("input automaton must be epsilon-free")


def pds_prestar(pds: PDS, aut: PAutomaton) -> PAutomaton:
    """Classical backward saturation for ordinary PDSs, goal-directed.

    The result has the finals and the language of the full classical
    saturation.  When every transition of the input leads to a state
    that reaches a final state, as in `from_configs` automata, it is that
    saturation trimmed to the transitions whose target reaches a final
    state; a dead-end input transition can keep a few more.  On the
    `translated` benchmark pool that is 28-63 transitions where the full
    saturation builds 4.5k-16k.

    A pop rule <p, g> -> <p', eps> fires into Initial(p') only once that
    state is live, that is final or the source of a popped key.  The
    rules are indexed once by paired states, pop rules by their right
    side and the others by their right-side head (p', g1); a group turns
    into (Initial, symbol) edges, cached, when its key is first popped,
    and then takes the key's whole delta in one insert per edge.
    """
    _check_input(aut)
    # pop rules by their right-side state, the others by their right-side
    # head, all as raw paired tuples; every rule's length is checked here,
    # as most groups are never resolved
    pops: dict[PdsState, list[PairedRule]] = {}
    heads: dict[tuple[PdsState, str], list[PairedRule]] = {}
    for r in pds.rules:
        word = r[3]
        if word:
            if len(word) > 2:
                raise ValueError("classical pre* expects |w| <= 2 rules")
            key = (r[2], word[0])
            group = heads.get(key)
            if group is None:
                heads[key] = [r]
            else:
                group.append(r)
        else:
            group = pops.get(r[2])
            if group is None:
                pops[r[2]] = [r]
            else:
                group.append(r)
    result = aut.copy()
    out = result._out
    initial = _Interned()
    work = DeltaWorklist(result)

    def make_live(q: Initial) -> None:
        # the group leaves the index, so a state's pop rules fire once
        group = pops.pop((q.control, q.phase), None)
        if group is not None:
            work.add([(initial[r[0]], r[1]) for r in group], {q})

    for q in result.finals:
        if isinstance(q, Initial):
            make_live(q)
    # popped key (Initial, symbol) -> the left sides (Initial, symbol) of
    # its rules pushing one symbol, and those of its two-symbol rules with
    # their second pushed symbol
    resolved: dict[tuple[Initial, str],
                   tuple[list[tuple[Initial, str]],
                         list[tuple[tuple[Initial, str], str]]]] = {}
    # (mid-state, symbol) -> left sides of two-symbol rules waiting there
    pending: dict[tuple[AutState, str], set[tuple[Initial, str]]] = {}
    for key, dsts in work:
        waiting = pending.get(key)
        if waiting:
            work.add(waiting, dsts)
        src, label = key
        if not isinstance(src, Initial):
            continue
        group = resolved.get(key)
        if group is None:
            make_live(src)
            group = resolved[key] = ([], [])
            for lhs_state, symbol, _, word in heads.get(
                    ((src.control, src.phase), label), ()):
                lhs = (initial[lhs_state], symbol)
                if len(word) == 1:
                    group[0].append(lhs)
                else:
                    group[1].append((lhs, word[1]))
        edges, pushes = group
        if edges:
            work.add(edges, dsts)
        for lhs, second in pushes:
            for dst in dsts:
                mid = (dst, second)
                waiting = pending.get(mid)
                if waiting is None:
                    pending[mid] = {lhs}
                elif lhs in waiting:
                    # linked when it first waited here; later targets of
                    # mid replay the pending set
                    continue
                else:
                    waiting.add(lhs)
                known = out.get(dst)
                if known is not None and second in known:
                    work.add((lhs,), known[second])
    return result


def pds_poststar(pds: PDS, aut: PAutomaton) -> PAutomaton:
    """Classical forward saturation for ordinary PDSs.

    Rules are indexed by the paired state and symbol of their left side.
    The first fact of a key (Initial, symbol) builds the key's plan once:
    the edge (src, label) that each of its rules links to a fact's
    target, with the right-side `Initial` resolved and, for a rule pushing
    two symbols, the first edge into its `Generated` state added then.
    A saturation from a few configurations leaves most rules unread.
    """
    _check_input(aut)
    result = aut.copy()
    out = result._out
    initial = _Interned()
    work = DeltaWorklist(result)
    by_lhs: dict[tuple[PdsState, str], list[PairedRule]] = {}
    for r in pds.rules:
        lhs_state, symbol, _, word = r
        if len(word) > 2:
            raise ValueError("classical post* expects |w| <= 2 rules")
        key = (lhs_state, symbol)
        group = by_lhs.get(key)
        if group is None:
            by_lhs[key] = [r]
        else:
            group.append(r)
    # fact key (Initial, symbol) -> (the targets seen so far, its plan)
    facts: dict[tuple[Initial, str],
                tuple[set[AutState], list[tuple[AutState, Label]]]] = {}
    eps_into: dict[AutState, set[Initial]] = {}

    def plan(init: Initial, symbol: str) -> list[tuple[AutState, Label]]:
        edges: list[tuple[AutState, Label]] = []
        for _, _, rhs_state, word in by_lhs.get(((init.control, init.phase), symbol), ()):
            src = initial[rhs_state]
            if len(word) < 2:
                edges.append((src, word[0] if word else EPS))
            else:
                gen = Generated(src.control, word[0], src.phase)
                work.add(((src, word[0]),), {gen})
                edges.append((gen, word[1]))
        return edges

    def new_facts(init: Initial, symbol: str, dsts: set[AutState]) -> None:
        key = (init, symbol)
        fact = facts.get(key)
        if fact is None:
            fresh = set(dsts)
            edges = plan(init, symbol)
            facts[key] = (fresh, edges)
        else:
            known, edges = fact
            if dsts <= known:
                return
            fresh = dsts - known
            known |= fresh
        work.add(edges, fresh)

    for (src, label), delta in work:
        if not isinstance(src, Initial):
            for init in eps_into.get(src, ()):
                new_facts(init, label, delta)
        elif label is not EPS:
            new_facts(src, label, delta)
        else:
            # eps edges lead from initial states to non-initial ones, which
            # have none, so each symbol edge of a new eps-target is a fact;
            # the labels are copied, as a fact may add edges leaving mid
            for mid in delta:
                eps_into.setdefault(mid, set()).add(src)
                for symbol, targets in list(out.get(mid, {}).items()):
                    new_facts(src, symbol, targets)
    return result
