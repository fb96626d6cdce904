"""Core model: self-modifying pushdown systems, phases, configurations.

A self-modifying pushdown system (SM-PDS) is a pushdown system whose rule
set can be rewritten at runtime.  A configuration therefore carries, next
to the control point and the stack word, the *phase*: the set of rule
identifiers currently enabled.  Plain rules rewrite the stack; modifying
rules swap one rule identifier for another in the phase.  `SMPDS` also
holds the rule indexes and modifying-rule moves the saturations fire.
Phases are interned on `Interned`, the one interning base, which the
automaton states share.
Both kinds of rule and `Configuration` are `NamedTuple`s, so each
compares equal to, and hashes like, a plain tuple of its fields.

The cyclic garbage collector is paused while a model or an automaton is
parsed and while a saturation runs: `formats.parse_smpds`,
`formats.parse_automaton`, `prestar` and `poststar` (and so
`translate.pds_prestar` and `pds_poststar`), `smpds.check`, and the
command line's `check`, `prestar` and `poststar`, each of which loads
and saturates under one pause, run under `collector_paused`.
Those calls allocate a model's rules, indexes and tables in bulk, which
sets off young-generation collections, and they make no reference cycle
(`tests/test_automaton.py` checks this for each of them), so the
collections that the pause skips would free nothing.  What they allocate
is freed by reference counting as before; the pause only defers the
collector's walk until the call returns.
"""

from __future__ import annotations

import gc
from dataclasses import FrozenInstanceError
from functools import cached_property, wraps
from itertools import compress
from typing import Callable, Iterable, Iterator, NamedTuple, Union

RuleId = int


# rule id -> its bit in a phase mask, and bit position -> rule id.  Bits
# are handed out in order of first sight, so a phase over n distinct ids is
# at most n bits wide whatever the ids are (negative ids and sparse huge
# ones such as 10**12 cost one bit each).  Positions are per-process, which
# is why phases pickle as their sorted ids.
_BITS: dict[RuleId, int] = {}
_IDS: list[RuleId] = []
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def mask_digits(mask: int) -> bytes:
    """The binary digits of `mask`, bit 0 first, as 0/1 bytes: the
    selectors with which `itertools.compress` picks a mask's members out
    of a list indexed by bit position."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)


def rule_bit(rid: RuleId) -> int:
    """The mask bit of `rid`, assigning the next free one on first sight."""
    bit = _BITS.get(rid)
    if bit is None:
        bit = _BITS[rid] = 1 << len(_IDS)
        _IDS.append(rid)
    return bit


def collector_paused(fn: Callable) -> Callable:
    """`fn`, run with the cyclic collector off.  A collector on at entry
    is turned off, and on again however the call ends; one off at entry
    is left alone.  No threshold changes and no object is frozen, so a
    caller's collector settings read the same after the call."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class InternTable(dict):
    """An intern table: a dict whose lookup is construction.  A key it
    lacks is handed to `make`, and the value is stored and returned, so a
    hit is one subscript in C and a miss builds the value once.  A
    `make` that raises stores nothing.  `.get` and `in` look a key up
    without building anything."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class Interned:
    """Base of the interned values: `Phase` and the automaton states
    (`automaton.Initial`, `Plain` and `Generated`).

    A second call of a subclass's constructor with the same fields returns
    the first call's object, so equality and hashing are those of
    `object`: an identity test and an address hash, both in C, where a
    frozen dataclass would run a generated Python `__eq__`/`__hash__` that
    builds a tuple of the fields on every set or dict operation.  The
    slots are the fields, in constructor order, and they are read-only:
    assigning or deleting one raises `FrozenInstanceError`.

    Each subclass keeps its values in its own `InternTable`, `_table`,
    for the life of the process, and its constructor is one subscript of
    it: the table's `__missing__` calls the subclass's `_make` on a miss.
    A `WeakValueDictionary` would run Python-level code on every lookup,
    and the saturations look phases and states up on their hot paths.
    """

    __slots__ = ()
    _table: InternTable

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = InternTable(cls._make)

    @classmethod
    def _make(cls, key: tuple) -> "Interned":
        """A new value for `key`, which by default is the field tuple."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, key):
            object.__setattr__(obj, name, value)
        return obj

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # unpickle through the constructor, and so through the table
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Phase(Interned):
    """Interned, read-only set of rule ids, held as one int bitmask.

    `Phase(mask)` is the phase of the ids whose bits (`rule_bit`) the mask
    holds, and `Phase.of(ids)` the phase of an id set; both return the
    interned phase, so `is` compares phases.  A negative mask, or one
    with a bit that no rule id has been given, raises `ValueError`.
    `update` is mask arithmetic plus one lookup in the intern table, which
    is keyed by the mask; `in` is one bit test and `len` a bit count.  The
    saturations read only the mask (see `SMPDS`), and a phase holds
    nothing else that a query reads: `members`, iteration (in sorted id
    order) and pickling decode the mask each time.  The predecessor
    solver (`predecessor_masks`) and `translate.phase_closure` search on
    masks and intern only what they return, so the table only ever holds
    phases that a parse, a saturation or a closure actually reached.

    Next to the intern table, two caches stay, because traffic pays for
    them: `_by_members`, a second `InternTable`, keyed by member set, so
    `of` is one subscript of it, and the `repr` string, which the
    printers emit for every state they name.
    """

    __slots__ = ("mask", "_repr")
    # member set -> phase: `of` on a 1019-id set takes 24 us with it and
    # 120 us without (shared 2-core VM), and every `pre_wide` query parses
    # such a set
    _by_members = InternTable(
        # distinct single bits: their sum is their union
        lambda members: Phase(sum(map(rule_bit, members))))
    mask: int

    def __new__(cls, mask: int) -> "Phase":
        return cls._table[mask]

    @classmethod
    def _make(cls, mask: int) -> "Phase":
        # checked on a miss only, so the saturations' lookups pay nothing
        if mask < 0 or mask >> len(_IDS):
            raise ValueError(f"phase mask {mask} holds a bit that no rule id has")
        # the `repr` is cached on first use (see `__repr__`)
        return super()._make((mask, None))

    @classmethod
    def of(cls, ids: Iterable[RuleId]) -> "Phase":
        return cls._by_members[frozenset(ids)]

    def update(self, removed: RuleId, added: RuleId) -> "Phase":
        """The phase after firing a modifying rule: drop `removed`, add `added`."""
        # an id without a bit is in no phase, so there is nothing to drop
        return Phase((self.mask & ~_BITS.get(removed, 0)) | rule_bit(added))

    @property
    def members(self) -> frozenset[RuleId]:
        return frozenset(compress(_IDS, mask_digits(self.mask)))

    def __contains__(self, rid: RuleId) -> bool:
        try:
            return self.mask & _BITS[rid] != 0
        except KeyError:
            # an id without a bit is in no phase
            return False

    def __iter__(self) -> Iterator[RuleId]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __reduce__(self):
        # pickle the ids, not the process-local mask, and unpickle through
        # the intern table, so identity survives the trip
        return (Phase.of, (tuple(self),))

    def __repr__(self) -> str:
        # cached: uncached, naming the 16-32 phases of one `post_fanout`
        # result costs 170-380 us, 1-2% of its 18 ms query (shared 2-core VM)
        text = self._repr
        if text is None:
            text = "{%s}" % ",".join(map(str, self))
            object.__setattr__(self, "_repr", text)
        return text


class PdsRule(NamedTuple):
    """<p, gamma> -> <p', w>: pop gamma at p, push w, move to p'."""

    lhs_state: str
    lhs_symbol: str
    rhs_state: str
    rhs_word: tuple[str, ...]

    def __repr__(self) -> str:
        w = " ".join(self.rhs_word) if self.rhs_word else "eps"
        return f"<{self.lhs_state},{self.lhs_symbol}> -> <{self.rhs_state},{w}>"


class SelfModRule(NamedTuple):
    """p --(r1, r2)--> p': move to p', drop rule r1 from the phase, add r2."""

    from_state: str
    removed: RuleId
    added: RuleId
    to_state: str

    def __repr__(self) -> str:
        return f"{self.from_state} --({self.removed},{self.added})--> {self.to_state}"


Rule = Union[PdsRule, SelfModRule]
_ModBits = tuple[int, int, int]  # guard, removed, added: see `SMPDS.mod_bits`


def predecessor_masks(mask: int, guard: int, removed: int,
                      added: int) -> tuple[int, ...]:
    """The masks from which the modifying rule with these `SMPDS.mod_bits`
    leads to `mask`.

    Firing the rule sets its added bit.  If the removed and the added rule
    are one rule, it leaves the mask as it is, and `mask` is its own only
    predecessor.  Otherwise it clears the removed bit, and each predecessor
    is `mask` plus the removed bit, with or without the added bit, if it
    holds the guard bits.
    """
    if not mask & added:
        return ()
    if removed == added:
        return (mask,) if mask & guard == guard else ()
    pred = mask | removed
    if mask & removed or pred & guard != guard:
        return ()
    # a rule that adds itself needs its bit before it fires
    return (pred,) if guard & added else (pred, pred ^ added)


class SMPDS:
    """An SM-PDS: control points, stack alphabet, and an id-addressed rule table.

    It is the rule source of the direct saturations, through the moves
    `post_moves`, `pre_moves`, `pop_moves` (stack rules, with modifying
    rules as rules that keep the top symbol) and `mod_successors`/
    `mod_predecessors` (the empty stack).  Their indexes hold each rule
    next to the mask bits a phase needs for it to fire, so a move is a
    bit test and reads no rule id: plain rules with their `rule_bit`, by
    left side (p, gamma), by right-side head (p', w[0]) and, for pop
    rules, by right-side state; modifying rules with their `mod_bits`, by
    source and by target control point.  A plain rule may push a word of
    any length; the saturations take it as it is.

    The indexes are built per direction, in one pass over the rules when
    a move first reads them, and kept in a `functools.cached_property`:
    `_forward` (plain rules by left side, modifying rules by source) for
    `post_moves` and `mod_successors`, `_backward` (plain rules by
    right-side head, pop rules, modifying rules by target) for
    `pre_moves`, `pop_moves` and `mod_predecessors`.  A pre* run builds
    no forward index, and a post* run no backward one.  The bits of every
    rule, `mod_bits`, `delta` and `delta_c` are set when the system is
    made.  `plain_mask`, the union of the plain rules' bits, is cached the
    same way as the indexes, and only the translation reads it; so is
    `_known`, the union of every rule's bits, which only `knows` reads.

    `mod_bits`, which the translation reads too, maps each modifying rule
    id to (guard, removed, added): the mask bits of the rule plus its
    removed rule, of the removed rule, and of the added rule.  The rule
    fires in a phase whose mask holds every guard bit and leads to the
    mask `(mask ^ removed) | added`; `predecessor_masks` inverts that.

    Mask bits are per-process, so a system pickles as its states,
    alphabet and rule table and is built afresh when it is loaded.
    """

    def __init__(self, states: Iterable[str], alphabet: Iterable[str],
                 rules: dict[RuleId, Rule]):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.rules = rules = dict(rules)
        for rid in rules:
            if rid not in _BITS:
                rule_bit(rid)
        self.mod_bits: dict[RuleId, _ModBits] = {}
        for rid, r in rules.items():
            if type(r) is SelfModRule:
                _, removed, added, _ = r
                removed = rule_bit(removed)
                self.mod_bits[rid] = (_BITS[rid] | removed, removed, rule_bit(added))
        self.delta_c = frozenset(self.mod_bits)
        self.delta = frozenset(rules.keys() - self.delta_c)

    def __reduce__(self):
        return (SMPDS, (self.states, self.alphabet, self.rules))

    @cached_property
    def _known(self) -> int:
        """The bits of every rule id, which only `knows` reads: distinct
        single bits, so their sum is their union."""
        return sum(map(_BITS.__getitem__, self.rules))

    @cached_property
    def plain_mask(self) -> int:
        """The mask bits of the plain rules, which the translation reads:
        distinct single bits, so their sum is their union."""
        return sum(map(_BITS.__getitem__, self.delta))

    @cached_property
    def _forward(self) -> tuple[dict, dict]:
        """The indexes of `post_moves` and `mod_successors`: plain rules by
        left side, modifying rules by source."""
        by_lhs: dict[tuple[str, str], list[tuple[int, PdsRule]]] = {}
        by_source: dict[str, list[tuple[_ModBits, SelfModRule]]] = {}
        mod_bits = self.mod_bits
        for rid, r in self.rules.items():
            if type(r) is SelfModRule:
                by_source.setdefault(r[0], []).append((mod_bits[rid], r))
            else:
                p, g, _, _ = r
                by_lhs.setdefault((p, g), []).append((_BITS[rid], r))
        return by_lhs, by_source

    @cached_property
    def _backward(self) -> tuple[dict, dict, dict]:
        """The indexes of `pre_moves`, `pop_moves` and `mod_predecessors`:
        plain rules by right-side head, pop rules by right-side state, and
        modifying rules by target."""
        by_head: dict[tuple[str, str], list[tuple[int, PdsRule]]] = {}
        pops: dict[str, list[tuple[int, PdsRule]]] = {}
        by_target: dict[str, list[tuple[_ModBits, SelfModRule]]] = {}
        mod_bits = self.mod_bits
        for rid, r in self.rules.items():
            if type(r) is SelfModRule:
                by_target.setdefault(r[3], []).append((mod_bits[rid], r))
                continue
            _, _, q, w = r
            if w:
                by_head.setdefault((q, w[0]), []).append((_BITS[rid], r))
            else:
                pops.setdefault(q, []).append((_BITS[rid], r))
        return by_head, pops, by_target

    def all_rules_phase(self) -> Phase:
        return Phase.of(self.rules.keys())

    def knows(self, theta: Phase) -> bool:
        """Whether every id of theta names a rule of this system."""
        return theta.mask | self._known == self._known

    def post_moves(self, p: str, theta: Phase, g: str
                   ) -> list[tuple[str, Phase, tuple[str, ...]]]:
        """The (p', theta', w) that <p, g> in theta steps to: plain rules in
        theta, and modifying rules, which leave g on the stack."""
        mask = theta.mask
        moves = [(r.rhs_state, theta, r.rhs_word)
                 for bit, r in self._forward[0].get((p, g), ()) if mask & bit]
        moves += [(p2, theta2, (g,)) for p2, theta2 in self.mod_successors(p, theta)]
        return moves

    def pre_moves(self, p1: str, theta: Phase, g1: str
                  ) -> list[tuple[str, Phase, str, tuple[str, ...]]]:
        """The (p, theta', g, w[1:]) of the moves to <p1, g1 w[1:]> in theta,
        pop rules excepted: plain rules in theta, and modifying rules."""
        mask = theta.mask
        by_head, _, by_target = self._backward
        phase = Phase._table
        moves = [(p, theta, g, w[1:])
                 for bit, (p, g, _, w) in by_head.get((p1, g1), ()) if mask & bit]
        # `mod_predecessors`' loop, kept inline: calling it instead made
        # classical pre* on the `translated` pool about 5% slower
        # (in-process, slower in every round)
        for bits, (p, _, _, _) in by_target.get(p1, ()):
            for pred in predecessor_masks(mask, *bits):
                moves.append((p, phase[pred], g1, ()))
        return moves

    def pop_moves(self, p1: str, theta: Phase) -> list[tuple[str, Phase, str]]:
        """The (p, theta, g) of the pop rules in theta that lead to p1."""
        mask = theta.mask
        return [(p, theta, g)
                for bit, (p, g, _, _) in self._backward[1].get(p1, ()) if mask & bit]

    def mod_successors(self, p: str, theta: Phase) -> list[tuple[str, Phase]]:
        """The (p', theta') that a modifying rule leads to from (p, theta), on
        any stack: one fires when it and its removed rule are in theta."""
        mask = theta.mask
        phase = Phase._table
        # the guard holds the removed bit, so xor drops it
        return [(r.to_state, phase[(mask ^ removed) | added])
                for (guard, removed, added), r in self._forward[1].get(p, ())
                if mask & guard == guard]

    def mod_predecessors(self, p: str, theta: Phase) -> list[tuple[str, Phase]]:
        """The (p0, theta0) from which a modifying rule leads to (p, theta):
        (p, theta) is in `mod_successors(p0, theta0)` exactly then."""
        mask = theta.mask
        phase = Phase._table
        return [(r.from_state, phase[pred])
                for bits, r in self._backward[2].get(p, ())
                for pred in predecessor_masks(mask, *bits)]

    def __repr__(self) -> str:
        return (f"SMPDS(|P|={len(self.states)}, |Gamma|={len(self.alphabet)}, "
                f"|Delta|={len(self.delta)}, |Delta_c|={len(self.delta_c)})")


class Configuration(NamedTuple):
    """(control point, stack word, phase); stack[0] is the top of the stack."""

    state: str
    stack: tuple[str, ...]
    phase: Phase

    def __repr__(self) -> str:
        w = " ".join(self.stack) if self.stack else "eps"
        return f"(<{self.state}, {w}>, {self.phase})"


def validate(smpds: SMPDS) -> list[str]:
    """Check every structural invariant; returns the diagnostics, empty
    when there are none.

    Violations name undeclared states, symbols and rule ids.  A rule that
    pushes more than two symbols, and a modifying rule that removes
    itself, are ordinary rules and get no diagnostic.
    """
    violations: list[str] = []
    for rid, r in smpds.rules.items():
        if isinstance(r, PdsRule):
            if r.lhs_state not in smpds.states:
                violations.append(f"rule {rid}: state {r.lhs_state!r} not in P")
            if r.rhs_state not in smpds.states:
                violations.append(f"rule {rid}: state {r.rhs_state!r} not in P")
            if r.lhs_symbol not in smpds.alphabet:
                violations.append(f"rule {rid}: symbol {r.lhs_symbol!r} not in Gamma")
            for g in r.rhs_word:
                if g not in smpds.alphabet:
                    violations.append(f"rule {rid}: symbol {g!r} not in Gamma")
        else:
            if r.from_state not in smpds.states:
                violations.append(f"smrule {rid}: state {r.from_state!r} not in P")
            if r.to_state not in smpds.states:
                violations.append(f"smrule {rid}: state {r.to_state!r} not in P")
            for ref in (r.removed, r.added):
                if ref not in smpds.rules:
                    violations.append(f"smrule {rid}: dangling RuleId {ref}")
    return violations


def check_configuration(smpds: SMPDS, c: Configuration) -> None:
    if c.state not in smpds.states:
        raise ValueError(f"configuration state {c.state!r} not in P")
    for g in c.stack:
        if g not in smpds.alphabet:
            raise ValueError(f"configuration symbol {g!r} not in Gamma")
    if not smpds.knows(c.phase):
        raise ValueError("configuration phase references unknown rule ids")


def step(smpds: SMPDS, c: Configuration) -> frozenset[Configuration]:
    """All immediate successors of `c`: the moves `SMPDS.post_moves` on the
    top of the stack, and `SMPDS.mod_successors` on the empty stack.

    A plain rule fires when it is in the phase, the control point matches
    and its symbol is on top of the stack.  A modifying rule fires when it
    is in the phase, the control point matches and its removed rule is in
    the phase; the stack is not inspected.
    """
    check_configuration(smpds, c)
    if not c.stack:
        return frozenset(Configuration(p, (), theta)
                         for p, theta in smpds.mod_successors(c.state, c.phase))
    return frozenset(Configuration(p, w + c.stack[1:], theta)
                     for p, theta, w in smpds.post_moves(c.state, c.phase, c.stack[0]))
