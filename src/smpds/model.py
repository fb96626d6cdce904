"""Core model: self-modifying pushdown systems, phases, configurations.

A self-modifying pushdown system (SM-PDS) is a pushdown system whose rule
set can be rewritten at runtime.  A configuration therefore carries, next
to the control point and the stack word, the *phase*: the set of rule
identifiers currently enabled.  Plain rules rewrite the stack; modifying
rules swap one rule identifier for another in the phase.  `SMPDS` also
holds the rule indexes and modifying-rule moves the saturations fire.
Both kinds of rule and `Configuration` are `NamedTuple`s, so each
compares equal to, and hashes like, a plain tuple of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, filterfalse
from typing import Iterable, Iterator, NamedTuple, Union

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


class Phase:
    """Interned, immutable set of rule ids, held as one int bitmask.

    Two phases with the same member set are the same object, so equality
    and hashing are those of `object`: an identity test and an address
    hash, both in C and computed without looking at the members.
    `update` is mask arithmetic plus one lookup in the intern table, which
    is keyed by the mask; `in` is one bit test and `len` a bit count.  The
    saturations read only the mask (see `SMPDS`), so a phase decodes its
    ids only when they are read: the `members` frozenset, the sorted id
    tuple (for iteration and pickling) and the `repr` string (printers
    emit it for every state they name) are built on first use and cached.
    `of` hands over the frozenset it already built.

    The intern table is a plain dict that holds its phases for the life of
    the process.  A `WeakValueDictionary` would run Python-level code on
    every lookup, and `update` looks the table up on the saturation's hot
    path; and since the predecessor solver (`predecessor_masks`) and
    `translate.phase_closure` search on masks and intern only what they
    return, the table only ever holds phases that a parse, a saturation or
    a closure actually reached.
    """

    __slots__ = ("mask", "_members", "_ids", "_repr")

    _table: dict[int, "Phase"] = {}
    # member set -> phase, so `of` skips building a mask for a set it has seen
    _by_members: dict[frozenset[RuleId], "Phase"] = {}

    def __init__(self, mask: int):
        self.mask = mask
        self._members: frozenset[RuleId] | None = None
        self._ids: tuple[RuleId, ...] | None = None
        self._repr: str | None = None

    @classmethod
    def of(cls, ids: Iterable[RuleId]) -> "Phase":
        members = frozenset(ids)
        ph = cls._by_members.get(members)
        if ph is None:
            # distinct single bits: their sum is their union
            ph = cls.of_mask(sum(map(rule_bit, members)))
            if ph._members is None:
                ph._members = members
            cls._by_members[ph._members] = ph
        return ph

    @classmethod
    def of_mask(cls, mask: int) -> "Phase":
        """The interned phase with this mask (bits as assigned by `rule_bit`)."""
        ph = cls._table.get(mask)
        if ph is None:
            ph = cls._table[mask] = cls(mask)
        return ph

    def update(self, removed: RuleId, added: RuleId) -> "Phase":
        """The phase after firing a modifying rule: drop `removed`, add `added`."""
        # an id without a bit is in no phase, so there is nothing to drop
        return Phase.of_mask((self.mask & ~_BITS.get(removed, 0)) | rule_bit(added))

    @property
    def members(self) -> frozenset[RuleId]:
        members = self._members
        if members is None:
            members = self._members = frozenset(compress(_IDS, mask_digits(self.mask)))
        return members

    def _sorted_ids(self) -> tuple[RuleId, ...]:
        ids = self._ids
        if ids is None:
            ids = self._ids = tuple(sorted(self.members))
        return ids

    def __contains__(self, rid: RuleId) -> bool:
        try:
            return self.mask & _BITS[rid] != 0
        except KeyError:
            # an id without a bit is in no phase
            return False

    def __iter__(self) -> Iterator[RuleId]:
        return iter(self._sorted_ids())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __reduce__(self):
        # pickle the ids, not the process-local mask, and unpickle through
        # the intern table, so identity survives the trip
        return (Phase.of, (self._sorted_ids(),))

    def __repr__(self) -> str:
        text = self._repr
        if text is None:
            text = self._repr = "{%s}" % ",".join(map(str, self._sorted_ids()))
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


class _DirectionIndex:
    """A rule index of `SMPDS` that one direction's moves read.

    The first read of any index of a direction builds all of them, in one
    pass over the rules (`build`), and stores them on the system.  This
    descriptor has no `__set__`, so every later read finds the stored
    index first: a plain instance attribute, with no call and no test.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, smpds, owner=None):
        if smpds is None:
            return self
        indexes = vars(smpds)
        indexes.update(self.build(smpds))
        return indexes[self.name]


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

    The indexes are built per direction, when first read: the forward
    ones (`plain_by_lhs`, `mod_by_source`) for `post_moves` and
    `mod_successors`, the backward ones (`plain_by_rhs_head`,
    `pop_rules`, `mod_by_target`) for `pre_moves`, `pop_moves` and
    `mod_predecessors`.  A pre* run builds no forward index, and a post*
    run no backward one.  The bits of every rule, `mod_bits`, `delta` and
    `delta_c` are set when the system is made.

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
        for rid in filterfalse(_BITS.__contains__, rules):
            rule_bit(rid)
        # the bits of every rule id, for `knows`: distinct single bits, so
        # their sum is their union
        self._known = sum(map(_BITS.__getitem__, rules))
        self.mod_bits: dict[RuleId, _ModBits] = {}
        for rid, r in rules.items():
            if isinstance(r, SelfModRule):
                removed = rule_bit(r.removed)
                self.mod_bits[rid] = (_BITS[rid] | removed, removed, rule_bit(r.added))
        self.delta_c = frozenset(self.mod_bits)
        self.delta = frozenset(rules.keys() - self.delta_c)

    def __reduce__(self):
        return (SMPDS, (self.states, self.alphabet, self.rules))

    def _forward_indexes(self) -> dict[str, dict]:
        """The indexes of `post_moves` and `mod_successors`: plain rules by
        left side, modifying rules by source."""
        by_lhs: dict[tuple[str, str], list[tuple[int, PdsRule]]] = {}
        by_source: dict[str, list[tuple[_ModBits, SelfModRule]]] = {}
        mod_bits = self.mod_bits
        for rid, r in self.rules.items():
            bits = mod_bits.get(rid)
            if bits is None:
                by_lhs.setdefault((r.lhs_state, r.lhs_symbol), []).append((_BITS[rid], r))
            else:
                by_source.setdefault(r.from_state, []).append((bits, r))
        return {"plain_by_lhs": by_lhs, "mod_by_source": by_source}

    def _backward_indexes(self) -> dict[str, dict]:
        """The indexes of `pre_moves`, `pop_moves` and `mod_predecessors`:
        plain rules by right-side head, pop rules by right-side state, and
        modifying rules by target."""
        by_head: dict[tuple[str, str], list[tuple[int, PdsRule]]] = {}
        pops: dict[str, list[tuple[int, PdsRule]]] = {}
        by_target: dict[str, list[tuple[_ModBits, SelfModRule]]] = {}
        mod_bits = self.mod_bits
        for rid, r in self.rules.items():
            bits = mod_bits.get(rid)
            if bits is not None:
                by_target.setdefault(r.to_state, []).append((bits, r))
            elif r.rhs_word:
                by_head.setdefault((r.rhs_state, r.rhs_word[0]), []).append((_BITS[rid], r))
            else:
                pops.setdefault(r.rhs_state, []).append((_BITS[rid], r))
        return {"plain_by_rhs_head": by_head, "pop_rules": pops, "mod_by_target": by_target}

    plain_by_lhs = _DirectionIndex(_forward_indexes)
    mod_by_source = _DirectionIndex(_forward_indexes)
    plain_by_rhs_head = _DirectionIndex(_backward_indexes)
    pop_rules = _DirectionIndex(_backward_indexes)
    mod_by_target = _DirectionIndex(_backward_indexes)

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
                 for bit, r in self.plain_by_lhs.get((p, g), ()) if mask & bit]
        moves += [(p2, theta2, (g,)) for p2, theta2 in self.mod_successors(p, theta)]
        return moves

    def pre_moves(self, p1: str, theta: Phase, g1: str
                  ) -> list[tuple[str, Phase, str, tuple[str, ...]]]:
        """The (p, theta', g, w[1:]) of the moves to <p1, g1 w[1:]> in theta,
        pop rules excepted: plain rules in theta, and modifying rules."""
        mask = theta.mask
        moves = [(r.lhs_state, theta, r.lhs_symbol, r.rhs_word[1:])
                 for bit, r in self.plain_by_rhs_head.get((p1, g1), ()) if mask & bit]
        moves += [(p, pred, g1, ()) for p, pred in self.mod_predecessors(p1, theta)]
        return moves

    def pop_moves(self, p1: str, theta: Phase) -> list[tuple[str, Phase, str]]:
        """The (p, theta, g) of the pop rules in theta that lead to p1."""
        mask = theta.mask
        return [(r.lhs_state, theta, r.lhs_symbol)
                for bit, r in self.pop_rules.get(p1, ()) if mask & bit]

    def mod_successors(self, p: str, theta: Phase) -> list[tuple[str, Phase]]:
        """The (p', theta') that a modifying rule leads to from (p, theta), on
        any stack: one fires when it and its removed rule are in theta."""
        mask = theta.mask
        # the guard holds the removed bit, so xor drops it
        return [(r.to_state, Phase.of_mask((mask ^ removed) | added))
                for (guard, removed, added), r in self.mod_by_source.get(p, ())
                if mask & guard == guard]

    def mod_predecessors(self, p: str, theta: Phase) -> list[tuple[str, Phase]]:
        """The (p0, theta0) from which a modifying rule leads to (p, theta):
        (p, theta) is in `mod_successors(p0, theta0)` exactly then."""
        mask = theta.mask
        return [(r.from_state, Phase.of_mask(pred))
                for bits, r in self.mod_by_target.get(p, ())
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


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def colon_violations(states: Iterable[str], alphabet: Iterable[str]) -> list[str]:
    """A diagnostic for each state and each symbol that holds ':'."""
    return [f"{kind} {name!r} holds ':'"
            for kind, names in (("state", states), ("symbol", alphabet))
            for name in sorted(names) if ":" in name]


def validate(smpds: SMPDS) -> ValidationReport:
    """Check every structural invariant; returns a report with diagnostics.

    Violations name undeclared states, symbols and rule ids, and a state
    or a symbol that holds ':'.  post* names the state after a pushed
    prefix g1...gk by joining it with ':' (`automaton.Generated`), so
    such a name would let two prefixes share a state.  A rule that
    pushes more than two symbols, and a modifying rule that removes
    itself, are ordinary rules and get no diagnostic.
    """
    rep = ValidationReport(colon_violations(smpds.states, smpds.alphabet))
    for rid, r in smpds.rules.items():
        if isinstance(r, PdsRule):
            if r.lhs_state not in smpds.states:
                rep.violations.append(f"rule {rid}: state {r.lhs_state!r} not in P")
            if r.rhs_state not in smpds.states:
                rep.violations.append(f"rule {rid}: state {r.rhs_state!r} not in P")
            if r.lhs_symbol not in smpds.alphabet:
                rep.violations.append(
                    f"rule {rid}: symbol {r.lhs_symbol!r} not in Gamma")
            for g in r.rhs_word:
                if g not in smpds.alphabet:
                    rep.violations.append(
                        f"rule {rid}: symbol {g!r} not in Gamma")
        else:
            if r.from_state not in smpds.states:
                rep.violations.append(f"smrule {rid}: state {r.from_state!r} not in P")
            if r.to_state not in smpds.states:
                rep.violations.append(f"smrule {rid}: state {r.to_state!r} not in P")
            for ref in (r.removed, r.added):
                if ref not in smpds.rules:
                    rep.violations.append(f"smrule {rid}: dangling RuleId {ref}")
    return rep


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
