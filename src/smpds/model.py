"""Core model: self-modifying pushdown systems, phases, configurations.

A self-modifying pushdown system (SM-PDS) is a pushdown system whose rule
set can be rewritten at runtime.  A configuration therefore carries, next
to the control point and the stack word, the *phase*: the set of rule
identifiers currently enabled.  Plain rules rewrite the stack; modifying
rules swap one rule identifier for another in the phase.  `SMPDS` also
holds the rule indexes and modifying-rule moves the saturations fire.
Both kinds of rule are `NamedTuple`s, so a rule compares equal to, and
hashes like, a plain tuple of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
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
    is keyed by the mask.  The `members` frozenset (for `in`) is built
    when a phase is first interned, since every phase a saturation reaches
    gets membership tests; the sorted id tuple (for iteration and
    pickling) and the `repr` string (printers emit it for every state they
    name) are built on first use and cached.

    The intern table is a plain dict that holds its phases for the life of
    the process.  A `WeakValueDictionary` would run Python-level code on
    every lookup, and `update` looks the table up on the saturation's hot
    path; and since `solve_predecessor_phases` checks candidates on masks
    before interning them, the table only ever holds phases that a parse
    or a saturation actually reached.
    """

    __slots__ = ("mask", "members", "_ids", "_repr")

    _table: dict[int, "Phase"] = {}
    # member set -> phase, so `of` skips building a mask for a set it has seen
    _by_members: dict[frozenset[RuleId], "Phase"] = {}

    def __init__(self, mask: int, members: frozenset[RuleId] | None = None):
        if members is None:
            # the binary digits of the mask, bit 0 first, as 0/1 bytes
            bits = bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)
            members = frozenset(compress(_IDS, bits))
        self.mask = mask
        self.members = members
        self._ids: tuple[RuleId, ...] | None = None
        self._repr: str | None = None

    @classmethod
    def of(cls, ids: Iterable[RuleId]) -> "Phase":
        members = frozenset(ids)
        ph = cls._by_members.get(members)
        if ph is None:
            # distinct single bits: their sum is their union
            mask = sum(map(rule_bit, members))
            ph = cls._table.get(mask)
            if ph is None:
                ph = cls._table[mask] = cls(mask, members)
            cls._by_members[ph.members] = ph
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

    def _sorted_ids(self) -> tuple[RuleId, ...]:
        ids = self._ids
        if ids is None:
            ids = self._ids = tuple(sorted(self.members))
        return ids

    def __contains__(self, rid: RuleId) -> bool:
        return rid in self.members

    def __iter__(self) -> Iterator[RuleId]:
        return iter(self._sorted_ids())

    def __len__(self) -> int:
        return len(self.members)

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


def solve_predecessor_phases(theta: Phase, rid: RuleId,
                             rule: SelfModRule) -> list[Phase]:
    """Phases theta' from which firing `rule` yields `theta`.

    The set equation theta = (theta' - {removed}) | {added} has at most two
    solutions; each candidate is verified on masks by applying the forward
    update, and must contain both the modifying rule itself and its removed
    rule.  Only verified candidates are interned.
    """
    mask = theta.mask
    # an id without a bit is in no phase
    added = _BITS.get(rule.added, 0)
    if not mask & added:
        return []
    removed = rule_bit(rule.removed)
    needed = rule_bit(rid) | removed
    out = []
    for cand in {mask | removed, (mask & ~added) | removed}:
        if cand & needed == needed and (cand & ~removed) | added == mask:
            out.append(Phase.of_mask(cand))
    return out


class SMPDS:
    """An SM-PDS: control points, stack alphabet, and an id-addressed rule table.

    It is the rule source of the direct saturations, through the moves
    `post_moves`, `pre_moves`, `pop_moves` (stack rules, with modifying
    rules as rules that keep the top symbol) and `mod_successors`/
    `mod_predecessors` (the empty stack).  Their indexes hold each rule
    next to its id: plain rules by left side (p, gamma), by right-side head
    (p', w[0]) and, for pop rules, by right-side state; modifying rules by
    source and by target control point.  A plain rule may push a word of
    any length; the saturations take it as it is.
    """

    def __init__(self, states: Iterable[str], alphabet: Iterable[str],
                 rules: dict[RuleId, Rule]):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.rules = dict(rules)
        delta = []
        self.plain_by_lhs: dict[tuple[str, str], list[tuple[RuleId, PdsRule]]] = {}
        self.plain_by_rhs_head: dict[tuple[str, str], list[tuple[RuleId, PdsRule]]] = {}
        self.pop_rules: dict[str, list[tuple[RuleId, PdsRule]]] = {}
        self.mod_by_source: dict[str, list[tuple[RuleId, SelfModRule]]] = {}
        self.mod_by_target: dict[str, list[tuple[RuleId, SelfModRule]]] = {}
        for rid, r in self.rules.items():
            if isinstance(r, PdsRule):
                delta.append(rid)
                self.plain_by_lhs.setdefault((r.lhs_state, r.lhs_symbol), []).append((rid, r))
                if r.rhs_word:
                    self.plain_by_rhs_head.setdefault(
                        (r.rhs_state, r.rhs_word[0]), []).append((rid, r))
                else:
                    self.pop_rules.setdefault(r.rhs_state, []).append((rid, r))
            else:
                self.mod_by_source.setdefault(r.from_state, []).append((rid, r))
                self.mod_by_target.setdefault(r.to_state, []).append((rid, r))
        self.delta = frozenset(delta)
        self.delta_c = frozenset(self.rules.keys() - self.delta)

    def all_rules_phase(self) -> Phase:
        return Phase.of(self.rules.keys())

    def post_moves(self, p: str, theta: Phase, g: str
                   ) -> list[tuple[str, Phase, tuple[str, ...]]]:
        """The (p', theta', w) that <p, g> in theta steps to: plain rules in
        theta, and modifying rules, which leave g on the stack."""
        moves = [(r.rhs_state, theta, r.rhs_word)
                 for rid, r in self.plain_by_lhs.get((p, g), ()) if rid in theta]
        moves += [(p2, theta2, (g,)) for p2, theta2 in self.mod_successors(p, theta)]
        return moves

    def pre_moves(self, p1: str, theta: Phase, g1: str
                  ) -> list[tuple[str, Phase, str, tuple[str, ...]]]:
        """The (p, theta', g, w[1:]) of the moves to <p1, g1 w[1:]> in theta,
        pop rules excepted: plain rules in theta, and modifying rules."""
        moves = [(r.lhs_state, theta, r.lhs_symbol, r.rhs_word[1:])
                 for rid, r in self.plain_by_rhs_head.get((p1, g1), ()) if rid in theta]
        moves += [(p, pred, g1, ()) for p, pred in self.mod_predecessors(p1, theta)]
        return moves

    def pop_moves(self, p1: str, theta: Phase) -> list[tuple[str, Phase, str]]:
        """The (p, theta, g) of the pop rules in theta that lead to p1."""
        return [(r.lhs_state, theta, r.lhs_symbol)
                for rid, r in self.pop_rules.get(p1, ()) if rid in theta]

    def mod_successors(self, p: str, theta: Phase) -> list[tuple[str, Phase]]:
        """The (p', theta') that a modifying rule leads to from (p, theta), on
        any stack: one fires when it and its removed rule are in theta."""
        return [(r.to_state, theta.update(r.removed, r.added))
                for rid, r in self.mod_by_source.get(p, ())
                if rid in theta and r.removed in theta]

    def mod_predecessors(self, p: str, theta: Phase) -> list[tuple[str, Phase]]:
        """The (p0, theta0) from which a modifying rule leads to (p, theta):
        (p, theta) is in `mod_successors(p0, theta0)` exactly then."""
        return [(r.from_state, pred)
                for rid, r in self.mod_by_target.get(p, ())
                for pred in solve_predecessor_phases(theta, rid, r)]

    def __repr__(self) -> str:
        return (f"SMPDS(|P|={len(self.states)}, |Gamma|={len(self.alphabet)}, "
                f"|Delta|={len(self.delta)}, |Delta_c|={len(self.delta_c)})")


@dataclass(frozen=True)
class Configuration:
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
    if not c.phase.members <= smpds.rules.keys():
        raise ValueError("configuration phase references unknown rule ids")


def step(smpds: SMPDS, c: Configuration) -> frozenset[Configuration]:
    """All immediate successors of `c`.

    A plain rule fires when it is in the phase, the control point matches
    and its symbol is on top of the stack.  A modifying rule fires when it
    is in the phase, the control point matches and its removed rule is in
    the phase; the stack is not inspected.
    """
    check_configuration(smpds, c)
    out = set()
    for rid in c.phase:
        r = smpds.rules[rid]
        if isinstance(r, PdsRule):
            if r.lhs_state == c.state and c.stack and c.stack[0] == r.lhs_symbol:
                out.add(Configuration(r.rhs_state, r.rhs_word + c.stack[1:], c.phase))
        else:
            if r.from_state == c.state and r.removed in c.phase:
                out.add(Configuration(r.to_state, c.stack,
                                      c.phase.update(r.removed, r.added)))
    return frozenset(out)
