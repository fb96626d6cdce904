"""Baseline route: translate an SM-PDS to an ordinary PDS.

The ordinary translation encodes phases in control points, so it is only
computed over a closed set of phases of interest (full enumeration of all
2^|rules| phases is pointless for queries anchored at known phases).
`phase_closure` builds that set, closed by construction, as a
`ClosedPhases` that carries its system and its paired-rule count, and
`to_pds` takes only such a closure of its own system, and tests no
phase.  Neither builds a rule.  The `PairedPDS` that `to_pds` returns is
a view of the SM-PDS: the paired rules of a phase theta are the moves
that `SMPDS.post_moves`, `pre_moves` and `pop_moves` return at theta, so
a saturation reads those moves and builds no paired rule, the on-the-fly
construction of Schwoon (Model-Checking Pushdown Systems, 2002) with
nothing materialised.  The closure is the PDS's `phases`, the ones that
`rules` builds for `smpds translate`; a saturation reads the moves of
any phase it reaches, in the closure or not.  The symbolic translation
needs no object of its own: `formats.print_symbolic_pds` prints it from
the rule table.

`phase_closure` runs on int masks, with the bit tables `SMPDS.mod_bits`
of the modifying rules and `SMPDS.plain_mask` of the plain ones, and the
solver `model.predecessor_masks` that the direct saturations use: it
searches one group of modifying rules that share bits at a time, takes
the product of the groups' parts, counts the paired rules from the parts
and interns only the phases of the finished closure.  A phase's rules
are built from its own ids, each modifying rule's target by
`Phase.update`.

Classical pre*/post* for ordinary PDSs are `prestar` and `poststar`,
with the phase moved into the control point and the PDS as their rule
source: a `PairedPDS`, or an explicit `PDS` given by its rules.
`pds_prestar` and `pds_poststar` are the two functions themselves, under
the names of the classical route, so each direction has one input
contract, the direct one.  A paired configuration ((p, theta), w) is the
SM-PDS configuration (<p, w>, theta), so they take and return ordinary
P-automata.  A paired rule pushes the word of its SM-PDS rule, of any
length, which the cores take as it is.  The paired PDS fires no
modifying rule on an empty stack, so the two routes agree on nonempty
stacks only.  Code that shares nothing with the cores lives in the
tests: `tests/classical_reference.py` and the oracle.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .automaton import PAutomaton, from_configs
from .model import Configuration, Interned, Phase, SMPDS, predecessor_masks
from .poststar import poststar
from .prestar import prestar

# a control point of the translated PDS: (original control point, phase)
PdsState = tuple[str, Phase]


class PDS:
    """An ordinary PDS over paired states (p, theta), given by its rules.

    It is a rule source of the saturation cores, with the moves of
    `SMPDS` read off one index of its rules, built on first use: by left
    side ((p, theta), g), by right-side head ((p', theta'), w[0]) and, for
    pop rules, by right-side state.  A rule reads a stack symbol, so it
    has no empty-stack moves.  `states` holds the control points p of the
    paired states, and `alphabet` the stack symbols.
    """

    def __init__(self, states: Iterable[PdsState], alphabet: Iterable[str],
                 rules: Iterable[PairedRule]):
        self.states = frozenset(p for p, _ in states)
        self.alphabet = frozenset(alphabet)
        self.rules = tuple(rules)

    @cached_property
    def _moves(self) -> tuple[dict, dict, dict]:
        post: dict[tuple, list] = {}
        pre: dict[tuple, list] = {}
        pop: dict[tuple, list] = {}
        for (p, theta), g, (p1, theta1), word in self.rules:
            post.setdefault((p, theta, g), []).append((p1, theta1, word))
            if word:
                pre.setdefault((p1, theta1, word[0]), []).append(
                    (p, theta, g, word[1:]))
            else:
                pop.setdefault((p1, theta1), []).append((p, theta, g))
        return post, pre, pop

    def post_moves(self, p: str, theta: Phase, g: str
                   ) -> list[tuple[str, Phase, tuple[str, ...]]]:
        return self._moves[0].get((p, theta, g), [])

    def pre_moves(self, p1: str, theta: Phase, g1: str
                  ) -> list[tuple[str, Phase, str, tuple[str, ...]]]:
        return self._moves[1].get((p1, theta, g1), [])

    def pop_moves(self, p1: str, theta: Phase) -> list[tuple[str, Phase, str]]:
        return self._moves[2].get((p1, theta), [])

    def mod_successors(self, p: str, theta: Phase) -> list[tuple[str, Phase]]:
        return []

    mod_predecessors = mod_successors


class PairedRule(NamedTuple):
    lhs_state: PdsState
    lhs_symbol: str
    rhs_state: PdsState
    rhs_word: tuple[str, ...]


class ClosedPhases(frozenset):
    """A phase set that `phase_closure` built for `smpds`: closed by
    construction on its modifying rules, with `rule_count`, the number of
    paired rules over the set.

    It is the one input `to_pds` takes.  It is read-only, and its set
    operations return plain `frozenset`s, which `to_pds` refuses.
    """

    __slots__ = ("smpds", "rule_count")
    smpds: SMPDS
    rule_count: int
    __setattr__ = Interned.__setattr__
    __delattr__ = Interned.__delattr__

    def __new__(cls, phases: Iterable[Phase], smpds: SMPDS,
                rule_count: int) -> "ClosedPhases":
        closed = super().__new__(cls, phases)
        object.__setattr__(closed, "smpds", smpds)
        object.__setattr__(closed, "rule_count", rule_count)
        return closed

    def __reduce__(self):
        return (ClosedPhases, (tuple(self), self.smpds, self.rule_count))


def phase_closure(smpds: SMPDS, seeds: Iterable[Phase]) -> ClosedPhases:
    """Seeds closed under modifying-rule updates, forward and backward,
    with the number of paired rules over them.

    A modifying rule touches its bits of `smpds.mod_bits`, guard and
    added: its guard reads only those, and its update writes only those.
    Rules that touch a common bit, directly or through a chain of rules,
    form a group, and moves of different groups commute.  So the closure
    of a seed is the product of one small closure per group, searched
    from the seed's bits in the group, times the bits no rule touches.
    Each group's search runs on int masks: a rule leads forward from a
    mask that holds its guard bits, and back to the masks
    `model.predecessor_masks` finds.  Only the phases of the finished
    closure are interned.

    A phase's paired rules are its plain-rule bits (`smpds.plain_mask`)
    and |Gamma| for each modifying rule whose guard bits it holds; a
    guard lies in its group's bits, so each group's search counts the
    rules of its part's masks, and the count of a seed's closure is
    summed from the parts, each mask of a part counted once per phase of
    the rest of the product.  The closure runs both ways, so seeds not
    in one another's closures have disjoint closures, whose counts add
    up.
    """
    # (touched bits, rule bits): merging every group a rule overlaps keeps
    # the groups' bits disjoint
    groups: list[tuple[int, list[tuple[int, int, int]]]] = []
    for bits in smpds.mod_bits.values():
        touched, mods = bits[0] | bits[2], [bits]
        apart = []
        for group in groups:
            if group[0] & touched:
                touched |= group[0]
                mods += group[1]
            else:
                apart.append(group)
        groups = apart + [(touched, mods)]
    untouched = ~sum(touched for touched, _ in groups)
    plain, width = smpds.plain_mask, len(smpds.alphabet)
    closed: set[int] = set()
    rule_count = 0
    for seed in {theta.mask for theta in seeds}:
        if seed in closed:
            continue
        product = [seed & untouched]
        # the paired rules over `product`
        count = (seed & untouched & plain).bit_count()
        for touched, mods in groups:
            part, part_count = _group_closure(seed & touched, mods, plain, width)
            count = count * len(part) + part_count * len(product)
            product = [mask | bits for mask in product for bits in part]
        closed.update(product)
        rule_count += count
    # one subscript of the intern table per mask, which builds the phases
    # not interned yet
    return ClosedPhases(map(Phase._table.__getitem__, closed), smpds, rule_count)


def _group_closure(seed: int, mods: list[tuple[int, int, int]], plain: int,
                   width: int) -> tuple[set[int], int]:
    """The masks that the modifying rules `mods` reach from `seed`,
    forward and backward, and their paired rules: the bits of `plain`
    they hold, and `width` rules for each guard of `mods` they hold."""
    closed: set[int] = set()
    count = 0
    stack = [seed]
    while stack:
        mask = stack.pop()
        if mask in closed:
            continue
        closed.add(mask)
        count += (mask & plain).bit_count()
        for guard, removed, added in mods:
            if mask & guard == guard:
                count += width
                # the guard holds the removed bit, so xor drops it
                stack.append((mask ^ removed) | added)
            stack += predecessor_masks(mask, guard, removed, added)
    return closed, count


class PairedPDS:
    """The paired PDS over a closure that `phase_closure` built (`to_pds`).

    A view of the SM-PDS: its moves are the `SMPDS`'s own, less the
    empty-stack moves, which it lacks, so a saturation reads the SM-PDS
    and builds no paired rule.  `phases` is the closure: iterating
    `rules` builds every phase of it, in sorted member order, and
    `len(rules)` is the closure's `rule_count`.  The rules view holds
    the closure, not the PDS, so the two make no reference cycle and are
    freed by reference counting.
    """

    def __init__(self, closure: ClosedPhases):
        smpds = self.smpds = closure.smpds
        self.phases = closure
        self.alphabet = smpds.alphabet
        # the paired rules of a phase theta are the moves at theta
        self.post_moves = smpds.post_moves
        self.pre_moves = smpds.pre_moves
        self.pop_moves = smpds.pop_moves
        self.rules = _PhaseOrderedRules(closure)

    # a paired rule reads a stack symbol: no move on an empty stack
    mod_successors = mod_predecessors = PDS.mod_successors


class _PhaseOrderedRules:
    """`PairedPDS.rules`: the rules phase by phase, in sorted member order,
    so their order does not depend on how phases hash."""

    def __init__(self, closure: ClosedPhases):
        self.closure = closure

    def __iter__(self) -> Iterator[PairedRule]:
        for theta in sorted(self.closure, key=tuple):
            yield from self._build(theta)

    def __len__(self) -> int:
        return self.closure.rule_count

    def _build(self, theta: Phase) -> list[PairedRule]:
        """The rules at phase theta, in rule id order: each plain rule in
        theta, and each modifying rule in theta with its removed rule,
        once per symbol, into `theta.update`'s phase."""
        rules: list[PairedRule] = []
        smpds = self.closure.smpds
        gammas = sorted(smpds.alphabet)
        for rid in theta:
            r = smpds.rules.get(rid)
            if rid in smpds.delta:
                p, gamma, q, word = r
                rules.append(PairedRule((p, theta), gamma, (q, theta), word))
            elif r is not None and r.removed in theta:
                lhs = (r.from_state, theta)
                rhs = (r.to_state, theta.update(r.removed, r.added))
                rules += [PairedRule(lhs, g, rhs, (g,)) for g in gammas]
        return rules


def to_pds(smpds: SMPDS, phases: ClosedPhases) -> PairedPDS:
    """Encode phases into control points over `phases`, the `ClosedPhases`
    that `phase_closure` built for `smpds`, taken as it is: it is closed by
    construction and holds its paired-rule count, so no mask is read.  Any
    other input, a plain set, a set operation on a closure or the closure
    of an equal system built apart, raises `ValueError`.  A saturation
    builds no rule (see `PairedPDS`)."""
    if not (isinstance(phases, ClosedPhases) and phases.smpds is smpds):
        raise ValueError("to_pds takes the closed phase set that "
                         "phase_closure built for this system")
    return PairedPDS(phases)


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


# classical pre* and post*: the cores themselves, input contract and all,
# with the PDS as their rule source
pds_prestar, pds_poststar = prestar, poststar
