"""P-automata: finite automata denoting regular sets of SM-PDS configurations.

Initial states are (control point, phase) pairs; a configuration
(<p, w>, theta) is accepted iff the automaton has a path labelled w from
the initial state (p, theta) to a final state, with epsilon moves allowed
anywhere along the path.  The classical saturations of the translated
PDS read the SM-PDS's moves and build the same automata (see `Initial`).
The states `Initial`, `Plain` and `Generated` are interned, read-only
values on `model.Interned`, the base that phases share: each class's
`model.InternTable` is its constructor, and a subscript of it builds a
missing state.  The tables hold only states that a parse or a
saturation built: membership queries (`accepts`) look a state up with
`.get`, which adds none.

Each automaton numbers its own states, in the order it first meets them,
and a set of its states is an int bitmask over those numbers (`bit`,
`mask_of`, `states_of`).  The numbering belongs to the automaton, not to
the process as the phases' rule bits do: a process builds many automata,
and one numbering for all of them would widen every mask with each one.
`copy` carries it over.  The transitions live in one place, the
adjacency index src -> label -> mask of targets, which the saturations
read and extend a whole target set at a time, testing, diffing and
merging it with one int operation.  `PAutomaton.transitions` is a
snapshot of that index as (src, label, dst) triples, and the printers
walk the index one (src, label) key at a time, decoding each key's mask
once (`PAutomaton.grouped_transitions`).  The printers, text and
GraphViz alike, live in `formats`, which alone names states.

Two operations carry every layer, and both live here: inserting
transitions (`insert`, the one loop that writes the store;
`add_transition` is its one-edge case) and stepping a mask of
states over a symbol with eps moves free (`_close` and `_step`, over the
cached eps-closure masks).  Membership, enumeration and direct pre* all
read closures through them.  `_step` keeps its answers in a table per
(mask, symbol), so checking many configurations on one automaton steps
each shared stack prefix once; every insert clears the table, as an eps
edge clears the closures.

The two saturation cores, pre* and post*, run on one worklist,
`DeltaWorklist`, whether they read an SM-PDS's moves directly or through
its translated PDS: a unit of work is a key (src, label) with the mask
of the targets added under it since it was last popped.  Keys pop phase
by phase, in the order the phases were first queued, so a phase's facts
are mostly complete before a modifying rule hands them to the next.  A
saturation inserts through `PAutomaton.insert`, passing the worklist's
pending deltas and its `queue`, so the loop that merges new targets into
the store also adds them to their key's delta; the worklist keeps only
the deltas and their order.  The cores read the store and never write
it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Union

from .model import Configuration, Interned, Phase, SMPDS, mask_digits

# transition label; None is epsilon
Label = Optional[str]
EPS: Label = None

# the `.get` default for a state with no outgoing edge; never written to
_NO_LABELS: dict = {}


class Initial(Interned):
    """The state the saturation rules key on: one per (control point, phase).

    The paired PDS state (p, theta) of the translation is Initial(p, theta)
    as well, so classical saturations build ordinary P-automata.
    """

    __slots__ = ("control", "phase")
    control: str
    phase: Phase

    def __new__(cls, control: str, phase: Phase) -> "Initial":
        return cls._table[control, phase]


class Plain(Interned):
    __slots__ = ("name",)
    name: str
    # a plain state belongs to no phase (see `DeltaWorklist`)
    phase = None

    def __new__(cls, name: str) -> "Plain":
        return cls._table[(name,)]


class Generated(Interned):
    """post* helper state, one per control point, pushed prefix and phase.

    A rule <p,g> -> <p',g1...gn> with n >= 2 gets the chain (p',theta)
    --g1--> G1 ... --g(n-1)--> G(n-1), where Gk has the tuple (g1, ...,
    gk) as its `prefix`, so two pushes share a state only when they push
    the same symbols, whatever the symbols are called.  `formats` prints
    it as gen:p':g1:...:gk@theta, which spells the prefix, so a post*
    result with a push of n symbols prints in space quadratic in n: about
    3 MB for 1,000 symbols.
    """

    __slots__ = ("control", "prefix", "phase")
    control: str
    prefix: tuple[str, ...]
    phase: Phase

    def __new__(cls, control: str, prefix: tuple[str, ...], phase: Phase) -> "Generated":
        return cls._table[control, prefix, phase]


AutState = Union[Initial, Plain, Generated]


class PAutomaton:
    """States, final states and transitions over a fixed alphabet.

    The automaton numbers each state the first time it meets it (`bit`),
    and the numbered states are its `states`.  `_out` (src -> label ->
    mask of targets) is the only transition store: inserts diff and merge
    whole target masks in it, and the cores read it directly.
    `_finals` is the mask of the final states.  Eps closures are cached
    per state, as masks, until the next eps edge is inserted, and the
    steps of `_step` per (mask, symbol) until the next edge of any label
    is; a copy starts with neither cache.
    `states`, `finals`, `transitions`, `out` and `eclosure` hand out sets
    decoded from the masks, which the caller may change freely.
    """

    def __init__(self, alphabet: Iterable[str]):
        self.alphabet = frozenset(alphabet)
        # state -> its bit, and bit position -> state
        self._bits: dict[AutState, int] = {}
        self._order: list[AutState] = []
        self._finals = 0
        self._out: dict[AutState, dict[Label, int]] = {}
        self._eclosure: dict[AutState, int] = {}
        self._steps: dict[tuple[int, str], int] = {}
        self._has_eps = False

    # -- state numbering ---------------------------------------------------

    def bit(self, q: AutState) -> int:
        """The mask bit of `q`, which numbers `q`, and so adds it to
        `states`, on first use."""
        b = self._bits.get(q)
        if b is None:
            b = self._bits[q] = 1 << len(self._order)
            self._order.append(q)
        return b

    def mask_of(self, states: Iterable[AutState]) -> int:
        """The mask of a set of states, numbering each on first use."""
        mask = 0
        for q in states:
            mask |= self.bit(q)
        return mask

    def states_of(self, mask: int) -> list[AutState]:
        """The states whose bits `mask` holds, in numbering order."""
        if mask & (mask - 1) == 0:
            # zero or one bit: no decoding of the whole int
            return [self._order[mask.bit_length() - 1]] if mask else []
        return list(compress(self._order, mask_digits(mask)))

    @property
    def states(self) -> set[AutState]:
        return set(self._order)

    @property
    def finals(self) -> set[AutState]:
        return set(self.states_of(self._finals))

    # -- construction ----------------------------------------------------

    def add_state(self, q: AutState) -> AutState:
        self.bit(q)
        return q

    def add_final(self, q: AutState) -> None:
        self._finals |= self.bit(q)

    def add_transition(self, src: AutState, label: Label, dst: AutState) -> bool:
        """Insert a transition; returns False if it was already present."""
        return bool(self.insert(((src, label),), self.bit(dst)))

    def insert(self, edges: Iterable[tuple[AutState, Label]], dsts: int,
               deltas: Optional[dict[tuple[AutState, Label], int]] = None,
               queue: Optional[Callable[[tuple[AutState, Label]], None]] = None
               ) -> int:
        """Insert src --label--> d for every key (src, label) in `edges` and
        every state d whose bit the mask `dsts` holds; returns the mask of
        the targets new under the last key.  Every insert, of a parse, a
        build or a saturation, goes through this loop.

        Once the automaton fills up most inserts bring nothing new, so
        each key is first diffed against its targets, one int operation,
        and a nonempty difference is merged in place with one `|`.  A key
        not in the store yet checks its label, and a new source is
        numbered.  Any new target clears the step table and, under an
        eps key, the closure cache.  A saturation passes its worklist's
        pending deltas and `DeltaWorklist.queue`: the new targets are ORed
        into the key's delta, and a key not pending yet is queued.
        """
        out = self._out
        steps = self._steps
        eclosure = self._eclosure
        new = 0
        for key in edges:
            src, label = key
            by_label = out.get(src, _NO_LABELS)
            current = by_label.get(label)
            if current is None:
                if label is not EPS and label not in self.alphabet:
                    raise ValueError(f"label {label!r} not in automaton alphabet")
                new = dsts
                if not new:
                    continue
                if by_label is _NO_LABELS:
                    self.bit(src)
                    by_label = out[src] = {}
                by_label[label] = new
            else:
                new = dsts & ~current
                if not new:
                    continue
                by_label[label] = current | new
            if steps:
                steps.clear()
            if label is EPS:
                eclosure.clear()
                self._has_eps = True
            if deltas is not None:
                delta = deltas.get(key)
                if delta is None:
                    deltas[key] = new
                    queue(key)
                else:
                    deltas[key] = delta | new
        return new

    def copy(self) -> "PAutomaton":
        """An automaton with the same states, numbering included, finals
        and transitions, sharing nothing mutable with this one."""
        other = PAutomaton(self.alphabet)
        other._bits = dict(self._bits)
        other._order = list(self._order)
        other._finals = self._finals
        other._out = {q: dict(by_label) for q, by_label in self._out.items()}
        other._has_eps = self._has_eps
        return other

    # -- queries ----------------------------------------------------------

    @property
    def transitions(self) -> set[tuple[AutState, Label, AutState]]:
        """Every transition as a (src, label, dst) triple.

        Built from `_out` on each access: a snapshot that costs a pass
        over the automaton, and that the caller may change freely.
        """
        states_of = self.states_of
        return {(src, label, dst) for src, by_label in self._out.items()
                for label, targets in by_label.items() for dst in states_of(targets)}

    def transition_count(self) -> int:
        return sum(targets.bit_count() for by_label in self._out.values()
                   for targets in by_label.values())

    def grouped_transitions(self, name: dict[AutState, str]
                            ) -> Iterator[tuple[str, Label, list[str]]]:
        """(name[src], label, sorted target names) for each key (src, label).

        Keys come in the order of (name[src], label or ""), so with one
        name per state the transitions come in the order of the triple
        (name[src], label or "", name[dst]) with far fewer comparisons:
        a print sorts the keys, then each key's targets.  `name` names
        every state; the names are laid out by bit position once, and a
        target mask picks its names out of that list and sorts them once
        however many keys share it.  Keys with one target mask share its
        list, which the caller reads and must not change.
        """
        names = list(map(name.__getitem__, self._order))
        keys = [((name[src], label or ""), label, targets)
                for src, by_label in self._out.items()
                for label, targets in by_label.items()]
        keys.sort(key=itemgetter(0))
        decoded: dict[int, list[str]] = {}
        for (src_name, _), label, targets in keys:
            dsts = decoded.get(targets)
            if dsts is None:
                dsts = decoded[targets] = sorted(compress(names, mask_digits(targets)))
            yield src_name, label, dsts

    def initial_states(self) -> set[Initial]:
        return {q for q in self._order if isinstance(q, Initial)}

    def has_transition_into_initial(self) -> bool:
        into = 0
        for by_label in self._out.values():
            for targets in by_label.values():
                into |= targets
        return bool(into & self.mask_of(self.initial_states()))

    def has_epsilon(self) -> bool:
        return self._has_eps

    def eclosure(self, q: AutState) -> frozenset[AutState]:
        """The states reachable from `q` by eps edges, `q` included."""
        if q not in self._bits:
            return frozenset((q,))
        return frozenset(self.states_of(self._eclosure_mask(q)))

    def _eclosure_mask(self, q: AutState) -> int:
        """The mask of `eclosure(q)` for a state `q`; cached until the next
        eps edge is inserted."""
        cached = self._eclosure.get(q)
        if cached is not None:
            return cached
        out = self._out
        seen = frontier = self._bits[q]
        while frontier:
            reached = 0
            for s in self.states_of(frontier):
                reached |= out.get(s, _NO_LABELS).get(EPS, 0)
            frontier = reached & ~seen
            seen |= frontier
        self._eclosure[q] = seen
        return seen

    def _close(self, mask: int) -> int:
        """`mask` with the eps closure of each of its states."""
        if not self._has_eps:
            return mask
        closure = self._eclosure_mask
        for q in self.states_of(mask):
            mask |= closure(q)
        return mask

    def _step(self, mask: int, symbol: str) -> int:
        """The eps-closed mask of targets of `symbol` edges from `mask`;
        cached until the next insert."""
        key = (mask, symbol)
        reached = self._steps.get(key)
        if reached is None:
            out = self._out
            reached = 0
            for q in self.states_of(mask):
                reached |= out.get(q, _NO_LABELS).get(symbol, 0)
            reached = self._steps[key] = self._close(reached)
        return reached

    def _reach(self, mask: int, word: Iterable[str]) -> int:
        current = self._close(mask)
        for symbol in word:
            current = self._step(current, symbol)
            if not current:
                break
        return current

    def reach_states(self, source: AutState, word: Iterable[str]) -> set[AutState]:
        """All states reachable from `source` reading `word`, eps moves free."""
        start = self._bits.get(source)
        if start is None:
            # a state with no number has no edge: it reaches itself alone
            return set() if tuple(word) else {source}
        return set(self.states_of(self._reach(start, word)))

    def accepts(self, c: Configuration) -> bool:
        # look the state up without interning it: a (control, phase) never
        # interned is in no automaton
        start = self._bits.get(Initial._table.get((c.state, c.phase)))
        if start is None:
            return False
        return bool(self._reach(start, c.stack) & self._finals)

    def enumerate_configs(self, max_len: int) -> set[Configuration]:
        """All accepted configurations with stack length <= max_len."""
        found: set[Configuration] = set()
        symbols = sorted(self.alphabet)
        for init in self.initial_states():
            frontier: list[tuple[tuple[str, ...], int]] = [
                ((), self._close(self._bits[init]))]
            for _ in range(max_len + 1):
                next_frontier = []
                for word, mask in frontier:
                    if mask & self._finals:
                        found.add(Configuration(init.control, word, init.phase))
                    if len(word) == max_len:
                        continue
                    for g in symbols:
                        nxt = self._step(mask, g)
                        if nxt:
                            next_frontier.append((word + (g,), nxt))
                frontier = next_frontier
                if not frontier:
                    break
        return found

    def control_reachable(self, control: str) -> bool:
        """True iff some configuration with this control point is accepted."""
        out = self._out
        seen = 0
        frontier = self.mask_of(q for q in self.initial_states() if q.control == control)
        while frontier:
            if frontier & self._finals:
                return True
            seen |= frontier
            reached = 0
            for q in self.states_of(frontier):
                for targets in out.get(q, _NO_LABELS).values():
                    reached |= targets
            frontier = reached & ~seen
        return False


class DeltaWorklist:
    """The pending work of a saturation over `aut`.

    Each queued key (src, label) carries the mask of its targets that
    were added since the key was last popped, in `deltas`.  The worklist
    writes no transition: a saturation passes `deltas` and `queue` to
    `PAutomaton.insert`, which ORs each key's new targets into its delta
    and queues a key not pending yet, so a key is queued once however
    many inserts land on it before it is popped.  A new worklist queues
    every key of `aut` with all of its targets.

    Keys are popped phase by phase: one FIFO queue per phase of src, and
    the next key comes from the queue of the phase first seen, of those
    that hold keys.  Plain states (`Plain.phase` is None) rank before
    every phase.  A modifying rule hands a phase's facts on to other
    phases (successors in post*, predecessors in pre*), which are first
    seen after it unless the phases form a cycle, so a phase is mostly
    saturated before its facts are handed on, and each later phase pops
    its keys fewer times.  The order changes how much
    work a saturation does, not what it computes: every order reaches
    the same least fixpoint.
    """

    def __init__(self, aut: PAutomaton):
        self.deltas: dict[tuple[AutState, Label], int] = {}
        # phase (None for plain states) -> its rank, the rank -> its FIFO
        # queue, and the heap of the ranks whose queues hold keys
        self._ranks: dict[Optional[Phase], int] = {None: 0}
        self._queues: list[deque[tuple[AutState, Label]]] = [deque()]
        self._held: list[int] = []
        for src, by_label in aut._out.items():
            for label, targets in by_label.items():
                self.deltas[src, label] = targets
                self.queue((src, label))

    def queue(self, key: tuple[AutState, Label]) -> None:
        """Queue a key not queued yet, behind the keys of its phase."""
        phase = key[0].phase
        rank = self._ranks.get(phase)
        if rank is None:
            rank = self._ranks[phase] = len(self._queues)
            self._queues.append(deque())
        queue = self._queues[rank]
        if not queue:
            heappush(self._held, rank)
        queue.append(key)

    def __iter__(self) -> Iterator[tuple[tuple[AutState, Label], int]]:
        """Pop each key with its delta, phase by phase in the order the
        phases were first queued and FIFO within a phase, until no key is
        left; keys queued meanwhile are popped too, a key of an earlier
        phase before any of a later one."""
        queues, held, deltas = self._queues, self._held, self.deltas
        while held:
            queue = queues[held[0]]
            key = queue.popleft()
            if not queue:
                heappop(held)
            yield key, deltas.pop(key)


def from_configs(smpds: SMPDS, configs: Iterable[Configuration]) -> PAutomaton:
    """An automaton accepting exactly the listed configurations.

    One chain of fresh plain states per configuration, sharing a single
    final state; no epsilon transitions and no transitions into initial
    states.  A configuration with an empty stack makes its initial state
    final.
    """
    aut = PAutomaton(smpds.alphabet)
    final = Plain("acc")
    for i, c in enumerate(configs):
        init = aut.add_state(Initial(c.state, c.phase))
        if not c.stack:
            aut.add_final(init)
            continue
        prev: AutState = init
        for j, g in enumerate(c.stack[:-1]):
            nxt = Plain(f"s{i}_{j + 1}")
            aut.add_transition(prev, g, nxt)
            prev = nxt
        aut.add_transition(prev, c.stack[-1], final)
        aut.add_final(final)
    return aut
