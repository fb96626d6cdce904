"""P-automata: finite automata denoting regular sets of SM-PDS configurations.

Initial states are (control point, phase) pairs; a configuration
(<p, w>, theta) is accepted iff the automaton has a path labelled w from
the initial state (p, theta) to a final state, with epsilon moves allowed
anywhere along the path.  The classical saturations of the translated
PDS build the same automata (see `Initial`).

Each automaton keeps its transitions in one place, the adjacency index
src -> label -> set of targets, which the saturations read and extend a
whole target set at a time.  `PAutomaton.transitions` is a snapshot of
that index as (src, label, dst) triples, and the printers walk the index
one (src, label) key at a time (`PAutomaton.grouped_transitions`).

Two operations carry every layer, and each has one implementation here:
inserting transitions (`add_targets`; `add_transition` is its one-target
case) and stepping a set of states over a symbol with eps moves free
(`_close` and `_step`, over the cached `eclosure`s).  Membership,
enumeration and direct pre* all read closures through them.

The two saturation cores, pre* and post*, run on one worklist,
`DeltaWorklist`, whether they read an SM-PDS directly or its translated
PDS: a unit of work is a key (src, label) with the targets added under
it since it was last popped, and every insert goes through `add_targets`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from .model import Configuration, Phase, SMPDS

# transition label; None is epsilon
Label = Optional[str]
EPS: Label = None

# the `.get` default for a state with no outgoing edge; never written to
_NO_LABELS: dict = {}


class _State:
    """Base of the interned automaton states.

    A second call with the same fields returns the first call's object,
    so equality and hashing are those of `object`: an identity test and
    an address hash, both in C, where a frozen dataclass would run a
    generated Python `__eq__`/`__hash__` that builds a tuple of the
    fields on every set or dict operation.  Fields are read-only.

    Each class keeps its states in a plain dict, keyed by the field tuple,
    for the life of the process, as `Phase` does: a `WeakValueDictionary`
    would run Python-level code on every lookup, and saturations look
    states up on their hot paths.  The table holds only states that a
    parse or a saturation built: membership queries (`accepts`) look the
    table up without adding to it.
    """

    __slots__ = ()
    _table: dict[tuple, "_State"]

    @classmethod
    def _intern(cls, key: tuple) -> "_State":
        q = object.__new__(cls)
        for name, value in zip(cls.__slots__, key):
            object.__setattr__(q, name, value)
        cls._table[key] = q
        return q

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


class Initial(_State):
    """The state the saturation rules key on: one per (control point, phase).

    The paired PDS state (p, theta) of the translation is Initial(p, theta)
    as well, so classical saturations build ordinary P-automata.
    """

    __slots__ = ("control", "phase")
    _table: dict[tuple[str, Phase], "Initial"] = {}
    control: str
    phase: Phase

    def __new__(cls, control: str, phase: Phase) -> "Initial":
        q = cls._table.get((control, phase))
        return q if q is not None else cls._intern((control, phase))


class Plain(_State):
    __slots__ = ("name",)
    _table: dict[tuple[str], "Plain"] = {}
    name: str

    def __new__(cls, name: str) -> "Plain":
        q = cls._table.get((name,))
        return q if q is not None else cls._intern((name,))


class Generated(_State):
    """post* helper state, one per control point, pushed prefix and phase.

    A rule <p,g> -> <p',g1...gn> with n >= 2 gets the chain (p',theta)
    --g1--> G1 ... --g(n-1)--> G(n-1), where Gk has the prefix g1...gk as
    its `symbol`, joined by ':' (so G1's is g1 alone; `model.validate`
    refuses a symbol holding ':', which would let two prefixes meet in one
    state).  The printed name gen:p':g1:...:gk@theta spells the prefix,
    so a post* result with a push of n symbols prints in space quadratic
    in n: about 3 MB for 1,000 symbols.
    """

    __slots__ = ("control", "symbol", "phase")
    _table: dict[tuple[str, str, Phase], "Generated"] = {}
    control: str
    symbol: str
    phase: Phase

    def __new__(cls, control: str, symbol: str, phase: Phase) -> "Generated":
        q = cls._table.get((control, symbol, phase))
        return q if q is not None else cls._intern((control, symbol, phase))


AutState = Union[Initial, Plain, Generated]


class PAutomaton:
    """States, final states and transitions over a fixed alphabet.

    `_out` (src -> label -> set of targets) is the only transition store:
    inserts test for duplicates in it, and the engines read it directly.
    Every source and target of a transition is in `states`.  Eps
    closures are cached per state until the next eps edge is inserted.
    """

    def __init__(self, alphabet: Iterable[str]):
        self.alphabet = frozenset(alphabet)
        self.states: set[AutState] = set()
        self.finals: set[AutState] = set()
        self._out: dict[AutState, dict[Label, set[AutState]]] = {}
        self._eclosure: dict[AutState, frozenset[AutState]] = {}
        self._has_eps = False

    # -- construction ----------------------------------------------------

    def add_state(self, q: AutState) -> AutState:
        self.states.add(q)
        return q

    def add_final(self, q: AutState) -> None:
        self.states.add(q)
        self.finals.add(q)

    def add_transition(self, src: AutState, label: Label, dst: AutState) -> bool:
        """Insert a transition; returns False if it was already present."""
        return bool(self.add_targets(src, label, {dst}))

    def add_targets(self, src: AutState, label: Label,
                    dsts: set[AutState]) -> set[AutState]:
        """Insert src --label--> d for every d in the set `dsts`; returns a
        new set holding the targets that were not present yet.

        The difference and the merge are single set operations, so a
        saturation can insert a whole delta at the cost of one call.
        """
        by_label = self._out.get(src)
        current = None if by_label is None else by_label.get(label)
        if current is None:
            if label is not None and label not in self.alphabet:
                raise ValueError(f"label {label!r} not in automaton alphabet")
            new = set(dsts)
            if not new:
                return new
            if by_label is None:
                by_label = self._out[src] = {}
                self.states.add(src)
            by_label[label] = set(new)
        else:
            new = dsts - current
            if type(new) is not set:
                # a frozenset `dsts` gives a frozenset difference
                new = set(new)
            if not new:
                return new
            current |= new
        self.states |= new
        if label is EPS:
            self._eclosure.clear()
            self._has_eps = True
        return new

    def copy(self) -> "PAutomaton":
        other = PAutomaton(self.alphabet)
        other.states = set(self.states)
        other.finals = set(self.finals)
        other._out = {q: {label: set(targets) for label, targets in by_label.items()}
                      for q, by_label in self._out.items()}
        other._has_eps = self._has_eps
        return other

    # -- queries ----------------------------------------------------------

    @property
    def transitions(self) -> set[tuple[AutState, Label, AutState]]:
        """Every transition as a (src, label, dst) triple.

        Built from `_out` on each access: a snapshot that costs a pass
        over the automaton, and that the caller may change freely.
        """
        return {(src, label, dst) for src, by_label in self._out.items()
                for label, targets in by_label.items() for dst in targets}

    def transition_count(self) -> int:
        return sum(len(targets) for by_label in self._out.values()
                   for targets in by_label.values())

    def grouped_transitions(self, name: dict[AutState, str]
                            ) -> Iterator[tuple[str, Label, list[str]]]:
        """(name[src], label, sorted target names) for each key (src, label).

        Keys come in the order of (name[src], label or ""), so with one
        name per state the transitions come in the order of the triple
        (name[src], label or "", name[dst]) with far fewer comparisons:
        a print sorts the keys, then each key's targets.
        """
        keys = [((name[src], label or ""), label, targets)
                for src, by_label in self._out.items()
                for label, targets in by_label.items()]
        keys.sort(key=itemgetter(0))
        for (src_name, _), label, targets in keys:
            yield src_name, label, sorted(map(name.__getitem__, targets))

    def initial_states(self) -> set[Initial]:
        return {q for q in self.states if isinstance(q, Initial)}

    def has_transition_into_initial(self) -> bool:
        return any(isinstance(dst, Initial) for by_label in self._out.values()
                   for targets in by_label.values() for dst in targets)

    def has_epsilon(self) -> bool:
        return self._has_eps

    def out(self, q: AutState, label: Label) -> set[AutState]:
        return self._out.get(q, _NO_LABELS).get(label, set())

    def eclosure(self, q: AutState) -> frozenset[AutState]:
        """The states reachable from `q` by eps edges, `q` included; cached
        until the next eps edge is inserted."""
        cached = self._eclosure.get(q)
        if cached is not None:
            return cached
        out = self._out
        seen = {q}
        stack = [q]
        while stack:
            for s in out.get(stack.pop(), _NO_LABELS).get(EPS, ()):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        result = frozenset(seen)
        self._eclosure[q] = result
        return result

    def _close(self, states: set[AutState]) -> set[AutState]:
        """`states` with the eps closure of each member: `states` itself
        when the automaton has no eps edge, a new set otherwise."""
        if not self._has_eps:
            return states
        return set().union(*map(self.eclosure, states))

    def _step(self, states: Iterable[AutState], symbol: str) -> set[AutState]:
        """The eps-closed set of targets of `symbol` edges from `states`."""
        out = self._out
        return self._close(set().union(*[out.get(q, _NO_LABELS).get(symbol, ())
                                         for q in states]))

    def reach_states(self, source: AutState, word: Iterable[str]) -> set[AutState]:
        """All states reachable from `source` reading `word`, eps moves free."""
        current = self._close({source})
        for symbol in word:
            current = self._step(current, symbol)
            if not current:
                break
        return current

    def accepts(self, c: Configuration) -> bool:
        # look the state up without interning it: a (control, phase) never
        # interned is in no automaton
        init = Initial._table.get((c.state, c.phase))
        if init is None or init not in self.states:
            return False
        return bool(self.reach_states(init, c.stack) & self.finals)

    def enumerate_configs(self, max_len: int) -> set[Configuration]:
        """All accepted configurations with stack length <= max_len."""
        found: set[Configuration] = set()
        symbols = sorted(self.alphabet)
        for init in self.initial_states():
            frontier: list[tuple[tuple[str, ...], set[AutState]]] = [
                ((), self._close({init}))]
            for _ in range(max_len + 1):
                next_frontier = []
                for word, states in frontier:
                    if states & self.finals:
                        found.add(Configuration(init.control, word, init.phase))
                    if len(word) == max_len:
                        continue
                    for g in symbols:
                        nxt = self._step(states, g)
                        if nxt:
                            next_frontier.append((word + (g,), nxt))
                frontier = next_frontier
                if not frontier:
                    break
        return found

    def control_reachable(self, control: str) -> bool:
        """True iff some configuration with this control point is accepted."""
        starts = [q for q in self.initial_states() if q.control == control]
        seen: set[AutState] = set()
        queue = deque(starts)
        while queue:
            q = queue.popleft()
            if q in seen:
                continue
            seen.add(q)
            if q in self.finals:
                return True
            for targets in self._out.get(q, _NO_LABELS).values():
                queue.extend(targets)
        return False

    def to_dot(self) -> str:
        """GraphViz rendering for inspection."""
        name = {q: _default_state_name(q) for q in self.states}
        parts = ["digraph pautomaton {\n  rankdir=LR;\n"]
        for q in sorted(self.states, key=name.__getitem__):
            shape = "doublecircle" if q in self.finals else "circle"
            style = ' style=bold' if isinstance(q, Initial) else ""
            parts.append(f'  "{name[q]}" [shape={shape}{style}];\n')
        # a key's lines share its prefix and suffix, laid out around the
        # targets by one slice assignment; the output is joined once
        for src, label, dsts in self.grouped_transitions(name):
            prefix = f'  "{src}" -> "'
            suffix = f'" [label="{label if label is not None else "eps"}"];\n'
            block = [prefix, "", suffix] * len(dsts)
            block[1::3] = dsts
            parts += block
        parts.append("}")
        return "".join(parts)


class DeltaWorklist:
    """The pending work of a saturation over `aut`.

    Each queued key (src, label) carries the set of its targets that were
    added since the key was last popped; a key is queued once however
    many inserts land on it before it is popped.  A new worklist queues
    every key of `aut` with all of its targets.
    """

    def __init__(self, aut: PAutomaton):
        self.aut = aut
        self._deltas: dict[tuple[AutState, Label], set[AutState]] = {
            (src, label): set(targets)
            for src, by_label in aut._out.items()
            for label, targets in by_label.items()}
        self._keys: deque[tuple[AutState, Label]] = deque(self._deltas)

    def add(self, edges: Iterable[tuple[AutState, Label]],
            dsts: set[AutState]) -> None:
        """Insert src --label--> d for every (src, label) in `edges` and d
        in `dsts`, and queue the new targets under their key.

        Once the automaton fills up most inserts bring nothing new, so
        each edge is first tested with one subset test in C.  The set
        `add_targets` hands back is fresh, so the worklist keeps it as the
        key's delta and grows it in place.
        """
        out = self.aut._out
        deltas = self._deltas
        for key in edges:
            src, label = key
            current = out.get(src, _NO_LABELS).get(label)
            if current is None or not dsts <= current:
                new = self.aut.add_targets(src, label, dsts)
                delta = deltas.get(key)
                if delta is None:
                    deltas[key] = new
                    self._keys.append(key)
                else:
                    delta |= new

    def __iter__(self) -> Iterator[tuple[tuple[AutState, Label], set[AutState]]]:
        """Pop each key with its delta, in the order first queued, until no
        key is left; keys queued meanwhile are popped too."""
        keys, deltas = self._keys, self._deltas
        while keys:
            key = keys.popleft()
            yield key, deltas.pop(key)


def _default_state_name(q: AutState) -> str:
    if isinstance(q, Initial):
        return f"{q.control}@{q.phase}"
    if isinstance(q, Generated):
        return f"q[{q.control},{q.symbol}]@{q.phase}"
    return q.name


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
