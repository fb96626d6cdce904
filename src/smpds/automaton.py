"""P-automata: finite automata denoting regular sets of SM-PDS configurations.

Initial states are (control point, phase) pairs; a configuration
(<p, w>, theta) is accepted iff the automaton has a path labelled w from
the initial state (p, theta) to a final state, with epsilon moves allowed
anywhere along the path.  The classical saturations of the translated
PDS build the same automata (see `Initial`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError
from typing import Iterable, Optional, Union

from .model import Configuration, Phase, SMPDS

# transition label; None is epsilon
Label = Optional[str]
EPS: Label = None


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
    """post* helper state, one per (control point, first pushed symbol, phase)."""

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
    def __init__(self, alphabet: Iterable[str]):
        self.alphabet = frozenset(alphabet)
        self.states: set[AutState] = set()
        self.finals: set[AutState] = set()
        self.transitions: set[tuple[AutState, Label, AutState]] = set()
        self._out: dict[AutState, dict[Label, set[AutState]]] = {}
        self._eclosure: dict[AutState, frozenset[AutState]] = {}

    # -- construction ----------------------------------------------------

    def add_state(self, q: AutState) -> AutState:
        self.states.add(q)
        return q

    def add_final(self, q: AutState) -> None:
        self.states.add(q)
        self.finals.add(q)

    def add_transition(self, src: AutState, label: Label, dst: AutState) -> bool:
        """Insert a transition; returns False if it was already present."""
        t = (src, label, dst)
        if t in self.transitions:
            return False
        if label is not None and label not in self.alphabet:
            raise ValueError(f"label {label!r} not in automaton alphabet")
        self.transitions.add(t)
        self.states.add(src)
        self.states.add(dst)
        self._out.setdefault(src, {}).setdefault(label, set()).add(dst)
        if label is EPS:
            self._eclosure.clear()
        return True

    def copy(self) -> "PAutomaton":
        other = PAutomaton(self.alphabet)
        other.states = set(self.states)
        other.finals = set(self.finals)
        other.transitions = set(self.transitions)
        other._out = {q: {label: set(targets) for label, targets in by_label.items()}
                      for q, by_label in self._out.items()}
        return other

    # -- queries ----------------------------------------------------------

    def initial_states(self) -> set[Initial]:
        return {q for q in self.states if isinstance(q, Initial)}

    def has_transition_into_initial(self) -> bool:
        return any(isinstance(dst, Initial) for _, _, dst in self.transitions)

    def has_epsilon(self) -> bool:
        return any(label is EPS for _, label, _ in self.transitions)

    def out(self, q: AutState, label: Label) -> set[AutState]:
        return self._out.get(q, {}).get(label, set())

    def eclosure(self, q: AutState) -> frozenset[AutState]:
        cached = self._eclosure.get(q)
        if cached is not None:
            return cached
        seen = {q}
        stack = [q]
        while stack:
            s = stack.pop()
            for s2 in self.out(s, EPS):
                if s2 not in seen:
                    seen.add(s2)
                    stack.append(s2)
        result = frozenset(seen)
        self._eclosure[q] = result
        return result

    def reach_states(self, source: AutState, word: Iterable[str]) -> set[AutState]:
        """All states reachable from `source` reading `word`, eps moves free."""
        current = set(self.eclosure(source))
        for symbol in word:
            nxt: set[AutState] = set()
            for q in current:
                for q2 in self.out(q, symbol):
                    nxt.update(self.eclosure(q2))
            current = nxt
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
            frontier: list[tuple[tuple[str, ...], frozenset[AutState]]] = [
                ((), self.eclosure(init))]
            for _ in range(max_len + 1):
                next_frontier = []
                for word, states in frontier:
                    if states & self.finals:
                        found.add(Configuration(init.control, word, init.phase))
                    if len(word) == max_len:
                        continue
                    for g in symbols:
                        nxt: set[AutState] = set()
                        for q in states:
                            for q2 in self.out(q, g):
                                nxt.update(self.eclosure(q2))
                        if nxt:
                            next_frontier.append((word + (g,), frozenset(nxt)))
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
            for targets in self._out.get(q, {}).values():
                queue.extend(targets)
        return False

    def to_dot(self, state_name=None) -> str:
        """GraphViz rendering for inspection."""
        name_of = state_name or _default_state_name
        name = {q: name_of(q) for q in self.states}
        lines = ["digraph pautomaton {", "  rankdir=LR;"]
        for q in sorted(self.states, key=name.__getitem__):
            shape = "doublecircle" if q in self.finals else "circle"
            style = ' style=bold' if isinstance(q, Initial) else ""
            lines.append(f'  "{name[q]}" [shape={shape}{style}];')
        for src, label, dst in sorted(self.transitions,
                                      key=lambda t: (name[t[0]], t[1] or "", name[t[2]])):
            lines.append(f'  "{name[src]}" -> "{name[dst]}" '
                         f'[label="{label if label is not None else "eps"}"];')
        lines.append("}")
        return "\n".join(lines)


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
