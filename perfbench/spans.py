"""Spans of the traced run, and the replays that time `model` and `automaton` operations.

Spans stay in memory as (id, name, start, end, parent, query) tuples and
are written out once the run ends.  Every span wraps a call into a public
function of the package from outside; nothing inside `smpds` is traced.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

from smpds.automaton import PAutomaton
from smpds.model import Phase

# replays repeat each operation list this often, so a replay lasts
# milliseconds even when a query has a single phase
REPLAY_REPEATS = 20


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.query: int | None = None
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.query))

    def durations(self, query: int) -> dict[str, float]:
        """Total seconds per span name within one query."""
        out: dict[str, float] = {}
        for _, name, start, end, _, q in self.spans:
            if q == query:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def as_json(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "query")
        return [dict(zip(keys, s)) for s in self.spans]


class NullTracer:
    """Tracing off: every span is the same no-op context."""
    _none = nullcontext()

    def span(self, name: str):
        return self._none


NULL_TRACER = NullTracer()


def replay_model(tr: Tracer, phases, smpds) -> dict[str, int]:
    """Replay Phase.of, hash, `in` and update over a query's phases and rules.

    Returns the number of operations timed under each span name.
    """
    phases = sorted(phases, key=len)
    rids = sorted(smpds.rules)
    updates = [(ph, r.removed, r.added) for ph in phases
               for r in (smpds.rules[rid] for rid in sorted(smpds.delta_c))
               if r.removed in ph]
    with tr.span("model.phase_of"):
        for _ in range(REPLAY_REPEATS):
            for ph in phases:
                Phase.of(ph)
    with tr.span("model.phase_hash"):
        for _ in range(REPLAY_REPEATS):
            for ph in phases:
                hash(ph)
    with tr.span("model.phase_contains"):
        for _ in range(REPLAY_REPEATS):
            for ph in phases:
                for rid in rids:
                    rid in ph  # noqa: B015 - the membership test is what is timed
    with tr.span("model.phase_update"):
        for _ in range(REPLAY_REPEATS):
            for ph, removed, added in updates:
                ph.update(removed, added)
    return {"model.phase_of": REPLAY_REPEATS * len(phases),
            "model.phase_hash": REPLAY_REPEATS * len(phases),
            "model.phase_contains": REPLAY_REPEATS * len(phases) * len(rids),
            "model.phase_update": REPLAY_REPEATS * len(updates)}


def replay_insert(tr: Tracer, result: PAutomaton) -> int:
    """Insert the result's transitions into a fresh automaton; returns how many."""
    transitions = list(result.transitions)
    fresh = PAutomaton(result.alphabet)
    with tr.span("automaton.insert"):
        for src, label, dst in transitions:
            fresh.add_transition(src, label, dst)
    return len(transitions)
