"""Independent reference implementation used to cross-check the package.

Everything here is written directly against the definition of the step
relation, deliberately sharing no code with smpds.model: configurations
are plain tuples (state, stack, frozenset-of-rule-ids) and rules are
looked at through their public NamedTuple fields only.
"""

from __future__ import annotations

from collections import deque

from smpds.model import Configuration, PdsRule, Phase


def to_raw(c: Configuration) -> tuple:
    return (c.state, c.stack, frozenset(c.phase.members))


def from_raw(raw: tuple) -> Configuration:
    return Configuration(raw[0], raw[1], Phase.of(raw[2]))


def raw_step(smpds, raw: tuple) -> set[tuple]:
    state, stack, phase = raw
    out = set()
    for rid in phase:
        r = smpds.rules[rid]
        if isinstance(r, PdsRule):
            if r.lhs_state == state and stack[:1] == (r.lhs_symbol,):
                out.add((r.rhs_state, r.rhs_word + stack[1:], phase))
        else:
            if r.from_state == state and r.removed in phase:
                out.add((r.to_state, stack,
                         (phase - {r.removed}) | {r.added}))
    return out


def raw_reach(smpds, c0: Configuration, max_stack: int,
              max_steps: int) -> tuple[set[Configuration], bool]:
    """Breadth-first closure of `raw_step` from c0: the configurations
    found, and whether the search was cut, by a stack longer than
    `max_stack` or after `max_steps` expansions."""
    start = to_raw(c0)
    seen = {start}
    queue = deque([seen and start])
    truncated = False
    expanded = 0
    while queue and expanded < max_steps:
        raw = queue.popleft()
        expanded += 1
        for nxt in raw_step(smpds, raw):
            if len(nxt[1]) > max_stack:
                truncated = True
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if queue:
        truncated = True
    return {from_raw(r) for r in seen}, truncated


def raw_reaches_target(smpds, c0: Configuration, target: Configuration,
                       max_stack: int, max_steps: int) -> bool:
    configs, _ = raw_reach(smpds, c0, max_stack, max_steps)
    return target in configs
