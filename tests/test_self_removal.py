"""Modifying rules that remove themselves, r: p --(r, r2)--> p', saturated
as they are and checked against the brute-force oracle.

In the SM-PDS semantics such a rule fires in any phase holding r, and
yields (theta - {r}) | {r2}.  The systems here are drawn with at least one
of them, and with modifying rules whose removed and added ids may name
other modifying rules, which `bench.generate` never draws.
"""

import random

from smpds import (
    Configuration,
    PdsRule,
    Phase,
    SelfModRule,
    SMPDS,
    from_configs,
)
from smpds.poststar import poststar
from smpds.prestar import prestar

from oracles import raw_reach

SYSTEMS = 500
DEPTH = 3
ORACLE_STACK = 5
ORACLE_STEPS = 4000
SYMBOLS = ("a", "b")


def _draw(rng):
    """A system in which one modifying rule removes itself, and a start
    configuration that fires it: at its source, with a phase holding it."""
    states = [f"p{i}" for i in range(rng.randint(2, 5))]
    n_plain, n_mod = rng.randint(2, 9), rng.randint(1, 5)
    n = n_plain + n_mod
    rules = {}
    for rid in range(n_plain):
        word = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 2)))
        rules[rid] = PdsRule(rng.choice(states), rng.choice(SYMBOLS),
                             rng.choice(states), word)
    selfish = rng.randrange(n_plain, n)
    for rid in range(n_plain, n):
        removed = rid if rid == selfish else rng.randrange(n)
        rules[rid] = SelfModRule(rng.choice(states), removed,
                                 rng.randrange(n), rng.choice(states))
    m = SMPDS(states, SYMBOLS, rules)
    phase = Phase.of(rid for rid in rules if rid == selfish or rng.random() < 0.6)
    return m, _config(rng, rules[selfish].from_state, phase)


def _config(rng, state, phase):
    stack = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 2)))
    return Configuration(state, stack, phase)


def _reach(m, c):
    reach, truncated = raw_reach(m, c, ORACLE_STACK, ORACLE_STEPS)
    return None if truncated else reach


def test_self_removing_rules_agree_with_the_oracle():
    rng = random.Random(1313)
    checked = 0
    for draw in range(20 * SYSTEMS):
        if checked == SYSTEMS:
            break
        m, c0 = _draw(rng)
        reach = _reach(m, c0)
        if reach is None:
            continue
        checked += 1
        what = f"draw {draw}: {m.rules} from {c0}"
        post = poststar(m, from_configs(m, [c0]))
        assert set(post.enumerate_configs(DEPTH)) == {
            c for c in reach if len(c.stack) <= DEPTH}, what
        # targets the start reaches, and probes at phases it reaches
        states, phases = sorted(m.states), sorted({c.phase for c in reach}, key=repr)
        targets = rng.sample(sorted(reach, key=repr), min(2, len(reach)))
        targets += [_config(rng, rng.choice(states), rng.choice(phases))
                    for _ in range(2)]
        for t in targets:
            assert prestar(m, from_configs(m, [t])).accepts(c0) == (t in reach), (
                what, t)
        # pre* of post*: an input with eps edges and generated states
        back = prestar(m, post)
        assert back.accepts(c0), what
        for t in targets:
            t_reach = _reach(m, t)
            if t_reach is not None:
                assert back.accepts(t) == (not t_reach.isdisjoint(reach)), (what, t)
    assert checked == SYSTEMS
