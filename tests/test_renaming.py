"""A renaming of a system changes no answer, at the size of the benchmark
pools.

Each instance of the `post_fanout` and the `translated` pools, and two
systems of `pre_wide`'s shape, is renamed three times: its rule ids by a
seeded bijection onto ids in +-10**12, negative ones included, with its
rule table shuffled, and its control points and stack symbols too.
`check` must give each renamed system the original's verdict, phase
count and accepted configurations up to stack depth 2, renamed.  The new
ids reach mask bits in another order than the old ones, and the shuffled
table puts the rules in another order in every index, so a result that
leans on an id's value or sign, on bit order or on rule order breaks the
relation.

pre* runs everywhere; post* everywhere but on the `pre_wide`-sized
systems, where it is unbounded from the initial configuration.  Every
renaming draws its ids from one pool of 1,019 ids, as many as a
`pre_wide`-sized system has, so all of them together add at most 1,019
positions to the process-wide rule-id bit table.
"""

import random

import pytest

from smpds import Configuration, PdsRule, Phase, SelfModRule, SMPDS, check, from_configs
from smpds.bench import GenParams, generate

from fixtures import POST_FANOUT_FAMILY, PRE_WIDE_FAMILY, TRANSLATED_FAMILY

RENAMINGS = 3
PRE_WIDE_SIZED = PRE_WIDE_FAMILY[:2]
ID_POOL = random.Random(0).sample(range(-10**12, 10**12 + 1), 1019)


def _names(names, prefix: str, rng: random.Random) -> dict[str, str]:
    """Each of `names`, renamed `prefix` and a number, in a seeded order."""
    names = sorted(names)
    return dict(zip(names, map(f"{prefix}{{}}".format,
                               rng.sample(range(len(names)), len(names)))))


class Renaming:
    """One seeded renaming of a system's rule ids, control points and
    stack symbols."""

    def __init__(self, m: SMPDS, seed: int):
        rng = random.Random(seed)
        self.ids = dict(zip(sorted(m.rules), rng.sample(ID_POOL, len(m.rules))))
        self.states = _names(m.states, "s", rng)
        self.symbols = _names(m.alphabet, "y", rng)
        table = [(self.ids[rid], self.rule(r)) for rid, r in m.rules.items()]
        rng.shuffle(table)
        self.smpds = SMPDS(self.states.values(), self.symbols.values(), dict(table))
        self._phases: dict[Phase, Phase] = {}

    def rule(self, r):
        s = self.states
        if isinstance(r, PdsRule):
            return PdsRule(s[r.lhs_state], self.symbols[r.lhs_symbol], s[r.rhs_state],
                           self.word(r.rhs_word))
        return SelfModRule(s[r.from_state], self.ids[r.removed], self.ids[r.added],
                           s[r.to_state])

    def word(self, w: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(map(self.symbols.__getitem__, w))

    def config(self, c: Configuration) -> Configuration:
        phase = self._phases.get(c.phase)
        if phase is None:
            phase = self._phases[c.phase] = Phase.of(map(self.ids.__getitem__, c.phase))
        return Configuration(self.states[c.state], self.word(c.stack), phase)


def _answers(m: SMPDS, initial: Configuration, target: Configuration,
             directions: list[str]) -> dict:
    """By direction: the verdict, the phase count and the configurations
    of depth at most 2 that `check` accepts, asking pre* whether
    `initial` reaches `target`, and post* whether `target` is reached
    from `initial`."""
    answers = {}
    for direction in directions:
        source, asked = (target, initial) if direction == "pre" else (initial, target)
        a = check(m, from_configs(m, [source]), asked, direction)
        answers[direction] = a.member, a.phases, a.result.enumerate_configs(2)
    return answers


@pytest.mark.parametrize("params", POST_FANOUT_FAMILY + TRANSLATED_FAMILY + PRE_WIDE_SIZED,
                         ids=lambda p: "-".join(map(str, p)))
def test_a_renamed_system_gives_the_same_answers(params):
    *sizes, seed = params
    inst = generate(GenParams(*sizes, seed=seed))
    m = inst.smpds
    directions = ["pre"] if params in PRE_WIDE_SIZED else ["pre", "post"]
    want = _answers(m, inst.initial, inst.target, directions)
    assert any(accepted for _, _, accepted in want.values())
    for k in range(RENAMINGS):
        r = Renaming(m, seed * RENAMINGS + k)
        got = _answers(r.smpds, r.config(inst.initial), r.config(inst.target), directions)
        for direction, (member, phases, accepted) in want.items():
            assert got[direction] == (member, phases, set(map(r.config, accepted))), \
                (direction, k)
