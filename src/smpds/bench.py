"""Seeded random SM-PDS instances, for tests and for `perfbench/`."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import Configuration, Phase, PdsRule, SelfModRule, SMPDS


@dataclass
class GenParams:
    num_states: int = 4
    num_symbols: int = 4
    num_rules: int = 8
    num_smrules: int = 3
    max_rhs_len: int = 2
    seed: int = 0


@dataclass
class Instance:
    smpds: SMPDS
    initial: Configuration
    target: Configuration


def generate(params: GenParams) -> Instance:
    """Draw a well-formed random instance, uniformly over components.

    Each pushdown rule picks its states, left-hand symbol, rhs length
    (0..max_rhs_len) and rhs symbols uniformly at random; each
    rule-change rule picks its states and a removed/added pair of
    pushdown-rule ids uniformly (so changes never reference other
    change rules).  The initial phase enables every rule.
    """
    rng = random.Random(params.seed)
    states = [f"p{i}" for i in range(params.num_states)]
    symbols = [f"g{i}" for i in range(params.num_symbols)]
    rules: dict[int, PdsRule | SelfModRule] = {}
    for rid in range(params.num_rules):
        word = tuple(rng.choice(symbols)
                     for _ in range(rng.randint(0, params.max_rhs_len)))
        rules[rid] = PdsRule(rng.choice(states), rng.choice(symbols),
                             rng.choice(states), word)
    for rid in range(params.num_rules, params.num_rules + params.num_smrules):
        removed = rng.randrange(params.num_rules)
        added = rng.randrange(params.num_rules)
        rules[rid] = SelfModRule(rng.choice(states), removed, added,
                                 rng.choice(states))
    smpds = SMPDS(set(states), set(symbols), rules)
    phase = Phase.of(rules)
    initial = Configuration(rng.choice(states),
                            (rng.choice(symbols), rng.choice(symbols)), phase)
    target = Configuration(rng.choice(states),
                           (rng.choice(symbols), rng.choice(symbols)), phase)
    return Instance(smpds, initial, target)
