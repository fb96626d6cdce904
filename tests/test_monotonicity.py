"""Adding configurations to a saturation's input only adds to its result,
at the size of the benchmark pools.

pre*(A) and post*(A) are monotone in L(A): a configuration that reaches,
or is reached from, one of A's configurations still does when A accepts
more.  So each instance is saturated twice by the same engine, once from
a one-configuration input and once from that input with a second
configuration added, and the smaller run's answers must all hold in the
larger run: its accepted configurations up to stack depth 2 are a
subset, and every configuration it accepts among the instance's own
two and a seeded batch of deeper probes stays accepted.  No oracle is
needed, so the relation runs where the oracle cannot reach.

Direct pre* runs on every instance of the three pools, from {target}
and from {target, initial}; direct post* on the `post_fanout` and the
`translated` pools, from {initial} and from {initial, target}.  post* is
left out on `pre_wide`, where it is unbounded from the initial
configuration.

Of the planted faults in `tests/mutants.py`, the relation kills
`poststar-eps-join-keeps-the-last-mid` and `automaton-states-of-off-by-one`
(and `model-intern-table-does-not-store`, by `MemoryError`): in each, the
smaller run accepts a depth-2 configuration that the larger one misses.
"""

import random

import pytest

from smpds import Configuration, from_configs
from smpds.bench import GenParams, generate
from smpds.poststar import poststar
from smpds.prestar import prestar

from fixtures import POST_FANOUT_FAMILY, PRE_WIDE_FAMILY, TRANSLATED_FAMILY

PROBES = 50
RUNS = ([(prestar, params)
         for params in PRE_WIDE_FAMILY + POST_FANOUT_FAMILY + TRANSLATED_FAMILY]
        + [(poststar, params) for params in POST_FANOUT_FAMILY + TRANSLATED_FAMILY])


def _probes(inst, phases, seed: int) -> list[Configuration]:
    """Seeded configurations of stack depth 3-6, each at one of `phases`."""
    rng = random.Random(seed)
    states, symbols = sorted(inst.smpds.states), sorted(inst.smpds.alphabet)
    phases = sorted(phases, key=lambda theta: (len(theta), tuple(theta)))
    return [Configuration(rng.choice(states),
                          tuple(rng.choice(symbols) for _ in range(rng.randint(3, 6))),
                          rng.choice(phases))
            for _ in range(PROBES)]


@pytest.mark.parametrize("op, params", RUNS,
                         ids=[f"{op.__name__}-{'-'.join(map(str, params))}"
                              for op, params in RUNS])
def test_a_larger_input_only_adds_to_the_result(op, params):
    *sizes, seed = params
    inst = generate(GenParams(*sizes, seed=seed))
    m = inst.smpds
    source, extra = ((inst.target, inst.initial) if op is prestar
                     else (inst.initial, inst.target))
    smaller = op(m, from_configs(m, [source]))
    larger = op(m, from_configs(m, [source, extra]))
    assert smaller.enumerate_configs(2) <= larger.enumerate_configs(2)
    phases = {q.phase for q in smaller.initial_states()}
    probes = [inst.initial, inst.target, *_probes(inst, phases, seed)]
    members = [c for c in probes if smaller.accepts(c)]
    assert source in members
    assert all(map(larger.accepts, members)) and larger.accepts(extra)
