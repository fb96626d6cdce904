"""A saturated automaton, printed and parsed back, is a fixpoint, at the
size of the benchmark pools.

Criterion 9 saturates each saturation's own result on the small corpus.
Here the result goes through the text format first, as a user who feeds
`smpds prestar`'s output back in would send it: printed with
`print_automaton`, parsed with `parse_automaton`, and saturated again by
the same engine under the same system.  The second run must add nothing,
so it keeps the first's fingerprint, the accepted configurations up to
stack depth 2, and its `transition_count`.  A pre* result holds edges
into initial states, which pre* refuses unless it leaves them unchanged,
so that contract is checked on every pre* instance as well.

Direct pre* runs on the `pre_wide` pool from each instance's target, and
on the `translated` pool from a target at the smallest phase that post*
reaches (`fixtures.multi_phase_target`), which pre* runs back through
several phases; direct post* runs on the `post_fanout` pool from each
initial configuration.

Of the planted faults in `tests/mutants.py`, the relation kills
`poststar-empty-stack-links-every-eps-target`, as criterion 9 does, and
`poststar-eps-join-keeps-the-last-mid` and `automaton-states-of-off-by-one`
as well.
"""

import pytest

from smpds import from_configs
from smpds.bench import GenParams, generate
from smpds.formats import SmpdsDocument, parse_automaton, print_automaton
from smpds.poststar import poststar
from smpds.prestar import prestar

from fixtures import (POST_FANOUT_FAMILY, PRE_WIDE_FAMILY, TRANSLATED_FAMILY,
                      multi_phase_target)

RUNS = ([(prestar, params) for params in PRE_WIDE_FAMILY + TRANSLATED_FAMILY]
        + [(poststar, params) for params in POST_FANOUT_FAMILY])


@pytest.mark.parametrize("op, params", RUNS,
                         ids=[f"{op.__name__}-{'-'.join(map(str, params))}"
                              for op, params in RUNS])
def test_saturating_a_printed_and_parsed_result_adds_nothing(op, params):
    *sizes, seed = params
    inst = generate(GenParams(*sizes, seed=seed))
    m = inst.smpds
    doc = SmpdsDocument(m, {"init": inst.initial.phase}, [inst.initial, inst.target])
    if op is poststar:
        source = inst.initial
    elif params in TRANSLATED_FAMILY:
        # a target that pre* reaches back through several phases
        source = multi_phase_target(inst)
    else:
        source = inst.target
    sat = op(m, from_configs(m, [source]))
    parsed = parse_automaton(print_automaton(sat, doc), doc)
    again = op(m, parsed)
    assert again.transition_count() == sat.transition_count() > 0
    assert again.enumerate_configs(2) == sat.enumerate_configs(2)
