"""Reachability analysis for self-modifying pushdown systems.

A self-modifying pushdown system is an ordinary pushdown system extended
with rule-change rules that add and remove pushdown rules from the
currently active set (the phase).  This package provides:

 - the core model with an executable small-step semantics (`model`),
 - phase-annotated configuration automata and the worklist every
   saturation runs on (`automaton`),
 - backward and forward saturation (`prestar`, `poststar`), one core
   each, run directly on an SM-PDS, empty stack included, or on its
   translated PDS,
 - the translation to an ordinary pushdown system, with the classical
   saturations that read the SM-PDS's moves (`translate`), and the
   symbolic one, printed straight from the rule table (`formats`),
 - a toy self-modifying assembly front end (`asm`),
 - seeded random instances (`bench.generate`), used by the tests and by
   the benchmark in `perfbench/`,
 - the question the tool answers, asked through `check` below: a model
   and an automaton loaded and validated by `formats.load`, one core
   saturating the automaton, and the verdict on a configuration,
 - a command-line interface (`cli`, installed as the `smpds` script),
   which reads files, calls `formats.load` and `check`, and prints.

The package exports the main names of `model` and `automaton`,
`phase_closure`, `to_pds`, and `check` with its record `Answer`.  Each
saturation is imported from its module, `from smpds.prestar import
prestar` and `from smpds.poststar import poststar`, so `smpds.prestar`
and `smpds.poststar` name the modules, and the classical route's names
stay in `translate`.
"""

import time
from typing import NamedTuple

from . import poststar, prestar
from .model import (
    Configuration,
    PdsRule,
    Phase,
    RuleId,
    SelfModRule,
    SMPDS,
    check_configuration,
    collector_paused,
    step,
    validate,
)
from .automaton import EPS, Generated, Initial, PAutomaton, Plain, from_configs
from .translate import phase_closure, to_pds

__all__ = [
    "Answer", "Configuration", "EPS", "Generated", "Initial", "PAutomaton", "PdsRule",
    "Phase", "Plain", "RuleId", "SMPDS", "SelfModRule", "check", "check_configuration",
    "from_configs", "phase_closure", "step", "to_pds", "validate",
]

__version__ = "0.1.0"


class Answer(NamedTuple):
    """What `check` found: the saturated automaton, the verdict on the
    configuration asked about (None when none was), and what the run
    added to its input, which `smpds --stats` prints."""
    result: PAutomaton
    member: bool | None
    transitions_added: int
    finals_added: int
    phases: int     # distinct phases on the result's initial states
    seconds: float  # the saturation's wall time


@collector_paused
def check(smpds: SMPDS, aut: PAutomaton, config: Configuration | None = None,
          direction: str = "pre") -> Answer:
    """Saturate `aut` towards the predecessors of what it accepts
    (`direction` "pre", by `prestar`) or towards the successors ("post",
    by `poststar`), and decide whether the result accepts `config`.
    The choice of core is made here and nowhere else; any other
    `direction` raises a KeyError."""
    saturate = {"pre": prestar.prestar, "post": poststar.poststar}[direction]
    t0 = time.perf_counter()
    result = saturate(smpds, aut)
    seconds = time.perf_counter() - t0
    return Answer(result, None if config is None else result.accepts(config),
                  result.transition_count() - aut.transition_count(),
                  len(result.finals) - len(aut.finals),
                  len({q.phase for q in result.initial_states()}), seconds)
