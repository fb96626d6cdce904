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
 - a command-line interface (`cli`, installed as the `smpds` script).

The package exports the main names of `model` and `automaton`, and
`phase_closure` and `to_pds`.  Each saturation is imported from its
module, `from smpds.prestar import prestar` and `from smpds.poststar
import poststar`, so `smpds.prestar` and `smpds.poststar` name the
modules, and the classical route's names stay in `translate`.
"""

from .model import (
    Configuration,
    PdsRule,
    Phase,
    RuleId,
    SelfModRule,
    SMPDS,
    check_configuration,
    step,
    validate,
)
from .automaton import EPS, Generated, Initial, PAutomaton, Plain, from_configs
from .translate import phase_closure, to_pds

__all__ = [
    "Configuration", "EPS", "Generated", "Initial", "PAutomaton", "PdsRule",
    "Phase", "Plain", "RuleId", "SMPDS", "SelfModRule", "check_configuration",
    "from_configs", "phase_closure", "step", "to_pds", "validate",
]

__version__ = "0.1.0"
