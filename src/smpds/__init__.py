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
from .prestar import prestar
from .poststar import poststar
from .translate import (
    PDS,
    config_to_pds,
    pds_accepts,
    pds_from_configs,
    pds_prestar,
    pds_poststar,
    phase_closure,
    to_pds,
)

__all__ = [
    "Configuration", "EPS", "Generated", "Initial", "PAutomaton", "PDS",
    "PdsRule", "Phase", "Plain", "RuleId", "SMPDS", "SelfModRule",
    "check_configuration", "config_to_pds",
    "from_configs", "pds_accepts", "pds_from_configs", "pds_poststar",
    "pds_prestar", "phase_closure", "poststar", "prestar", "step", "to_pds",
    "validate",
]

__version__ = "0.1.0"
