"""Reachability analysis for self-modifying pushdown systems.

A self-modifying pushdown system is an ordinary pushdown system extended
with rule-change rules that add and remove pushdown rules from the
currently active set (the phase).  This package provides:

 - the core model with an executable small-step semantics (`model`),
 - phase-annotated configuration automata and the worklist every
   saturation runs on (`automaton`),
 - backward and forward saturation (`prestar`, `poststar`), run directly
   on an SM-PDS with the statistics and the empty-stack closure of
   `saturation`, or on its translated PDS,
 - translations to ordinary and symbolic pushdown systems, with the
   classical saturations run on the paired rules (`translate`),
 - a toy self-modifying assembly front end (`asm`),
 - seeded random instances (`bench.generate`), used by the tests and by
   the benchmark in `perfbench/`,
 - a command-line interface (`cli`, installed as the `smpds` script).
"""

from .model import (
    Configuration,
    EMPTY_PHASE,
    PdsRule,
    Phase,
    RuleId,
    SelfModRule,
    SMPDS,
    ValidationReport,
    check_configuration,
    normalize_push,
    solve_predecessor_phases,
    step,
    validate,
)
from .automaton import EPS, Generated, Initial, PAutomaton, Plain, from_configs
from .prestar import prestar
from .poststar import poststar
from .saturation import SaturationStats
from .translate import (
    PDS,
    SymbolicPDS,
    config_to_pds,
    pds_accepts,
    pds_from_configs,
    pds_prestar,
    pds_poststar,
    pds_step,
    phase_closure,
    symbolic_step,
    to_pds,
    to_symbolic_pds,
)

__all__ = [
    "Configuration", "EMPTY_PHASE", "EPS", "Generated", "Initial",
    "PAutomaton", "PDS", "PdsRule", "Phase", "Plain",
    "RuleId", "SMPDS", "SaturationStats", "SelfModRule", "SymbolicPDS",
    "ValidationReport", "config_to_pds", "from_configs",
    "normalize_push", "pds_accepts",
    "pds_from_configs", "pds_poststar", "pds_prestar", "pds_step",
    "phase_closure", "poststar", "prestar", "solve_predecessor_phases",
    "step", "symbolic_step", "to_pds", "to_symbolic_pds", "validate",
    "check_configuration",
]

__version__ = "0.1.0"
