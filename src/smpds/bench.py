"""Random instance generation and direct-vs-translated comparison runs."""

from __future__ import annotations

import random
import time
import tracemalloc
from dataclasses import dataclass, field

from .automaton import from_configs
from .model import Configuration, Phase, PdsRule, SelfModRule, SMPDS
from .prestar import prestar
from .translate import pds_prestar, phase_closure, to_pds


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


class BudgetExceeded(Exception):
    def __init__(self, what: str):
        super().__init__(what)
        self.what = what


@dataclass
class Budget:
    """Wall-time / memory caps enforced through a periodic tick callback."""
    max_seconds: float | None = None
    max_bytes: int | None = None
    _deadline: float = field(default=0.0, init=False)
    peak_bytes: int = field(default=0, init=False)

    def start(self) -> None:
        self._deadline = (time.perf_counter() + self.max_seconds
                          if self.max_seconds is not None else float("inf"))
        if self.max_bytes is not None:
            tracemalloc.start()

    def stop(self) -> None:
        if self.max_bytes is not None:
            _, peak = tracemalloc.get_traced_memory()
            self.peak_bytes = max(self.peak_bytes, peak)
            tracemalloc.stop()

    def tick(self) -> None:
        if time.perf_counter() > self._deadline:
            raise BudgetExceeded("time")
        if self.max_bytes is not None:
            _, peak = tracemalloc.get_traced_memory()
            self.peak_bytes = max(self.peak_bytes, peak)
            if peak > self.max_bytes:
                raise BudgetExceeded("memory")


@dataclass
class ReportRow:
    rules: int
    smrules: int
    direct_ms: float = 0.0
    direct_mb: float = 0.0
    pds_ms: float = 0.0
    pds_saturate_ms: float = 0.0
    total_ms: float = 0.0
    status: str = "ok"

    def csv(self) -> str:
        return (f"{self.rules},{self.smrules},{self.direct_ms:.1f},"
                f"{self.direct_mb:.2f},{self.pds_ms:.1f},"
                f"{self.pds_saturate_ms:.1f},{self.total_ms:.1f},{self.status}")


CSV_HEADER = "rules,smrules,direct_ms,direct_mb,pds_ms,pds_saturate_ms,total_ms,status"


def run_direct(instance: Instance, budget: Budget | None = None) -> ReportRow:
    """Backward reachability from the target, directly on the model."""
    row = ReportRow(len(instance.smpds.delta), len(instance.smpds.delta_c))
    aut = from_configs(instance.smpds, [instance.target])
    budget = budget or Budget()
    budget.start()
    t0 = time.perf_counter()
    try:
        prestar(instance.smpds, aut, tick=budget.tick)
    except BudgetExceeded as e:
        row.status = f"budget:{e.what}"
    finally:
        budget.stop()
    row.direct_ms = (time.perf_counter() - t0) * 1e3
    row.direct_mb = budget.peak_bytes / 2**20
    row.total_ms = row.direct_ms
    return row


def run_translated(instance: Instance, budget: Budget | None = None) -> ReportRow:
    """The same query via the ordinary-pushdown translation."""
    row = ReportRow(len(instance.smpds.delta), len(instance.smpds.delta_c))
    budget = budget or Budget()
    budget.start()
    t0 = time.perf_counter()
    try:
        phases = phase_closure(instance.smpds,
                               [instance.initial.phase, instance.target.phase],
                               tick=budget.tick)
        pds = to_pds(instance.smpds, phases, tick=budget.tick)
        row.pds_ms = (time.perf_counter() - t0) * 1e3
        aut = from_configs(instance.smpds, [instance.target])
        t1 = time.perf_counter()
        pds_prestar(pds, aut, tick=budget.tick)
        row.pds_saturate_ms = (time.perf_counter() - t1) * 1e3
    except BudgetExceeded as e:
        row.status = f"budget:{e.what}"
    finally:
        budget.stop()
    row.direct_mb = budget.peak_bytes / 2**20
    row.total_ms = (time.perf_counter() - t0) * 1e3
    return row


def run_comparison(params: GenParams, budget_seconds: float | None = None,
                   budget_bytes: int | None = None) -> tuple[ReportRow, ReportRow]:
    instance = generate(params)
    direct = run_direct(instance, Budget(budget_seconds, budget_bytes))
    translated = run_translated(instance, Budget(budget_seconds, budget_bytes))
    return direct, translated
