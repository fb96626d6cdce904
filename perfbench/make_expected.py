"""Pick each workload's instance pool and store its confirmed answers.

    python3 perfbench/make_expected.py            # rewrites perfbench/expected.json

For every pooled instance this records the generator parameters, a digest
of the rule table and seed configurations, the verdict of each membership
check a query makes, and a fingerprint of the saturated automaton (the
number of accepted configurations of stack depth at most 2).  Each answer
comes from the engine the workload times and is then confirmed by at least
one route that shares no saturation code with that engine:

- `oracle`: breadth-first search with the step relation of
  `tests/oracles.py`.  A found target proves membership.
- `direct-prestar`: direct backward saturation (`smpds.prestar`).
- `translated-poststar`: `phase_closure` -> `to_pds` -> classical post*.
- `classical-one-phase`: classical pre* (`translate.pds_prestar`) on the
  paired PDS of the initial phase alone.  The pre_wide instances start at
  the phase holding every rule; a modifying rule that swaps two different
  rules drops one from it and phases never grow, so a run that leaves that
  phase never returns to it, and pre* at that phase equals classical pre*
  over its plain rules and its no-op modifying rules.

Any disagreement raises, and nothing is written.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]

from oracles import raw_step, to_raw  # noqa: E402
from smpds.automaton import from_configs  # noqa: E402
from smpds.bench import generate  # noqa: E402
from smpds.model import PdsRule  # noqa: E402
from smpds.prestar import prestar  # noqa: E402
from smpds.translate import (PDS, PairedRule, config_to_pds, pds_accepts,  # noqa: E402
                             pds_from_configs, pds_poststar, pds_prestar,
                             phase_closure, to_pds)

import workloads as wl  # noqa: E402
from spans import NULL_TRACER  # noqa: E402

EXPECTED = Path(__file__).parent / "expected.json"

ORACLE_MAX_STACK = 10
ORACLE_MAX_STEPS = 200_000


def candidates(name: str):
    """Generator parameters (states, symbols, rules, smrules, seed) to try, in order."""
    if name == "pre_wide":
        # the criterion-7 family; the oracle finds the target for seeds 1-8
        for seed in range(1, 9):
            yield (8, 8, 1009, 10, seed)
    elif name == "post_fanout":
        for seed in range(1, 200):
            yield (4, 4, 40 + 7 * seed % 21, 4 + seed % 2, seed)
    else:
        for seed in range(1, 200):
            yield (8, 8, 60 + 7 * seed % 21, 4, seed)


POOL_SIZE = {"pre_wide": 8, "post_fanout": 6, "translated": 8}


def keep(name: str, outcome: wl.Outcome) -> bool:
    """Size filter: instances whose saturation is the work the workload is about."""
    if name == "post_fanout":
        # 13-32 phases and 10k-25k transitions: printing costs as much as
        # saturating, and a query is short enough for ~24 queries in 30 s
        return (13 <= len(outcome.phases) <= 32
                and 10_000 <= len(outcome.result.transitions) <= 25_000)
    if name == "translated":
        # the full 81-phase closure with 6k-8k paired rules; results above
        # 20k transitions make a single query several times the median
        return (outcome.closure == 81 and 6_000 <= outcome.paired_rules <= 8_000
                and len(outcome.result.transitions) <= 20_000)
    return True


def oracle(smpds, start, goal) -> bool | None:
    """True if a bounded search from `start` reaches `goal`, False if the
    search explored everything without truncation, None otherwise."""
    start_raw, goal_raw = to_raw(start), to_raw(goal)
    if start_raw == goal_raw:
        return True
    seen = {start_raw}
    queue = deque([start_raw])
    truncated = False
    while queue:
        if len(seen) > ORACLE_MAX_STEPS:
            return None
        for nxt in raw_step(smpds, queue.popleft()):
            if nxt == goal_raw:
                return True
            if len(nxt[1]) > ORACLE_MAX_STACK:
                truncated = True
            elif nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return None if truncated else False


def one_phase_pds(smpds, theta) -> PDS:
    """Paired PDS of a single phase: its plain rules and its no-op modifying rules."""
    rules = []
    for rid in theta:
        r = smpds.rules[rid]
        if isinstance(r, PdsRule):
            rules.append(PairedRule((r.lhs_state, theta), r.lhs_symbol,
                                    (r.rhs_state, theta), r.rhs_word))
        elif r.removed == r.added:
            for g in sorted(smpds.alphabet):
                rules.append(PairedRule((r.from_state, theta), g,
                                        (r.to_state, theta), (g,)))
    states = frozenset((p, theta) for p in smpds.states)
    return PDS(states, smpds.alphabet, tuple(rules))


class Confirmation:
    """Collects which routes agreed with the engine on each kind of answer."""

    def __init__(self, what: str, engine: dict):
        self.what = what
        self.engine = engine
        self.routes: dict[str, list[str]] = {"verdict": [], "batch": [], "fingerprint": []}

    def agree(self, kind: str, route: str, value) -> None:
        if value != self.engine[kind]:
            raise AssertionError(f"{self.what}: {route} gives {kind} {value!r}, "
                                 f"engine gives {self.engine[kind]!r}")
        self.routes[kind].append(route)


def confirm(name: str, inst, batch, outcome: wl.Outcome, what: str) -> dict:
    engine = {"verdict": outcome.verdicts[0], "batch": outcome.verdicts[1:],
              "fingerprint": wl.fingerprint(outcome.result)}
    conf = Confirmation(what, engine)
    m, initial, target = inst.smpds, inst.initial, inst.target
    if name == "pre_wide":
        theta = m.all_rules_phase()
        if not (initial.phase is theta and target.phase is theta):
            raise AssertionError(f"{what}: classical-one-phase needs the all-rules phase")
        pds = one_phase_pds(m, theta)
        pre = pds_prestar(pds, pds_from_configs(pds, [config_to_pds(target)]))
        conf.agree("verdict", "classical-one-phase",
                   pds_accepts(pre, *config_to_pds(initial)))
        conf.agree("batch", "classical-one-phase",
                   [pds_accepts(pre, *config_to_pds(c)) for c in batch])
        conf.agree("fingerprint", "classical-one-phase", wl.fingerprint(pre))
    if name in ("post_fanout", "translated"):
        pre = prestar(m, from_configs(m, [target]))
        conf.agree("verdict", "direct-prestar", pre.accepts(initial))
        if name == "translated":
            conf.agree("fingerprint", "direct-prestar", wl.fingerprint(pre))
    if name == "post_fanout":
        pds = to_pds(m, phase_closure(m, [initial.phase]))
        post = pds_poststar(pds, pds_from_configs(pds, [config_to_pds(initial)]))
        conf.agree("verdict", "translated-poststar",
                   pds_accepts(post, *config_to_pds(target)))
        conf.agree("fingerprint", "translated-poststar", wl.fingerprint(post))
    found = oracle(m, initial, target)
    if found is not None:
        conf.agree("verdict", "oracle", found)
    for kind, routes in conf.routes.items():
        if kind != "batch" or engine["batch"]:
            if not routes:
                raise AssertionError(f"{what}: no independent route confirms the {kind}")
    return {"verdicts": outcome.verdicts, "fingerprint": engine["fingerprint"],
            "confirmed_by": {k: v for k, v in conf.routes.items() if v}}


def build_pool(workload: wl.Workload, params_iter, size: int,
               accept=keep, log=print) -> list[dict]:
    """The first `size` candidates that `accept` keeps, with confirmed answers."""
    pool = []
    for params in params_iter:
        entry = {"params": list(params)}
        inst = generate(wl.params_of(entry))
        entry["digest"] = wl.instance_digest(inst)
        outcome = wl.run_query(workload.route, wl.render(workload, entry), NULL_TRACER)
        if not accept(workload.name, outcome):
            continue
        batch = wl.batch_configs(inst, workload.batch, params[4])
        entry.update(confirm(workload.name, inst, batch, outcome,
                             f"{workload.name} {params}"))
        log(f"{workload.name} {params}: verdict {entry['verdicts'][0]}, "
            f"fingerprint {entry['fingerprint']}, confirmed by {entry['confirmed_by']}")
        pool.append(entry)
        if len(pool) == size:
            return pool
    raise RuntimeError(f"{workload.name}: fewer than {size} candidates pass the filter")


def main() -> int:
    pools = {name: build_pool(w, candidates(name), POOL_SIZE[name])
             for name, w in wl.WORKLOADS.items()}
    EXPECTED.write_text(json.dumps({"workloads": pools}, indent=1) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
