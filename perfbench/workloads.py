"""Workloads of the benchmark: instance pools, inputs rendered to text, one query per route.

A query is what a user of the command line gets from `smpds check` plus
`smpds prestar|poststar`: parse the model and automaton text, saturate,
decide membership and print the saturated automaton.  The `translated`
route answers the pre* question through `phase_closure`, `to_pds` and the
classical saturation; `formats` has no printer for paired-state automata,
so that query ends with the verdict, as `smpds check` does.

Every span a query records wraps one call into a public function of
`formats`, `prestar`, `poststar`, `translate` or `automaton`; nothing
inside `smpds` is instrumented.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from smpds import formats
from smpds.automaton import Generated, Initial, PAutomaton, from_configs
from smpds.bench import GenParams, generate
from smpds.model import SMPDS, Configuration, PdsRule
from smpds.poststar import poststar as direct_poststar
from smpds.prestar import prestar as direct_prestar
# looked up when the translated query runs, so the other workloads keep
# working if the classical saturations move
from smpds import translate


@dataclass(frozen=True)
class Workload:
    name: str
    route: str          # "pre", "post" or "translated"
    batch: int          # random configurations checked by each query
    cap_s: float        # a query slower than this counts as failed
    nominal_pass_s: float  # seconds per pass over the pool, see below


# nominal_pass_s is the time of one pass at the code this benchmark was
# first added to, on a shared 2-core virtual machine; it sizes a run in
# whole passes (see run.py), so both commits of a comparison run the same
# queries.
WORKLOADS = {
    "pre_wide": Workload("pre_wide", "pre", batch=100, cap_s=20.0,
                         nominal_pass_s=6.0),
    "post_fanout": Workload("post_fanout", "post", batch=0, cap_s=30.0,
                            nominal_pass_s=7.5),
    "translated": Workload("translated", "translated", batch=0, cap_s=20.0,
                           nominal_pass_s=6.0),
}


@dataclass
class Inputs:
    """One pooled instance, as text, with the answers it must produce."""
    key: str
    model_text: str
    aut_text: str
    expected: dict


@dataclass
class Outcome:
    """What one query produced, kept for checking and for the trace."""
    verdicts: list[bool]
    result: PAutomaton
    input_aut: PAutomaton
    printed: str
    phases: set            # phases the query worked on
    smpds: SMPDS
    closure: int = 0
    paired_rules: int = 0


def params_of(entry: dict) -> GenParams:
    states, symbols, rules, smrules, seed = entry["params"]
    return GenParams(states, symbols, rules, smrules, seed=seed)


def batch_configs(inst, size: int, seed: int) -> list[Configuration]:
    """Random configurations of stack depth 0-6 at the instance's initial phase."""
    rng = random.Random(f"batch-{seed}")
    states = sorted(inst.smpds.states)
    symbols = sorted(inst.smpds.alphabet)
    return [Configuration(rng.choice(states),
                          tuple(rng.choice(symbols)
                                for _ in range(rng.randint(0, 6))),
                          inst.initial.phase)
            for _ in range(size)]


def instance_digest(inst) -> str:
    """Digest of the rule table and the seed configurations, from their fields."""
    rows = []
    for rid in sorted(inst.smpds.rules):
        r = inst.smpds.rules[rid]
        if isinstance(r, PdsRule):
            rows.append([rid, r.lhs_state, r.lhs_symbol, r.rhs_state, list(r.rhs_word)])
        else:
            rows.append([rid, r.from_state, r.removed, r.added, r.to_state])
    for c in (inst.initial, inst.target):
        rows.append([c.state, list(c.stack), sorted(c.phase)])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def document(inst, batch: list[Configuration]) -> formats.SmpdsDocument:
    """Model document with configs [initial, target, *batch]."""
    return formats.SmpdsDocument(inst.smpds, {"init": inst.initial.phase},
                                 [inst.initial, inst.target, *batch])


def render(workload: Workload, entry: dict) -> Inputs:
    """Generate a pooled instance and render it to the texts a user would pass."""
    inst = generate(params_of(entry))
    digest = instance_digest(inst)
    if digest != entry["digest"]:
        raise RuntimeError(
            f"{workload.name}: instance {entry['params']} no longer matches its "
            "pinned digest; smpds.bench.generate or rule ids changed")
    doc = document(inst, batch_configs(inst, workload.batch, params_of(entry).seed))
    model_text = formats.print_smpds(doc)
    if workload.route == "pre":
        aut_text = formats.print_automaton(from_configs(inst.smpds, [inst.target]), doc)
    elif workload.route == "post":
        aut_text = formats.print_automaton(from_configs(inst.smpds, [inst.initial]), doc)
    else:
        aut_text = ""
    return Inputs(f"{workload.name}/{entry['params'][4]}", model_text, aut_text, entry)


def run_query(route: str, inp: Inputs, tr) -> Outcome:
    if route == "translated":
        return _query_translated(inp, tr)
    with tr.span("formats.parse"):
        doc = formats.parse_smpds(inp.model_text)
        aut = formats.parse_automaton(inp.aut_text, doc)
    if route == "pre":
        with tr.span("prestar.saturate"):
            result = direct_prestar(doc.smpds, aut)
        checks = [doc.configs[0], *doc.configs[2:]]
    else:
        with tr.span("poststar.saturate"):
            result = direct_poststar(doc.smpds, aut)
        checks = [doc.configs[1]]
    with tr.span("automaton.accepts"):
        verdicts = [result.accepts(c) for c in checks]
    with tr.span("formats.print"):
        printed = formats.print_automaton(result, doc)
    phases = {q.phase for q in result.states
              if isinstance(q, (Initial, Generated))}
    return Outcome(verdicts, result, aut, printed, phases, doc.smpds)


def _query_translated(inp: Inputs, tr) -> Outcome:
    with tr.span("formats.parse"):
        doc = formats.parse_smpds(inp.model_text)
    initial, target = doc.configs[:2]
    with tr.span("translate.closure"):
        phases = translate.phase_closure(doc.smpds, [initial.phase, target.phase])
    with tr.span("translate.to_pds"):
        pds = translate.to_pds(doc.smpds, phases)
    aut = translate.pds_from_configs(pds, [translate.config_to_pds(target)])
    with tr.span("translate.saturate"):
        result = translate.pds_prestar(pds, aut)
    with tr.span("automaton.accepts"):
        verdicts = [translate.pds_accepts(result, *translate.config_to_pds(initial))]
    return Outcome(verdicts, result, aut, "", phases, doc.smpds,
                   closure=len(phases), paired_rules=len(pds.rules))


def fingerprint(aut: PAutomaton) -> int:
    """Number of accepted configurations with stack depth at most 2.

    Works for direct automata (initial states (p, phase)) and paired-state
    ones (initial states ((p, phase), None)) alike, so the count of one
    route can be compared with the count of another.  States are numbered
    once and sets of states are bit masks, so each state is hashed only a
    few times.
    """
    index = {q: i for i, q in enumerate(aut.states)}
    closure = [0] * len(index)
    for q, i in index.items():
        for q2 in aut.eclosure(q):
            closure[i] |= 1 << index[q2]
    finals = sum(1 << index[q] for q in aut.finals)
    succ: dict[tuple[int, str], int] = {}
    for src, label, dst in aut.transitions:
        if label is not None:
            key = (index[src], label)
            succ[key] = succ.get(key, 0) | closure[index[dst]]

    def step(mask: int, g: str) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= succ.get((low.bit_length() - 1, g), 0)
            mask ^= low
        return out

    symbols = sorted(aut.alphabet)
    count = 0
    for q, i in index.items():
        if not isinstance(q, Initial):
            continue
        level = [closure[i]]
        for depth in range(3):
            count += sum(1 for mask in level if mask & finals)
            if depth < 2:
                level = [m for mask in level for g in symbols if (m := step(mask, g))]
    return count
