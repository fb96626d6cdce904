"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

For each workload it builds a two-instance pool of small generated systems,
confirming the answers as make_expected.py does, then runs one untraced and
two traced passes.  Every metric named in BENCHMARK.json must be emitted, no
query may fail, the count metrics must repeat exactly, and a wrong stored
answer must be caught.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_expected  # noqa: E402  (puts src/ and tests/ on the path)
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}

# (states, symbols, rules, smrules) of the tiny instances
TINY = {"pre_wide": (4, 3, 30, 3), "post_fanout": (3, 3, 12, 3),
        "translated": (3, 3, 12, 2)}


def tiny_pool(name: str) -> list[wl.Inputs]:
    workload = wl.WORKLOADS[name]
    params = (TINY[name] + (seed,) for seed in range(1, 100))
    entries = make_expected.build_pool(workload, params, 2,
                                       accept=lambda name, outcome: True,
                                       log=lambda line: None)
    return [wl.render(workload, entry) for entry in entries]


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def workload_pool(request):
    return wl.WORKLOADS[request.param], tiny_pool(request.param)


def test_end_to_end_metrics(workload_pool):
    workload, pool = workload_pool
    records = run.measure(workload, pool, seed=1, passes=1)
    metrics, notes = run.end_to_end(records, setup_s=0.5)
    assert set(metrics) == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())
    assert [r.error for r in records] == [None] * len(pool)
    assert any(note.startswith("failed_frac 0.0000") for note in notes)


def test_per_layer_metrics_and_repeatable_counts(workload_pool):
    workload, pool = workload_pool
    first = run.per_layer(run.measure(workload, pool, 1, 1, Tracer()))
    second = run.per_layer(run.measure(workload, pool, 2, 1, Tracer()))
    assert set(first) == PER_LAYER
    for metric in run.COUNTS:
        assert first[metric] == second[metric], metric


def test_wrong_answer_is_a_failure(workload_pool):
    workload, pool = workload_pool
    inp = pool[0]
    wrong = wl.Inputs(inp.key, inp.model_text, inp.aut_text,
                      dict(inp.expected, fingerprint=inp.expected["fingerprint"] + 1))
    records = run.measure(workload, [wrong], seed=1, passes=1)
    assert records[0].error == "wrong fingerprint"
