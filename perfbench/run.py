"""Seeded closed-loop benchmark of smpds queries.

    python3 perfbench/run.py --workload pre_wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client sends one query at a time and
waits for the answer (a closed loop; one process, no threads).  The queries
are drawn from the workload's pinned instance pool (`expected.json`) in an
order fixed by --seed, in whole passes over the pool.  The number of passes
is sized from --seconds at the baseline's speed (`nominal_pass_s`), so
two commits being compared run the same queries and their percentiles
mean the same thing.

End-to-end times are reported at reference speed: each timed interval is
bracketed by a fixed pure-Python reference task, and its wall time is
scaled by how fast that task ran around it, so that the drifting speed of a
shared machine cancels out (see REFERENCE_NOMINAL_S).

Every answer is checked against `expected.json`: the verdict of each
membership check and the fingerprint of the saturated automaton.  A wrong
answer, an exception or a query over the workload's time cap is a failure,
and any failure makes the run exit with code 1.

--trace 0 prints the end-to-end metrics; --trace 1 runs every query once
untraced and once traced, replays the `model` and `automaton` operations
of each, prints the per-layer metrics and writes the spans to
perfbench/out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "smpds" / "__init__.py").is_file():
    sys.exit(f"error: no smpds package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402
from spans import NULL_TRACER, Tracer, replay_insert, replay_model  # noqa: E402
from smpds.automaton import Generated  # noqa: E402

EXPECTED = HERE / "expected.json"
OUT = HERE / "out"
SETUP_REPEATS = 11
TAIL_BEYOND = 10
# The speed of a shared virtual machine drifts by 10-30% within a run, more
# than the regressions this benchmark should resolve.  So every timed
# interval is bracketed by a fixed pure-Python reference task, and the
# end-to-end times are reported at reference speed: wall seconds scaled by
# REFERENCE_NOMINAL_S / (the task's mean time just before and just after).
# The task's time is the median of REFERENCE_REPEATS short runs, so that a
# single preemption does not skew it.  REFERENCE_NOMINAL_S is that time's
# median on the 2-core virtual machine the baseline was taken on, so
# reported times stay close to wall times there.
REFERENCE_ITEMS = 2000
REFERENCE_REPEATS = 3
REFERENCE_NOMINAL_S = 0.011
# no query starts after this, so that a run with a query at its cap still
# ends within three minutes
MAX_RUN_S = 120


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout


@dataclass
class Record:
    """One attempted query."""
    inputs: wl.Inputs
    seconds: float
    error: str | None
    outcome: wl.Outcome | None = None
    trace_overhead: float | None = None  # traced minus untraced, at reference speed
    layers: dict = field(default_factory=dict)
    scale: float = 1.0  # REFERENCE_NOMINAL_S / reference time around the query

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


def reference() -> float:
    """Time of a fixed task shaped like a saturation, built from nothing of
    smpds: tuples of strings and frozensets as keys of a dict of sets, then
    a sort of their texts.  It tells how fast the machine runs such code
    right now."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        gc.collect()
        rng = random.Random(0)
        t0 = perf_counter()
        table = {}
        for i in range(REFERENCE_ITEMS):
            key = (f"p{rng.randrange(8)}", f"g{rng.randrange(8)}",
                   frozenset((rng.randrange(60), i % 50)))
            table.setdefault(key, set()).add((i, key[0]))
        sorted(str(key) for key in table)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale_between(before: float, after: float) -> float:
    return REFERENCE_NOMINAL_S / ((before + after) / 2)


def load_pool(name: str) -> list[wl.Inputs]:
    """The set-up a run pays before its first query: expected answers, instances, texts."""
    entries = json.loads(EXPECTED.read_text())["workloads"][name]
    return [wl.render(wl.WORKLOADS[name], entry) for entry in entries]


def setup_seconds(name: str) -> float:
    """Median, over SETUP_REPEATS fresh interpreters, of the wall time from
    starting the process to having the pool ready for the first query, at
    reference speed."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.load_pool({name!r}); print('ready', flush=True)")
    times = []
    ref = reference()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True) as child:
            ready = child.stdout.readline().strip() == "ready"
            elapsed = perf_counter() - t0
        if not ready or child.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed in a fresh interpreter")
        after = reference()
        times.append(elapsed * scale_between(ref, after))
        ref = after
    return statistics.median(times)


def passes_for(workload: wl.Workload, seconds: float, traced: bool) -> int:
    passes = max(1, round(seconds / workload.nominal_pass_s))
    # a traced run executes each query twice, plus the replays
    return max(1, passes // 2) if traced else passes


def timed_query(workload: wl.Workload, inp: wl.Inputs, tr) -> tuple[float, wl.Outcome | None, str | None]:
    # every query starts from a collected heap, as a fresh `smpds` process
    # would, instead of paying for the previous query's garbage
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, workload.cap_s)
    t0 = perf_counter()
    try:
        outcome = wl.run_query(workload.route, inp, tr)
        error = None
    except QueryTimeout:
        outcome, error = None, f"over the {workload.cap_s} s cap"
    except Exception:  # a failed query is counted, and the run goes on
        outcome, error = None, traceback.format_exc(limit=3)
    finally:
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None and elapsed > workload.cap_s:
        error = f"over the {workload.cap_s} s cap"
    return elapsed, outcome, error


def check(inp: wl.Inputs, outcome: wl.Outcome) -> str | None:
    """Compare a query's answers with the stored ones (outside any timed region)."""
    if outcome.verdicts != inp.expected["verdicts"]:
        return "wrong verdict"
    if wl.fingerprint(outcome.result) != inp.expected["fingerprint"]:
        return "wrong fingerprint"
    return None


def measure(workload: wl.Workload, pool: list[wl.Inputs], seed: int,
            passes: int, tracer: Tracer | None = None) -> list[Record]:
    """Run `passes` passes over the pool in a seeded order, one query at a
    time, after one untimed warm-up query.  Each query is bracketed by
    reference loops that give its scale to reference speed."""
    rng = random.Random(seed)
    records = []
    t0 = perf_counter()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        timed_query(workload, pool[0], NULL_TRACER)
        ref = reference()
        for _ in range(passes):
            order = list(range(len(pool)))
            rng.shuffle(order)
            for i in order:
                if perf_counter() - t0 > MAX_RUN_S:
                    print(f"stopped after {MAX_RUN_S} s with queries left", file=sys.stderr)
                    return records
                rec = run_one(workload, pool[i], tracer, len(records))
                after = reference()
                rec.scale = scale_between(ref, after)
                ref = after
                records.append(rec)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records


def run_one(workload, inp, tracer, index) -> Record:
    overhead = None
    if tracer is None:
        elapsed, outcome, error = timed_query(workload, inp, NULL_TRACER)
    else:
        before = reference()
        untraced, outcome, error = timed_query(workload, inp, NULL_TRACER)
        middle = reference()
        # drop the untraced result so that both runs start from the same heap
        outcome = None
        tracer.query = index
        with tracer.span("query"):
            elapsed, outcome, traced_error = timed_query(workload, inp, tracer)
        overhead = (elapsed * scale_between(middle, reference())
                    - untraced * scale_between(before, middle))
        error = error or traced_error
    if outcome is not None and error is None:
        error = check(inp, outcome)
    rec = Record(inp, elapsed, error, outcome, overhead)
    if tracer is not None and outcome is not None:
        rec.layers = layer_values(workload, rec, tracer)
        tracer.query = None
    if error is not None:
        print(f"FAILED {inp.key}: {error}", file=sys.stderr)
    rec.outcome = None  # release the automaton before the next query
    return rec


# -- end-to-end metrics ---------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it:
    (value, percentile, sample count).  Below TAIL_BEYOND + 1 samples no
    percentile qualifies, and the maximum is returned as p100."""
    xs = sorted(samples)
    n = len(xs)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return xs[rank - 1], 100.0 * rank / n, n


def end_to_end(records: list[Record], setup_s: float) -> tuple[dict, list[str]]:
    times = [r.scaled_seconds for r in records]
    wall = [r.seconds for r in records]
    ok = [r for r in records if r.error is None]
    value, pct, n = tail(times)
    failed = len(records) - len(ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_p50_s": (statistics.median(times), "s"),
        "query_tail_s": (value, "s"),
        "queries_per_s": (len(ok) / sum(times), "1/s"),
        "peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"query_tail_s is p{pct:.1f} of {n} queries "
             f"({n - round(pct * n / 100)} beyond it)",
             f"unscaled wall times: query p50 {statistics.median(wall):.6f} s, "
             f"{len(ok) / sum(wall):.6f} queries/s; machine at "
             f"{statistics.median(r.scale for r in records):.3f} of reference speed",
             f"failed_frac {failed / len(records):.4f} ({failed} of {len(records)} "
             "queries failed)"]
    return metrics, notes


# -- per-layer metrics ----------------------------------------------------

SPAN_SECONDS = {
    "formats.parse_s": "formats.parse",
    "formats.print_s": "formats.print",
    "prestar.saturate_s": "prestar.saturate",
    "poststar.saturate_s": "poststar.saturate",
    "translate.closure_s": "translate.closure",
    "translate.to_pds_s": "translate.to_pds",
    "translate.saturate_s": "translate.saturate",
}
REPLAY_US = {
    "model.phase_of_us": "model.phase_of",
    "model.phase_hash_us": "model.phase_hash",
    "model.phase_contains_us": "model.phase_contains",
    "model.phase_update_us": "model.phase_update",
    "automaton.insert_us": "automaton.insert",
}
COUNTS = ("model.phases", "model.phase_ids", "automaton.transitions",
          "automaton.states", "automaton.checks",
          "prestar.transitions_added", "prestar.finals_added",
          "poststar.transitions_added", "poststar.finals_added",
          "poststar.generated_states", "poststar.transitions_per_phase",
          "translate.phases", "translate.paired_rules", "translate.transitions",
          "formats.bytes_in", "formats.bytes_out")


def layer_values(workload: wl.Workload, rec: Record, tracer: Tracer) -> dict:
    """Per-layer numbers of one traced query: span times, replays and counts
    taken from the query's inputs and results."""
    out = rec.outcome
    result, phases = out.result, out.phases
    ops = replay_model(tracer, phases, out.smpds)
    ops["automaton.insert"] = replay_insert(tracer, result)
    spans = tracer.durations(tracer.query)
    values = {metric: spans.get(name, 0.0) for metric, name in SPAN_SECONDS.items()}
    for metric, name in REPLAY_US.items():
        values[metric] = 1e6 * spans[name] / ops[name] if ops[name] else 0.0
    checks = len(out.verdicts)
    values["automaton.accepts_us"] = 1e6 * spans["automaton.accepts"] / checks
    counts = dict.fromkeys(COUNTS, 0)
    counts.update({
        "model.phases": len(phases),
        "model.phase_ids": sum(len(p) for p in phases) / len(phases),
        "automaton.transitions": len(result.transitions),
        "automaton.states": len(result.states),
        "automaton.checks": checks,
        "formats.bytes_in": len(rec.inputs.model_text) + len(rec.inputs.aut_text),
        "formats.bytes_out": len(out.printed),
    })
    added = len(result.transitions) - len(out.input_aut.transitions)
    finals = len(result.finals) - len(out.input_aut.finals)
    if workload.route == "pre":
        counts["prestar.transitions_added"] = added
        counts["prestar.finals_added"] = finals
    elif workload.route == "post":
        counts["poststar.transitions_added"] = added
        counts["poststar.finals_added"] = finals
        counts["poststar.generated_states"] = sum(
            isinstance(q, Generated) for q in result.states)
        counts["poststar.transitions_per_phase"] = len(result.transitions) / len(phases)
    else:
        counts["translate.phases"] = out.closure
        counts["translate.paired_rules"] = out.paired_rules
        counts["translate.transitions"] = len(result.transitions)
    return {"values": values, "counts": counts}


def per_layer(records: list[Record]) -> dict:
    traced = [r for r in records if r.layers]
    if not traced:
        return {}
    metrics = {}
    for metric in traced[0].layers["values"]:
        unit = "us" if metric.endswith("_us") else "s"
        metrics[metric] = (statistics.median(r.layers["values"][metric] for r in traced), unit)
    # counts depend only on the instance, so each pooled instance counts once
    first = {}
    for r in traced:
        first.setdefault(r.inputs.key, r.layers["counts"])
    for metric in COUNTS:
        unit = "B" if metric.startswith("formats.bytes") else "count"
        metrics[metric] = (statistics.fmean(c[metric] for c in first.values()), unit)
    metrics["trace.overhead_s"] = (statistics.median(r.trace_overhead for r in traced), "s")
    return metrics


def write_trace(name: str, seed: int, tracer: Tracer, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": tracer.as_json()}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    try:
        setup_s = setup_seconds(args.workload)
        pool = load_pool(args.workload)
    except (OSError, KeyError, RuntimeError) as e:
        print(f"error: set-up failed: {e!r}", file=sys.stderr)
        return 2
    passes = passes_for(workload, args.seconds, bool(args.trace))
    tracer = Tracer() if args.trace else None
    t0 = perf_counter()
    records = measure(workload, pool, args.seed, passes, tracer)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client, "
          f"{len(records)} queries ({passes} passes over {len(pool)} instances) "
          f"in {perf_counter() - t0:.1f} s")
    if args.trace:
        metrics = per_layer(records)
        print(f"spans written to {write_trace(args.workload, args.seed, tracer, metrics)}")
    else:
        metrics, notes = end_to_end(records, setup_s)
        for note in notes:
            print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    failed = sum(r.error is not None for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
