"""Acceptance suite: one test per shipping criterion.

The random corpus is built once per module: systems are drawn within
|P| <= 4, |Gamma| <= 4, |Delta| <= 8, |Delta_c| <= 3 and kept only when
the brute-force interpreter (stack <= 6, steps <= 20000) explores their
full reachable set without truncation.
"""

import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from smpds import (
    EPS,
    Configuration,
    Phase,
    Plain,
    check,
    from_configs,
    phase_closure,
    to_pds,
)
from smpds.asm import Program, compile_program, parse_program
from smpds.bench import GenParams, generate
from smpds.formats import (
    SmpdsDocument,
    parse_automaton,
    parse_smpds,
    print_automaton,
    print_smpds,
    print_symbolic_pds,
)
from smpds.model import step
from smpds.poststar import poststar
from smpds.prestar import prestar
from smpds.translate import PDS, PairedRule, config_to_pds, pds_poststar, pds_prestar

from classical_reference import (pds_step, reference_pds_poststar,
                                 reference_pds_prestar, reference_to_pds,
                                 symbolic_step)
from fixtures import SWAP_TRACE, cli_stats, swap_example
from oracles import raw_reach

SAMPLES = Path(__file__).parent.parent / "samples"
CORPUS_SIZE = 200
ORACLE_STACK = 6
ORACLE_STEPS = 20000
SAMPLE_STACK = 5


@dataclass
class Record:
    seed: int
    smpds: object
    initial: Configuration
    target: Configuration
    reach: frozenset
    samples: list          # membership probes, |stack| <= SAMPLE_STACK


def _sample_configs(rng, m, reach, k):
    """A mix of reached configurations and random probes."""
    phases = sorted({c.phase for c in reach}, key=lambda p: sorted(p.members))
    pool = sorted((c for c in reach if len(c.stack) <= SAMPLE_STACK), key=repr)
    out = rng.sample(pool, min(k // 2, len(pool)))
    states = sorted(m.states)
    symbols = sorted(m.alphabet)
    while len(out) < k:
        stack = tuple(rng.choice(symbols)
                      for _ in range(rng.randint(0, SAMPLE_STACK)))
        out.append(Configuration(rng.choice(states), stack,
                                 rng.choice(phases)))
    return out


def _corpus_draw(seed):
    """The corpus generator's system for one seed, and its random stream."""
    rng = random.Random(seed)
    params = GenParams(num_states=rng.randint(2, 4),
                       num_symbols=rng.randint(2, 4),
                       num_rules=rng.randint(2, 8),
                       num_smrules=rng.randint(0, 3),
                       seed=seed)
    return rng, generate(params)


@pytest.fixture(scope="module")
def corpus():
    records = []
    seed = 0
    while len(records) < CORPUS_SIZE:
        seed += 1
        rng, inst = _corpus_draw(seed)
        reach, truncated = raw_reach(inst.smpds, inst.initial,
                                     ORACLE_STACK, ORACLE_STEPS)
        if truncated:
            continue
        samples = _sample_configs(rng, inst.smpds, reach, 6)
        records.append(Record(seed, inst.smpds, inst.initial, inst.target,
                              frozenset(reach), samples))
    return records


def test_criterion_1_golden_replay():
    """The interpreter reproduces the canonical 5-step run exactly."""
    m, theta0, theta1, c0 = swap_example()
    assert (c0.state, c0.stack, tuple(sorted(c0.phase.members))) == SWAP_TRACE[0]
    cur = {c0}
    for expected in SWAP_TRACE[1:]:
        nxt = set()
        for c in cur:
            nxt |= step(m, c)
        assert len(nxt) == 1
        (c,) = nxt
        assert (c.state, c.stack, tuple(sorted(c.phase.members))) == expected
        cur = nxt


def _prestar_targets(rec):
    """Up to three reached configurations of `rec`, drawn by its seed."""
    rng = random.Random(rec.seed * 31)
    pool = sorted(rec.reach, key=repr)
    return rng.sample(pool, min(3, len(pool)))


def test_criterion_2_prestar_vs_oracle(corpus):
    """Backward saturation agrees with the forward interpreter."""
    start = time.perf_counter()
    checked = 0
    for rec in corpus:
        targets = _prestar_targets(rec)
        sat = prestar(rec.smpds, from_configs(rec.smpds, targets))
        target_set = set(targets)
        for c in rec.samples:
            fwd, truncated = raw_reach(rec.smpds, c, ORACLE_STACK,
                                       ORACLE_STEPS)
            if truncated:
                continue
            want = bool(target_set & fwd)
            assert sat.accepts(c) == want, (rec.seed, c, targets)
            checked += 1
    assert checked >= 3 * CORPUS_SIZE
    assert time.perf_counter() - start < 300


def test_criterion_3_poststar_vs_oracle(corpus):
    """Forward saturation agrees with the forward interpreter."""
    for rec in corpus:
        sat = poststar(rec.smpds, from_configs(rec.smpds, [rec.initial]))
        for c in rec.reach:
            assert sat.accepts(c), (rec.seed, c)
        for c in rec.samples:
            assert sat.accepts(c) == (c in rec.reach), (rec.seed, c)
        # and nothing spurious in the enumerable fragment
        for c in sat.enumerate_configs(4):
            assert c in rec.reach, (rec.seed, c)


def test_criterion_4_single_step_equivalence(corpus):
    """Steps agree between the model, the paired PDS and the printed
    symbolic PDS on nonempty stacks (the paired encoding keys every rule on
    a stack symbol, so it cannot fire modifying rules against an empty
    stack)."""
    pairs = 0
    for rec in corpus:
        m = rec.smpds
        probe = [c for c in rec.reach if c.stack] \
            + [c for c in rec.samples if c.stack]
        phases = phase_closure(m, {c.phase for c in probe} | {rec.initial.phase})
        rules = list(to_pds(m, phases).rules)
        symbolic = print_symbolic_pds(SmpdsDocument(m))
        rng = random.Random(rec.seed * 17)
        symbols = sorted(m.alphabet)
        states = sorted(m.states)
        phase_list = sorted(phases, key=lambda p: sorted(p.members))
        while len(probe) < 60:
            stack = tuple(rng.choice(symbols)
                          for _ in range(rng.randint(1, SAMPLE_STACK)))
            probe.append(Configuration(rng.choice(states), stack,
                                       rng.choice(phase_list)))
        for c in probe:
            succ = step(m, c)
            state, stack = config_to_pds(c)
            assert pds_step(rules, state, stack) == \
                {config_to_pds(s) for s in succ}, (rec.seed, c)
            assert symbolic_step(symbolic, c) == succ, (rec.seed, c)
            pairs += 1
    assert pairs >= 10_000


def test_criterion_5_cross_path_equivalence(corpus):
    """Direct saturation vs translate-then-classical, sampled membership."""
    for rec in corpus:
        m = rec.smpds
        pool = sorted((c for c in rec.reach if c.stack), key=repr)
        if not pool:
            continue
        target = random.Random(rec.seed * 13).choice(pool)
        relevant = {rec.initial.phase, target.phase} \
            | {c.phase for c in rec.samples}
        pds = to_pds(m, phase_closure(m, relevant))
        pre = prestar(m, from_configs(m, [target]))
        cpre = pds_prestar(pds, from_configs(m, [target]))
        post = poststar(m, from_configs(m, [rec.initial]))
        cpost = pds_poststar(pds, from_configs(m, [rec.initial]))
        for c in list(rec.reach)[:20] + rec.samples:
            if not c.stack:
                continue
            assert cpre.accepts(c) == pre.accepts(c), (rec.seed, c)
            assert cpost.accepts(c) == post.accepts(c), (rec.seed, c)


def test_criterion_5_classical_routes_enumerate_alike(corpus):
    """On every system the corpus generator drew, kept or not, classical
    pre*/post* on the paired PDS accept the same nonempty-stack
    configurations up to depth 3 as direct pre*/post*.  Both routes run
    the same saturation cores, so the direct result is also compared
    with the per-transition reference on the paired PDS, which shares
    no code with them."""
    runs = 0
    for seed in range(1, corpus[-1].seed + 1):
        _, inst = _corpus_draw(seed)
        m = inst.smpds
        pds = to_pds(m, phase_closure(m, [inst.initial.phase,
                                          inst.target.phase]))
        for direct, classical, reference, c in (
                (prestar, pds_prestar, reference_pds_prestar, inst.target),
                (poststar, pds_poststar, reference_pds_poststar, inst.initial)):
            want = {x for x in direct(m, from_configs(m, [c])).enumerate_configs(3)
                    if x.stack}
            for route in (classical, reference):
                got = {x for x in route(pds, from_configs(m, [c])).enumerate_configs(3)
                       if x.stack}
                assert got == want, (seed, direct.__name__, route.__name__)
            runs += 1
    assert runs >= 2 * CORPUS_SIZE


def test_criterion_6_symbolic_size_formula(corpus):
    """The printed symbolic PDS has |Delta| + |Delta_c| * |Gamma| lines."""
    for rec in corpus:
        m = rec.smpds
        lines = print_symbolic_pds(SmpdsDocument(m)).splitlines()
        assert len(lines) == len(m.delta) + len(m.delta_c) * len(m.alphabet)


class _Blown(Exception):
    """Raised by the interval timer that bounds the translated route."""


def test_criterion_7_scale_trend():
    """At 1009 plain + 10 modifying rules, direct backward saturation
    finishes quickly while the explicit paired-PDS route, the paper's
    baseline, does not finish within ten times the direct wall time: it
    closes the phase set, materialises every paired rule over it with
    `reference_to_pds` (62,336,061 rules over 3^10 phases) and saturates
    them with `reference_pds_prestar`.  The library's own route builds no
    paired rule and takes its count from the closure, so it costs about
    the closure alone, which is not the translation's blow-up the claim
    is about.  Both routes are timed with tracemalloc off."""
    inst = generate(GenParams(num_states=8, num_symbols=8, num_rules=1009,
                              num_smrules=10, seed=123))
    m = inst.smpds
    t0 = time.perf_counter()
    prestar(m, from_configs(m, [inst.target]))
    direct = time.perf_counter() - t0
    assert direct < 60.0
    target = from_configs(m, [inst.target])

    def blow(signum, frame):
        raise _Blown

    previous = signal.signal(signal.SIGALRM, blow)
    t0 = time.perf_counter()
    blown = False
    try:
        # the inner finally disarms the timer; an alarm that fires just
        # before it still lands in the outer except
        try:
            signal.setitimer(signal.ITIMER_REAL, 10 * direct)
            phases = phase_closure(m, [inst.initial.phase, inst.target.phase])
            rules = map(PairedRule._make, reference_to_pds(m, phases))
            pds = PDS([(p, theta) for theta in phases for p in m.states],
                      m.alphabet, rules)
            reference_pds_prestar(pds, target)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Blown:
        blown = True
    finally:
        signal.signal(signal.SIGALRM, previous)
    translated = time.perf_counter() - t0
    assert blown or translated > 10 * direct


def test_criterion_8_selfmod_reachability_pattern():
    """For each sample program, the hidden block is reachable exactly
    when self-modification is modeled (unlock/loop_rewrite/call_patch/
    unhalt/gate_removal: yes with, no without; lockout: the reverse)."""
    cases = {
        "unlock.sasm": ("hidden", True, False),
        "gate_removal.sasm": ("hidden", True, False),
        "loop_rewrite.sasm": ("done", True, False),
        "call_patch.sasm": ("helper2", True, False),
        "unhalt.sasm": ("extra", True, False),
        "lockout.sasm": ("hidden", False, True),
    }
    assert sum(1 for _, y, n in cases.values() if y and not n) >= 5
    for name, (label, with_sm, without_sm) in cases.items():
        prog = parse_program((SAMPLES / name).read_text())
        for erase, want in ((False, with_sm), (True, without_sm)):
            cp = compile_program(prog, erase_selfmod=erase)
            sat = poststar(cp.smpds,
                           from_configs(cp.smpds, [cp.entry_config]))
            assert sat.control_reachable(label) == want, (name, erase)


def test_criterion_9_fixpoint_idempotence(corpus):
    """Each saturation takes its own result, and leaves it unchanged: the
    direct ones, on the inputs of criteria 2 and 3, and the classical ones
    on the paired PDS alike."""
    for rec in corpus:
        m = rec.smpds
        for op, configs in ((prestar, _prestar_targets(rec)),
                            (poststar, [rec.initial])):
            sat = op(m, from_configs(m, configs))
            again = op(m, sat)
            assert again.transitions == sat.transitions, (rec.seed, op.__name__)
        pds = to_pds(m, phase_closure(m, [rec.initial.phase, rec.target.phase]))
        for op, c in ((pds_prestar, rec.target), (pds_poststar, rec.initial)):
            sat = op(pds, from_configs(m, [c]))
            again = op(pds, sat)
            assert (again.transitions, again.finals) == (sat.transitions, sat.finals), \
                (rec.seed, op.__name__)


def _stats_inputs(rec) -> tuple:
    """The saturations whose `--stats` lines are checked on one draw: pre*
    of the target and post* of the initial configuration, each with up to
    three empty-stack configurations, and pre* of that post*'s result,
    which has eps edges."""
    m = rec.smpds
    empty = [Configuration(c.state, (), c.phase)
             for c in sorted(rec.reach, key=repr)[:3]]
    post_in = from_configs(m, [rec.initial] + empty)
    return ((prestar, from_configs(m, [rec.target] + empty)),
            (poststar, post_in),
            (prestar, poststar(m, post_in)))


def test_stats_count_what_the_saturation_added(corpus, capsys, tmp_path):
    """`smpds --stats prestar|poststar|check` prints the result's transition
    and final counts minus the input's, and the distinct phases on the
    result's initial states, on inputs with empty-stack configurations
    and, for pre*, on post* results with eps edges."""
    fired = {prestar: 0, poststar: 0}
    for rec in corpus:
        m = rec.smpds
        for op, aut in _stats_inputs(rec):
            out = op(m, aut)
            want = {"transitions added": len(out.transitions) - len(aut.transitions),
                    "finals added": len(out.finals) - len(aut.finals),
                    "phases": len({q.phase for q in out.initial_states()})}
            direction = "pre" if op is prestar else "post"
            for command in ((op.__name__,),
                            ("check", "--direction", direction)):
                code, stats = cli_stats(capsys, tmp_path, m, aut, *command,
                                        configs=[rec.initial])
                member = command[0] != "check" or out.accepts(rec.initial)
                assert code == (0 if member else 1), rec.seed
                assert stats.pop("wall seconds") >= 0
                assert stats == want, (rec.seed, command)
            fired[op] += want["finals added"] > 0
    # modifying rules fired on the empty stack in both directions
    assert fired[prestar] and fired[poststar]


def test_check_records_what_stats_prints(corpus, capsys, tmp_path, monkeypatch):
    """The four numbers of the record that `check` returns to the CLI are
    the four lines `smpds --stats check` prints, on the draws of the test
    above; and `check` called on the draw itself gives that record's
    verdict and counts."""
    records = []

    def recorded(*args):
        records.append(check(*args))
        return records[-1]

    monkeypatch.setattr("smpds.cli.check", recorded)
    for rec in corpus:
        m = rec.smpds
        for op, aut in _stats_inputs(rec):
            direction = "pre" if op is prestar else "post"
            code, stats = cli_stats(capsys, tmp_path, m, aut, "check",
                                    "--direction", direction, configs=[rec.initial])
            (answer,) = records
            records.clear()
            assert stats == {"transitions added": answer.transitions_added,
                             "finals added": answer.finals_added,
                             "phases": answer.phases,
                             "wall seconds": float(f"{answer.seconds:.3f}")}, rec.seed
            assert code == (0 if answer.member else 1), rec.seed
            direct = check(m, aut, rec.initial, direction)
            assert (direct._replace(result=None, seconds=0)
                    == answer._replace(result=None, seconds=0)), (rec.seed, direction)


def test_accepts_without_eps_edges_agrees_with_the_closure_path(corpus):
    """`accepts` skips the eps closures on an automaton with no eps edge;
    one eps edge between two fresh states sends the same automaton down
    the closure path without changing its language."""
    with_eps = 0
    for rec in corpus:
        pre = prestar(rec.smpds, from_configs(rec.smpds, [rec.target]))
        post = poststar(rec.smpds, from_configs(rec.smpds, [rec.initial]))
        probes = rec.samples + sorted(rec.reach, key=repr)[:20]
        for aut in (pre, post):
            if aut.has_epsilon():
                # the closure path itself, against enumeration
                with_eps += 1
                accepted = aut.enumerate_configs(SAMPLE_STACK)
                for c in probes:
                    if len(c.stack) <= SAMPLE_STACK:
                        assert aut.accepts(c) == (c in accepted), (rec.seed, c)
                continue
            closed = aut.copy()
            closed.add_transition(Plain("eps-probe-a"), EPS, Plain("eps-probe-b"))
            assert closed.has_epsilon()
            for c in probes:
                assert aut.accepts(c) == closed.accepts(c), (rec.seed, c)
    assert with_eps > 0


def _print_program(prog: Program) -> str:
    """The canonical text form of a program; parse o print is the identity."""
    width = max(len(ins.label) for ins in prog.instructions) + 1
    lines = [f"entry {prog.entry}"]
    for ins in prog.instructions:
        body = " ".join((ins.opcode,) + ins.operands)
        lines.append(f"{ins.label + ':':<{width + 1}} {body}")
    return "\n".join(lines) + "\n"


def test_criterion_10_format_round_trips(corpus):
    for rec in corpus[:50]:
        doc = SmpdsDocument(rec.smpds, {"init": rec.initial.phase},
                            [rec.initial, rec.target])
        text = print_smpds(doc)
        doc2 = parse_smpds(text)
        assert print_smpds(doc2) == text
        assert doc2.smpds.rules == rec.smpds.rules

        sat = poststar(rec.smpds, from_configs(rec.smpds, [rec.initial]))
        atext = print_automaton(sat, doc)
        aut2 = parse_automaton(atext, doc2)
        assert print_automaton(aut2, doc2) == atext
        assert aut2.transitions == sat.transitions

    for path in sorted(SAMPLES.glob("*.sasm")):
        prog = parse_program(path.read_text())
        canon = _print_program(prog)
        reparsed = parse_program(canon)
        assert _print_program(reparsed) == canon
        assert reparsed.entry == prog.entry
        assert [(i.label, i.opcode, i.operands) for i in reparsed.instructions] \
            == [(i.label, i.opcode, i.operands) for i in prog.instructions]
