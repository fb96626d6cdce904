"""Hand-built example systems shared across the test modules, the pools
of the benchmark workloads with a multi-phase pre* target for their
instances, and a runner for the statistics that `smpds --stats` prints."""

from __future__ import annotations

from smpds import from_configs
from smpds.cli import main
from smpds.formats import SmpdsDocument, print_automaton, print_smpds
from smpds.model import Configuration, PdsRule, Phase, SelfModRule, SMPDS
from smpds.poststar import poststar

# the pools of the three benchmark workloads: (states, symbols, rules,
# modifying rules, seed), drawn at full size
PRE_WIDE_FAMILY = [(8, 8, 1009, 10, seed) for seed in range(1, 9)]
POST_FANOUT_FAMILY = [(4, 4, 54, 4, 2), (4, 4, 40, 5, 3), (4, 4, 47, 4, 4),
                      (4, 4, 47, 4, 10), (4, 4, 54, 4, 14), (4, 4, 47, 5, 31)]
TRANSLATED_FAMILY = [(8, 8, 60, 4, 3), (8, 8, 67, 4, 4), (8, 8, 74, 4, 5),
                     (8, 8, 60, 4, 6), (8, 8, 67, 4, 7), (8, 8, 60, 4, 9),
                     (8, 8, 67, 4, 10), (8, 8, 60, 4, 12)]


def swap_example() -> tuple[SMPDS, Phase, Phase, Configuration]:
    """The worked example from samples/example1.smpds.

    Rule 4 swaps rule 1 out for rule 3; the canonical 5-step run from
    (<p1, g1 g1>, theta0) ends in (<p3, g3 g1>, theta1).
    """
    rules = {
        1: PdsRule("p1", "g1", "p2", ("g2", "g1")),
        2: PdsRule("p2", "g2", "p3", ()),
        3: PdsRule("p4", "g1", "p2", ("g2", "g3")),
        4: SelfModRule("p3", 1, 3, "p4"),
    }
    m = SMPDS({"p1", "p2", "p3", "p4"}, {"g1", "g2", "g3"}, rules)
    theta0 = Phase.of([1, 2, 4])
    theta1 = Phase.of([2, 3, 4])
    return m, theta0, theta1, Configuration("p1", ("g1", "g1"), theta0)


# the canonical run of swap_example, one configuration per step
SWAP_TRACE = [
    ("p1", ("g1", "g1"), (1, 2, 4)),
    ("p2", ("g2", "g1", "g1"), (1, 2, 4)),
    ("p3", ("g1", "g1"), (1, 2, 4)),
    ("p4", ("g1", "g1"), (2, 3, 4)),
    ("p2", ("g2", "g3", "g1"), (2, 3, 4)),
    ("p3", ("g3", "g1"), (2, 3, 4)),
]


def pop_chain_example() -> tuple[SMPDS, Phase, Phase]:
    """Backward-analysis example: a swap enables a pop chain.

    From phase theta0 the system can reach p3 (via rules 2 and 3) where
    smrule 6 swaps rule 1 in for rule 5, reaching phase theta1.
    """
    rules = {
        1: PdsRule("p5", "g2", "p5", ("g2", "g2")),       # inert in theta0
        2: PdsRule("p5", "g1", "p2", ("g2", "g0")),
        3: PdsRule("p2", "g2", "p3", ()),
        4: PdsRule("p4", "g0", "p0", ()),
        5: PdsRule("p1", "g1", "p4", ("g0",)),
        6: SelfModRule("p3", 5, 1, "p4"),
    }
    m = SMPDS({"p0", "p1", "p2", "p3", "p4", "p5"},
              {"g0", "g1", "g2"}, rules)
    theta0 = Phase.of([2, 3, 4, 5, 6])
    theta1 = Phase.of([1, 2, 3, 4, 6])
    return m, theta0, theta1


def push_loop_example() -> tuple[SMPDS, Phase, Phase, Configuration]:
    """Forward-analysis example: a swap redirects a push loop.

    Rule 6 swaps rule 3 out for rule 5 once control reaches p3.
    """
    rules = {
        1: PdsRule("p0", "g0", "p1", ("g1", "g0")),
        2: PdsRule("p1", "g1", "p2", ("g2", "g1")),
        3: PdsRule("p2", "g2", "p3", ("g0",)),
        4: PdsRule("p4", "g0", "p1", ()),
        5: PdsRule("p2", "g2", "p4", ("g1",)),
        6: SelfModRule("p3", 3, 5, "p4"),
    }
    m = SMPDS({"p0", "p1", "p2", "p3", "p4"}, {"g0", "g1", "g2"}, rules)
    theta0 = Phase.of([1, 2, 3, 4, 6])
    theta1 = Phase.of([1, 2, 4, 5, 6])
    return m, theta0, theta1, Configuration("p0", ("g0",), theta0)


def wide_enable_example() -> tuple[SMPDS, Configuration, Configuration]:
    """A modifying rule enables a rule that pushes three symbols.

    Smrule 2 swaps rule 1 out for rule 0, so from (<s, a>, {1,2}) the run
    reaches (<p, a>, {0,2}) and, by rule 0, (<q, b b b>, {0,2}).  Splitting
    rule 0 into a chain of two-symbol rules loses that configuration: the
    chain's tail has a fresh id that no phase holds.
    """
    rules = {
        0: PdsRule("p", "a", "q", ("b", "b", "b")),
        1: PdsRule("q", "a", "q", ()),
        2: SelfModRule("s", 1, 0, "p"),
    }
    m = SMPDS({"p", "q", "s"}, {"a", "b"}, rules)
    return (m, Configuration("s", ("a",), Phase.of([1, 2])),
            Configuration("q", ("b", "b", "b"), Phase.of([0, 2])))


def multi_phase_target(inst) -> Configuration:
    """`inst.target`'s control point and stack at the smallest phase (fewest
    ids, then sorted ids) of the initial states of post* from
    `inst.initial`.  The generated target sits at the all-rules phase,
    where pre* stays in one phase; pre* of this one can run back through
    the phases that lead to it."""
    m = inst.smpds
    reached = poststar(m, from_configs(m, [inst.initial]))
    phase = min((q.phase for q in reached.initial_states()),
                key=lambda theta: (len(theta), tuple(theta)))
    return Configuration(inst.target.state, inst.target.stack, phase)


def cli_stats(capsys, tmp_path, smpds, aut, command, *options,
              configs=()) -> tuple[int, dict[str, float]]:
    """Write `smpds` (with `configs`) and `aut` to files, run `smpds --stats
    COMMAND MODEL AUTOMATON OPTIONS` on them, and return its exit code and
    the numbers it prints to stderr, by name."""
    doc = SmpdsDocument(smpds, {}, list(configs))
    model, automaton = tmp_path / "stats.smpds", tmp_path / "stats.aut"
    model.write_text(print_smpds(doc))
    automaton.write_text(print_automaton(aut, doc))
    capsys.readouterr()
    code = main(["--stats", command, str(model), str(automaton), *options])
    lines = capsys.readouterr().err.splitlines()
    return code, {name: float(value)
                  for name, value in (line.split(": ") for line in lines)}
