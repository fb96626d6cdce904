"""A standing mutant gate: planted faults that the tests must catch.

Each entry of `MUTANTS` plants one fault: it replaces `old`, which occurs
exactly once in `file` (`tests/test_mutants.py` checks that in tier-1),
with `new`, and names the test node that must fail on the result.

    python tests/mutants.py

runs every mutant.  It first runs every named node on a clean copy of
the tree, where each must pass and none may skip.  Then, one mutant at a
time, it copies the tree to a temporary directory, plants the mutant and
runs its node there:

    python -X dev -m pytest -q -x -p no:cacheprovider NODE

with `PYTHONPATH=src`, under conftest's time limit and a 2 GB address
space limit (`RLIMIT_AS`), set in the child only.  A nonzero exit kills
the mutant; a kill by the time limit or by `MemoryError` is reported
apart.  The runner exits 1 if the clean run fails or a mutant survives.
The tree is the files git tracks or would track (`git ls-files`), as they
stand in the working tree.

A mutant whose code changes must change with it, in the same change; a
mutant leaves the list only with its code.  Equivalent mutants stay out:
post* keying a generated state by the initial state's phase instead of
the rule's target phase changes nothing, because only plain rules push
two or more symbols, and a plain rule keeps the phase.

This is mutation analysis: DeMillo, Lipton and Sayward, "Hints on test
data selection" (IEEE Computer, 1978).
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# the address space of each pytest child: a fault that allocates without
# end fails with `MemoryError` long before the time limit
MEMORY_LIMIT = 2 << 30
# a limit on a whole child, which conftest's per-test limit does not
# cover outside the tests
WALL_LIMIT_S = 300

CRITERION_2 = "tests/test_acceptance.py::test_criterion_2_prestar_vs_oracle"
CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_poststar_vs_oracle"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    node: str
    why: str


MUTANTS = [
    # -- pre* ------------------------------------------------------------
    Mutant("prestar-seed-not-live", "src/smpds/prestar.py",
           "        if init not in live:\n            make_live(init)\n"
           "        ends = pending_g.setdefault(init, set())\n",
           "        ends = pending_g.setdefault(init, set())\n",
           CRITERION_2,
           "a state's first reading fact must fire the pop rules into it"),
    Mutant("prestar-wait-skips-on-overlap", "src/smpds/prestar.py",
           "                    elif group <= known:\n",
           "                    elif group & known:\n",
           "tests/test_prestar.py::"
           "test_prestar_moves_on_the_new_members_of_a_group_that_partly_waits",
           "a group moves on unless every member already waits at the key"),
    Mutant("prestar-pop-loses-eps-closure", "src/smpds/prestar.py",
           "for p, theta, g in moves], close(bit(q)),",
           "for p, theta, g in moves], bit(q),",
           "tests/test_golden.py::test_output_matches_golden[gen55.poststar.prestar]",
           "a pop rule into q reaches every state of q's eps closure"),
    Mutant("prestar-empty-stack-final-not-passed", "src/smpds/prestar.py",
           "                result.add_final(src)\n                todo.append(src)\n",
           "                todo.append(src)\n",
           CRITERION_2,
           "a modifying rule into an accepted empty stack accepts its source's"),
    Mutant("prestar-contract-ignores-new-finals", "src/smpds/prestar.py",
           "            or len(result.finals) > len(aut.finals)):\n",
           "            or False):\n",
           "tests/test_cli.py::test_edge_into_an_initial_state_that_saturation_extends_exit_2",
           "a new final behind an edge into an initial state breaks the input contract"),
    Mutant("prestar-eps-pred-needs-three-states", "src/smpds/prestar.py",
           "            if len(cl) > 1:\n",
           "            if len(cl) > 2:\n",
           "tests/test_prestar.py::"
           "test_prestar_answers_edges_into_initial_states_only_when_unchanged",
           "a state with one eps edge reads the facts of its eps target"),
    # -- post* -----------------------------------------------------------
    Mutant("poststar-empty-stack-rule-dropped", "src/smpds/poststar.py",
           "            if delta & finals:\n",
           "            if False:\n",
           CRITERION_3,
           "a modifying rule fires on the empty stack too"),
    Mutant("poststar-empty-stack-links-every-eps-target", "src/smpds/poststar.py",
           "in mod_successors(src.control, src.phase)], delta & finals,",
           "in mod_successors(src.control, src.phase)], delta,",
           "tests/test_acceptance.py::test_criterion_9_fixpoint_idempotence",
           "only a final eps target accepts the empty stack"),
    Mutant("poststar-generated-by-first-symbol", "src/smpds/poststar.py",
           "gen = generated[p, word[:k], theta]",
           "gen = generated[p, word[:1], theta]",
           "tests/test_golden.py::test_output_matches_golden[wide.poststar]",
           "a generated state is named by the whole pushed prefix"),
    Mutant("poststar-eps-join-keeps-the-last-mid", "src/smpds/poststar.py",
           "joined[symbol] = joined.get(symbol, 0) | targets",
           "joined[symbol] = targets",
           CRITERION_3,
           "an eps edge into several mids reads the targets of every one"),
    Mutant("poststar-push-drops-its-middle", "src/smpds/poststar.py",
           "            for k in range(1, len(word)):\n",
           "            for k in range(1, min(len(word), 2)):\n",
           "tests/test_poststar.py::test_poststar_takes_pushes_of_any_length",
           "a push of three symbols chains through a generated state per prefix; "
           "the corpus of criterion 3 pushes at most two"),
    # -- model -----------------------------------------------------------
    Mutant("model-intern-table-does-not-store", "src/smpds/model.py",
           "        value = self[key] = self.make(key)\n",
           "        value = self.make(key)\n",
           CRITERION_2,
           "an intern table that does not store breaks identity, and the run "
           "allocates without end: killed by MemoryError"),
    Mutant("model-guard-lacks-own-bit", "src/smpds/model.py",
           "self.mod_bits[rid] = (_BITS[rid] | removed, removed,",
           "self.mod_bits[rid] = (removed, removed,",
           "tests/test_asm.py::test_a_selfmod_cancels_a_later_selfmods_patch",
           "a modifying rule fires only in a phase that holds it"),
    Mutant("model-partial-guard-fires", "src/smpds/model.py",
           "                if mask & guard == guard]\n",
           "                if mask & guard]\n",
           CRITERION_3,
           "a modifying rule needs itself and its removed rule in the phase"),
    Mutant("model-predecessor-lacks-added-bit", "src/smpds/model.py",
           "return (pred,) if guard & added else (pred, pred ^ added)",
           "return (pred,)",
           CRITERION_2,
           "a predecessor phase may lack the added rule"),
    Mutant("model-self-swap-predecessor-ignores-the-guard", "src/smpds/model.py",
           "        return (mask,) if mask & guard == guard else ()\n",
           "        return (mask,)\n",
           "tests/test_self_removal.py::test_self_removing_rules_agree_with_the_oracle",
           "a rule that swaps a rule for itself fires only where its guard holds"),
    Mutant("model-mod-successor-keeps-the-removed-bit", "src/smpds/model.py",
           "return [(r.to_state, phase[(mask ^ removed) | added])",
           "return [(r.to_state, phase[mask | added])",
           "tests/test_acceptance.py::test_criterion_1_golden_replay",
           "an empty-stack move drops the removed rule from the phase"),
    Mutant("collector-paused-turns-on-an-off-collector", "src/smpds/model.py",
           "        if not gc.isenabled():\n            return fn(*args, **kwargs)\n",
           "",
           "tests/test_automaton.py::"
           "test_the_paused_calls_leave_the_collector_as_they_found_it[off]",
           "a collector that was off at entry stays off"),
    Mutant("collector-paused-not-restored-on-a-raise", "src/smpds/model.py",
           "        try:\n            return fn(*args, **kwargs)\n"
           "        finally:\n            gc.enable()\n",
           "        result = fn(*args, **kwargs)\n        gc.enable()\n"
           "        return result\n",
           "tests/test_automaton.py::"
           "test_the_paused_calls_leave_the_collector_as_they_found_it[on]",
           "a call that raises turns the collector back on too"),
    Mutant("validate-skips-the-added-id", "src/smpds/model.py",
           "            for ref in (r.removed, r.added):\n",
           "            for ref in (r.removed,):\n",
           "tests/test_cli.py::test_invalid_model_never_saturates[command0]",
           "a modifying rule may add no undeclared rule id"),
    # -- formats and the question pipeline ---------------------------------
    Mutant("phase-line-loses-its-first-id", "src/smpds/formats.py",
           "        model.phase_lines[name] = (lineno, ids)\n",
           "        model.phase_lines[name] = (lineno, ids[1:])\n",
           "tests/test_acceptance.py::test_criterion_10_format_round_trips",
           "a phase line names every id it lists"),
    Mutant("bulk-parse-misses-one-duplicate-id", "src/smpds/formats.py",
           "    if (len(rules) < len(ids) or",
           "    if (len(rules) < len(ids) - 1 or",
           "tests/test_formats.py::test_parse_errors_carry_line_numbers"
           "[rule 0: p a -> q\\nrule 0: p a -> q\\n-duplicate]",
           "two rule lines with one id are an error"),
    Mutant("load-skips-the-automaton-phase-check", "src/smpds/formats.py",
           "                 if not doc.smpds.knows(phase)]\n",
           "                 if False]\n",
           "tests/test_cli.py::test_undeclared_phase_ids_rejected[prestar]",
           "an automaton phase may name no undeclared rule id"),
    Mutant("check-takes-a-negative-config-index", "src/smpds/cli.py",
           "    if not 0 <= args.config < len(doc.configs):\n",
           "    if not args.config < len(doc.configs):\n",
           "tests/test_cli.py::test_check_config_out_of_range_exit_2[-1]",
           "--config counts config lines from 0, not from the end"),
    # -- automaton -------------------------------------------------------
    Mutant("automaton-states-of-off-by-one", "src/smpds/automaton.py",
           "return [self._order[mask.bit_length() - 1]] if mask else []",
           "return [self._order[mask.bit_length() - 2]] if mask else []",
           CRITERION_2,
           "the one-bit path of states_of decodes the bit's own state"),
    Mutant("automaton-insert-keeps-stale-eclosure", "src/smpds/automaton.py",
           "                eclosure.clear()\n",
           "",
           "tests/test_automaton.py::"
           "test_insert_merges_in_place_opens_new_keys_and_queues_only_new_bits",
           "an eps edge merged into a stored key changes the eps closures"),
    Mutant("automaton-insert-keeps-stale-steps", "src/smpds/automaton.py",
           "            if steps:\n                steps.clear()\n",
           "",
           "tests/test_automaton.py::test_stepping_queries_see_the_edge_after_every_insert_path",
           "every insert changes what a stepping query sees"),
    # -- translate -------------------------------------------------------
    Mutant("closure-count-lacks-product-factor", "src/smpds/translate.py",
           "count = count * len(part) + part_count * len(product)",
           "count = count * len(part) + part_count",
           "tests/test_cli.py::test_translate_counts_are_the_printed_rules[groups.smpds]",
           "each mask of a part is counted once per phase of the rest of the product"),
    Mutant("closure-product-from-zero", "src/smpds/translate.py",
           "        product = [seed & untouched]\n",
           "        product = [0]\n",
           "tests/test_acceptance.py::test_criterion_4_single_step_equivalence",
           "the closure keeps the seed's bits that no modifying rule touches"),
    Mutant("closure-group-searches-forwards-only", "src/smpds/translate.py",
           "            stack += predecessor_masks(mask, guard, removed, added)\n",
           "",
           "tests/test_classical_reference.py::"
           "test_classical_saturations_match_the_reference_on_the_translated_family",
           "a group's closure holds the phases that lead to the seed too"),
    Mutant("paired-rules-skip-the-removed-rule-test", "src/smpds/translate.py",
           "            elif r is not None and r.removed in theta:\n",
           "            elif r is not None:\n",
           "tests/test_acceptance.py::test_criterion_4_single_step_equivalence",
           "a modifying rule is paired only in a phase that holds its removed rule"),
    Mutant("to-pds-takes-another-systems-closure", "src/smpds/translate.py",
           "if not (isinstance(phases, ClosedPhases) and phases.smpds is smpds):",
           "if not isinstance(phases, ClosedPhases):",
           "tests/test_translate.py::test_to_pds_takes_a_closure_of_its_own_system_as_it_is",
           "a closure carries the mask bits and the count of its own system only"),
]


def _tree() -> list[str]:
    """The files git tracks or would track, as paths from the root."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout
    return [name for name in listed.decode().split("\0") if name]


def _copy_tree(files: list[str], dest: Path) -> None:
    for name in files:
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(tree: Path, nodes: list[str]) -> tuple[int | None, str]:
    """Run `nodes` in `tree`; the exit code (None past the wall limit)
    and the output."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-x",
            "-p", "no:cacheprovider", *nodes]
    try:
        run = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                             text=True, timeout=WALL_LIMIT_S,
                             preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired as e:
        return None, (e.stdout or "") + (e.stderr or "")
    return run.returncode, run.stdout + run.stderr


def _verdict(code: int | None, output: str) -> str:
    if code is None or "Timeout (0:" in output:
        return "killed by the time limit"
    if "MemoryError" in output:
        return "killed by MemoryError"
    return f"killed (exit {code})" if code else "SURVIVED"


def main() -> int:
    files = _tree()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(files, clean)
        nodes = list(dict.fromkeys(m.node for m in MUTANTS))
        start = time.perf_counter()
        code, output = _pytest(clean, nodes)
        print(f"clean tree: {len(nodes)} nodes, exit {code}, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        if code != 0 or " skipped" in output:
            print(output)
            return 1
        survivors = []
        for m in MUTANTS:
            tree = Path(scratch) / m.name
            _copy_tree(files, tree)
            path = tree / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: its old text does not occur once in {m.file}")
                return 1
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            code, output = _pytest(tree, [m.node])
            verdict = _verdict(code, output)
            print(f"{m.name}: {verdict}, {time.perf_counter() - start:.1f} s",
                  flush=True)
            if verdict == "SURVIVED":
                survivors.append(m.name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed",
          *survivors)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
