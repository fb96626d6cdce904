"""The mask bits that a process has already handed out change no answer,
at the size of the benchmark pools.

A rule id's mask bit is handed out on its first sight in the process
(`model.rule_bit`), so one id sits at a different bit in a process that
has loaded other models first.  Two fresh interpreters ask the same
questions through `check`: pre* and post* of each `post_fanout` and
`translated` instance, and pre* of two `pre_wide`-sized systems, as in
`tests/test_renaming.py`.  One of them first parses other models: each
of those instances renamed onto `test_renaming`'s id pool, which takes
the low bits, then a `pre_wide`-sized model with its rule lines
reversed, which hands the original ids the next bits in descending id
order.  Every original id then sits at another bit, and the bit order no
longer follows the id order; the verdicts, the phase counts, the
configurations of stack depth at most 2 that each result accepts and
the bytes of each printed result must still be equal.

Of the mutant gate's faults it kills `poststar-eps-join-keeps-the-last-mid`:
which eps target the faulty join keeps depends on the order of the
automaton's states, which follows the order in which rules fire, which
follows their bits, so the two printed results differ.
"""

import json
import subprocess
import sys
from pathlib import Path

from smpds.bench import GenParams, generate
from smpds.formats import SmpdsDocument, print_smpds

from fixtures import POST_FANOUT_FAMILY, TRANSLATED_FAMILY
from test_renaming import PRE_WIDE_SIZED, Renaming

POOLS = POST_FANOUT_FAMILY + TRANSLATED_FAMILY + PRE_WIDE_SIZED
# the wall time of both interpreters, which take about 0.8 s under -X dev
CHILD_LIMIT_S = 30

# run in a fresh interpreter: reads the questions and the model texts to
# parse first from the JSON file named by its argument, and prints the
# answers and the bit position of each id the questions' models hold
CHILD = """
import hashlib, json, sys
from smpds import check, from_configs
from smpds.bench import GenParams, generate
from smpds.formats import SmpdsDocument, parse_smpds, print_automaton
from smpds.model import _BITS

with open(sys.argv[1], encoding="utf-8") as f:
    job = json.load(f)
for text in job["preload"]:
    parse_smpds(text)
answers, ids = [], set()
for (*sizes, seed), directions in job["questions"]:
    inst = generate(GenParams(*sizes, seed=seed))
    m = inst.smpds
    ids.update(m.rules)
    doc = SmpdsDocument(m, {}, [])
    for direction in directions:
        source, asked = ((inst.target, inst.initial) if direction == "pre"
                         else (inst.initial, inst.target))
        a = check(m, from_configs(m, [source]), asked, direction)
        accepted = sorted((c.state, c.stack, repr(c.phase))
                          for c in a.result.enumerate_configs(2))
        answers.append([seed, direction, a.member, a.phases, len(accepted),
                        hashlib.sha256(repr(accepted).encode()).hexdigest(),
                        hashlib.sha256(print_automaton(a.result, doc).encode()).hexdigest()])
print(json.dumps({"answers": answers,
                  "bits": {rid: _BITS[rid].bit_length() - 1 for rid in sorted(ids)}}))
"""


def _preload() -> list[str]:
    """The model texts parsed first: each pool instance renamed onto
    `test_renaming`'s id pool, then a `pre_wide`-sized model with its
    rule lines reversed."""
    texts = []
    for *sizes, seed in POOLS:
        r = Renaming(generate(GenParams(*sizes, seed=seed)).smpds, seed)
        texts.append(print_smpds(SmpdsDocument(r.smpds, {}, [])))
    *sizes, seed = PRE_WIDE_SIZED[0]
    text = print_smpds(SmpdsDocument(generate(GenParams(*sizes, seed=seed)).smpds, {}, []))
    texts.append("".join(reversed(text.splitlines(keepends=True))))
    return texts


def _start(job: dict, path: Path) -> subprocess.Popen:
    """A fresh interpreter, under this one's dev mode and warning options
    and with a fixed string hash, so that only the bits tell the two runs
    apart, running `CHILD` on `job`, written to `path`."""
    path.write_text(json.dumps(job), encoding="utf-8")
    flags = [*(["-X", "dev"] if sys.flags.dev_mode else []),
             *(f"-W{option}" for option in sys.warnoptions)]
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.Popen([sys.executable, *flags, "-c", CHILD, str(path)],
                            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "0"},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_answers_do_not_depend_on_the_bits_handed_out_before(tmp_path):
    # post* is unbounded on the `pre_wide`-sized systems
    questions = [[params, ["pre"] if params in PRE_WIDE_SIZED else ["pre", "post"]]
                 for params in POOLS]
    # the two interpreters run side by side, and neither outlives the test
    with (_start({"questions": questions, "preload": []}, tmp_path / "plain.json")
          as first,
          _start({"questions": questions, "preload": _preload()},
                 tmp_path / "preload.json") as second):
        runs = [first, second]
        try:
            outputs = [run.communicate(timeout=CHILD_LIMIT_S) for run in runs]
        finally:
            for run in runs:
                run.kill()
    assert [run.returncode for run in runs] == [0, 0], outputs
    plain, preloaded = (json.loads(out) for out, _ in outputs)
    # every original id sits at another bit, and the bit order is not the
    # id order
    assert plain["bits"].keys() == preloaded["bits"].keys()
    assert all(plain["bits"][rid] != preloaded["bits"][rid] for rid in plain["bits"])
    order = sorted(preloaded["bits"], key=preloaded["bits"].__getitem__)
    assert order != sorted(order, key=int)
    # one answer per question, a member verdict among them
    assert len(plain["answers"]) == sum(len(directions) for _, directions in questions)
    assert any(member for _, _, member, *_ in plain["answers"])
    assert plain["answers"] == preloaded["answers"]
