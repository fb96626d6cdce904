"""CLI outputs compared byte for byte with expected files in tests/golden/.

The expected files were captured before automaton states were interned,
so they pin the printers' canonical order and every saturation's result
independently of set iteration and worklist order.  After a deliberate
change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from smpds.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
MODEL = "samples/example1.smpds"
TARGET = "samples/example1_target.aut"
INITIAL = "tests/golden/example1_initial.aut"
GEN_MODEL = "tests/golden/gen55.smpds"
GEN_AUT = "tests/golden/gen55.aut"

# expected file -> CLI arguments (paths relative to the repository root)
CASES = {
    "example1.prestar": ["prestar", MODEL, TARGET],
    "example1.poststar": ["poststar", MODEL, TARGET],
    "example1.poststar.dot": ["poststar", MODEL, TARGET, "--dot"],
    "example1_initial.poststar": ["poststar", MODEL, INITIAL],
    "example1_initial.poststar.dot": ["poststar", MODEL, INITIAL, "--dot"],
    "example1.enumerate": ["enumerate", MODEL, TARGET, "--max-len", "3"],
    "example1.translate": ["translate", MODEL],
    "example1.translate_symbolic": ["translate", MODEL, "--symbolic"],
    # a generated post* instance whose result has eps edges and gen: states
    "gen55.poststar": ["poststar", GEN_MODEL, GEN_AUT],
    "gen55.poststar.dot": ["poststar", GEN_MODEL, GEN_AUT, "--dot"],
    "gen55.prestar": ["prestar", GEN_MODEL, GEN_AUT],
}


def _run(args: list[str]) -> str:
    argv = [str(ROOT / a) if a.startswith(("samples/", "tests/")) else a
            for a in args]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.out").read_text()
    assert _run(CASES[name]) == expected


def test_generated_instance_has_eps_edges_and_generated_states():
    text = (GOLDEN / "gen55.poststar.out").read_text()
    assert " eps " in text and "gen:" in text


if __name__ == "__main__":
    for name, args in CASES.items():
        (GOLDEN / f"{name}.out").write_text(_run(args))
        print(f"wrote {name}.out")
