"""The mutant list of `tests/mutants.py` stays in step with the code: a
change that edits mutated code fails here until it updates the list.
The mutants themselves run in `python tests/mutants.py`, not in tier-1."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_plants_one_change_in_code_that_exists(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.why
    # the node names a test file, or a test function of one, with or
    # without a parameter id
    path, _, name = mutant.node.partition("::")
    assert Path(path).parts[0] == "tests"
    test_file = (ROOT / path).read_text()
    assert not name or f"def {name.partition('[')[0]}(" in test_file
