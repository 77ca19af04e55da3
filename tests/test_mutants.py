"""The mutant gate's anchors, in seconds: every mutant of `mutants.py`
finds its old text exactly once, changes it, and leaves a file that
compiles. The gate itself (`python tests/mutants.py`) is slow and runs
as its own CI job."""

import pytest

from mutants import MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.defect)
def test_mutant_anchor_occurs_once_and_the_mutated_file_compiles(mutant):
    assert mutant.old != mutant.new
    compile(mutant.mutated(), mutant.path, "exec")
