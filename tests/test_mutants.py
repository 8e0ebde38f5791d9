"""The mutants of ``tests/mutants.py`` still apply: each old text occurs
exactly once in ``src``, in the module the mutant names, so a refactor that
moves the code has to move the mutant with it."""

import pytest

from mutants import MUTANTS, ROOT

SOURCES = {path.stem: path.read_text()
           for path in sorted((ROOT / "src" / "topocert").glob("*.py"))}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.module}: {m.breaks}")
def test_old_text_occurs_once_in_src(mutant):
    assert [name for name, text in SOURCES.items()
            for _ in range(text.count(mutant.old))] == [mutant.module]
    assert mutant.new != mutant.old


def test_mutants_are_distinct():
    assert len({(m.module, m.old, m.new) for m in MUTANTS}) == len(MUTANTS)
