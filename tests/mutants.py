"""Hand-written mutants of the exhaustive side, kept as a standing check.

Each mutant is (module, exact old text, new text, what it breaks): the old
text of ``src/topocert/<module>.py`` is replaced by the new one.  Run from
anywhere, with no arguments:

    python tests/mutants.py

For each mutant the tree is copied into a temporary directory, the mutant is
applied there, and Tier-1 runs in the copy with ``-x``.  A mutant is killed
when a test fails, and the first failing test is reported; a survivor is a
test gap, or the mutant is equivalent and the code it touches can go.  The
exit status is 1 when a mutant survives.  This is not part of Tier-1, which
checks only that each old text occurs exactly once in ``src``
(``tests/test_mutants.py``), so a refactor that moves the code has to move
the mutant too.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    breaks: str


MUTANTS = (
    # the sweep
    Mutant("arrangements", "range(0 if across < active else 1, n - made + 1)",
           "range(1, n - made + 1)",
           "the sweep has no slot that only ends members"),
    Mutant("arrangements", "if made == n and all(not g & g - 1 for g in groups):",
           "if made == n:",
           "the sweep stops while two open members share a start"),
    Mutant("arrangements", "range(0 if across < active else 1, n - made + 1)",
           "range(0 if across < active else 1, min(n - made, 1) + 1)",
           "the sweep starts at most one member a slot"),
    Mutant("arrangements", "for k in range(n, 0, -1):",
           "for k in range(n - 1, 0, -1):",
           "the sweep has no start group of all n members"),
    Mutant("arrangements", "        for i in class_members(cells[k + 1] - point, n):\n"
                           "            first[i] = k + 1",
           "        for i in class_members(cells[k + 1] - point, n):\n"
           "            first[i] = k",
           "_member_cells puts each start one cell left, on the point"),
    # the mirror
    Mutant("arrangements", "            seen.add(labelled)\n", "",
           "the mirror merge marks the mirror but not the set"),
    Mutant("arrangements", "(2 << last) - (1 << first)", "(1 << last) - (1 << first)",
           "_mirror's member masks stop one cell short"),
    # walks and classes
    Mutant("arrangements", "cells = range(1, top - 1)", "cells = range(1, top)",
           "a segment cover keeps the cell of its right end, which no member has"),
    Mutant("hasse", "change = (m ^ m << 1) & full", "change = (m ^ m >> 1) & full",
           "cell_classes flips a member's bit on the wrong side of a change"),
    Mutant("hasse", "m = m >> cells.start & full", "m = m & full",
           "cell_classes ignores where its range of cells starts"),
    Mutant("hasse", "covers = inside & ~reach", "covers = inside",
           "hasse_edges keeps transitive edges"),
    Mutant("spaces", "last - (n - size - 1)", "last - (n - size)",
           "enumerate_covers leaves one open too few for the members still to come"),
    # the canonicaliser and what reads it
    Mutant("digraphs", "sigs = [sorted(map(get, out[v])) for v in cell]",
           "sigs = [sorted(map(get, inc[v])) for v in cell]",
           "_refine signs sources by their in-colours"),
    Mutant("digraphs", "pieces.sort(key=lambda p: (p[0], p[1], p[2]))",
           "pieces.sort(key=lambda p: (p[1], p[2]))",
           "canonical_form orders components without their size"),
    Mutant("digraphs", "if relabel(g1, [mapping[v] for v in range(g1.n)]) != g2:",
           "if False:",
           "is_isomorphic returns its witness unchecked"),
    Mutant("digraphs", "    return finished[::-1], None", "    return finished, None",
           "the depth-first walk returns its finish order unreversed"),
    Mutant("digraphs", "            if at < 0:\n                return None\n", "",
           "the level pass reads an in-neighbour it has not passed yet"),
    Mutant("fingerprints", "    check_vertices(len(partition.classes), cap_vertices)\n"
                           "    g = hasse_digraph(partition)\n",
           "    g = hasse_digraph(partition)\n"
           "    check_vertices(len(partition.classes), cap_vertices)\n",
           "fingerprint_of checks the cap after the Hasse digraph is built"),
    # the replay
    Mutant("certificates", "replay._replace(version=cert.version) == cert",
           "replay.witness_fingerprint == cert.witness_fingerprint",
           "verify_certificate compares only the witness fingerprint"),
    Mutant("certificates", "if not (_is_count(cert.n) and cert.level in LEVELS",
           "if False and (_is_count(cert.n) and cert.level in LEVELS",
           "verify_certificate replays a certificate whose fields it has not checked"),
)


def run_mutant(mutant: Mutant) -> tuple:
    """(killed, the first failing test or the last line of the run) for one
    mutant, applied to a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="topocert-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work"))
        path = copy / "src" / "topocert" / f"{mutant.module}.py"
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.module} does not hold {mutant.old!r} once")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        # the copy's package is the one its tests import
        where = subprocess.run(
            [sys.executable, "-c", f"import topocert.{mutant.module} as m; print(m.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True, check=True).stdout
        if Path(where.strip()) != path:
            raise RuntimeError(f"the copy imports {where.strip()}, not {path}")
        done = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                              capture_output=True, text=True)
    lines = done.stdout.splitlines()
    # "FAILED <test id> - <message>"; a golden call's test id has spaces
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode == 0:
        return False, lines[-1] if lines else ""
    return True, failed[0] if failed else f"exit {done.returncode}"


def main() -> int:
    survivors, start = 0, time.perf_counter()
    for i, mutant in enumerate(MUTANTS, 1):
        began = time.perf_counter()
        killed, detail = run_mutant(mutant)
        survivors += not killed
        print(f"{i:2} {'killed  ' if killed else 'SURVIVED'} {mutant.module}: "
              f"{mutant.breaks} ({time.perf_counter() - began:.1f} s)\n"
              f"   {'by ' if killed else ''}{detail}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
