"""Outside-in instrumentation of topocert's public functions.

``install`` replaces each traced function in every ``topocert`` module
namespace that binds it (``fingerprint_of`` is bound in ``cli``,
``fingerprints``, ``certificates`` and the package itself), so calls made
through any import path are seen.  Nothing inside topocert changes.

Two modes:

* ``count`` wraps only ``fingerprint_of`` with a call counter, the item count
  every workload checks.  Its cost is one increment per fingerprint.
* ``trace`` records one span per call of each role below (one per
  ``__next__`` for generators), with its parent span, in flat integer arrays
  kept in memory and written out when the process exits.

A role whose target is missing is reported as absent, never raised.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from array import array
from time import perf_counter_ns

# (role, module, candidate function names, kind).  The first candidate the
# module defines is traced; "gen" roles return iterators and are timed
# through ``__next__``.  ``hasse.type_dedup`` names the public function that
# deduplicates cover types: when that job moves, its new name goes first.
ROLES = (
    ("arrangements.enumerate_types", "arrangements",
     ("enumerate_interval_cover_types",), "gen"),
    ("arrangements.cell_walk", "arrangements", ("hclasses_of_intervals",), "call"),
    ("arrangements.axis2d", "arrangements", ("hclasses_axis2d",), "call"),
    ("hasse.type_dedup", "hasse", ("canonical_key",), "call"),
    ("hasse.hpartition_of_cover", "hasse", ("hpartition_of_cover",), "call"),
    ("hasse.hasse_digraph", "hasse", ("hasse_digraph",), "call"),
    ("spaces.enumerate_covers", "spaces", ("enumerate_covers",), "gen"),
    ("digraphs.canonical_cert", "digraphs", ("canonical_cert",), "call"),
    ("snf.smith_normal_form", "snf", ("smith_normal_form",), "call"),
    ("graphalgebra.block_decomposition", "graphalgebra",
     ("block_decomposition",), "call"),
    ("graphalgebra.k_theory", "graphalgebra", ("k_theory",), "call"),
    ("graphalgebra.prim_space", "graphalgebra", ("prim_space",), "call"),
    ("fingerprints.fingerprint_of", "fingerprints", ("fingerprint_of",), "call"),
    ("fingerprints.collect", "fingerprints", ("collect_fingerprints",), "call"),
    ("certificates.nonhomeo_certificate", "certificates",
     ("nonhomeo_certificate",), "call"),
    ("jsonio.load_input", "jsonio", ("load_input",), "call"),
    ("jsonio.dumps", "jsonio", ("dumps",), "call"),
    ("cli.run", "cli", ("run",), "call"),
)

# Span flags: how a span ended.  Exceptions other than these are OTHER_ERROR.
FLAG_RETURN, FLAG_YIELD, FLAG_STOP, FLAG_NOT_A_COVER, FLAG_OTHER_ERROR = range(5)
_EXC_FLAGS = {"NotACover": FLAG_NOT_A_COVER}

# The process-wide canonical-order cache whose hit ratio is reported.
CACHE = ("digraphs", "_canonical_order_key")


def _topocert_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "topocert" or name.startswith("topocert."))]


def _rebind(old, new) -> None:
    """Point every topocert namespace binding of ``old`` at ``new``."""
    for mod in _topocert_modules():
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


class Recorder:
    """Spans in flat arrays: role, start, end, parent index, end flag."""

    def __init__(self):
        self.role = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.flag = array("q")
        self._open = [-1]
        self.counters = {}

    def open(self, role: int) -> int:
        i = len(self.role)
        self.role.append(role)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self.flag.append(FLAG_RETURN)
        self._open.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int, flag: int) -> None:
        self.end[i] = perf_counter_ns()
        self._open.pop()
        self.flag[i] = flag

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


def _exc_flag(exc: BaseException) -> int:
    return _EXC_FLAGS.get(type(exc).__name__, FLAG_OTHER_ERROR)


class _TracedIter:
    __slots__ = ("_it", "_rec", "_role")

    def __init__(self, it, rec: Recorder, role: int):
        self._it, self._rec, self._role = it, rec, role

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        i = rec.open(self._role)
        try:
            item = next(self._it)
        except StopIteration:
            rec.close(i, FLAG_STOP)
            raise
        except BaseException as exc:
            rec.close(i, _exc_flag(exc))
            raise
        rec.close(i, FLAG_YIELD)
        return item


def _counted(items, rec: Recorder, counter: str):
    for item in items:
        rec.add(counter, 1)
        yield item


# -- per-role side counts; each takes (rec, args, kwargs, result) -------------

def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _subsets_scanned(rec, args, kwargs, _out):
    k = len(_arg(args, kwargs, 0, "space").nonempty_opens)
    n = _arg(args, kwargs, 1, "n")
    rec.add("spaces.subsets_scanned",
            (1 << k) - 1 if n is None else (math.comb(k, n) if n >= 1 else 0))


def _vertices(rec, _args, _kwargs, out):
    rec.add("hasse.vertices", out.n)


def _distinct(rec, _args, _kwargs, out):
    rec.add("fingerprints.distinct", len(out.elements))


def _found(rec, _args, _kwargs, out):
    rec.add("certificates.found", out is not None)


def _bytes_in(rec, args, kwargs, _out):
    rec.add("jsonio.bytes_in", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _bytes_out(rec, _args, _kwargs, out):
    rec.add("jsonio.bytes_out", len(out.encode("utf-8")))


_AFTER = {
    "spaces.enumerate_covers": _subsets_scanned,
    "hasse.hasse_digraph": _vertices,
    "fingerprints.collect": _distinct,
    "certificates.nonhomeo_certificate": _found,
    "jsonio.load_input": _bytes_in,
    "jsonio.dumps": _bytes_out,
}


def _wrap(fn, rec: Recorder, role: int, name: str, kind: str):
    after = _AFTER.get(name)
    counts_input = name == "fingerprints.collect"

    if kind == "gen":
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = _TracedIter(iter(fn(*args, **kwargs)), rec, role)
            if after is not None:
                after(rec, args, kwargs, it)
            return it
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if counts_input and args:
            args = (_counted(args[0], rec, "fingerprints.in"),) + args[1:]
        i = rec.open(role)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(i, _exc_flag(exc))
            raise
        rec.close(i, FLAG_RETURN)
        if after is not None:
            after(rec, args, kwargs, out)
        return out
    return traced


class Probe:
    """What one CLI process reports back to the benchmark."""

    def __init__(self, mode: str):
        if mode not in ("count", "trace"):
            raise ValueError(f"unknown probe mode {mode!r}")
        self.mode = mode
        self.rec = Recorder()
        self.roles = [r[0] for r in ROLES]
        self.absent = []
        self.fingerprints = 0

    def install(self) -> "Probe":
        import topocert.cli  # noqa: F401  (binds every module under test)

        self._install_counter()
        if self.mode == "trace":
            for idx, (name, module, candidates, kind) in enumerate(ROLES):
                fn = self._target(module, candidates)
                if fn is None:
                    self.absent.append(name)
                    continue
                _rebind(fn, _wrap(fn, self.rec, idx, name, kind))
        cache = self._cache()
        if cache is not None:
            cache.cache_clear()
        return self

    def _install_counter(self) -> None:
        fn = self._target("fingerprints", ("fingerprint_of",))
        if fn is None:
            return

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.fingerprints += 1
            return fn(*args, **kwargs)

        _rebind(fn, counted)

    @staticmethod
    def _target(module: str, candidates):
        """The first of ``candidates`` that ``topocert.<module>`` defines."""
        try:
            mod = importlib.import_module(f"topocert.{module}")
        except ImportError:
            return None
        for cand in candidates:
            fn = getattr(mod, cand, None)
            if callable(fn):
                return fn
        return None

    @classmethod
    def _cache(cls):
        fn = cls._target(CACHE[0], (CACHE[1],))
        return fn if hasattr(fn, "cache_info") else None

    def write(self, path: str) -> None:
        """Stats as JSON at ``path``; spans as raw int64 arrays beside it."""
        doc = {"mode": self.mode, "fingerprint_of": self.fingerprints}
        if self.mode == "trace":
            cache = self._cache()
            info = cache.cache_info() if cache is not None else None
            doc.update(
                roles=self.roles,
                absent=self.absent + ([] if info else ["digraphs.cache"]),
                counters=self.rec.counters,
                cache=[info.hits, info.misses] if info else None,
                spans=len(self.rec.role),
            )
            with open(path + ".spans", "wb") as fh:
                for col in (self.rec.role, self.rec.start, self.rec.end,
                            self.rec.parent, self.rec.flag):
                    col.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def read_spans(path: str, count: int):
    """The five span columns written by ``Probe.write``."""
    cols = []
    with open(path + ".spans", "rb") as fh:
        for _ in range(5):
            col = array("q")
            col.fromfile(fh, count)
            cols.append(col)
    return cols
