"""Span tracing of hyporb's public functions, installed from outside the package.

``Tracer.install`` wraps the public functions of ``maps``, ``models``,
``bounds``, ``orbifolds``, ``certify``, ``homotopy`` and ``cli``.  Several
modules import functions by name (``cli`` imports ``expansion_certificate``,
``certify`` imports ``boundary_set``, ``homotopy`` imports
``cone_circle_length``), so each wrapper replaces the original in every
``hyporb`` namespace that holds it, not only in its defining module.

A span is ``[name, start, end, parent, pass_id, error]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``error`` the exception class
name when the call raised.  Spans stay in memory until ``write`` is called.
Hot, cheap functions are counted, not spanned, to keep the overhead low.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, function, extra counter name, extractor(args, result) -> number)
SPANNED = (
    ("maps", "postsingular_truncation", None, None),
    ("maps", "pullback_curve", "inserted", lambda a, r: len(r.vertices) - len(a[1].vertices)),
    ("orbifolds", "boundary_set", "points", lambda a, r: len(r)),
    ("orbifolds", "build_associated_orbifold", None, None),
    ("orbifolds", "find_repelling_cycle", None, None),
    ("orbifolds", "find_absorbing_disc", None, None),
    ("orbifolds", "separation_report", None, None),
    ("orbifolds", "check_covering_relation", None, None),
    ("certify", "certified_curve_length", None, None),
    ("certify", "expansion_certificate", None, None),
    ("certify", "annulus_uniformity_scan", None, None),
    ("certify", "pullback_shrinking_experiment", None, None),
    ("bounds", "verify_bound_chain", "samples", lambda a, r: len(r.samples)),
    ("bounds", "lambda_table", None, None),
    ("homotopy", "build_representative", "vertices", lambda a, r: len(r.vertices)),
    ("homotopy", "winding_class", None, None),
    ("cli", "main", None, None),
)
COUNTED = (
    ("maps", "inverse_step"),
    ("bounds", "lambda_lower"),
    ("models", "cone_circle_length"),
    ("models", "cone_density"),
)
# MarkedOrbifold methods, counted as orbifolds.<name>.calls
METHODS = ("ramification", "contains")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []  # (setter, object, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn, extra: str | None, extractor):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                counts[self.pass_id][f"{name}.{extra}"] += extractor(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.pass_id][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyporb" or mod_name.startswith("hyporb.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._restore.append((setattr, mod, attr, orig))

    def install(self) -> None:
        import hyporb.cli  # noqa: F401 - loads every module that imports by name
        from hyporb import maps, orbifolds

        for mod_name, fn_name, extra, extractor in SPANNED:
            orig = getattr(sys.modules[f"hyporb.{mod_name}"], fn_name)
            self._replace_everywhere(orig, self._spanned(f"{mod_name}.{fn_name}", orig, extra, extractor))
        for mod_name, fn_name in COUNTED:
            orig = getattr(sys.modules[f"hyporb.{mod_name}"], fn_name)
            self._replace_everywhere(orig, self._counted(f"{mod_name}.{fn_name}.calls", orig))
        cls = orbifolds.MarkedOrbifold
        for meth in METHODS:
            orig = vars(cls)[meth]
            setattr(cls, meth, self._counted(f"orbifolds.{meth}.calls", orig))
            self._restore.append((setattr, cls, meth, orig))
        # preimages is a field of the frozen catalogue specs, so patch each spec
        for spec in maps.catalogue().values():
            orig = spec.preimages
            wrapped = self._spanned("maps.preimages", orig, "points", lambda a, r: len(r))
            object.__setattr__(spec, "preimages", wrapped)
            self._restore.append((object.__setattr__, spec, "preimages", orig))

    def uninstall(self) -> None:
        while self._restore:
            setter, obj, attr, orig = self._restore.pop()
            setter(obj, attr, orig)

    # -- results ----------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Calls, busy seconds and self seconds per span name, plus counters, for one pass."""
        child_time: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec[4] == pass_id and rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = defaultdict(float)
        for idx, rec in enumerate(self.spans):
            if rec[4] != pass_id:
                continue
            name, dur = rec[0], rec[2] - rec[1]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child_time.get(idx, 0.0)
            if rec[5] is not None:
                out[f"{name}.raised.{rec[5]}"] += 1
        out.update(self.counts[pass_id])
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [rec[2] - rec[1] for rec in self.spans if rec[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "pass", "error")
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
