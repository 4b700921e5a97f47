"""Per-layer tracing from outside the package.

The tracer wraps public functions of the six modules gf2n, boolfun,
constructions, families, search and cli.  A function bound by name in
several modules (`from .boolfun import is_bent` gives constructions,
families, search and cli their own reference) is replaced in every
module that binds it, so calls through any of those names are seen.

Scalar gf2n functions get a bare call counter: a span per ~2 us call
would measure the tracer, not the field.  Everything else gets a span
(name, start, end, parent span, op id), kept in memory and written out
when the run ends.  A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

COUNTED = {
    "gf2n": ("mul", "power", "frobenius", "trace_abs", "trace_abs_in", "inverse", "solve_linearized", "covector"),
}
SPANNED = {
    "gf2n": ("make_field",),
    "boolfun": (
        "wht", "is_bent", "dual", "algebraic_degree", "anf", "translate", "derivative", "compose",
        "linear_form", "dot_form", "to_text", "from_text", "parse_bitstring",
    ),
    "families": (
        "gold_function", "gold_dual", "mm_function", "mm_dual",
        "gold_build", "gold_dual_build", "thfromgold_build", "cort_m_build", "corn4t_build",
        "mm_build", "mm_dual_build", "thmm_build",
    ),
    "constructions": (
        "build_generic", "carlet_build", "cornew_build", "correduced_build", "mesnager_build",
        "mesnager2_build", "zlj_build", "check_property_pr", "report_degrees",
    ),
    "search": ("find_mu_tuples", "find_alphas", "find_gold_lambdas", "ea_fingerprint"),
    "cli": ("main",),
}
# the per-layer metrics, in report order, with their units
LAYER_METRICS: dict[str, str] = {
    **{f"gf2n.{f}.calls": "count" for f in COUNTED["gf2n"]},
    "gf2n.make_field.ms": "ms",
    **{f"families.{f}.{k}": "ms" for f in SPANNED["families"][:4] for k in ("ms", "self_ms")},
    **{f"families.{f}.self_ms": "ms" for f in SPANNED["families"][4:]},
    "families.tables_ms": "ms",
    **{f"boolfun.{f}.{k}": u for f in SPANNED["boolfun"] for k, u in (("calls", "count"), ("ms", "ms"))},
    "boolfun.transform_points": "count",
    "boolfun.io_bytes_read": "bytes",
    "boolfun.io_bytes_written": "bytes",
    **{f"constructions.{f}.self_ms": "ms" for f in SPANNED["constructions"][:-1]},
    "constructions.report_degrees.ms": "ms",
    **{f"search.{f}.{k}": u for f in SPANNED["search"] for k, u in (("calls", "count"), ("ms", "ms"))},
    "search.results": "count",
    "cli.main.self_ms": "ms",
    "share.verify": "fraction",
    "share.tables": "fraction",
    "share.degree": "fraction",
    "share.cli": "fraction",
    "trace.overhead": "fraction",
}


class Tracer:
    """Installs wrappers into a loaded copy of the package and records
    counts and spans until uninstalled."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers

    def _counted(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        tally = _TALLIES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if tally is not None:
                tally(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {k: v for k, v in sys.modules.items() if k == "bentkit" or k.startswith("bentkit.")}
        wrappers = {}
        for layer, names in COUNTED.items():
            mod = modules[f"bentkit.{layer}"]
            for fname in names:
                wrappers[id(getattr(mod, fname))] = self._counted(getattr(mod, fname), f"{layer}.{fname}")
        for layer, names in SPANNED.items():
            mod = modules[f"bentkit.{layer}"]
            for fname in names:
                wrappers[id(getattr(mod, fname))] = self._spanned(getattr(mod, fname), f"{layer}.{fname}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- results

    def layer_metrics(self, op_seconds: float, overhead: float) -> dict[str, float]:
        """The per-layer metrics over everything traced so far; op_seconds
        is the traced ops' total wall time, the base of every share."""
        calls: Counter = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for key in LAYER_METRICS:
            base, _, kind = key.rpartition(".")
            if kind == "calls":
                out[key] = self.counts[base] if base.startswith("gf2n.") else calls[base]
            elif kind == "ms":
                out[key] = total[base] * 1e3
            elif kind == "self_ms":
                out[key] = own[base] * 1e3
        tables = sum(v for k, v in own.items() if k.startswith("families."))
        out["families.tables_ms"] = tables * 1e3
        for key in ("boolfun.transform_points", "boolfun.io_bytes_read", "boolfun.io_bytes_written", "search.results"):
            out[key] = self.counts[key]
        out["share.verify"] = (total["boolfun.is_bent"] + total["boolfun.wht"]) / op_seconds
        out["share.tables"] = tables / op_seconds
        out["share.degree"] = total["boolfun.algebraic_degree"] / op_seconds
        out["share.cli"] = own["cli.main"] / op_seconds
        out["trace.overhead"] = overhead
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _tally_points(counts, args, result):
    counts["boolfun.transform_points"] += args[0].n << args[0].n


def _tally_read(counts, args, result):
    counts["boolfun.io_bytes_read"] += len(args[0])


def _tally_written(counts, args, result):
    counts["boolfun.io_bytes_written"] += len(result)


def _tally_results(counts, args, result):
    counts["search.results"] += len(result)


_TALLIES = {
    "boolfun.wht": _tally_points,
    "boolfun.is_bent": _tally_points,
    "boolfun.from_text": _tally_read,
    "boolfun.to_text": _tally_written,
    "search.find_mu_tuples": _tally_results,
    "search.find_alphas": _tally_results,
    "search.find_gold_lambdas": _tally_results,
}
