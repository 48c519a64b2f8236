"""Span recording for the traced run, from outside the package.

``Tracer.install`` replaces every public module-level function of each
layer module (and ``FixedPointStream.prefix``) with a timing wrapper set
as a module attribute.  Every module that imported the function under
the same name gets the wrapper too, so calls from ``cli`` and calls
inside a module both pass through it.  Each wrapper call appends one
span (name, start, end, parent) to in-memory arrays; ``write`` dumps
them when the run ends and ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import tracemalloc
from array import array
from time import perf_counter

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("substitution.atlas_chain_s", "s"),
    ("substitution.atlas_words", "count"),
    ("substitution.atlas_words_per_s", "1/s"),
    ("substitution.atlas_by_window_s", "s"),
    ("substitution.prefix_letters_per_s", "1/s"),
    ("words.exclusion_verdict_s", "s"),
    ("rudin_shapiro.table1_s", "s"),
    ("modelset.enumerate_patch_s", "s"),
    ("modelset.points", "count"),
    ("modelset.points_per_s", "1/s"),
    ("modelset.enumerate_peak_mib", "MiB"),
    ("modelset.gaps_to_letters_s", "s"),
    ("modelset.palindrome_scan_s", "s"),
    ("modelset.scan_letters_per_s", "1/s"),
    ("modelset.inversion_witness_s", "s"),
    ("spectral.eigenvalues_s", "s"),
    ("spectral.eigenvalues_per_s", "1/s"),
    ("spectral.sturm_calls", "count"),
    ("spectral.transfer_product_s", "s"),
    ("spectral.transfer_factors_per_s", "1/s"),
    ("cli.atlas.self_s", "s"),
    ("cli.exclude.self_s", "s"),
    ("cli.rs-table.self_s", "s"),
    ("cli.modelset.self_s", "s"),
    ("cli.spectrum.self_s", "s"),
    ("trace.overhead_s", "s"),
)

CLI_COMMANDS = {
    "cmd_atlas": "atlas",
    "cmd_exclude": "exclude",
    "cmd_rs_table": "rs-table",
    "cmd_modelset": "modelset",
    "cmd_spectrum": "spectrum",
}


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


class Tracer:
    """Timing wrappers over the layer modules, and the spans they record."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.work = {}
        self._restore = []
        self.originals = {}
        self.largest_enumeration = (0, None)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, count=None, before=None):
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.start, self.end, self.stack,
        )
        work = self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            token = before() if before is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                work[name] = work.get(name, 0) + count(args, result, token)
            return result

        return wrapper

    def _hooks(self):
        """Work counters read off the arguments and results of a few calls."""
        substitution = self.modules["substitution"]
        memo = getattr(substitution, "_atlas_chain", None)
        memo_misses = None
        if memo is not None and hasattr(memo, "cache_info"):
            memo_misses = lambda: memo.cache_info().misses  # noqa: E731

        def atlas_words(args, result, misses_before):
            # A chain served from the memo inside the same operation is no
            # new work; count words only for chains the call built.
            if misses_before is not None and memo_misses() == misses_before:
                return 0
            return sum(len(a.words) for a in result)

        def points(args, result, _):
            if len(result) > self.largest_enumeration[0]:
                self.largest_enumeration = (len(result), args)
            return len(result)

        return {
            "substitution.atlas_chain": (atlas_words, memo_misses),
            "substitution.FixedPointStream.prefix": (lambda args, result, _: len(result), None),
            "modelset.enumerate_patch": (points, None),
            "modelset.palindrome_scan": (lambda args, result, _: len(args[0]), None),
            "spectral.eigenvalues": (lambda args, result, _: len(result), None),
            "spectral.transfer_product": (lambda args, result, _: result.count, None),
        }

    def install(self):
        hooks = self._hooks()
        replaced = {}
        for layer, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                count, before = hooks.get(name, (None, None))
                self.originals[name] = value
                replaced[value] = self._wrap(name, value, count, before)
        package = sys.modules[self.modules["cli"].__package__]
        for module in list(self.modules.values()) + [package]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replaced[value])
        stream = self.modules["substitution"].FixedPointStream
        count, _ = hooks["substitution.FixedPointStream.prefix"]
        self._restore.append((stream, "prefix", stream.prefix))
        stream.prefix = self._wrap("substitution.FixedPointStream.prefix", stream.prefix, count)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def op_span(self, label):
        """A root span around one operation; returns a closer."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(f"op.{label}"))
        self.span_parent.append(-1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)

        def close():
            self.stack.pop()
            self.end[idx] = perf_counter()

        return close

    def enumerate_peak_mib(self):
        """tracemalloc peak of the largest enumeration seen, run once more
        through the unwrapped function after the traced round."""
        _, args = self.largest_enumeration
        if args is None:
            return 0.0
        enumerate_patch = self.originals["modelset.enumerate_patch"]
        tracemalloc.start()
        try:
            enumerate_patch(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            names = self.names
            for nid, t0, t1, parent in zip(self.span_name, self.start, self.end, self.span_parent):
                fh.write(f"{names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")

    def layer_metrics(self, overhead_s, enumerate_peak_mib):
        names = self.names
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total = {}
        self_time = {}
        calls_under = {}
        for i in range(n):
            name = names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child[i]
            p = self.span_parent[i]
            if p >= 0:
                key = (name, names[self.span_name[p]])
                calls_under[key] = calls_under.get(key, 0) + 1
        t = lambda name: total.get(name, 0.0)  # noqa: E731
        w = lambda name: self.work.get(name, 0)  # noqa: E731
        values = {
            "substitution.atlas_chain_s": t("substitution.atlas_chain"),
            "substitution.atlas_words": w("substitution.atlas_chain"),
            "substitution.atlas_words_per_s": _rate(
                w("substitution.atlas_chain"), t("substitution.atlas_chain")
            ),
            "substitution.atlas_by_window_s": t("substitution.atlas_by_window"),
            "substitution.prefix_letters_per_s": _rate(
                w("substitution.FixedPointStream.prefix"), t("substitution.FixedPointStream.prefix")
            ),
            "words.exclusion_verdict_s": t("words.exclusion_verdict"),
            "rudin_shapiro.table1_s": t("rudin_shapiro.table1"),
            "modelset.enumerate_patch_s": t("modelset.enumerate_patch"),
            "modelset.points": w("modelset.enumerate_patch"),
            "modelset.points_per_s": _rate(w("modelset.enumerate_patch"), t("modelset.enumerate_patch")),
            "modelset.enumerate_peak_mib": enumerate_peak_mib,
            "modelset.gaps_to_letters_s": t("modelset.gaps_to_letters"),
            "modelset.palindrome_scan_s": t("modelset.palindrome_scan"),
            "modelset.scan_letters_per_s": _rate(
                w("modelset.palindrome_scan"), t("modelset.palindrome_scan")
            ),
            "modelset.inversion_witness_s": t("modelset.inversion_witness"),
            "spectral.eigenvalues_s": t("spectral.eigenvalues"),
            "spectral.eigenvalues_per_s": _rate(w("spectral.eigenvalues"), t("spectral.eigenvalues")),
            "spectral.sturm_calls": calls_under.get(("spectral.sturm_count", "spectral.eigenvalues"), 0),
            "spectral.transfer_product_s": t("spectral.transfer_product"),
            "spectral.transfer_factors_per_s": _rate(
                w("spectral.transfer_product"), t("spectral.transfer_product")
            ),
            "trace.overhead_s": overhead_s,
        }
        for fn, command in CLI_COMMANDS.items():
            values[f"cli.{command}.self_s"] = self_time.get(f"cli.{fn}", 0.0)
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
