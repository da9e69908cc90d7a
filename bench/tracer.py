"""In-memory span tracing of the public functions of champagne's modules.

Tracer.install() replaces every public function, and every public method
of a public class, defined in one of LAYERS by a wrapper that records a
span (name, start, end, parent).  A module that imported a function by
name (gap_analysis binds joint_spectrum, bohr_sommerfeld binds
psi_n_prime) holds its own reference, so every champagne namespace that
binds an original gets the same wrapper.  uninstall() puts the originals
back.  Counters are taken from return values at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import time

LAYERS = ("radial_spectrum", "special_functions", "bohr_sommerfeld",
          "gap_analysis", "classical_actions", "monodromy_lattice", "cli")


def _levels(result, args, kwargs):
    return len(result)


def _grid_points(result, args, kwargs):
    return len(result.diag)


def _csv_bytes(result, args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


# span name -> (counter name, amount taken from the call)
COUNTERS = {
    "radial_spectrum.eigenvalues_in_window":
        ("radial_spectrum.levels_returned", _levels),
    "radial_spectrum.build_radial_operator":
        ("radial_spectrum.grid_points", _grid_points),
    "radial_spectrum.write_spectrum_csv":
        ("radial_spectrum.csv_bytes", _csv_bytes),
    "gap_analysis.measure_gaps": ("gap_analysis.gaps_measured", _levels),
    "bohr_sommerfeld.predict_line": ("bohr_sommerfeld.predict_line.roots",
                                     _levels),
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._patches = []       # (owner, attribute, original value)

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                key, amount = counter
                counts[key] = counts.get(key, 0) + amount(result, args,
                                                          kwargs)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {m: importlib.import_module("champagne." + m)
                   for m in LAYERS}
        wrappers = {}            # id(original function) -> wrapper
        for mname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{mname}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{mname}.{attr}")
        namespaces = list(modules.values()) + [
            importlib.import_module("champagne")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(ns, attr, wrappers[id(obj)])

    def _wrap_methods(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(
                    self._wrap(obj.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, f"{prefix}.{attr}"))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round totals by span name: inclusive (.s), self (.self_s),
        calls (.calls); counters; and the median cli.main duration."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl, self_t, calls, cli_main = {}, {}, {}, []
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self_t[name] = self_t.get(name, 0.0) + dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:                   # outermost span of this name
                incl[name] = incl.get(name, 0.0) + dur
            if name == "cli.main":
                cli_main.append(dur)
        out = {}
        for name in calls:
            out[name + ".s"] = incl[name] / rounds
            out[name + ".self_s"] = self_t[name] / rounds
            out[name + ".calls"] = calls[name] / rounds
        for key, value in self.counts.items():
            out[key] = value / rounds
        out["cli.main.p50_s"] = (statistics.median(cli_main)
                                 if cli_main else 0.0)
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def write(self, path: str, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(dict(meta, fields=["name", "start_s", "end_s",
                                         "parent"],
                           spans=[[n, round(s - t0, 9), round(e - t0, 9), p]
                                  for n, s, e, p in self.spans]), fh)
            fh.write("\n")
