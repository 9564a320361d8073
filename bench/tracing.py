"""Per-layer tracing of permlaw from outside the package.

The traced run installs wrappers around the functions listed in ``LAYERS``
and ``METHODS``.  A function is replaced both as its module's attribute and
under every name another permlaw module imported it as (``cli.construct_f``,
``holder.bisect_monotone``, ...); methods are replaced on their classes.
Nothing is wrapped unless ``Tracer.install`` is called, so untraced runs see
the package exactly as shipped.

Calls of a *span* function become span records: name, start, end, the span
that caused it, and the case id.  Calls of a *hot* function (code and table
evaluations, bisection, inversion, model evaluations, solves) are only added
up, as a count plus total time, under the nearest enclosing span, so the
trace stays bounded.  Every wrapped call also adds its self time (duration
minus the time of wrapped calls inside it) to its key's totals.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
import warnings

import numpy as np

# (module, function, key, span?)
LAYERS = (
    ("cli", "main", "cli.self", True),
    ("corpus", "make_law", "corpus.build", True),
    ("corpus", "make_synthetic", "corpus.build", True),
    ("corpus", "load_grid", "corpus.build", True),
    ("corpus", "write_grid_csv", "corpus.build", True),
    ("corpus", "analytic_reference", "corpus.build", True),
    ("axioms", "check_code_axioms", "axioms.code_axioms", True),
    ("axioms", "check_solvability", "axioms.solvability", True),
    ("axioms", "check_permutability", "axioms.permutability", True),
    ("holder", "make_structure", "holder.make_structure", True),
    ("holder", "suggest_r0", "holder.suggest_r0", True),
    ("holder", "check_holder_conditions", "holder.conditions", True),
    ("holder", "construct_f", "holder.construct_f", True),
    ("holder", "construct_g", "holder.construct_g", True),
    ("holder", "residual_report", "holder.residual_report", True),
    ("holder", "_solve_half_modifier", "holder.half_step", False),
    ("fitter", "fit_additive", "fitter.descent", True),
    ("fitter", "_constructive_init", "fitter.init", True),
    ("fitter", "check_gauge_uniqueness", "fitter.align", True),
    ("fitter", "affine_align", "fitter.align", True),
    ("fitter", "_pl_eval", "fitter.model_eval", False),
    # called twice at the start of every descent, so calls / 2 = descents
    ("fitter", "_ensure_strict", "fitter.ensure_strict", False),
    ("lawcore", "bisect_monotone", "lawcore.bisect", False),
    ("lawcore", "bisect_monotone_vec", "lawcore.bisect_vec", False),
    ("lawcore", "invert_in_first", "lawcore.invert_first", False),
    ("lawcore", "invert_in_second", "lawcore.invert_second", False),
)

# (class, method, key); all hot
METHODS = (
    ("BivariateCode", "__call__", "lawcore.code"),
    ("MonotoneFunction", "__call__", "lawcore.table"),
    ("MonotoneFunction", "invert", "lawcore.table"),
)

CODE_EVAL_KEYS = {"synthetic": "corpus.eval_synthetic", "grid": "corpus.eval_grid"}
CLOSED_EVAL_KEY = "corpus.eval_closed"


class Tracer:
    """Frames, span records and per-case totals of one traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.totals = {}    # key -> [calls, self seconds]
        self.counters = {}  # name -> count
        self.peaks = {}     # name -> largest value seen
        self._next_id = 0
        self.case_id = None
        self.stack = []
        self.stats = {}
        self.case_counters = {}
        self.case_peaks = {}
        self.case_spans = []

    # -- cases ---------------------------------------------------------

    def _new_span(self, name, parent_id, start):
        rec = {"id": self._next_id, "name": name, "case": self.case_id,
               "parent": parent_id, "start": start - self.t0, "hot": {}}
        self._next_id += 1
        return rec

    def begin_case(self, case_id: str) -> None:
        self.case_id = case_id
        self.stats, self.case_counters, self.case_peaks = {}, {}, {}
        self.case_spans = []
        start = time.perf_counter()
        self.stack = [["case", start, 0.0, self._new_span("case", None, start)]]

    def end_case(self, keep: bool) -> None:
        """Close the case span.  Only a case that ran to completion adds to
        the totals: work done before a time limit cut a case depends on how
        far it got, and would make the counts differ between runs."""
        frame = self.stack[0]
        end = time.perf_counter()
        rec = frame[3]
        rec["end"] = end - self.t0
        rec["self_s"] = (end - frame[1]) - frame[2]
        rec["cut"] = not keep
        self.spans.extend(self.case_spans)
        self.spans.append(rec)
        self.stack = []
        if not keep:
            return
        for key, (calls, self_s) in self.stats.items():
            tot = self.totals.setdefault(key, [0, 0.0])
            tot[0] += calls
            tot[1] += self_s
        for name, value in self.case_counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in self.case_peaks.items():
            self.peaks[name] = max(self.peaks.get(name, value), value)

    def count(self, name: str, value=1) -> None:
        self.case_counters[name] = self.case_counters.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.case_peaks[name] = max(self.case_peaks.get(name, value), value)

    # -- wrappers ------------------------------------------------------

    def wrap(self, fn, key: str, span: bool, after=None, raises=None):
        """Time calls of ``fn`` under ``key``; ``after(tracer, result)``
        runs on each return, and each exception of type ``raises`` is
        counted as ``key + "_fail"``."""
        tracer = self
        perf = time.perf_counter
        no_exception = raises or ()

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:  # outside any case
                return fn(*args, **kwargs)
            parent = stack[-1]
            start = perf()
            rec = tracer._new_span(key, parent[3]["id"], start) if span else parent[3]
            frame = [key, start, 0.0, rec]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except no_exception:
                tracer.count(key + "_fail")
                raise
            finally:
                end = perf()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - frame[1]
                parent[2] += dur
                st = tracer.stats.get(key)
                if st is None:
                    st = tracer.stats[key] = [0, 0.0]
                st[0] += 1
                st[1] += dur - frame[2]
                if span:
                    rec["end"] = end - tracer.t0
                    rec["self_s"] = dur - frame[2]
                    tracer.case_spans.append(rec)
                else:
                    hot = rec["hot"].get(key)
                    if hot is None:
                        hot = rec["hot"][key] = [0, 0.0]
                    hot[0] += 1
                    hot[1] += dur
            if after is not None:
                after(tracer, result)
            return result

        wrapper.bench_traced = True
        return wrapper

    def _wrap_code_eval(self, code) -> None:
        """Time a new code's evaluation function as its corpus backend, and
        count the points it is evaluated at."""
        fn = code.fn
        if getattr(fn, "bench_traced", False):
            return
        tracer = self

        def counted(y, r):
            if tracer.stack:
                tracer.count("lawcore.code_points", np.broadcast(y, r).size)
            return fn(y, r)

        key = CODE_EVAL_KEYS.get(code.name, CLOSED_EVAL_KEY)
        # BivariateCode is frozen; its fn is replaced only in traced runs
        object.__setattr__(code, "fn", self.wrap(counted, key, span=False))

    def install(self, pl):
        """Wrap every function of ``LAYERS`` and ``METHODS`` wherever the
        package can reach it; returns a function that undoes it."""
        mods = {name.split(".", 1)[1] if "." in name else "": mod
                for name, mod in list(sys.modules.items())
                if name == "permlaw" or name.startswith("permlaw.")}
        patches = []

        def replace_everywhere(orig, wrapped):
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

        wrap_code = dict(after=lambda t, code: t._wrap_code_eval(code))
        extras = {
            "make_law": wrap_code,
            "make_synthetic": wrap_code,
            "load_grid": wrap_code,
            "construct_f": dict(
                after=lambda t, f: t.count("holder.f_knots", int(f.xs.size))),
            "fit_additive": dict(
                after=lambda t, res: t.count("fitter.iters", int(res.n_iters))),
            "invert_in_first": dict(raises=pl.RangeExceeded),
            "invert_in_second": dict(raises=pl.RangeExceeded),
        }
        for modname, fname, key, span in LAYERS:
            orig = getattr(mods[modname], fname)
            inner = orig
            if fname == "check_permutability":
                inner = self._peak_tracked(orig, "axioms.permutability_peak_mb")
            elif fname == "fit_additive":
                inner = self._warnings_counted(orig, "fitter.fp_warnings")
            replace_everywhere(orig, self.wrap(inner, key, span, **extras.get(fname, {})))
        for clsname, meth, key in METHODS:
            cls = getattr(mods["lawcore"], clsname)
            orig = cls.__dict__[meth]
            wrapped = self.wrap(orig, key, span=False)
            for attr, val in list(vars(cls).items()):
                if val is orig:
                    patches.append((cls, attr, orig))
                    setattr(cls, attr, wrapped)
        orig_solve = np.linalg.solve
        patches.append((np.linalg, "solve", orig_solve))
        np.linalg.solve = self.wrap(orig_solve, "fitter.solve", span=False)

        def undo():
            for obj, attr, orig in reversed(patches):
                setattr(obj, attr, orig)

        return undo

    def _peak_tracked(self, fn, name):
        tracer = self

        def tracked(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                if started:
                    tracemalloc.stop()
                tracer.peak(name, peak / 2**20)

        return tracked

    def _warnings_counted(self, fn, name):
        tracer = self

        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.count(name, sum(issubclass(w.category, RuntimeWarning)
                                           for w in caught))

        return counted

    # -- output --------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump(dict(header, spans=self.spans), fh)
            fh.write("\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from the totals of the cases that completed."""
    tot = tracer.totals

    def calls(key):
        return tot.get(key, [0, 0.0])[0]

    def self_s(*keys):
        return sum(tot.get(k, [0, 0.0])[1] for k in keys)

    c = tracer.counters
    return {
        "lawcore.code_calls": (calls("lawcore.code"), "count"),
        "lawcore.code_points": (c.get("lawcore.code_points", 0), "count"),
        "lawcore.code_self_s": (self_s("lawcore.code"), "s"),
        "lawcore.table_calls": (calls("lawcore.table"), "count"),
        "lawcore.table_self_s": (self_s("lawcore.table"), "s"),
        "lawcore.bisect_calls": (calls("lawcore.bisect"), "count"),
        "lawcore.bisect_self_s": (self_s("lawcore.bisect"), "s"),
        "lawcore.bisect_vec_calls": (calls("lawcore.bisect_vec"), "count"),
        "lawcore.bisect_vec_self_s": (self_s("lawcore.bisect_vec"), "s"),
        "lawcore.invert_first_calls": (calls("lawcore.invert_first"), "count"),
        "lawcore.invert_second_calls": (calls("lawcore.invert_second"), "count"),
        "lawcore.invert_fail": (c.get("lawcore.invert_first_fail", 0)
                                + c.get("lawcore.invert_second_fail", 0), "count"),
        "lawcore.invert_self_s": (self_s("lawcore.invert_first",
                                         "lawcore.invert_second"), "s"),
        "corpus.build_s": (self_s("corpus.build"), "s"),
        "corpus.eval_closed_s": (self_s("corpus.eval_closed"), "s"),
        "corpus.eval_synthetic_s": (self_s("corpus.eval_synthetic"), "s"),
        "corpus.eval_grid_s": (self_s("corpus.eval_grid"), "s"),
        "axioms.code_axioms_s": (self_s("axioms.code_axioms"), "s"),
        "axioms.solvability_s": (self_s("axioms.solvability"), "s"),
        "axioms.permutability_s": (self_s("axioms.permutability"), "s"),
        "axioms.permutability_peak_mb": (
            tracer.peaks.get("axioms.permutability_peak_mb", 0.0), "MB"),
        "holder.make_structure_s": (self_s("holder.make_structure"), "s"),
        "holder.suggest_r0_s": (self_s("holder.suggest_r0"), "s"),
        "holder.conditions_s": (self_s("holder.conditions"), "s"),
        "holder.construct_f_s": (self_s("holder.construct_f"), "s"),
        "holder.half_step_calls": (calls("holder.half_step"), "count"),
        "holder.half_step_s": (self_s("holder.half_step"), "s"),
        "holder.f_knots": (c.get("holder.f_knots", 0), "count"),
        "holder.construct_g_s": (self_s("holder.construct_g"), "s"),
        "holder.residual_report_s": (self_s("holder.residual_report"), "s"),
        "fitter.init_s": (self_s("fitter.init"), "s"),
        "fitter.descent_s": (self_s("fitter.descent", "fitter.ensure_strict"), "s"),
        "fitter.iters": (c.get("fitter.iters", 0), "count"),
        "fitter.descents": (calls("fitter.ensure_strict") // 2, "count"),
        "fitter.model_evals": (calls("fitter.model_eval"), "count"),
        "fitter.model_eval_s": (self_s("fitter.model_eval"), "s"),
        "fitter.solves": (calls("fitter.solve"), "count"),
        "fitter.solve_s": (self_s("fitter.solve"), "s"),
        "fitter.fp_warnings": (c.get("fitter.fp_warnings", 0), "count"),
        "fitter.align_s": (self_s("fitter.align"), "s"),
        "cli.self_s": (self_s("cli.self"), "s"),
        "cli.report_bytes": (c.get("cli.report_bytes", 0), "count"),
    }
