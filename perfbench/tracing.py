"""Run-time hooks that time laplasym's layers from outside the package.

Nothing in ``src/`` is edited.  A hook replaces a public function by a
wrapper in *every* loaded ``laplasym`` module that bound it, because callers
import names (``from .expansion import watson_sum``), and in module-level
tuples and dicts of functions (the acceptance criterion registry).  The
coefficient rule and the evaluator are wrapped per spec, on the value that
``builtin_spec`` returns.

Each hooked call is a span (id, parent id, name, start, end) kept in memory
and written out when the run ends.  The three hottest callables (coefficient
rule, evaluator, ``log_gamma``) are aggregated into counts and times without
one record per call.  Self time is a span's duration minus the time covered
by its hooked children.  A hook whose target no longer exists is listed as
absent with a reason; its metrics read 0 and the run goes on.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from collections import defaultdict

_PKG = "laplasym"


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == _PKG or name.startswith(_PKG + "."))
    ]


def _swap_tuple(value: tuple, old, new) -> tuple:
    return tuple(new if v is old else v for v in value)


def substitute(old, new) -> list:
    """Replace ``old`` by ``new`` wherever a laplasym module refers to it.

    Covers module globals, tuples held in globals and tuple or function
    values of module-level dicts.  Returns the undo log for ``restore``.
    """
    undo = []
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                undo.append((vars(mod), name, value))
                setattr(mod, name, new)
            elif isinstance(value, tuple) and any(v is old for v in value):
                undo.append((vars(mod), name, value))
                setattr(mod, name, _swap_tuple(value, old, new))
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in list(value.items()):
                    if item is old:
                        undo.append((value, key, item))
                        value[key] = new
                    elif isinstance(item, tuple) and any(v is old for v in item):
                        undo.append((value, key, item))
                        value[key] = _swap_tuple(item, old, new)
    return undo


def restore(undo: list) -> None:
    for namespace, key, value in reversed(undo):
        namespace[key] = value


# Span names.  Metric names are derived from these in ``layer_metrics``.
SPEC_BUILD = "amplitude.builtin_spec"
COEFF = "amplitude.coeff_rule"
EVAL = "amplitude.evaluator"
LOWER = "incgamma.gamma_lower_logc"
UPPER = "incgamma.gamma_upper_logc"
LOG_GAMMA = "incgamma.log_gamma"
CSUM = "summation.neumaier_csum"
RSUM = "summation.neumaier_sum"
WATSON = "expansion.watson_sum"
HADAMARD = "expansion.hadamard_sum"
TAIL = "expansion.tail_integral_J"
QUAD = "quadrature.quad_complex"
QUAD_CHECKED = "quadrature.quad_complex_checked"
REFERENCE = "oracle.reference_value"
MEASURED = "oracle.measured_remainder"
BOUNDS = "bounds.check_bounds"
POINT = "sweep.compute_point"
CSV_WRITE = "sweep.write_csv"
RUN_SWEEP = "sweep.run_sweep"
EXPINT = "expintegral."
CRITERION = "acceptance.c"

# Suffix of a metric's dependency on the shape of a span's return value.
RESULT = "#result"

_HOT = {COEFF, EVAL, LOG_GAMMA}

# (span name, module, attribute) of every plain function hook.
_FUNCTION_HOOKS = (
    (LOWER, "incgamma", "gamma_lower_logc"),
    (UPPER, "incgamma", "gamma_upper_logc"),
    (LOG_GAMMA, "incgamma", "log_gamma"),
    (CSUM, "summation", "neumaier_csum"),
    (RSUM, "summation", "neumaier_sum"),
    (WATSON, "expansion", "watson_sum"),
    (HADAMARD, "expansion", "hadamard_sum"),
    (TAIL, "expansion", "tail_integral_J"),
    (QUAD, "quadrature", "quad_complex"),
    (QUAD_CHECKED, "quadrature", "quad_complex_checked"),
    (REFERENCE, "oracle", "reference_value"),
    (MEASURED, "oracle", "measured_remainder"),
    (BOUNDS, "bounds", "check_bounds"),
    (POINT, "sweep", "compute_point"),
    (CSV_WRITE, "sweep", "write_csv"),
    (RUN_SWEEP, "sweep", "run_sweep"),
)


class Tracer:
    """Spans and per-name aggregates for one traced phase."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [span id, name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.absent: dict[str, str] = {}
        self.hooked: set[str] = set()
        self._next_id = 1
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------
    def wrap(self, name: str, fn, post=None):
        """Wrapper recording one span per call; ``post(result, args)`` may replace the result."""
        record = name not in _HOT
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                tracer.total_s[name] += dur
                if parent is not None:
                    parent[2] += dur
                if record:
                    tracer.spans.append((frame[0], parent[0] if parent else 0, name, start, end))
            if post is not None:
                result = tracer._post(name, post, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _post(self, name, post, result, args):
        key = name + RESULT
        if key in self.absent:
            return result
        try:
            return post(result, args)
        except (AttributeError, TypeError, IndexError, KeyError, OSError) as exc:
            self.absent[key] = f"result of {name} no longer has the expected shape: {exc!r}"
            return result

    def _wrap_evaluator(self, fn):
        inner = self.wrap(EVAL, fn)
        stack = self.stack
        counters = self.counters

        def evaluator(t):
            if stack and stack[-1][1] == QUAD:
                counters["quadrature.evaluator_calls"] += 1
            return inner(t)

        return evaluator

    # -- installation -----------------------------------------------------
    def _hook(self, name: str, module: str, attr: str, post=None) -> None:
        mod = sys.modules.get(f"{_PKG}.{module}")
        target = getattr(mod, attr, None) if mod is not None else None
        if not callable(target):
            self.absent[name] = f"{_PKG}.{module}.{attr} not found"
            return
        self._undo += substitute(target, self.wrap(name, target, post))
        self.hooked.add(name)

    def install(self) -> None:
        """Hook every layer boundary."""
        posts = {
            WATSON: self._count_watson_terms,
            QUAD: self._count_quad_evals,
            REFERENCE: self._count_oracle_evals,
            CSV_WRITE: self._count_csv_bytes,
            RUN_SWEEP: self._count_points,
        }
        for name, module, attr in _FUNCTION_HOOKS:
            self._hook(name, module, attr, posts.get(name))
        self._hook(SPEC_BUILD, "amplitude", "builtin_spec", lambda spec, _args: self.instrument_spec(spec))
        if SPEC_BUILD in self.hooked:  # every spec built from here on is instrumented
            self.hooked |= {COEFF, EVAL}
        expint = sys.modules.get(f"{_PKG}.expintegral")
        functions = [
            (attr, fn)
            for attr, fn in sorted(vars(expint).items() if expint else [])
            if callable(fn)
            and not isinstance(fn, type)
            and not attr.startswith("_")
            and getattr(fn, "__module__", "") == f"{_PKG}.expintegral"
        ]
        if not functions:
            self.absent[EXPINT] = f"{_PKG}.expintegral has no public functions"
        for attr, _fn in functions:
            self._hook(EXPINT + attr, "expintegral", attr)
        acceptance = sys.modules.get(f"{_PKG}.acceptance")
        criteria = getattr(acceptance, "ALL_CRITERIA", None)
        if not criteria:
            self.absent[CRITERION] = f"{_PKG}.acceptance.ALL_CRITERIA not found"
        for i, fn in enumerate(criteria or (), start=1):
            name = f"{CRITERION}{i}"
            self._undo += substitute(fn, self.wrap(name, fn))
            self.hooked.add(name)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- result post-processing ------------------------------------------
    def instrument_spec(self, spec):
        """Copy of ``spec`` whose coefficient rule and evaluator are traced."""
        changes = {}
        for field, span, wrap in (
            ("coeff_rule", COEFF, lambda f: self.wrap(COEFF, f)),
            ("evaluator", EVAL, self._wrap_evaluator),
        ):
            fn = getattr(spec, field, None)
            if callable(fn):
                changes[field] = wrap(fn)
                self.hooked.add(span)
            else:
                self.absent[span] = f"AmplitudeSpec.{field} not found"
        try:
            return dataclasses.replace(spec, **changes) if changes else spec
        except TypeError as exc:
            self.absent[COEFF] = self.absent[EVAL] = f"cannot copy AmplitudeSpec with traced fields: {exc!r}"
            return spec

    def _count_watson_terms(self, result, _args):
        self.counters["expansion.watson_terms"] += result.n_star + 1
        return result

    def _count_quad_evals(self, result, _args):
        self.counters["quadrature.evals"] += result[2]
        return result

    def _count_oracle_evals(self, result, _args):
        self.counters["oracle.evals"] += result.evaluations
        return result

    def _count_csv_bytes(self, result, args):
        self.counters["sweep.csv_bytes"] += os.path.getsize(args[1])
        return result

    def _count_points(self, result, _args):
        self.counters["sweep.points"] += len(result)
        return result

    # -- output -----------------------------------------------------------
    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "span_fields": ["id", "parent_id", "name", "start_s", "end_s"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "errors": dict(self.errors),
            "counters": dict(self.counters),
            "absent": self.absent,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Per-layer metric table: name -> (unit, better, span names it needs).
_COUNT = "count/pass"
_SECONDS = "s/pass"


def _layer_table() -> dict:
    table = {
        "amplitude.spec_builds": (_COUNT, "lower", [SPEC_BUILD]),
        "amplitude.spec_build_s": (_SECONDS, "lower", [SPEC_BUILD]),
        "amplitude.coeff_calls": (_COUNT, "lower", [COEFF]),
        "amplitude.coeff_s": (_SECONDS, "lower", [COEFF]),
        "amplitude.eval_calls": (_COUNT, "lower", [EVAL]),
        "amplitude.eval_s": (_SECONDS, "lower", [EVAL]),
        "incgamma.lower_calls": (_COUNT, "lower", [LOWER]),
        "incgamma.lower_s": (_SECONDS, "lower", [LOWER]),
        "incgamma.upper_calls": (_COUNT, "lower", [UPPER]),
        "incgamma.upper_s": (_SECONDS, "lower", [UPPER]),
        "incgamma.log_gamma_calls": (_COUNT, "lower", [LOG_GAMMA]),
        "incgamma.log_gamma_s": (_SECONDS, "lower", [LOG_GAMMA]),
        "summation.calls": (_COUNT, "lower", [CSUM, RSUM]),
        "summation.s": (_SECONDS, "lower", [CSUM, RSUM]),
        "expansion.watson_calls": (_COUNT, "lower", [WATSON]),
        "expansion.watson_s": (_SECONDS, "lower", [WATSON]),
        "expansion.watson_terms": (_COUNT, "lower", [WATSON + RESULT]),
        "expansion.hadamard_calls": (_COUNT, "lower", [HADAMARD]),
        "expansion.hadamard_s": (_SECONDS, "lower", [HADAMARD]),
        "expansion.hadamard_failures": (_COUNT, "lower", [HADAMARD]),
        "expansion.tail_calls": (_COUNT, "lower", [TAIL]),
        "expansion.tail_s": (_SECONDS, "lower", [TAIL]),
        "quadrature.calls": (_COUNT, "lower", [QUAD]),
        "quadrature.s": (_SECONDS, "lower", [QUAD]),
        "quadrature.evals": (_COUNT, "lower", [QUAD + RESULT]),
        "quadrature.unique_eval_ratio": ("ratio", "higher", [QUAD + RESULT, EVAL]),
        "oracle.calls": (_COUNT, "lower", [REFERENCE]),
        "oracle.s": (_SECONDS, "lower", [REFERENCE]),
        "oracle.evals": (_COUNT, "lower", [REFERENCE + RESULT]),
        "oracle.failures": (_COUNT, "lower", [REFERENCE]),
        "expintegral.calls": (_COUNT, "lower", [EXPINT]),
        "expintegral.s": (_SECONDS, "lower", [EXPINT]),
        "bounds.s": (_SECONDS, "lower", [BOUNDS]),
    }
    for i in range(1, 10):
        table[f"acceptance.c{i}_s"] = (_SECONDS, "lower", [f"{CRITERION}{i}"])
    table.update(
        {
            "sweep.points": (_COUNT, "higher", [RUN_SWEEP + RESULT]),
            "sweep.point_s": (_SECONDS, "lower", [POINT]),
            "sweep.csv_write_s": (_SECONDS, "lower", [CSV_WRITE]),
            "sweep.csv_bytes": ("B/pass", "lower", [CSV_WRITE + RESULT]),
            "sweep.jobs2_speedup": ("ratio", "higher", []),
            "trace.goodput_per_s": ("1/s", "higher", []),
            "trace.untraced_goodput_per_s": ("1/s", "higher", []),
            "trace.overhead_pct": ("%", "lower", []),
        }
    )
    return table


LAYER_TABLE = _layer_table()


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, dict]:
    """Per-pass layer metrics and the reasons for the ones that are absent."""
    calls, self_s, total_s, errors, counters = (
        tracer.calls, tracer.self_s, tracer.total_s, tracer.errors, tracer.counters
    )

    def prefixed(table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    evals = counters["quadrature.evals"]
    raw = {
        "amplitude.spec_builds": calls[SPEC_BUILD],
        "amplitude.spec_build_s": self_s[SPEC_BUILD],
        "amplitude.coeff_calls": calls[COEFF],
        "amplitude.coeff_s": self_s[COEFF],
        "amplitude.eval_calls": calls[EVAL],
        "amplitude.eval_s": self_s[EVAL],
        "incgamma.lower_calls": calls[LOWER],
        "incgamma.lower_s": self_s[LOWER],
        "incgamma.upper_calls": calls[UPPER],
        "incgamma.upper_s": self_s[UPPER],
        "incgamma.log_gamma_calls": calls[LOG_GAMMA],
        "incgamma.log_gamma_s": self_s[LOG_GAMMA],
        "summation.calls": calls[CSUM] + calls[RSUM],
        "summation.s": self_s[CSUM] + self_s[RSUM],
        "expansion.watson_calls": calls[WATSON],
        "expansion.watson_s": self_s[WATSON],
        "expansion.watson_terms": counters["expansion.watson_terms"],
        "expansion.hadamard_calls": calls[HADAMARD],
        "expansion.hadamard_s": self_s[HADAMARD],
        "expansion.hadamard_failures": errors[HADAMARD],
        "expansion.tail_calls": calls[TAIL],
        "expansion.tail_s": self_s[TAIL],
        "quadrature.calls": calls[QUAD],
        "quadrature.s": self_s[QUAD] + self_s[QUAD_CHECKED],
        "quadrature.evals": evals,
        "quadrature.unique_eval_ratio": counters["quadrature.evaluator_calls"] / evals if evals else 0.0,
        "oracle.calls": calls[REFERENCE],
        "oracle.s": self_s[REFERENCE] + self_s[MEASURED],
        "oracle.evals": counters["oracle.evals"],
        "oracle.failures": errors[REFERENCE],
        "expintegral.calls": prefixed(calls, EXPINT),
        "expintegral.s": prefixed(self_s, EXPINT),
        "bounds.s": self_s[BOUNDS],
        "sweep.points": counters["sweep.points"],
        "sweep.point_s": self_s[POINT],
        "sweep.csv_write_s": self_s[CSV_WRITE],
        "sweep.csv_bytes": counters["sweep.csv_bytes"],
    }
    # A criterion's own self time is its loop overhead; its wall time,
    # children included, is what shows which criterion pays.
    for i in range(1, 10):
        raw[f"acceptance.c{i}_s"] = total_s[f"{CRITERION}{i}"]

    metrics, absent = {}, {}
    n = max(passes, 1)
    for name, (unit, _better, needs) in LAYER_TABLE.items():
        if name not in raw:
            continue
        bases = [s.removesuffix(RESULT) for s in needs]
        missing = [b for b in bases if not any(h.startswith(b) for h in tracer.hooked)]
        reasons = [
            why for key, why in tracer.absent.items()
            if key in needs or any(base.startswith(key) for base in bases)
        ]
        if missing or reasons:
            absent[name] = "; ".join(reasons) or f"not traced on this workload ({', '.join(missing)})"
            metrics[name] = {"value": 0, "unit": unit}
            continue
        value = raw[name] if unit == "ratio" else raw[name] / n
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
