"""The benchmark's workloads: inputs, one pass of ops, and the correctness check.

laplasym is imported from this checkout's ``src/`` and never from an
installed copy, so the benchmark measures the code it ships with.  Every
workload is a closed loop with one caller in one process: each op starts
when the previous one returns.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
import laplasym  # noqa: E402
from laplasym import acceptance, sweep  # noqa: E402

if not Path(laplasym.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"laplasym was imported from {laplasym.__file__}, not from {SRC}")

WORKLOADS = ("figures", "large_z", "verify")
FIGURE_PRESETS = ("fig1a", "fig1b", "fig2a", "fig2b")
R_TRUNC = 0.8
HADAMARD_TERMS = 500

# The oracle is asked for relative accuracy 1e-13 (oracle.DEFAULT_TOL); two
# correct evaluations may each miss by that much, so a change counts as
# wrong only beyond ten times the request.
RTOL = 1e-12


@dataclass
class PassResult:
    """What one pass did: ops attempted, (start, seconds) of each timed sample, failures."""

    ops: int = 0
    samples: list[tuple[float, float]] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)


@dataclass
class CheckResult:
    """Ops whose output missed the check; ``wrong`` ops returned a wrong value."""

    failures: Counter = field(default_factory=Counter)
    wrong: int = 0


# ---------------------------------------------------------------------------
# figures


def figure_panels(tiny: bool = False) -> list[tuple[str, object]]:
    """(panel name, SweepConfig) for every config of the four figure presets."""
    presets = ("fig2a",) if tiny else FIGURE_PRESETS
    return [
        (f"{preset}-{i}", cfg)
        for preset in presets
        for i, cfg in enumerate(sweep.preset_configs(preset))
    ]


def _cell(text: str) -> float | None:
    return float(text) if text else None


def compare_csv(new_text: str, ref_text: str) -> tuple[int, int, int]:
    """(rows, rows with an error cell, rows whose numbers miss the frozen CSV)."""
    new_rows = list(csv.DictReader(io.StringIO(new_text)))
    ref_rows = list(csv.DictReader(io.StringIO(ref_text)))
    rows = len(ref_rows)
    if new_text.split("\n", 1)[0] != ref_text.split("\n", 1)[0] or len(new_rows) != rows:
        return rows, 0, rows
    errors = wrong = 0
    for new, ref in zip(new_rows, ref_rows):
        if new["error"]:
            errors += 1
        elif not _row_matches(new, ref):
            wrong += 1
    return rows, errors, wrong


def _row_matches(new: dict, ref: dict) -> bool:
    for key in ("x", "theta_over_pi", "n_star"):
        if _cell(new[key]) != _cell(ref[key]):
            return False
    cells = {k: (_cell(new[k]), _cell(ref[k])) for k in ref if k != "error"}
    if any((a is None) != (b is None) for a, b in cells.values()):
        return False
    oracle = abs(complex(cells["oracle_re"][1] or 0.0, cells["oracle_im"][1] or 0.0))
    atol = RTOL * oracle
    for key in ("partial_sum_re", "partial_sum_im", "oracle_re", "oracle_im", "abs_remainder"):
        a, b = cells[key]
        if a is not None and abs(a - b) > atol:
            return False
    for key in ("envelope_alg", "envelope_sing"):
        a, b = cells[key]
        if a is not None and abs(a - b) > RTOL * abs(b):
            return False
    # log10 cells move by the remainder's relative change.
    rem = cells["abs_remainder"][1]
    log_tol = (atol / rem / math.log(10.0) if rem else math.inf) + 1e-12
    for key in ("log10_abs_remainder", "log10_scaled_remainder_alg", "log10_scaled_remainder_sing"):
        a, b = cells[key]
        if a is not None and abs(a - b) > log_tol * max(1.0, abs(b)):
            return False
    return True


class Figures:
    """``run_sweep`` + ``write_csv`` for every panel of fig1a, fig1b, fig2a, fig2b.

    An op is one grid point; a latency sample is one panel (one
    ``run_sweep`` + ``write_csv`` call, what a ``laplasym sweep`` user waits for).
    """

    seed_used = False
    passes_per_cycle = 1
    speed_exponent = 1.0  # run.py scales op times by the kernel's slow-down to this power

    def __init__(self, jobs: int, tiny: bool) -> None:
        self.jobs = jobs
        self.tiny = tiny
        self.panels: list = []
        self.texts: dict[str, Counter] = {}

    def setup(self, seed: int) -> None:
        self.panels = [
            (name, cfg, len(cfg.x_values) * len(cfg.theta_values()))
            for name, cfg in figure_panels(self.tiny)
        ]
        self.outdir = OUT / f"figures-jobs{self.jobs}"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.reset_outputs()

    def reset_outputs(self) -> None:
        self.texts = {name: Counter() for name, _cfg, _n in self.panels}

    def run_pass(self, _index: int, calibrate) -> PassResult:
        res = PassResult()
        perf = time.perf_counter
        for name, cfg, points in self.panels:
            path = str(self.outdir / f"{name}.csv")
            calibrate()
            t0 = perf()
            try:
                sweep.write_csv(sweep.run_sweep(cfg, jobs=self.jobs), path)
                written = True
            except Exception as exc:  # a failing panel fails its points; the loop goes on
                written = False
                res.failures[f"{name} {type(exc).__name__}"] += points
            t1 = perf()
            res.ops += points
            res.samples.append((t0, t1 - t0))
            if written:
                with open(path, encoding="utf-8") as fh:
                    self.texts[name][fh.read()] += 1
        return res

    def check(self) -> CheckResult:
        out = CheckResult()
        for name, texts in self.texts.items():
            ref_text = (REFERENCE / "figures" / f"{name}.csv").read_text(encoding="utf-8")
            for text, count in texts.items():
                if text == ref_text:
                    continue
                _rows, errors, wrong = compare_csv(text, ref_text)
                if errors:
                    out.failures[f"{name} rows with an error cell"] += errors * count
                if wrong:
                    out.failures[f"{name} rows off the frozen CSV"] += wrong * count
                    out.wrong += wrong * count
        return out


# ---------------------------------------------------------------------------
# large_z

LARGE_Z_SPECS = (
    ("u_chg(0.5,0.75)", "u_chg", {"a": 0.5, "b": 0.75}),
    ("struve_k0", "struve_k0", {}),
    ("pole(0.1pi)", "pole", {"psi": 0.1 * math.pi}),
    ("sqrt_branch(0.1pi)", "sqrt_branch", {"psi": 0.1 * math.pi}),
)
LARGE_Z_LEVELS = (100.0, 400.0, 1600.0)
THETA_STRATA = 3  # equal strata of [0, 0.45 pi]
THETA_MAX_OVER_PI = 0.45
Z_JITTER = 0.05
# Known defect: hadamard_sum lets a bare OverflowError escape for the pole
# amplitude once |z| >~ 404 (gamma_complete(a) overflows for a > 171 in
# gamma_lower_logc).  Those calls, pole hadamard_sum at |z| ~ 400 and 1600,
# are not ops of the timed loop, where they would fail a seed-dependent
# share of ops; probe_known_defects makes every one of them after the loop
# and reports how each ended.
KNOWN_DEFECT = (2, "hadamard_sum", 400.0)  # (spec index, call, lowest level)
# Pass k uses input set k mod INPUT_SETS.  Across one cycle of sets every
# point's |z| and theta visit each quarter of their jitter range once (Latin
# hypercube), so whole cycles cost nearly the same whatever the seed, and
# the float-oracle check stays bounded in cost.
INPUT_SETS = 4


def large_z_inputs(seed: int, levels=LARGE_Z_LEVELS) -> list[list[tuple]]:
    """INPUT_SETS lists of (spec index, level, z), one point per spec, level and stratum."""
    rng = random.Random(f"large_z/{seed}")
    width = THETA_MAX_OVER_PI / THETA_STRATA
    sets: list[list[tuple]] = [[] for _ in range(INPUT_SETS)]
    for i in range(len(LARGE_Z_SPECS)):
        for level in levels:
            for j in range(THETA_STRATA):
                x_cells = rng.sample(range(INPUT_SETS), INPUT_SETS)
                theta_cells = rng.sample(range(INPUT_SETS), INPUT_SETS)
                for s in range(INPUT_SETS):
                    x_frac = (x_cells[s] + rng.random()) / INPUT_SETS
                    theta_frac = (theta_cells[s] + rng.random()) / INPUT_SETS
                    x = level * (1.0 + Z_JITTER * (2.0 * x_frac - 1.0))
                    theta = math.pi * width * (j + theta_frac)
                    sets[s].append((i, level, x * cmath.exp(1j * theta)))
    return sets


def is_known_defect(i: int, level: float, kind: str) -> bool:
    spec_index, defect_kind, lowest = KNOWN_DEFECT
    return i == spec_index and kind == defect_kind and level >= lowest


def _call(spec, z: complex, kind: str) -> tuple[complex, float]:
    """(value, remainder envelope) of one large_z call; envelope 0 for hadamard_sum."""
    if kind == "watson_sum":
        ws = laplasym.watson_sum(spec, z, R_TRUNC)
        return ws.value, ws.envelope_alg + ws.envelope_sing
    return laplasym.hadamard_sum(spec, z, R_TRUNC, HADAMARD_TERMS), 0.0


class LargeZ:
    """``watson_sum`` and ``hadamard_sum`` at |z| ~ 100, 400, 1600; an op is one call.

    The calls of KNOWN_DEFECT are left out of the passes (66 ops a pass)
    and made once per run by ``probe_known_defects``.
    """

    seed_used = True
    passes_per_cycle = INPUT_SETS
    # These ops slow down about as the kernel's slow-down to the power 0.65
    # (fitted over 15 runs on a 2-vCPU Xeon); with exponent 1 the slow
    # machine states read fast, and op_ms_p90 spread 12 % over 10 seeds.
    speed_exponent = 0.65

    def __init__(self, tiny: bool) -> None:
        self.levels = LARGE_Z_LEVELS[:1] if tiny else LARGE_Z_LEVELS
        self.specs: list = []
        self.values: dict[tuple, Counter] = {}
        self.refs: dict[tuple, complex] = {}

    def setup(self, seed: int) -> None:
        self.specs = [laplasym.builtin_spec(kind, **params) for _label, kind, params in LARGE_Z_SPECS]
        self.plain_specs = self.specs
        self.inputs = large_z_inputs(seed, self.levels)
        self.reset_outputs()

    def instrument(self, tracer) -> None:
        """Run the ops on traced copies of the specs; the check keeps the plain ones."""
        self.specs = [tracer.instrument_spec(spec) for spec in self.plain_specs]

    def reset_outputs(self) -> None:
        self.values = {}

    def run_pass(self, index: int, calibrate) -> PassResult:
        res = PassResult()
        perf = time.perf_counter
        set_index = index % INPUT_SETS
        for p, (i, level, z) in enumerate(self.inputs[set_index]):
            spec = self.specs[i]
            for kind in ("watson_sum", "hadamard_sum"):
                if is_known_defect(i, level, kind):
                    continue
                calibrate()
                t0 = perf()
                try:
                    out = _call(spec, z, kind)
                except Exception as exc:  # a failing call is a failed op; the loop goes on
                    out = None
                    res.failures[self._label(i, level, kind, type(exc).__name__)] += 1
                t1 = perf()
                res.ops += 1
                res.samples.append((t0, t1 - t0))
                if out is not None:
                    self.values.setdefault((set_index, p, kind), Counter())[out] += 1
        return res

    @staticmethod
    def _label(i: int, level: float, kind: str, what: str) -> str:
        return f"{LARGE_Z_SPECS[i][0]} {kind} |z|~{level:g} {what}"

    def check(self) -> CheckResult:
        """Each value against the float oracle ``reference_value`` (computed here, untimed)."""
        return self._grade(self.values)

    def probe_known_defects(self) -> CheckResult:
        """Make every KNOWN_DEFECT call of all input sets once, untimed, and grade it.

        ``failures`` counts the calls by how they ended, "ok" included;
        ``wrong`` counts values off the float oracle.
        """
        out = CheckResult()
        for set_index, points in enumerate(self.inputs):
            for p, (i, level, z) in enumerate(points):
                kind = KNOWN_DEFECT[1]
                if not is_known_defect(i, level, kind):
                    continue
                try:
                    value = _call(self.plain_specs[i], z, kind)
                except Exception as exc:  # the defect: record how the call ended
                    out.failures[self._label(i, level, kind, type(exc).__name__)] += 1
                    continue
                graded = self._grade({(set_index, p, kind): Counter([value])})
                out.failures += graded.failures or Counter([self._label(i, level, kind, "ok")])
                out.wrong += graded.wrong
        return out

    def _grade(self, values: dict[tuple, Counter]) -> CheckResult:
        out = CheckResult()
        for (set_index, p, kind), found in values.items():
            i, level, z = self.inputs[set_index][p]
            spec = self.plain_specs[i]
            key = (set_index, p)
            if key not in self.refs:
                try:
                    self.refs[key] = laplasym.reference_value(spec, z).value
                except Exception as exc:  # no reference: the value cannot be confirmed
                    out.failures[self._label(i, level, kind, f"reference {type(exc).__name__}")] += sum(found.values())
                    out.wrong += sum(found.values())
                    continue
            ref = self.refs[key]
            x = abs(z)
            # Remainder allowance: 10x the envelopes for the truncated sum; for
            # the Hadamard sum the omitted tail |J| <= A e^{-r|z|} / (|z| - sigma).
            for (value, envelope), count in found.items():
                allowance = 10.0 * envelope
                if kind == "hadamard_sum":
                    allowance = 10.0 * spec.growth_A * math.exp(-R_TRUNC * x) / (x - spec.growth_sigma)
                if not abs(value - ref) <= RTOL * abs(ref) + allowance:
                    out.failures[self._label(i, level, kind, "off the float oracle")] += count
                    out.wrong += count
        return out


# ---------------------------------------------------------------------------
# verify

_NUMBER = re.compile(r"(?<![A-Za-z_\d.])[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _last_place(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def numbers_match(new: str, ref: str) -> bool:
    """Same text around the numbers, and each number within the printed precision.

    Roundoff-level figures (|value| < 1e-6, the identity and reconstruction
    defects) may move freely downward but not rise by more than 100x.
    """
    if _NUMBER.sub("#", new) != _NUMBER.sub("#", ref):
        return False
    for a_tok, b_tok in zip(_NUMBER.findall(new), _NUMBER.findall(ref)):
        a, b = float(a_tok), float(b_tok)
        if abs(b) < 1e-6:
            if abs(a) > 100.0 * abs(b):
                return False
        elif abs(a - b) > 2.0 * _last_place(b_tok):
            return False
    return True


def criterion_signature(result) -> tuple:
    return (result.name, bool(result.passed), result.summary, tuple(result.details))


def signature_matches(sig: tuple, expected: dict) -> bool:
    name, passed, summary, details = sig
    return (
        name == expected["name"]
        and passed == expected["passed"]
        and numbers_match(summary, expected["summary"])
        and len(details) == len(expected["details"])
        and all(numbers_match(a, b) for a, b in zip(details, expected["details"]))
    )


class Verify:
    """``acceptance.run_criteria`` over all nine criteria; an op is one criterion."""

    seed_used = False
    passes_per_cycle = 1
    speed_exponent = 1.0

    def __init__(self, tiny: bool) -> None:
        self.preset = "gammas" if tiny else "all"
        self.outputs: dict[int, Counter] = {}

    def setup(self, seed: int) -> None:
        self.reset_outputs()

    def reset_outputs(self) -> None:
        self.outputs = {}

    def run_pass(self, _index: int, calibrate) -> PassResult:
        from tracing import restore, substitute

        res = PassResult()
        criteria = acceptance.VERIFY_PRESETS[self.preset]
        perf = time.perf_counter

        def timed(fn):
            def run():
                calibrate()
                t0 = perf()
                try:
                    return fn()
                finally:
                    res.samples.append((t0, perf() - t0))

            return run

        undo = []
        for fn in criteria:
            undo += substitute(fn, timed(fn))
        try:
            results = acceptance.run_criteria(self.preset)
        except Exception as exc:  # the criteria after the raising one count as failed
            results = None
            done = len(res.samples)
            res.failures[f"criterion {done} {type(exc).__name__}"] += len(criteria) - done + 1
        finally:
            restore(undo)
        res.ops = len(criteria)
        for i, result in enumerate(results or ()):
            self.outputs.setdefault(i, Counter())[criterion_signature(result)] += 1
        return res

    def check(self) -> CheckResult:
        out = CheckResult()
        expected = {e["name"]: e for e in json.loads((REFERENCE / "verify.json").read_text())}
        for sigs in self.outputs.values():
            for sig, count in sigs.items():
                exp = expected.get(sig[0])
                if exp is None or not signature_matches(sig, exp):
                    out.failures[f"criterion {sig[0]!r} off the frozen status or numbers"] += count
                    out.wrong += count
        return out


def make(name: str, tiny: bool = False):
    if name == "figures":
        return Figures(jobs=1, tiny=tiny)
    if name == "large_z":
        return LargeZ(tiny)
    if name == "verify":
        return Verify(tiny)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
