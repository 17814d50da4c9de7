#!/usr/bin/env python3
"""Regenerate the frozen reference data the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Writes reference/figures/<panel>.csv (one ``write_csv`` file per config of
the fig1a, fig1b, fig2a and fig2b presets) and reference/verify.json (name,
pass/fail status, summary and detail lines of every acceptance criterion).
Run it only on a commit whose outputs are known to be right: the frozen
files define what the benchmark accepts.
"""

import json

import workloads
from laplasym import acceptance, sweep


def main() -> None:
    figures = workloads.REFERENCE / "figures"
    figures.mkdir(parents=True, exist_ok=True)
    for name, cfg in workloads.figure_panels():
        sweep.write_csv(sweep.run_sweep(cfg), str(figures / f"{name}.csv"))
        print(f"wrote {figures / name}.csv")
    expected = [
        {"name": r.name, "passed": bool(r.passed), "summary": r.summary, "details": list(r.details)}
        for r in acceptance.run_criteria("all")
    ]
    path = workloads.REFERENCE / "verify.json"
    path.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path} ({sum(not e['passed'] for e in expected)} criteria red)")


if __name__ == "__main__":
    main()
