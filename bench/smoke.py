"""Smoke test of the benchmark on a tiny sweep (N = 4, 2 x 2 grid).

    python3 bench/smoke.py            (or: python3 -m pytest bench/smoke.py)

Checks that both modes print every metric named in BENCHMARK.json with its
unit, and that the reference check rejects a perturbed output row. It skips
the figure-preset checks, which need the full preset grids.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from reference import check_rows  # noqa: E402

SMOKE = run.Workload(
    name="smoke",
    axes=(("v", 0.1, 0.4, (0.1, 0.4)), ("T", 0.02, 0.3, (0.02, 0.3))),
    fixed={"n_cells": 4, "w": 0.5, "z": 0.2},
    boundary="periodic",
    quantities=run.ALL_QUANTITIES,
    modes=("literal", "weighted", "determinant"),
)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure(trace: int):
    run.WORK.mkdir(exist_ok=True)
    config_path = run.WORK / "smoke.json"
    config_path.write_text(json.dumps(SMOKE.config(0)))
    tally = run.Tally()
    measure = run.measure_layers if trace else run.measure_end_to_end
    metrics, notes, outputs = measure(SMOKE, config_path, 0.2, tally)
    checked = run.reference_check(outputs.rows, 0, tally)
    return run.report(metrics, notes, tally, checked), outputs


def _assert_reported(lines, declared):
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1, lines
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        pattern = rf"^{re.escape(name)} = -?[0-9.e+-]+ {re.escape(unit)}(\s|$)"
        assert any(re.match(pattern, line) for line in lines), f"{name} [{unit}] not printed"
        assert summary["metrics"][name]["unit"] == unit
    assert set(summary["metrics"]) == {metric["name"] for metric in declared}


def test_end_to_end_metrics_printed_with_units():
    lines, _ = _measure(trace=0)
    _assert_reported(lines, SPEC["end_to_end"])


def test_layer_metrics_printed_with_units_and_reference_rejects_perturbed_rows():
    lines, outputs = _measure(trace=1)
    _assert_reported(lines, SPEC["per_layer"])
    rows = outputs.rows
    assert len(rows) == SMOKE.rows()
    everything = range(len(rows))
    assert check_rows(rows, everything) == {}
    determinant = next(i for i, r in enumerate(rows) if r["mode"] == "determinant" and r["P_defined"])
    for column, delta in (("M_xx", 1e-6), ("M_xz", 1e-6), ("i_p", 1e-6), ("dir_y", 1e-3),
                          ("P", 0.25), ("magnitude", 1e-5), ("purity", 1e-6), ("entropy", 1e-6)):
        perturbed = copy.deepcopy(rows)
        perturbed[determinant][column] += delta
        failures = check_rows(perturbed, everything)
        assert list(failures) == [determinant], (column, failures)


def test_missing_seam_is_a_note_not_a_crash():
    sys.path.insert(0, str(run.SRC))
    saved = spans.SEAMS
    spans.SEAMS = saved + (("gone.layer", "topo_thermo.sweep", "no_such_function", None),
                           ("gone.mode", "topo_thermo.sweep", "_POLARIZATION_DISPATCH", "no_such_mode"))
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert [note.split(":")[0] for note in tracer.missing] == ["gone.layer", "gone.mode"]
        assert tracer.summary()["calls"]["gone.layer"] == 0
    finally:
        tracer.uninstall()
        spans.SEAMS = saved


if __name__ == "__main__":
    test_missing_seam_is_a_note_not_a_crash()
    test_end_to_end_metrics_printed_with_units()
    test_layer_metrics_printed_with_units_and_reference_rejects_perturbed_rows()
    print("smoke: ok")
