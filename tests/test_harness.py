"""Tests for the experiment harnesses (small configurations)."""

import json
import pathlib

import pytest

from repro.core.cache import scoped

from repro.harness.fig14 import Fig14Row, average_saving, render_fig14, run_fig14
from repro.harness.report import text_table
from repro.harness.table1 import render_table1, run_table1
from repro.harness.table2 import render_table2, run_table2
from repro.harness.table3 import (
    SCENARIOS,
    render_table3,
    run_scenario,
)

LIGHT = ["frag", "drr"]


def test_text_table_alignment():
    out = text_table(["name", "x"], [("a", 1), ("bb", 22)])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}


def test_table1_rows():
    rows = run_table1(LIGHT, packets=2)
    assert [r.name for r in rows] == LIGHT
    for r in rows:
        assert r.instructions > 0
        assert r.cycles_per_iter > 0
        assert r.reg_p_csb_max <= r.max_pr
        assert r.reg_p_max <= r.max_r
    assert "RegPmax" in render_table1(rows)


def test_table2_matches_committed_json():
    # Pins the committed Table-2 bounds and move counts: every row of a
    # fresh run over the whole suite equals benchmarks/out/BENCH_table2.json.
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "benchmarks" / "out" / "BENCH_table2.json"
    )
    committed = json.loads(path.read_text())["data"]
    with scoped():
        rows = run_table2()
    assert [r.to_dict() for r in rows] == committed


def test_table2_rows():
    rows = run_table2(LIGHT)
    for r in rows:
        assert r.moves >= 0
        assert 0 <= r.overhead < 0.5
    assert "overhead" in render_table2(rows)


def test_fig14_rows():
    rows = run_fig14(LIGHT, nthd=4, nreg=128)
    for r in rows:
        assert r.multithread_total <= r.baseline_total
        assert 0 <= r.saving < 1
    assert 0 <= average_saving(rows) < 1
    assert "saving" in render_fig14(rows)


def test_fig14_row_arithmetic():
    row = Fig14Row(name="x", single_thread_regs=10, pr=8, sr=4, nthd=4)
    assert row.baseline_total == 40
    assert row.multithread_total == 36
    assert row.saving == pytest.approx(0.1)


def test_table3_scenarios_registered():
    assert len(SCENARIOS) == 3
    for names in SCENARIOS.values():
        assert len(names) == 4


def test_table3_small_scenario():
    sc = run_scenario(
        "light", ("frag", "drr", "url", "ipchains"), nreg=128, packets=10
    )
    assert sc.verified
    assert len(sc.threads) == 4
    for t in sc.threads:
        assert t.cycles_spill > 0 and t.cycles_sharing > 0
    assert "cyc/iter" in render_table3([sc])
