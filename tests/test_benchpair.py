"""The claim-run tool's summary arithmetic, on synthetic runs.

The fixed numbers are a real ten-pair row (``cold_build`` seed 1,
``setup_s`` and ``throughput_norm_rps``) whose summary was recorded by
hand before the tool existed; the tool must reproduce it to the
recorded 4 decimals (the hand summary read the unrounded runs, so the
last digit may differ by one).
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "benchpair", ROOT / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)

SETUP_PARENT = [2.8327, 2.1807, 2.3968, 1.9991, 2.8298, 1.9721, 2.0766,
                2.1247, 2.4006, 2.0373]
RPS_PARENT = [176.9644, 170.7617, 175.9872, 168.2765, 175.6137, 168.1562,
              169.2826, 165.3997, 168.3156, 171.2457]
RPS_CHANGE = [204.3436, 199.3672, 203.9703, 202.1753, 200.9983, 199.6197,
              199.4164, 210.4946, 201.623, 200.4418]


def test_quartiles_are_inclusive():
    q1, median, q3 = benchpair.quartiles(SETUP_PARENT)
    assert (q1, median, q3) == pytest.approx((2.0471, 2.1527, 2.3997),
                                             abs=1.5e-4)
    assert benchpair.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_higher_is_better_summary():
    row = benchpair.summarize(RPS_PARENT, RPS_CHANGE, "higher", 0.25)
    near = dict(abs=1.5e-4)
    assert row["parent"]["median"] == pytest.approx(170.0221, **near)
    assert row["parent"]["q1"] == pytest.approx(168.2863, **near)
    assert row["parent"]["q3"] == pytest.approx(174.5217, **near)
    assert row["change"]["median"] == pytest.approx(201.3106, **near)
    assert row["change_wins"] == 10
    assert row["parent_iqr"] == pytest.approx(6.2354, **near)
    assert row["change_vs_parent"] == 1.184
    assert row["worse_by"] == -0.184
    assert row["within_bound"] is True
    assert row["parent"]["runs"] == RPS_PARENT


def test_lower_is_better_and_the_bound():
    parent = [10.0, 10.0, 10.0, 10.0]
    slower = [11.0, 9.0, 11.5, 11.0]
    row = benchpair.summarize(parent, slower, "lower", 0.1)
    assert row["change_wins"] == 1  # only 9.0 < 10.0; ties never win
    assert row["change_vs_parent"] == 1.1
    assert row["worse_by"] == 0.1
    assert row["within_bound"] is True  # exactly at the bound
    row = benchpair.summarize(parent, [11.5] * 4, "lower", 0.1)
    assert row["worse_by"] == 0.15 and row["within_bound"] is False
    tied = benchpair.summarize(parent, parent, "higher", 0.0)
    assert tied["change_wins"] == 0 and tied["within_bound"] is True


@pytest.mark.parametrize("parent, change, better", [
    ([1.0, 2.0], [1.0], "higher"),
    ([], [], "higher"),
    ([1.0], [1.0], "sideways"),
])
def test_bad_inputs_raise(parent, change, better):
    with pytest.raises(ValueError):
        benchpair.summarize(parent, change, better, 0.1)


def test_paired_row_alternates_and_reads_bounds(monkeypatch):
    """Pairs alternate which side runs first; every gated metric of
    ``BENCHMARK.json`` is summarized with the bound written there."""
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        calls.append(tree)
        side = len([c for c in calls if c == tree])
        value = 100.0 + side + (50.0 if tree == "change" else 0.0)
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                            for m in gated}}

    monkeypatch.setattr(benchpair, "run_once", fake_run)
    row = benchpair.paired_row({"parent": "parent", "change": "change"},
                               "cold_build", 5, 4, 2.0, gated)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert row["seeds"] == [5] and row["pairs"] == 4
    assert row["attempted_ops"] == {"parent": 40, "change": 40}
    assert row["all_correct"] is True
    assert set(row["metrics"]) == {m["name"] for m in gated}
    for m in gated:
        summary = row["metrics"][m["name"]]
        assert summary["bound"] == m["bound"]
        assert summary["better"] == m["better"]
        assert summary["unit"] == m["unit"]
        assert summary["change_wins"] == (4 if m["better"] == "higher"
                                          else 0)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_run_once_refuses_a_non_finite_metric(monkeypatch, constant):
    """A run whose last line carries a bare non-JSON constant fails,
    naming the tree, workload and seed; a clean line parses."""
    line = '{"correct": true, "metrics": {"a": {"value": %s}}}'

    def fake(cmd, cwd, **kwargs):
        return subprocess.CompletedProcess(
            cmd, 0, stdout="booting\n" + line % stdout_value, stderr="")

    monkeypatch.setattr(benchpair.subprocess, "run", fake)
    stdout_value = "1.5"
    assert benchpair.run_once(Path("tree-a"), "cold_build", 5, 1.0, 1) == {
        "correct": True, "metrics": {"a": {"value": 1.5}}}
    stdout_value = constant
    with pytest.raises(RuntimeError) as raised:
        benchpair.run_once(Path("tree-a"), "cold_build", 5, 1.0, 1)
    message = str(raised.value)
    assert "tree-a" in message and "cold_build" in message
    assert "seed 5" in message and constant in message


def test_parent_checkout_adds_and_removes_a_worktree(monkeypatch):
    """Without ``--parent-tree`` the parent is a detached ``git
    worktree`` of the revision in a temporary directory, removed on
    exit even when the run fails."""
    calls = []

    def fake(cmd, cwd, **kwargs):
        calls.append((cmd, cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")

    monkeypatch.setattr(benchpair.subprocess, "run", fake)
    with pytest.raises(RuntimeError):
        with benchpair.parent_checkout("abc123", None) as tree:
            assert tree.name == "parent"
            raise RuntimeError("perfbench failed")
    (add, add_cwd), (remove, remove_cwd) = calls
    assert add == ["git", "worktree", "add", "--detach", str(tree), "abc123"]
    assert remove == ["git", "worktree", "remove", "--force", str(tree)]
    assert add_cwd == remove_cwd == benchpair.ROOT
    calls.clear()
    with benchpair.parent_checkout("abc123", "some/tree") as given:
        assert given == Path("some/tree").resolve()
    assert calls == []
