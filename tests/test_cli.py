import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from aggnet import checks, flows
from aggnet.cli import main
from aggnet.graph import save_graph


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def triangle_file(tmp_path, triangle):
    path = tmp_path / "triangle.json"
    save_graph(triangle, path)
    return str(path)


@pytest.fixture
def schedules_file(tmp_path, shared_channel):
    path = tmp_path / "schedules.json"
    flows.save_schedule_set(shared_channel, path)
    return str(path)


def test_analyze_wired(runner, triangle_file):
    result = runner.invoke(main, ["analyze", "--graph", triangle_file])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["delta_star"] == 1.0
    assert doc["lambda_star"] == 1.0
    assert doc["argmin_node"] == 1
    assert doc["cut"] == [[1, 0]]
    total = sum(entry["weight"] for entry in doc["packing"])
    assert abs(total - 1.0) <= 1e-6


def test_analyze_with_schedules(runner, triangle_file, schedules_file, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "analyze", "--graph", triangle_file, "--schedules", schedules_file,
        "--function", "max", "--alphabet-size", "4", "-o", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["delta_star"] == pytest.approx(0.5, abs=1e-6)
    assert doc["lambda_star"] == pytest.approx(0.25, abs=1e-6)  # log2(4) = 2
    assert "sss_rule" in doc


def test_analyze_with_tree_subset(runner, triangle_file, tmp_path):
    tpath = tmp_path / "trees.json"
    tpath.write_text(json.dumps({"trees": [{"1": 0, "2": 1}]}))
    result = runner.invoke(main, [
        "analyze", "--graph", triangle_file, "--trees", str(tpath),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert len(doc["packing"]) == 1
    assert doc["packing"][0]["parents"] == {"1": 0, "2": 1}
    assert doc["packing"][0]["weight"] == pytest.approx(1.0)


def test_simulate_wireline(runner, triangle_file, tmp_path):
    prefix = str(tmp_path / "run")
    result = runner.invoke(main, [
        "simulate", "--model", "wireline", "--graph", triangle_file,
        "--lambda", "0.5", "--seed", "3", "--horizon", "2000",
        "--sample-every", "5", "--out-prefix", prefix,
    ])
    assert result.exit_code == 0, result.output
    assert "stable" in result.output
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["verdict"] == "stable"
    assert summary["completed"] > 500
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    assert header == "time,rounds_in_flight,completed,mean_latency"


def test_simulate_wireless_static(runner, triangle_file, schedules_file, tmp_path):
    prefix = str(tmp_path / "w")
    result = runner.invoke(main, [
        "simulate", "--model", "wireless", "--graph", triangle_file,
        "--schedules", schedules_file, "--policy", "static-sss",
        "--lambda", "0.3", "--seed", "5", "--horizon", "3000",
        "--sample-every", "5", "--out-prefix", prefix,
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "w.json").read_text())
    assert summary["verdict"] == "stable"
    header = (tmp_path / "w.csv").read_text().splitlines()[0]
    assert header.startswith("slot,total_useful,total_nonuseful,V,completed,mean_latency")


def test_simulate_requires_seed(runner, triangle_file):
    result = runner.invoke(main, [
        "simulate", "--model", "wireline", "--graph", triangle_file,
        "--lambda", "0.5", "--horizon", "100",
    ])
    assert result.exit_code != 0


def test_sweep_command(runner, triangle_file, tmp_path):
    cfg = {
        "model": "wireline",
        "graph": triangle_file,
        "lambdas": [0.5, 1.5],
        "seeds": [1],
        "horizon": 2000.0,
        "sample_every": 5.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    result = runner.invoke(main, [
        "sweep", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["lambda_hat"] == 0.5
    grid = {entry["lambda"]: entry["stable_all"] for entry in summary["grid"]}
    assert grid == {0.5: True, 1.5: False}


def test_sweep_flag_overrides(runner, triangle_file, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": "wireline", "graph": triangle_file,
        "lambdas": [9.9], "seeds": [1], "horizon": 100.0,
    }))
    result = runner.invoke(main, [
        "sweep", "--config", str(cfg_path),
        "--lambdas", "0.5", "--seeds", "7,8", "--horizon", "2000",
        "--sample-every", "5",
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["lambda_hat"] == 0.5
    assert not summary["definitive"]  # fewer than three seeds
    assert set(summary["grid"][0]["verdicts"]) == {"7", "8"}


def test_verify_command(runner, tmp_path):
    out = tmp_path / "verify.json"
    result = runner.invoke(main, ["verify", "--suite", "fmux", "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert "[PASS] fmux.fmux_properties" in result.output
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert [c["name"] for c in doc["suites"]["fmux"]] == ["fmux_properties"]


def test_verify_failure_exits_nonzero(runner, monkeypatch):
    def fmux_properties():
        raise AssertionError("forced failure")

    monkeypatch.setitem(checks.SUITES, "fmux", (fmux_properties,))
    result = runner.invoke(main, ["verify", "--suite", "fmux"])
    assert result.exit_code == 1
    assert "[FAIL] fmux.fmux_properties: forced failure" in result.output


def test_package_error_is_one_line(runner, triangle_file):
    result = runner.invoke(main, [
        "simulate", "--model", "wireline", "--graph", triangle_file,
        "--lambda", "0.5", "--seed", "1", "--horizon", "10", "--sample-every", "0",
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: sample_every must be positive, got 0.0\n"


def test_single_tree_policy_with_two_trees_is_one_line(runner, triangle_file):
    # The default --trees all gives the triangle's two trees.
    result = runner.invoke(main, [
        "simulate", "--model", "wireless", "--graph", triangle_file,
        "--policy", "single-tree", "--lambda", "0.3", "--seed", "1", "--horizon", "100",
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: single-tree requires exactly one tree, got 2\n"


def test_wireline_with_a_wireless_policy_is_one_line(runner, triangle_file):
    result = runner.invoke(main, [
        "simulate", "--model", "wireline", "--graph", triangle_file,
        "--policy", "static-sss", "--lambda", "0.5", "--seed", "1", "--horizon", "10",
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("Error: wireline runs one policy, 'greedy-maxweight'; "
                             "got 'static-sss'\n")


def test_split_weights_without_fixed_split_is_one_line(runner, triangle_file, tmp_path):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"model": "wireless", "graph": triangle_file,
                                 "lambdas": [0.3], "seeds": [1], "horizon": 100.0,
                                 "policy": "fixed-split", "split_weights": [1.0, 0.0]}))
    result = runner.invoke(main, ["sweep", "--config", str(cpath),
                                  "--policy", "greedy-maxweight"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("Error: split_weights are read only by policy "
                             "'fixed-split', got 'greedy-maxweight'\n")


def test_too_many_trees_is_one_line(runner, triangle_file):
    result = runner.invoke(main, ["analyze", "--graph", triangle_file, "--tree-limit", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: more than 1 aggregation trees")
    assert len(result.output.splitlines()) == 1


def test_other_errors_propagate(runner, triangle_file, monkeypatch):
    def broken(*args):
        raise RuntimeError("not a package error")

    monkeypatch.setattr(flows, "min_mincut", broken)
    result = runner.invoke(main, ["analyze", "--graph", triangle_file])
    assert isinstance(result.exception, RuntimeError)


def test_wireline_simulate_process_loads_no_solver(tmp_path, triangle_file, src_env):
    # The entry point as its own process: a wireline run writes its CSV and
    # summary, and -X importtime lists no numpy or scipy module.
    prefix = tmp_path / "run"
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "aggnet.cli", "simulate",
         "--model", "wireline", "--graph", triangle_file, "--lambda", "0.5",
         "--seed", "1", "--horizon", "200", "--out-prefix", str(prefix)],
        env=src_env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "run.csv").read_text().startswith("time,rounds_in_flight,")
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["model"] == "wireline" and summary["completed"] > 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "aggnet.flows" in imported
    assert [m for m in imported if m.partition(".")[0] in ("numpy", "scipy")] == []
