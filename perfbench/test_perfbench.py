"""Tests of the benchmark itself, at sizes that run in seconds.

Run from the root of the checkout::

    python3 -m pytest perfbench
"""

import json
import platform
import shutil
import subprocess
import sys

import pytest

import run
import speed
import tracing
import workloads

TINY = {
    "match": {"members": 6, "records_per_member": 5, "taxonomy_types": 15},
    "resolve": {"depth": 2, "fanout": 2, "members_per_community": 5, "conditions": 20},
    "experiment": {"agents": 6, "replicates": 2},
    "simulate-large": {"agents": 30, "replicates": 1},
}


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def generate(name, tmp_path, seed=0):
    work = tmp_path / f"{name}-{seed}"
    work.mkdir()
    return workloads.GENERATORS[name](work, seed, **TINY[name])


def run_in_process(case):
    wall, code, stdout = run.run_in_process(case, None)
    assert code == 0
    return stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_prints_exactly_the_declared_metrics(name, trace):
    with run.Spawner() as spawner:
        result, lines = run.run_workload(name, seed=3, seconds=0.01, trace=trace,
                                         spawner=spawner, overrides=TINY[name])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(line.startswith("#") for line in lines)


def test_traced_counts_equal_hand_known_values():
    match, _ = run.run_workload("match", 1, 0.01, 1, overrides=TINY["match"])
    resolve, _ = run.run_workload("resolve", 1, 0.01, 1, overrides=TINY["resolve"])
    experiment, _ = run.run_workload("experiment", 1, 0.01, 1, overrides=TINY["experiment"])
    value = lambda result, key: result["metrics"][key]["value"]  # noqa: E731
    assert value(match, "community.publish.calls") == 6 * 5
    assert value(match, "descriptions.parse.records") == 6 * 5
    assert value(match, "descriptions.parse.calls") == 6
    assert value(resolve, "fractal.resolve.calls") == 20
    runs_per_plan = 2 * 2  # two topologies, two replicates each
    runs = 3 * runs_per_plan  # three isolation plans
    assert value(experiment, "diffusion.step.calls") == 150 * runs
    assert value(experiment, "diffusion.run_scenario.calls") == runs
    assert value(experiment, "diffusion.isolate.calls") == runs_per_plan * (0 + 1 + 5)


def test_tracing_leaves_the_program_unpatched(tmp_path):
    from fso import community, diffusion, fractal

    before = (community.match_pair, community.Community.publish,
              fractal.FractalOrganization.resolve, diffusion.step)
    case = generate("experiment", tmp_path)
    run.run_in_process(case, tracing.Tracer())
    after = (community.match_pair, community.Community.publish,
             fractal.FractalOrganization.resolve, diffusion.step)
    assert before == after


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["cli", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1]]
    assert tracer.self_times() == {"cli": 7.0, "a": 2.0, "b": 1.0}


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_generators_are_seeded(name, tmp_path):
    def snapshot(seed, label):
        work = tmp_path / label
        work.mkdir()
        workloads.GENERATORS[name](work, seed, **TINY[name])
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    first = snapshot(5, "a")
    assert first == snapshot(5, "b")
    assert first != snapshot(6, "c")


def test_match_check_rejects_a_lost_record(tmp_path):
    case = generate("match", tmp_path)
    assert case.check(case, run_in_process(case)) == []
    report = json.loads(case.outputs[0].read_text())
    report["pending"].pop()
    case.outputs[0].write_text(json.dumps(report))
    assert case.check(case, "")


def test_resolve_check_rejects_an_unexplained_gap(tmp_path):
    case = generate("resolve", tmp_path)
    assert case.check(case, run_in_process(case)) == []
    report = json.loads(case.outputs[0].read_text())
    report["results"][0].update(status="incomplete", missing_roles=[])
    case.outputs[0].write_text(json.dumps(report))
    assert case.check(case, "")


def test_simulate_check_rejects_a_missing_step(tmp_path):
    case = generate("experiment", tmp_path)
    stdout = run_in_process(case)
    assert case.check(case, stdout) == []
    lines = case.outputs[0].read_text().splitlines(keepends=True)
    case.outputs[0].write_text("".join(lines[:-1]))
    assert case.check(case, stdout)


def test_golden_digest_mismatch_is_reported(tmp_path):
    case = generate("resolve", tmp_path)
    stdout = run_in_process(case)
    assert run.check_outputs(case, stdout, workloads.output_digests(case)) == []
    assert run.check_outputs(case, stdout, {case.outputs[0].name: "0" * 64})


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert set(run.tail([1.0] * 20)) == {"n", "median"}
    assert "p75" in run.tail([1.0] * 40)
    assert "p90" in run.tail([1.0] * 100)
    assert "p99" in run.tail([float(i) for i in range(1000)])


def test_child_peak_rss_excludes_the_benchmark_memory(tmp_path):
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import run\n"
        "with run.Spawner() as spawner:\n"
        "    ballast = bytearray(120 * 2**20)\n"
        "    ballast[::4096] = b'x' * len(range(0, len(ballast), 4096))\n"
        f"    print(spawner.run([sys.executable, '-c', 'pass'], Path({str(tmp_path)!r}))"
        "['rss_mb'])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], cwd=run.ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 60


def test_reference_seconds_scales_each_stretch_by_its_speed():
    slow, fast = 2 * speed.REFERENCE_S, speed.REFERENCE_S / 2
    samples = [(float(t), slow) for t in range(1, 6)] + [(float(t), fast) for t in range(6, 11)]
    # Smoothing keeps every loop time here; 0..5 runs at half speed, 5..6 at
    # the median of both, 6..11 at double speed.
    assert speed.reference_seconds(0.0, 11.0, samples) == pytest.approx(
        5 * 0.5 + 1 * 2.0 + 5 * 2.0)
    assert speed.reference_seconds(0.0, 3.0, []) == 3.0
    one_outlier = [(float(t), speed.REFERENCE_S) for t in range(1, 10)]
    one_outlier[4] = (5.0, 100 * speed.REFERENCE_S)
    assert speed.reference_seconds(0.0, 10.0, one_outlier) == pytest.approx(10.0)


def test_sampled_child_runs_the_module_as_main(tmp_path):
    with run.Spawner() as spawner:
        ok = spawner.run_sampled(["-m", "platform", "--terse"], tmp_path)
        script = tmp_path / "fail.py"
        script.write_text("import sys, time\ntime.sleep(0.1)\nsys.exit(3)\n")
        failed = spawner.run_sampled([str(script)], tmp_path)
    assert ok["code"] == 0 and ok["stdout"].strip() == platform.platform(terse=True)
    assert failed["code"] == 3
    assert 0 < failed["ref_s"] and failed["wall_s"] >= 0.1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout
