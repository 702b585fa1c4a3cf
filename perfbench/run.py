"""Benchmark of the fso command line: four seeded workloads, checked outputs.

Usage, from the root of a checkout (the program is taken from its ``src/``)::

    python3 perfbench/run.py --workload match --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all                 # every workload

Workloads: ``match``, ``resolve``, ``experiment`` and ``simulate-large``
(see ``workloads.py`` for their inputs and why each was chosen).

With ``--trace 0`` each workload runs as the real command, ``python -m
fso.cli``, in a fresh process per run, and the benchmark reports the
end-to-end metrics: median wall time, ops per second, set-up time (a fresh
process that imports the command line and calls the input loader) and the
child's peak RSS.  Times are taken at a reference core speed: every child
runs beside a core-speed sampler (``child.py``, ``speed.py``), which takes
the shared host's speed changes out of them; the raw wall times are in the
report too.  Children are started by ``spawner.py``, so that their peak RSS
does not include this process's memory.  With ``--trace 1`` the command
runs in this process with every traced layer wrapped (``tracing.py``),
alternating with an untraced in-process run; the difference is the tracing
overhead, and the per-layer metrics come from the spans and counts.

Every run's outputs are checked: cheap invariants for any seed, and for
seed 0 the sha256 of every output against ``golden.json``.  A run that
exits non-zero or fails a check fails all its ops.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it, starting with ``#``, are
a readable report with the run's metadata.  The exit code is 0 only when
every output checked out.  Generated inputs go to ``.bench_work/`` and are
removed afterwards; reports and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout: perfbench/ sits at its root
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0

MIN_RUNS = 3  # command runs per measured run, even past --seconds
PROBES_PER_RUN = 2  # set-up probes after each command run; setup_s is their median
MIN_SETUP_PROBES = 7
CHILD_LIMIT_S = 150.0  # a child still running after this is killed and fails


# --- statistics ----------------------------------------------------------


def tail(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    summary = {"n": len(samples), "median": statistics.median(samples)}
    for percent in (99, 95, 90, 75):
        if len(samples) * (100 - percent) >= 1000:
            summary[f"p{percent}"] = tracing.percentile(samples, percent)
            break
    return summary


# --- run metadata --------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    head_path = ROOT / ".git" / "HEAD"
    try:
        head = head_path.read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = ROOT / ".git" / ref
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's sources, which identifies it without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fso").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# --- checking ------------------------------------------------------------


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def check_outputs(case: workloads.Case, stdout: str, golden: dict | None) -> list[str]:
    problems = case.check(case, stdout)
    if golden is not None:
        digests = workloads.output_digests(case)
        for name, want in golden.items():
            if digests.get(name) != want:
                problems.append(f"{case.workload}: sha256 of {name} differs from golden.json")
    return problems


# --- fresh-process runs --------------------------------------------------


class Spawner:
    """Runs each measured child through ``spawner.py``, started while we are small."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_LIMIT_S + 10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], work: Path) -> dict:
        """Run one child to completion: wall time, peak RSS, exit code, output."""
        stdout_path, stderr_path = work / "child.stdout", work / "child.stderr"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path),
                   "cwd": str(ROOT), "env": env, "limit_s": CHILD_LIMIT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        result = json.loads(reply)
        result["stdout"] = stdout_path.read_text(encoding="utf-8", errors="replace")
        result["stderr"] = stderr_path.read_text(encoding="utf-8", errors="replace")
        return result

    def run_sampled(self, args: list[str], work: Path) -> dict:
        """``python <args>`` beside the core-speed sampler; adds ``ref_s``, the
        wall time at the reference speed."""
        samples_path = work / "child.samples.json"
        samples_path.unlink(missing_ok=True)
        result = self.run([sys.executable, str(HERE / "child.py"), str(samples_path), *args],
                          work)
        samples = (json.loads(samples_path.read_text(encoding="utf-8"))
                   if samples_path.is_file() else [])
        result["ref_s"] = speed.reference_seconds(result["started"], result["ended"], samples)
        return result


def measure_end_to_end(case: workloads.Case, work: Path, seconds: float, golden: dict | None,
                       log: list[str], spawner: Spawner) -> tuple[dict, dict, int, int]:
    """Fresh-process command runs and set-up probes, interleaved over the window.

    Noise on a shared machine comes in bursts of seconds, so the set-up
    probes are spread between the command runs instead of taken in a row.
    """
    probe = [str(HERE / "setup_probe.py"), case.loader, *case.load_paths]
    command = ["-m", "fso.cli", *case.argv]
    spawner.run_sampled(probe, work)  # warm the bytecode and file caches, as users find them

    def setup_probe():
        result = spawner.run_sampled(probe, work)
        if result["code"] != 0:
            log.append(f"setup probe exited {result['code']}:"
                       f" {result['stderr'].strip()[-300:]}")
        setups.append(result)

    started = time.perf_counter()
    setups, runs, failed_runs = [], [], 0
    while len(runs) < MIN_RUNS or (
        time.perf_counter() - started + runs[-1]["wall_s"] <= seconds
    ):
        result = spawner.run_sampled(command, work)
        problems = ([f"exit code {result['code']}: {result['stderr'].strip()[-300:]}"]
                    if result["code"] != 0 else check_outputs(case, result["stdout"], golden))
        if problems:
            failed_runs += 1
            log.extend(problems)
        runs.append(result)
        for _ in range(PROBES_PER_RUN):
            setup_probe()
    while len(setups) < MIN_SETUP_PROBES:
        setup_probe()
    walls = [run["ref_s"] for run in runs]
    setup_walls = [result["ref_s"] for result in setups]
    rss = [run["rss_mb"] for run in runs]
    samples = {
        "wall_s": tail(walls),
        "setup_s": tail(setup_walls),
        "peak_rss_mb": tail(rss),
        "raw_wall_s": tail([run["wall_s"] for run in runs]),
        "raw_setup_s": tail([result["wall_s"] for result in setups]),
    }
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "ops_per_s": case.ops / wall,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, samples, failed_runs * case.ops, len(runs) * case.ops


# --- traced in-process runs ----------------------------------------------


def run_in_process(case: workloads.Case, tracer: tracing.Tracer | None) -> tuple[float, int, str]:
    """One in-process run of the command; wrapped layers when traced."""
    from fso import cli

    stdout = io.StringIO()
    main = cli.main
    gc.collect()
    if tracer is not None:
        tracing.install(tracer)
        main = tracer.timed("cli", cli.main)  # the root span
    try:
        with contextlib.redirect_stdout(stdout):
            started = time.perf_counter()
            code = main(case.argv)
            wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, code, stdout.getvalue()


def measure_traced(case: workloads.Case, seconds: float, golden: dict | None,
                   log: list[str], spans_path: Path) -> tuple[dict, dict, int, int]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fso

    if Path(fso.__file__).resolve().parent != (SRC / "fso").resolve():
        raise SystemExit(f"fso was imported from {fso.__file__}, not from {SRC}")
    started = time.perf_counter()
    pairs, failed_runs = [], 0
    first_tracer = None
    while not pairs or time.perf_counter() - started + pairs[-1]["pair_s"] <= seconds:
        pair_started = time.perf_counter()
        tracer = tracing.Tracer()
        plain_wall, plain_code, plain_out = run_in_process(case, None)
        plain_problems = check_outputs(case, plain_out, golden) if plain_code == 0 else [
            f"untraced in-process run exited {plain_code}"]
        traced_wall, traced_code, traced_out = run_in_process(case, tracer)
        traced_problems = check_outputs(case, traced_out, golden) if traced_code == 0 else [
            f"traced in-process run exited {traced_code}"]
        for problems in (plain_problems, traced_problems):
            if problems:
                failed_runs += 1
                log.extend(problems)
        row = tracing.layer_metrics(tracer)
        row["trace.wall_s"] = traced_wall
        row["trace.untraced_wall_s"] = plain_wall
        row["trace.overhead_s"] = traced_wall - plain_wall
        row["pair_s"] = time.perf_counter() - pair_started
        pairs.append(row)
        if first_tracer is None:
            first_tracer = tracer
    spans_path.write_text(json.dumps({
        "spans": first_tracer.spans,
        "tallies": first_tracer.tallies,
        "counts": dict(first_tracer.counts),
    }), encoding="utf-8")
    # Counts repeat exactly for a given input; times are medians over pairs.
    metrics = {name: statistics.median(row[name] for row in pairs)
               if isinstance(pairs[0][name], float) else pairs[0][name]
               for name in pairs[0] if name != "pair_s"}
    info = {"pairs": len(pairs), "shares": tracing.shares(first_tracer)}
    return metrics, info, failed_runs * case.ops, 2 * len(pairs) * case.ops


# --- one workload --------------------------------------------------------


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spawner: Spawner | None = None,
                 overrides: dict | None = None) -> tuple[dict, list[str]]:
    """Generate, measure and check one workload; returns (result, report lines).

    An untraced run needs a ``spawner``.
    """
    meta = metadata()
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    log: list[str] = []
    try:
        case = workloads.GENERATORS[name](work, seed, **(overrides or {}))
        golden = load_golden().get(name) if seed == GOLDEN_SEED and not overrides else None
        stem = OUT / f"{name}-seed{seed}-trace{trace}"
        if trace:
            values, info, failed, attempted = measure_traced(
                case, seconds, golden, log, stem.with_name(stem.name + "-spans.json"))
        else:
            values, info, failed, attempted = measure_end_to_end(
                case, work, seconds, golden, log, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_metrics()[trace]
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    result = {"correct": failed == 0 and not log, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "meta": meta, "params": case.params, "ops_per_run": case.ops,
              "ops_failed_ratio": failed / attempted, "problems": log,
              "samples": info,
              "extra": {k: v for k, v in values.items() if k not in units},
              "result": result}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    lines = [f"# {name} seed={seed} trace={trace} {json.dumps(meta, sort_keys=True)}",
             f"# params {json.dumps(case.params, sort_keys=True)} ops/run={case.ops}"]
    for key, entry in metrics.items():
        lines.append(f"#   {key:<34} {entry['value']:>14.6g} {entry['unit']}")
    if not trace:
        for key, summary in info.items():
            lines.append(f"#   samples {key}: {json.dumps(summary)}")
    else:
        lines.append(f"#   traced pairs: {info['pairs']}; span time as a share of the"
                     f" traced command: " + ", ".join(
                         f"{k} {v:.1%}" for k, v in info["shares"].items()))
    lines.append(f"#   ops_failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    lines.extend(f"# FAILED {problem}" for problem in log[:20])
    return result, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fso" / "cli.py").is_file():
        print(f"error: no fso sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    with Spawner() as spawner:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace, spawner)
            print("\n".join(lines), flush=True)
            results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": entry for name, r in results.items()
                        for key, entry in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
