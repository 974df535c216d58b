"""Benchmark of ``energyseg report`` on named synthetic workloads.

Run from the repository root (no build step; the package runs from ``src``):

    python3 perfbench/run.py --workload minute-graph --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --self-check        # tiny sizes, one run each, every check

One run is a closed loop with one client: a fresh ``energyseg synth`` process
makes the workload's dataset from the seed (set-up, repeated SETUP_REPS
times), then fresh ``energyseg report`` processes run one after another for
``--seconds`` (at least MIN_REPORT_REPS of them). Wall time, CPU time and peak
RSS come from ``os.wait4`` on each child, so every figure is that one
process's own. Each process's outputs are checked; a failed check or a
non-zero exit counts the process as failed. With ``--trace 1`` one more report
runs under ``tracer.py`` and the per-layer metrics are printed instead of the
end-to-end ones.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it name each metric with its unit, the
environment the figures depend on, and a digest of every artifact. All files
go to ``.perfbench_runs/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_REPS = 3
MIN_REPORT_REPS = 3
RUN_LIMIT_S = 170.0  # a run must have ended 180 s after it started
MB = 1e6
MINUTES_PER_DAY = 1440
# With two OpenBLAS threads on two cores the lasso ran twice as slow, CPU was
# 1.6 times wall time and report_s spread 17% between seeds. See README.md.
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Workload:
    players_per_class: tuple[int, int, int]
    days: int
    config: dict
    from_csv: bool  # report --input the set-up CSV, or generate the table in-process


# Why each workload exists is recorded in BENCHMARK.json; the layer each one
# stresses is listed in perfbench/README.md.
WORKLOADS = {
    "minute-graph": Workload((1, 1, 1), 3, {}, True),
    "csv-ingest": Workload((2, 2, 2), 4, {"features": {"graph_granularity": "daily"}}, True),
    "minute-cluster": Workload(
        (1, 1, 1),
        1,
        {"features": {"clustering_granularity": "minute"}, "clustering": {"k_range": [2, 3]}},
        False,
    ),
}
# one day keeps the self-check short; one workload per report mode
SELF_CHECK = {
    "self-check-csv": Workload((1, 1, 1), 1, WORKLOADS["minute-graph"].config, True),
    "self-check-synth": Workload((1, 1, 1), 1, WORKLOADS["minute-cluster"].config, False),
}

# Printed before each result: what the figures depend on. The bytes of
# graph.json, edges.csv and causality.* depend on the BLAS thread count.
ENV_PROBE = r"""
import ctypes, json, sys
import numpy, scipy
import energyseg.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
for lib in libs:
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        try:
            threads = getattr(ctypes.CDLL(lib), symbol)()
            break
        except (AttributeError, OSError):
            pass
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
}))
"""


@dataclass
class Child:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], log: Path, deadline: float) -> Child:
    """Run one process to its end; kill it if it outlives ``deadline``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT
        )
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(0.1, deadline - time.monotonic()))
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
            # report the largest of all children so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        argv=argv,
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / MB,
    )


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "energyseg.cli", *map(str, args)]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def check_report(out_dir: Path, dataset_digest: str, expected_rows: int) -> tuple[list[str], dict]:
    """Problems found in one report directory, and the digest of each artifact."""
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        return ["report.json is missing"], {}
    report = json.loads(report_path.read_text())
    problems = [f"inventory file missing: {f}" for f in report["files"] if not (out_dir / f).is_file()]
    digests = {
        f: digest(out_dir / f)
        for f in report["files"]
        if f != "report.json" and (out_dir / f).is_file()
    }
    if digests.get("dataset.csv") != dataset_digest:
        problems.append("dataset.csv differs from the set-up synth output")
    records = report["stages"][0]["summary"].get("records")
    if records != expected_rows:
        problems.append(f"first stage saw {records} records, expected {expected_rows}")
    return problems, digests


class Tally:
    """Attempted and failed processes of one run, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, child: Child, problems: list[str]) -> bool:
        self.attempted += 1
        if child.code != 0:
            problems = [f"exit code {child.code}"] + problems
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(child.argv[1:])}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def environment(work: Path, deadline: float) -> dict | None:
    """Probe the interpreter, libraries and machine; also warms the import."""
    child = spawn([sys.executable, "-c", ENV_PROBE], work / "probe.log", deadline)
    if child.code != 0:
        return None
    lines = (work / "probe.log").read_text().strip().splitlines()
    env = json.loads(lines[-1])
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = rev.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "energyseg").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        **env,
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def run_workload(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result plus everything recorded on the way."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    result = {"workload": name, "seed": seed, "environment": environment(work, deadline)}
    if result["environment"] is None:
        tally.attempted += 1
        tally.failed += 1
        print("FAILED environment probe: see " + str(work / "probe.log"), file=sys.stderr)
        return {**result, "tally": tally}

    players = ",".join(map(str, workload.players_per_class))
    expected_rows = sum(workload.players_per_class) * workload.days * MINUTES_PER_DAY
    config = dict(workload.config)
    if not workload.from_csv:
        config["synth"] = {"players_per_class": list(workload.players_per_class), "n_days": workload.days}
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    # -- set-up: the dataset, written by a standalone synth -------------------
    setup_dir = work / "setup"
    dataset = setup_dir / "dataset.csv"
    setups: list[Child] = []
    dataset_digest = None
    for rep in range(SETUP_REPS):
        shutil.rmtree(setup_dir, ignore_errors=True)
        child = spawn(
            cli("synth", "--seed", seed, "--players-per-class", players, "--days", workload.days,
                "--out", setup_dir),
            work / f"setup_{rep}.log",
            deadline,
        )
        problems = []
        if child.code == 0:
            if not dataset.is_file():
                problems.append("synth wrote no dataset.csv")
            elif dataset_digest not in (None, digest(dataset)):
                problems.append("dataset.csv differs between synth runs")
            else:
                dataset_digest = digest(dataset)
        if tally.record(child, problems):
            setups.append(child)
    if len(setups) < SETUP_REPS:
        return {**result, "tally": tally}

    # -- measured loop: fresh report processes for `seconds` ------------------
    report_dir = work / "report"
    report_args = ["report", "--config", config_path, "--seed", seed, "--out", report_dir]
    if workload.from_csv:
        report_args += ["--input", dataset]
    digests: dict = {}

    def report(argv: list[str], log: Path) -> Child | None:
        """One checked report process; None if it failed."""
        shutil.rmtree(report_dir, ignore_errors=True)
        child = spawn(argv, log, deadline)
        problems = []
        if child.code == 0:
            problems, found = check_report(report_dir, dataset_digest, expected_rows)
            # every artifact but report.json is the same on every run
            if not digests:
                digests.update(found)
            elif found != digests:
                problems.append("artifacts differ from the first report's")
        return child if tally.record(child, problems) else None

    reports: list[Child] = []
    loop_start = time.monotonic()
    while len(reports) < MIN_REPORT_REPS or time.monotonic() - loop_start < seconds:
        child = report(cli(*report_args), work / f"report_{tally.attempted}.log")
        if child is None:
            break
        reports.append(child)
        if time.monotonic() + child.wall_s > deadline:
            break
    if tally.failed or not reports:
        return {**result, "tally": tally}
    result["artifacts"] = digests
    result["processes"] = [asdict(c) for c in setups + reports]
    result["metrics"] = {
        "report_s": {"value": statistics.median(c.wall_s for c in reports), "unit": "s"},
        "report_cpu_s": {"value": statistics.median(c.cpu_s for c in reports), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(c.rss_mb for c in reports), "unit": "MB"},
        "setup_s": {"value": statistics.median(c.wall_s for c in setups), "unit": "s"},
        "setup_peak_rss_mb": {"value": statistics.median(c.rss_mb for c in setups), "unit": "MB"},
    }

    # -- traced run: one more report with spans around each layer -------------
    if trace:
        layers_path = work / "layers.json"
        child = report([sys.executable, str(TRACER), str(layers_path), *map(str, report_args)],
                       work / "traced.log")
        if child is not None:
            layers = json.loads(layers_path.read_text())
            overhead = child.wall_s - result["metrics"]["report_s"]["value"]
            layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            result["layers"] = layers
    return {**result, "tally": tally}


def emit(result: dict, trace: bool) -> bool:
    """Print the named metrics, environment and digests, then the result line."""
    tally = result.pop("tally")
    name = result["workload"]
    metrics = result.get("layers" if trace else "metrics", {})
    correct = tally.failed == 0 and bool(metrics)
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    (work / "result.json").write_text(
        json.dumps({**result, "attempted": tally.attempted, "failed": tally.failed}, indent=2) + "\n"
    )
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']} {entry['unit']}")
    print(f"{name} failed_frac {tally.failed / max(1, tally.attempted)} ({tally.failed}/{tally.attempted})")
    print(f"{name} environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"{name} artifacts {json.dumps(result.get('artifacts'), sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return correct


def self_check() -> bool:
    """Every check of a run at tiny sizes, and the metric names against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    ok = set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
    if not ok:
        print("FAILED workload names differ from BENCHMARK.json", file=sys.stderr)
    for name, workload in SELF_CHECK.items():
        result = run_workload(name, workload, seed=1, seconds=0, trace=True)
        for trace in (False, True):
            got = set(result.get("layers" if trace else "metrics", {}))
            if got != expected[trace]:
                ok = False
                print(f"FAILED {name}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(expected[trace] - got)}, extra {sorted(got - expected[trace])}",
                      file=sys.stderr)
        ok = emit(result, trace=True) and ok
    print("self-check " + ("passed" if ok else "FAILED"))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (SRC / "energyseg" / "cli.py").is_file():
        print(f"perfbench: no energyseg source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.self_check:
        return 0 if self_check() else 1
    if args.workload is None:
        parser.error("--workload or --self-check is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        ok = emit(result, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
