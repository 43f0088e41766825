"""Benchmark of vecpart CLI jobs on seeded planted-partition graphs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is a fresh ``python -m vecpart.cli ...`` process. One job is in
flight at a time (closed loop, one client), and every job runs under a
deadline. With ``--trace 0`` the run times the jobs end to end. With
``--trace 1`` it runs every job twice, untraced and then under
``perfbench/tracejob.py``, which times the calls into each module, and
reports per-layer numbers. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "vecpart" / "report_schema.json"
TRACEJOB = Path(__file__).resolve().parent / "tracejob.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

# Far above the slowest job that completes (about 6 s at full size), so that
# only a job that never ends is killed and fail_ratio does not depend on load.
DEADLINE_S = 30.0
# Job j of a run with seed s runs on the graph of seed s * SEED_STRIDE + j.
SEED_STRIDE = 1000
TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """A graph family and the cycle of CLI jobs run on its graphs.

    ``family`` holds the ``planted_partition(k, size, p_in, p_out)``
    parameters; ``cycle`` holds job argument templates, visited in order.
    """

    name: str
    family: tuple[int, int, float, float]
    cycle: tuple[tuple[str, ...], ...]


SCAN_POINTS = 10
# Every workload's family at the smoke-test size, n = 100.
TINY = (4, 25, 0.3, 0.02)
N1000 = (10, 100, 0.1, 0.005)

# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lowdim_partition",
            (20, 100, 0.1, 0.004),
            (
                ("partition", "{graph}", "--dim", "24", "--mode", "exponential", "--time", "5"),
                ("partition", "{graph}", "--dim", "24", "--mode", "modularity"),
            ),
        ),
        Workload(
            "fulldim_stability",
            N1000,
            (
                ("partition", "{graph}", "--mode", "exponential", "--time", "5", "--restarts", "2"),
                ("partition", "{graph}", "--mode", "linearised", "--time", "1", "--restarts", "2"),
            ),
        ),
        Workload(
            "scan",
            N1000,
            (
                (
                    "scan", "{graph}", "--tmin", "0.1", "--tmax", "100",
                    "--npoints", str(SCAN_POINTS), "--dim", "14", "--truth", "{truth}",
                ),
            ),
        ),
        # Not in BENCHMARK.json: modularity mode at full dimension never
        # terminates on some of these graphs, so its jobs hit the deadline.
        Workload(
            "fulldim_partition",
            N1000,
            (
                ("partition", "{graph}", "--mode", "exponential", "--time", "5", "--restarts", "2"),
                ("partition", "{graph}", "--mode", "linearised", "--time", "1", "--restarts", "2"),
                ("partition", "{graph}", "--mode", "modularity", "--restarts", "2"),
            ),
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "records_per_s": "1/s",
    "fail_ratio": "1",
    "nmi_mean": "1",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics in the final JSON line. job_s_tail needs more
# samples than one run holds, and fail_ratio is 0 on the workloads that
# BENCHMARK.json lists; both are printed above it, and the JSON keeps
# attempted and failed.
GATED_END_TO_END = ("setup_s", "job_s_p50", "records_per_s", "nmi_mean", "peak_rss_mb")

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "graph.load_s": "s",
    "graph.edges": "count",
    "spectral.decompose_s": "s",
    "spectral.decompose_calls": "count",
    "spectral.basis_pairs": "count",
    "spectral.embed_s": "s",
    "spectral.rss_delta_mb": "MB",
    "harness.self_s": "s",
    "vp.partition_s": "s",
    "vp.restart_s_p50": "s",
    "vp.calls": "count",
    "vp.levels": "count",
    "vp.sweeps": "count",
    "vp.moves": "count",
    "vp.moves_per_sweep": "1",
    "vp.dim": "count",
    "vp.failed": "count",
    "objective.stability_s": "s",
    "objective.calls": "count",
    "metrics.s": "s",
    "metrics.calls": "count",
    "trace.coverage": "1",
    "trace.overhead_s": "s",
}


@dataclass
class GraphCase:
    seed: int
    graph: object
    truth: object
    graph_path: Path
    truth_path: Path
    sha256: str
    setup_s: float


@dataclass
class Job:
    index: int
    case: GraphCase
    argv: list[str]
    output: Path

    @property
    def mode(self) -> str:
        if self.argv[0] == "scan":
            return "scan-exponential"
        return self.argv[self.argv.index("--mode") + 1]

    @property
    def records(self) -> int:
        return SCAN_POINTS if self.argv[0] == "scan" else 1


@dataclass
class Outcome:
    wall_s: float
    maxrss_mb: float
    cause: str | None = None  # None when the job completed and passed every check
    wrong: bool = False  # True when a completed job failed an output check
    nmis: list[float] = field(default_factory=list)
    partitions: list[list[int]] = field(default_factory=list)


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(len(os.sched_getaffinity(0)))
    return env


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(job_env()["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def set_up(workload: Workload, seed: int, index: int, tiny: bool, work: Path) -> GraphCase:
    """Generate and write the graph and truth files of job ``index``, timed."""
    from vecpart.graph import planted_partition

    k, size, p_in, p_out = TINY if tiny else workload.family
    graph_seed = seed * SEED_STRIDE + index
    graph_path = work / f"graph{index}.txt"
    truth_path = work / f"truth{index}.txt"
    started = time.perf_counter()
    g, truth = planted_partition(k, size, p_in, p_out, graph_seed)
    text = g.to_edge_list_text()
    graph_path.write_text(text, encoding="utf-8")
    truth_path.write_text(
        "".join(f"{v} {int(c)}\n" for v, c in enumerate(truth.assignment)), encoding="utf-8"
    )
    setup_s = time.perf_counter() - started
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return GraphCase(graph_seed, g, truth, graph_path, truth_path, sha, setup_s)


def make_job(workload: Workload, case: GraphCase, index: int, work: Path) -> Job:
    template = workload.cycle[index % len(workload.cycle)]
    argv = [a.format(graph=case.graph_path, truth=case.truth_path) for a in template]
    output = work / f"report{index}.json"
    return Job(index, case, argv + ["--output", str(output)], output)


def spawn(cmd: list[str], env: dict[str, str], log: Path) -> tuple[float, int | None, float]:
    """Run cmd through launch.py; return (wall s, exit code or None if killed, max RSS MB)."""
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(DEADLINE_S), "--", *cmd],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=DEADLINE_S + 30)
        except BaseException:
            # The job is in the launcher's process group; end both.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited with {proc.returncode}; see {log}")
    result = json.loads(out)
    return result["wall_s"], result["code"], result["maxrss_mb"]


class Checker:
    """Checks a job's report with the repository's own oracles."""

    def __init__(self) -> None:
        import jsonschema

        from vecpart import cli, metrics, objective

        self.validate_report = cli.validate_report
        self.schema = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text(encoding="utf-8")))
        self.metrics = metrics
        self.objective = objective

    def check(self, job: Job, outcome: Outcome) -> None:
        """Fill outcome.nmis and outcome.partitions, or set outcome.cause."""
        try:
            report = json.loads(job.output.read_text(encoding="utf-8"))
            errors = sorted(self.schema.iter_errors(report), key=str)
            if errors:
                raise ValueError(f"schema: {errors[0].message}")
            self.validate_report(report)
            self._check_content(job, report, outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.cause = f"check failed: {exc}"
            outcome.wrong = True
            outcome.nmis.clear()

    def _check_content(self, job: Job, report: dict, outcome: Outcome) -> None:
        import numpy as np

        Partition = self.objective.Partition
        g = job.case.graph
        if report["graph"]["sha256"] != job.case.sha256:
            raise ValueError("graph.sha256 does not match the generated graph")
        if len(report["records"]) != job.records:
            raise ValueError(f"{len(report['records'])} records, expected {job.records}")
        truth = Partition.from_labels(job.case.truth.assignment)
        full_dim = "--dim" not in job.argv
        for rec in report["records"]:
            labels = np.asarray(rec["partition"], dtype=np.int64)
            c = rec["num_communities"]
            if labels.size != g.n or not np.array_equal(np.unique(labels), np.arange(c)):
                raise ValueError(f"partition does not cover {g.n} nodes with {c} groups")
            p = Partition(labels, c)
            if rec["mode"] == "modularity" and full_dim:
                self._expect_close("objective vs modularity_score", rec["objective"],
                                   self.objective.modularity_score(g, p))
            elif rec["mode"] == "linearised" and full_dim:
                self._expect_close("objective vs linearised_stability", rec["objective"],
                                   self.objective.linearised_stability(g, p, rec["time"]))
            score = self.metrics.nmi(truth, p)
            if "nmi" in rec:
                self._expect_close("reported nmi", rec["nmi"], score)
            outcome.nmis.append(score)
            outcome.partitions.append(rec["partition"])

    @staticmethod
    def _expect_close(what: str, got: float, want: float) -> None:
        if not math.isclose(got, want, rel_tol=TOL, abs_tol=TOL):
            raise ValueError(f"{what}: {got!r} != {want!r}")


def run_job(job: Job, env: dict, checker: Checker, cmd_prefix: list[str]) -> Outcome:
    wall, code, rss = spawn(cmd_prefix + job.argv, env, job.output.with_suffix(".err"))
    outcome = Outcome(wall, rss)
    if code is None:
        outcome.cause = f"killed at the {DEADLINE_S:.0f} s deadline"
    elif code != 0:
        err = job.output.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        outcome.cause = f"exit code {code}: {err.strip()[-200:]}"
    else:
        checker.check(job, outcome)
    return outcome


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} samples; fewer than 11, so no percentile has 10 beyond it"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n} samples, 10 beyond it"


def walls_by_mode(jobs: list[Job], outcomes: list[Outcome]) -> dict[str, list[float]]:
    by_mode: dict[str, list[float]] = {}
    for job, o in zip(jobs, outcomes):
        by_mode.setdefault(job.mode, []).append(o.wall_s)
    return by_mode


def end_to_end(jobs: list[Job], outcomes: list[Outcome]) -> dict:
    walls = [o.wall_s for o in outcomes]
    # The cycle runs each mode equally often, so the typical job is the mean
    # of the per-mode medians; the median of a two-mode mix of a few samples
    # would jump between the modes.
    by_mode = walls_by_mode(jobs, outcomes)
    p50 = statistics.fmean(statistics.median(w) for w in by_mode.values())
    records_done = sum(j.records for j, o in zip(jobs, outcomes) if o.cause is None)
    records_all = sum(j.records for j in jobs)
    tail_s, tail_label = tail(walls)
    failed = sum(o.cause is not None for o in outcomes)
    values = {
        "setup_s": (statistics.median(j.case.setup_s for j in jobs), f"median of {len(jobs)} set-ups"),
        "job_s_p50": (p50, " plus ".join(f"median of {len(w)} {m}" for m, w in by_mode.items())
                      + (f", mean over the {len(by_mode)} modes" if len(by_mode) > 1 else "")),
        "job_s_tail": (tail_s, tail_label),
        "records_per_s": (records_done / sum(walls), f"{records_done} records in {sum(walls):.1f} s of jobs"),
        "fail_ratio": (failed / len(jobs), f"{failed} of {len(jobs)} jobs"),
        "nmi_mean": (sum(sum(o.nmis) for o in outcomes) / records_all, f"{records_all} records"),
        "peak_rss_mb": (max(o.maxrss_mb for o in outcomes), f"max of {len(outcomes)} processes"),
    }
    return values


def closed_loop(workload: Workload, seed: int, tiny: bool, seconds: float, work: Path,
                run_one) -> list:
    """Set up and run whole job cycles until the next cycle would end after ``seconds``.

    Each job gets a graph of its own, generated just before it, so set-up is
    sampled across the run as the jobs are.
    """
    results = []
    started = time.perf_counter()
    index = 0
    while True:
        cycle_start = time.perf_counter()
        for _ in workload.cycle:
            case = set_up(workload, seed, index, tiny, work)
            results.append(run_one(make_job(workload, case, index, work)))
            index += 1
        now = time.perf_counter()
        if now - started + (now - cycle_start) > seconds:
            return results


def print_failures(workload: Workload, jobs: list[Job], outcomes: list[Outcome], tag: str = "") -> None:
    for job, o in zip(jobs, outcomes):
        if o.cause is not None:
            print(f"  FAILED{tag} job {job.index}: workload={workload.name} mode={job.mode} "
                  f"graph_seed={job.case.seed} wall={o.wall_s:.2f}s cause={o.cause}")


def digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps(o.partitions).encode("ascii"))
    return h.hexdigest()


def run_untraced(workload: Workload, seed: int, seconds: float, tiny: bool, work: Path) -> dict:
    env = job_env()
    checker = Checker()
    prefix = [sys.executable, "-m", "vecpart.cli"]
    pairs = closed_loop(workload, seed, tiny, seconds, work,
                        lambda job: (job, run_job(job, env, checker, prefix)))
    jobs = [j for j, _ in pairs]
    outcomes = [o for _, o in pairs]
    values = end_to_end(jobs, outcomes)
    print(f"workload {workload.name}: seed {seed}, {len(jobs)} jobs, closed loop with one client, "
          f"deadline {DEADLINE_S:.0f} s, graph seeds {jobs[0].case.seed}..{jobs[-1].case.seed}")
    for name, (value, note) in values.items():
        print(f"  {name:<14} {value:<22.10g} {END_TO_END_UNITS[name]:<4} ({note})")
    for mode, walls in walls_by_mode(jobs, outcomes).items():
        print(f"  {mode} job walls s: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  partitions sha256 {digest(outcomes)}")
    print_failures(workload, jobs, outcomes)
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(jobs),
        "failed": sum(o.cause is not None for o in outcomes),
        "metrics": {
            name: {"value": values[name][0], "unit": END_TO_END_UNITS[name]} for name in GATED_END_TO_END
        },
    }


def read_trace(path: Path) -> dict | None:
    """Per-job layer totals from a tracejob.py trace file."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    spans = [json.loads(line) for line in lines if line]
    ends = [s for s in spans if "layer" in s and "end" in s]
    enters = sum(1 for s in spans if s.get("enter") == "vp")
    main = next((s for s in spans if "main_s" in s), None)

    def layer(name: str) -> list[dict]:
        return [s for s in ends if s["layer"] == name]

    vp_ok = [s for s in layer("vp") if s.get("ok")]
    job = {"vp.failed": enters - len(vp_ok), "vp.restarts": [s["end"] - s["start"] for s in vp_ok]}
    if main is None:
        return job
    job.update({
        "cli.import_s": main["import_s"],
        "main_s": main["main_s"],
        "cli.self_s": main["main_s"] - sum(s["self"] for s in ends),
        "graph.load_s": sum(s["incl"] for s in layer("graph.load")),
        "graph.edges": sum(s.get("edges", 0) for s in layer("graph.load")),
        "spectral.decompose_s": sum(s["incl"] for s in layer("spectral.decompose")),
        "spectral.decompose_calls": len(layer("spectral.decompose")),
        "spectral.basis_pairs": sum(s.get("pairs", 0) for s in layer("spectral.decompose")),
        "spectral.embed_s": sum(s["incl"] for s in layer("spectral.embed")),
        "spectral.rss_delta_mb": max((s.get("rss_delta_mb", 0.0) for s in layer("spectral.decompose")), default=0.0),
        "harness.self_s": sum(s["self"] for s in layer("harness")),
        "vp.partition_s": sum(s["incl"] for s in layer("vp")),
        "vp.calls": len(layer("vp")),
        "vp.levels": sum(s.get("levels", 0) for s in vp_ok),
        "vp.sweeps": sum(s.get("sweeps", 0) for s in vp_ok),
        "vp.moves": sum(s.get("moves", 0) for s in vp_ok),
        "vp.dim": statistics.median(s["dim"] for s in vp_ok) if vp_ok else 0,
        "objective.stability_s": sum(s["incl"] for s in layer("objective")),
        "objective.calls": len(layer("objective")),
        "metrics.s": sum(s["incl"] for s in layer("metrics")),
        "metrics.calls": len(layer("metrics")),
    })
    return job


def per_layer(jobs: list[Job], plain: list[Outcome], traced: list[Outcome], traces: list[dict | None]) -> dict:
    """Per-layer metrics: per-job values, median over the completed traced jobs."""
    done = [(j, o, t) for j, o, t in zip(jobs, traced, traces) if o.cause is None and t and "main_s" in t]
    values: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        samples = [t[name] for _, _, t in done if name in t]
        values[name] = statistics.median(samples) if samples else 0.0
    values["cli.report_bytes"] = statistics.median(j.output.stat().st_size for j, _, _ in done) if done else 0.0
    restarts = [r for t in traces if t for r in t["vp.restarts"]]
    values["vp.restart_s_p50"] = statistics.median(restarts) if restarts else 0.0
    values["vp.failed"] = sum(t["vp.failed"] for t in traces if t)
    sweeps = sum(t["vp.sweeps"] for _, _, t in done)
    values["vp.moves_per_sweep"] = sum(t["vp.moves"] for _, _, t in done) / sweeps if sweeps else 0.0
    values["trace.coverage"] = (
        statistics.median((t["cli.import_s"] + t["main_s"]) / o.wall_s for _, o, t in done) if done else 0.0
    )
    values["trace.overhead_s"] = (
        statistics.median(o.wall_s for o in traced) - statistics.median(o.wall_s for o in plain)
    )
    return values


def run_traced(workload: Workload, seed: int, seconds: float, tiny: bool, work: Path) -> dict:
    env = job_env()
    checker = Checker()
    plain_prefix = [sys.executable, "-m", "vecpart.cli"]

    def pair(job: Job):
        plain = run_job(job, env, checker, plain_prefix)
        trace_file = job.output.with_suffix(".trace")
        traced = run_job(job, env, checker, [sys.executable, str(TRACEJOB), str(trace_file), "--"])
        return job, plain, traced, read_trace(trace_file)

    results = closed_loop(workload, seed, tiny, seconds, work, pair)
    jobs = [r[0] for r in results]
    plain = [r[1] for r in results]
    traced = [r[2] for r in results]
    values = per_layer(jobs, plain, traced, [r[3] for r in results])
    print(f"workload {workload.name}: seed {seed}, traced run, {len(jobs)} jobs each untraced and traced; "
          f"per-job values, median over completed traced jobs")
    for name, value in values.items():
        print(f"  {name:<24} {value:<22.10g} {PER_LAYER_UNITS[name]}")
    leaders = sorted(("spectral.decompose_s", "vp.partition_s", "cli.import_s", "cli.self_s",
                      "graph.load_s", "spectral.embed_s", "harness.self_s", "metrics.s"),
                     key=lambda name: -values[name])
    print(f"  largest layer: {leaders[0]} ({values[leaders[0]]:.3f} s per job)")
    print_failures(workload, jobs, plain)
    print_failures(workload, jobs, traced, " (traced)")
    outcomes = plain + traced
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.cause is not None for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n = 100 graphs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "vecpart" / "cli.py").is_file():
        print(f"error: no vecpart source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("environment " + json.dumps(environment(), sort_keys=True))
    names = [w for w in WORKLOADS if args.workload in (w, "all")]
    results = {}
    work_root = ROOT / ".perfbench_work"
    for name in names:
        work = work_root / f"{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            run = run_traced if args.trace else run_untraced
            results[name] = run(WORKLOADS[name], args.seed, args.seconds, args.tiny, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        work_root.rmdir()
    except OSError:
        pass
    sys.stdout.flush()
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
