"""treefactor benchmark.

    python3 bench/run.py --workload exact --seed 1 --seconds 36 --trace 0

Runs one workload (see BENCHMARK.json) in this process.  The job list is
repeated in passes, each with fresh job seeds derived from ``--seed``,
until ``--seconds`` would be exceeded (at least one pass); every job's
output is checked after its pass.  With ``--trace 0`` the end-to-end
metrics are reported: the median pass wall time, the median cold import
time of ``treefactor.cli`` and the peak resident memory.  With
``--trace 1`` untraced and traced passes alternate on the same seeds,
and the per-layer metrics come from the spans of the traced passes.

A summary goes to stdout, the run record (commit, machine, seeds, per-job
wall times and output sha256 digests) and the spans to ``.bench_out/``.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts jobs that
raised or failed their check; ``correct`` is false when a job that ran to
the end produced a wrong result.
"""

from __future__ import annotations

import os

# All load comes from this one thread: fix the BLAS pool before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Cold imports timed before each untraced pass, so that the setup_s
# samples are spread over the whole run.
COLD_IMPORTS_PER_PASS = 3
# Share of a traced pass that may lie outside every root span: the
# benchmark's own loop between jobs.
LOOP_SHARE = 0.02


@dataclass
class JobRecord:
    id: str
    wall_s: float
    status: str  # "ok", "error" (raised) or "wrong" (failed its check)
    sha256: Optional[str]
    problems: list[str] = field(default_factory=list)


@dataclass
class PassRecord:
    index: int
    traced: bool
    wall_s: float
    jobs: list[JobRecord]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_import_seconds() -> float:
    """Time to import treefactor.cli in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import treefactor.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def run_pass(jobs_mod, workload: str, ref: dict, seed: int, index: int,
             tracer=None) -> PassRecord:
    job_list = jobs_mod.WORKLOADS[workload](
        lambda job_id: jobs_mod.derive_seed(seed, index, job_id), ref)
    runs = []
    for job in job_list:
        if tracer is not None:
            tracer.job = f"{index}/{job.id}"
        start = time.perf_counter()
        try:
            result, error = job.run(), None
        except Exception as exc:  # a failing job is counted and the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        runs.append((job, result, error, start, time.perf_counter()))
    wall = runs[-1][4] - runs[0][3]

    records = []
    for job, result, error, start, end in runs:
        if error is not None:
            records.append(JobRecord(job.id, end - start, "error", None, [error]))
            continue
        try:
            problems = job.check(result)
        except Exception as exc:  # an unreadable output is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        digest = hashlib.sha256(job.text(result).encode()).hexdigest()
        records.append(JobRecord(job.id, end - start, "wrong" if problems else "ok",
                                 digest, problems))
    return PassRecord(index, tracer is not None, wall, records)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treefactor" / "cli.py").is_file():
        print(f"bench: no treefactor sources in {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import numpy as np
    import treefactor

    import jobs as jobs_mod
    import tracing

    if Path(treefactor.__file__).resolve().parent != SRC / "treefactor":
        print(f"bench: imported treefactor from {treefactor.__file__}, not {SRC}", file=sys.stderr)
        return 1
    if args.workload not in jobs_mod.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    ref = jobs_mod.load_reference()

    setup_samples: list[float] = []
    if not args.trace:
        cold_import_seconds()  # writes the bytecode caches; not timed

    passes: list[PassRecord] = []
    tracer = tracing.Tracer()
    overheads = []
    started = time.perf_counter()
    if args.trace:
        with tracer:  # fail before any work if a boundary is missing
            pass
    while True:
        iteration_started = time.perf_counter()
        index = len(passes) // 2 if args.trace else len(passes)
        if not args.trace:
            setup_samples += [cold_import_seconds() for _ in range(COLD_IMPORTS_PER_PASS)]
        passes.append(run_pass(jobs_mod, args.workload, ref, args.seed, index))
        if args.trace:
            first = len(tracer.spans)
            with tracer:
                traced = run_pass(jobs_mod, args.workload, ref, args.seed, index, tracer)
            passes.append(traced)
            uncovered = traced.wall_s - tracer.root_seconds(first)
            if uncovered > LOOP_SHARE * traced.wall_s:
                raise tracing.BoundaryError(
                    f"root spans leave {uncovered:.3f} s of a {traced.wall_s:.3f} s traced "
                    f"pass uncovered; a job calls the library outside the traced boundaries")
            overheads.append(traced.wall_s - passes[-2].wall_s)
        now = time.perf_counter()
        if (now - started) + (now - iteration_started) > args.seconds:
            break

    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        metrics = tracing.layer_metrics(tracer.spans, len(traced_passes),
                                        statistics.median(overheads))
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    records = [j for p in passes for j in p.jobs]
    attempted = len(records)
    failed = sum(j.status != "ok" for j in records)
    correct = not any(j.status == "wrong" for j in records)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "setup_samples_s": setup_samples,
        "passes": [
            {"index": p.index, "traced": p.traced, "wall_s": p.wall_s,
             "jobs": [vars(j) for j in p.jobs]}
            for p in passes
        ],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json_obj()) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"record in {OUT_DIR.name}/{stem}.json")
    for j in records:
        if j.status != "ok":
            print(f"  FAILED {j.id}: {'; '.join(j.problems)}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':40s} {failed / attempted:14.6g} fraction "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
