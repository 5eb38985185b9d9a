"""Benchmark of ods, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (fig3-scan, protocol-sweep, dense-samples) in this
single-threaded process, driving ods in-process through its public API and
ods.cli.main on inputs drawn from the seed.  With --trace 0 it runs whole
rounds of jobs until S seconds have passed and reports the end-to-end
metrics; with --trace 1 it runs a fixed number of rounds, each job untraced and
then traced, and reports the per-layer metrics.  Every job's outputs are
checked after the timed region.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import setup_probe  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig3-scan", "protocol-sweep", "dense-samples"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_jobs(workload, jobs):
    for job in jobs:
        job.output, job.error = None, ""
        start = perf_counter()
        try:
            job.output = workload.run(job)
        except Exception as exc:  # a job that raises counts as failed
            job.error = f"{type(exc).__name__}: {exc}"
        job.seconds = perf_counter() - start


def setup_seconds():
    """Median wall time of fresh interpreters that import ods and warm up."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, probe], check=True, timeout=120)
        times.append(perf_counter() - start)
    return statistics.median(times)


def check_jobs(workload, jobs, seed):
    rng = np.random.default_rng([seed, 1])
    for job in jobs:
        if job.error:
            continue
        try:
            workload.check(job, rng)
        except Exception as exc:  # a check that cannot read the output fails the job
            job.problems.append(f"check raised {type(exc).__name__}: {exc}")
    workload.check_together([j for j in jobs if not j.error])


def timed_run(workload, rng, workdir, seconds):
    """Whole rounds until `seconds` have passed; the end-to-end metrics but setup_s.

    periods_per_s is the median over rounds of a round's periods over its
    jobs' time: rounds have a fixed make-up, and the median drops the rounds
    that a busy host slowed down, which a run's total over its wall time
    would average in."""
    jobs, rates, r = [], [], 0
    start = perf_counter()
    while r < workload.min_rounds or perf_counter() - start < seconds:
        batch = workload.make_round(rng, r, workdir)
        run_jobs(workload, batch)
        jobs += batch
        rates.append(sum(job.periods for job in batch) / sum(job.seconds for job in batch))
        r += 1
    return jobs, {
        "periods_per_s": (statistics.median(rates), "1/s"),
        "job_p50_s": (statistics.median(job.seconds for job in jobs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, rng, workdir, trace_path):
    """A fixed number of rounds, each job untraced and then traced, so that
    the overhead compares neighbouring runs of the same inputs."""
    jobs = [job for r in range(workload.trace_rounds)
            for job in workload.make_round(rng, r, workdir)]
    tracer, plain, traced = Tracer(), 0.0, 0.0
    for job in jobs:
        run_jobs(workload, [job])
        plain += job.seconds
        tracer.install()
        try:
            run_jobs(workload, [job])
        finally:
            tracer.uninstall()
        traced += job.seconds
    tracer.dump(trace_path)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    return jobs, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ods", "__init__.py")):
        print(f"ods sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    setup_probe.warm_up()
    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    workdir = os.path.join(HERE, ".work", f"{workload.name}-{os.getpid()}")
    try:
        if args.trace:
            results = os.path.join(HERE, "results")
            os.makedirs(results, exist_ok=True)
            trace_path = os.path.join(results, f"trace-{workload.name}-{args.seed}.json")
            jobs, metrics = traced_run(workload, rng, workdir, trace_path)
        else:
            jobs, metrics = timed_run(workload, rng, workdir, args.seconds)
        check_jobs(workload, jobs, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = (setup_seconds(), "s")

    failed = [job for job in jobs if job.error or job.problems]
    unexpected = [job for job in failed if not job.known_fault]
    for job in unexpected[:10]:
        print(f"FAILED {workload.name} {job.spec}: {job.error or '; '.join(job.problems)}", file=sys.stderr)
    print(f"{workload.name}: {len(jobs)} jobs, {len(failed)} failed "
          f"({len(failed) - len(unexpected)} known fault)", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected, "attempted": len(jobs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
