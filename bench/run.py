"""foxcolor benchmark.

    python3 bench/run.py --workload analyze_large --seed 1 --seconds 40 --trace 0

Run from the root of a foxcolor checkout; the library is imported from
./src.  One client runs the workload's fixed job list through
foxcolor.cli.main(argv) in this process, pass after pass, in a closed
loop: the next job starts when the previous one returns.  Outputs are
checked against the benchmark's own references outside the timed part.

--trace 0 times untraced passes and prints the end-to-end metrics, with
times scaled to a reference speed measured by calibrate() (see README).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones.  The last line of stdout is the result as
JSON; a full record (job times, digests, spans) goes to .bench_out/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
CAL_REF = 0.005  # seconds calibrate() takes at the reference speed

END_TO_END_UNITS = {"pass_s": "s", "job_s.p50": "s", "job_s.tail": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("_s.p50"):
        return "s"
    if name.endswith("_per_vector"):
        return "s/vector"
    if name.endswith("_per_coloring"):
        return "s/coloring"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_bits_max"):
        return "bit"
    return "count"


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kinds
    foxcolor does: big-integer row operations and hashing tuples of
    residues.  CAL_REF / calibrate() is the machine's current speed."""
    t0 = perf_counter()
    seen = set()
    for _ in range(5):
        a = list(range(1, 129))
        b = list(range(5, 133))
        for q in range(2, 34):
            a = [x - q * y for x, y in zip(a, b)]
            b = [y + x % 97 for x, y in zip(a, b)]
        for lam in range(1, 13):
            for mu in range(13):
                seen.add(tuple((lam * v + mu) % 13 for v in b[:24]))
    return perf_counter() - t0


# Runs in a fresh interpreter: calibrate with builtins only, so that
# nothing foxcolor.cli needs is imported before the timed import.
SETUP_CODE = inspect.getsource(calibrate) + """
from time import perf_counter
c = sorted(calibrate() for _ in range(5))[2]
t = perf_counter()
import foxcolor.cli
print(repr(perf_counter() - t), repr(c))
"""


def measure_setup() -> tuple[float, list[float]]:
    """Median import time of foxcolor.cli in fresh interpreters, one at a
    time, each scaled to the reference speed that interpreter measured.

    A first, untimed import fills the bytecode cache, as an installed
    package would have it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, calibration = map(float, proc.stdout.split())
        samples.append(seconds * CAL_REF / calibration)
    return statistics.median(samples[1:]), samples[1:]


def call_cli(cli, argv) -> tuple[int, float, str]:
    """One job: (exit code, seconds, stdout).  Exceptions escaping main are
    failures, reported as exit code -1."""
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the job failed; it is counted and the run goes on
        traceback.print_exc()
        rc = -1
    return rc, perf_counter() - t0, out.getvalue()


class Runner:
    def __init__(self, jobs, cli):
        self.jobs = jobs
        self.cli = cli
        self.verified: dict[int, tuple[int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pass_digests: list[str] = []
        self.output_bytes = 0

    def one_pass(self, tracer=None) -> tuple[float, list[float], float]:
        """Run every job once; returns (pass seconds, job seconds, speed).

        The speed is CAL_REF over the median calibration time, one
        calibration taken before each job, outside its timing.
        """
        pass_hash = hashlib.sha256()
        times = []
        calibrations = []
        size = 0
        for i, job in enumerate(self.jobs):
            calibrations.append(calibrate())
            if tracer is not None:
                tracer.job = (len(self.pass_digests), i)
                first = len(tracer.spans)
            rc, dt, out = call_cli(self.cli, job.argv)
            if tracer is not None:
                tracer.finish_job(first)
            times.append(dt)
            data = out.encode()
            size += len(data)
            pass_hash.update(data)
            self._check(i, job, rc, out, hashlib.sha256(data).hexdigest())
        self.pass_digests.append(pass_hash.hexdigest())
        self.output_bytes = size
        return sum(times), times, CAL_REF / statistics.median(calibrations)

    def _check(self, i, job, rc, out, digest) -> None:
        self.attempted += 1
        if self.verified.get(i) == (rc, digest):
            return  # byte-identical to output that passed its check
        problem = job.verdict(rc, out)
        if problem is None:
            self.verified[i] = (rc, digest)
        else:
            self.failed += 1
            self.problems.append(problem[:500])


def percentile(values, pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workloads.jobs_for(workload, seed)
    setup = measure_setup() if not trace else None
    sys.path.insert(0, str(SRC))
    import foxcolor.cli as cli

    runner = Runner(jobs, cli)
    tracer = spans.Tracer() if trace else None
    plain, pass_jobs, traced, layers, span_dump = [], [], [], [], None
    raw_plain, speeds = [], []
    start = perf_counter()
    longest = 0.0
    while True:
        use_trace = trace and len(traced) < len(plain)
        required = not plain or (trace and not traced)
        if not required and perf_counter() - start + longest > seconds:
            break
        gc.collect()
        t0 = perf_counter()
        if use_trace:
            tracer.install()
            try:
                pass_s, _, speed = runner.one_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(pass_s * speed)
            layers.append(spans.layer_metrics(tracer.spans))
            if span_dump is None:
                span_dump = spans.dump(tracer.spans)
                accounted = spans.accounting(tracer.spans)
            tracer.spans.clear()
        else:
            pass_s, times, speed = runner.one_pass()
            raw_plain.append(pass_s)
            speeds.append(speed)
            plain.append(pass_s * speed)
            pass_jobs.append([t * speed for t in times])
        longest = max(longest, perf_counter() - t0)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "jobs": [j.label for j in jobs], "input_digest": workloads.inputs_digest(jobs),
              "stdout_digest": runner.pass_digests[0],
              "stdout_stable": len(set(runner.pass_digests)) == 1,
              "output_bytes": runner.output_bytes, "plain_pass_s": plain,
              "raw_pass_s": raw_plain, "speeds": speeds,
              "attempted": runner.attempted, "failed": runner.failed,
              "fail_ratio": runner.failed / runner.attempted, "problems": runner.problems}
    if trace:
        metrics = {name: statistics.median_low(pass_metrics[name] for pass_metrics in layers)
                   for name in layers[0]}
        metrics["cli.output_bytes"] = runner.output_bytes
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
        record.update(traced_pass_s=traced, self_s_total=accounted[0], root_s_total=accounted[1],
                      spans=span_dump,
                      layers=layers)
        units = {name: layer_unit(name) for name in metrics}
    else:
        # Job-time percentiles are taken within each pass, then the median
        # over passes.  A pass's percentile is one job's time (job lists
        # have odd length); percentiles of the pooled samples would fall on
        # the gap between two jobs' times whenever the machine's speed
        # shifts during a run.
        tail_pct = workloads.TAIL_PERCENTILE[workload]
        tails = [percentile(times, tail_pct) for times in pass_jobs]
        beyond = sum(b for _, b in tails)
        plain_jobs = [t for times in pass_jobs for t in times]
        metrics = {"pass_s": statistics.median(plain),
                   "job_s.p50": statistics.median(statistics.median(t) for t in pass_jobs),
                   "job_s.tail": statistics.median(v for v, _ in tails),
                   "setup_s": setup[0],
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        record.update(job_samples=len(plain_jobs), tail_percentile=tail_pct,
                      tail_samples_beyond=beyond, setup_samples=setup[1],
                      job_s=pass_jobs)
        units = END_TO_END_UNITS
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "foxcolor" / "cli.py").is_file():
        print(f"error: no foxcolor sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs/pass {len(record['jobs'])}  record {path.relative_to(ROOT)}")
    print(f"inputs sha256 {record['input_digest']}")
    print(f"stdout sha256 {record['stdout_digest']}  ({record['output_bytes']} B per pass, "
          f"{'identical' if record['stdout_stable'] else 'DIFFERENT'} across passes)")
    print(f"fail_ratio {record['fail_ratio']} ratio  ({record['failed']}/{record['attempted']} jobs)")
    if not args.trace:
        print(f"unscaled pass_s {statistics.median(record['raw_pass_s'])} s at median speed "
              f"{statistics.median(record['speeds'])} of the reference")
        print(f"job_s.tail is p{record['tail_percentile']} of {record['job_samples']} job samples "
              f"({record['tail_samples_beyond']} beyond it)")
    else:
        print(f"first traced pass: self times sum to {record['self_s_total']:.6f} s, "
              f"cli.main spans to {record['root_s_total']:.6f} s; "
              f"traced passes {[round(t, 3) for t in record['traced_pass_s']]}")
    for name, m in record["metrics"].items():
        print(f"{name:34} {m['value']:<24} {m['unit']}")
    for problem in record["problems"][:5]:
        print(f"FAIL {problem}")
    correct = record["failed"] == 0 and record["stdout_stable"]
    if args.trace:  # self times must partition the traced job time
        correct = correct and abs(record["self_s_total"] - record["root_s_total"]) < 1e-6
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
