"""tppdepth benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a source checkout (it imports ``src/tppdepth``)::

    python3 perfbench/run.py --workload cli-files --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

Each workload runs in this one process as a closed loop with one client:
the next job starts when the last one has finished, in whole rounds of
one job per variant. Another round starts only while one more as long as
the last would end within half a round of ``--seconds``, so a run
measures about ``--seconds`` on average. Every job's input derives from
``--seed``. Every job's outputs are checked; a failed check,
an exception or a nonzero CLI exit code fails the job and the run.

Every timed interval (a job, a set-up step) is reported in seconds at
reference host speed: ``hostspeed.Meter`` samples the shared host's
speed all through the run and scales each stretch of wall time by it,
so the host's fast and slow spells do not show as program changes. The
run record keeps the plain wall-time figures beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
an untraced round with a traced round over the same job seeds and reports
per-layer metrics from the traced rounds, plus the tracing overhead
(traced over untraced job time). The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A run
record (machine, versions, inputs, all metrics) goes to
``perfbench/out/``, and the spans of a traced run to
``perfbench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import Meter

OUT = Path("perfbench") / "out"
SRC = Path("src")
# Must match workloads.WORKLOADS, which cannot be imported before src/ is found.
WORKLOAD_NAMES = ("cli-files", "library-rank", "verify-contour")
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tppdepth; print(time.perf_counter() - t)"
)


def job_seed(seed: int, index: int) -> int:
    """Distinct per (seed, job index) for up to 2**20 jobs; below 2**64 for seed < 2**40."""
    return (seed << 20) + index


def tail_percentile(times: list[float]):
    """The highest listed percentile with at least ten jobs beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if len(times) * (1 - p / 100) >= TAIL_MIN_BEYOND:
            cut = statistics.quantiles(times, n=1000, method="inclusive")[round(p * 10) - 1]
            return {"percentile": p, "value_s": cut}
    return None


class Loop:
    """Runs jobs in whole rounds and keeps the tally."""

    def __init__(self, workload, inputs, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.job_spans: list[tuple[float, float]] = []
        self.rows = 0
        self.facts: dict = {}

    def job(self, variant, seed: int):
        """One timed job and its untimed check; returns its wall span or None on failure."""
        self.attempted += 1
        try:
            started = perf_counter()
            outputs = self.workload.run(self.inputs, variant, seed)
            span = (started, perf_counter())
            facts = self.workload.check(outputs, variant, seed)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        self.facts = self.facts or facts
        return span

    def round(self, seeds=None, record=True):
        """One job per variant; returns the job seeds and the successful job spans."""
        if seeds is None:
            seeds = [job_seed(self.seed, self.next_index + i) for i in range(len(self.workload.variants))]
            self.next_index += len(seeds)
        spans = []
        for variant, seed in zip(self.workload.variants, seeds):
            span = self.job(variant, seed)
            if span is None:
                continue
            spans.append(span)
            if record:
                self.job_spans.append(span)
                self.rows += self.workload.rows_per_job()
        return seeds, spans


def measure_setup(workload, seed: int) -> tuple[list, object]:
    """Repeats of (import tppdepth in a fresh process, prepare inputs).

    Each repeat gives the child's import time, the wall span of the child
    and the wall span of ``prepare``.
    """
    samples = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC.resolve())],
                               capture_output=True, text=True, check=True, timeout=120)
        child = (started, perf_counter())
        started = perf_counter()
        inputs = workload.prepare(seed)
        samples.append((float(probe.stdout.strip()), child, (started, perf_counter())))
    return samples, inputs


def adjust_setup(meter: Meter, samples: list) -> tuple[float, float]:
    """Median set-up time at reference speed, and in wall seconds.

    The child's import time is scaled by the host speed over the child's
    span; ``prepare`` is adjusted like a job.
    """
    adjusted, wall = [], []
    for import_s, child, prepare in samples:
        factor = meter.adjusted(*child) / meter.unprobed(*child)
        adjusted.append(import_s * factor + meter.adjusted(*prepare))
        wall.append(import_s + prepare[1] - prepare[0])
    return statistics.median(adjusted), statistics.median(wall)


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            info["caches"][f"L{level} {kind}"] = size
    except OSError:
        pass
    return info


def source_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tppdepth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = Path(".git") / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = Path(".git") / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_loop(workload, inputs, seed: int, seconds: float, trace: bool):
    """The timed loop; returns it, the warm-up loop, and for a traced run the
    tracer with the untraced and traced job spans (else None)."""
    cls = type(workload)
    # Warm-up: one tiny round, untimed, so lazy imports and first-call costs
    # are paid before timing. Its failures still count.
    warm = cls(workload.workdir, cls.tiny)
    warm_loop = Loop(warm, warm.prepare(seed), seed)
    warm_loop.round(record=False)
    loop = Loop(workload, inputs, seed)

    if trace:
        from tracer import Tracer

        tracer = Tracer()
    traced_spans, untraced_spans = [], []
    # With --trace 1 each iteration is an untraced and a traced round.
    started = perf_counter()
    while True:
        round_started = perf_counter()
        seeds, spans = loop.round()
        if trace:
            tracer.install()
            try:
                _, traced = loop.round(seeds, record=False)
            finally:
                tracer.uninstall()
            if len(traced) == len(spans):
                untraced_spans += spans
                traced_spans += traced
        now = perf_counter()
        if now - started + (now - round_started) / 2 > seconds:
            break
    return loop, warm_loop, (tracer, untraced_spans, traced_spans) if trace else None


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload in this process; returns the result with its run record."""
    import numpy
    import scipy

    import tppdepth
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workload = cls(workdir, cls.tiny if tiny else cls.full)
    meter = Meter()
    meter.start()
    try:
        setup_samples, inputs = measure_setup(workload, seed)
        loop, warm_loop, traced = run_loop(workload, inputs, seed, seconds, trace)
    finally:
        meter.stop()
        workload.close()
    setup_s, setup_wall_s = adjust_setup(meter, setup_samples)
    times = meter.adjusted_many(loop.job_spans).tolist()
    wall_times = [b - a for a, b in loop.job_spans]

    attempted = loop.attempted + warm_loop.attempted
    failed = loop.failed + warm_loop.failed
    result = {
        "correct": failed == 0 and bool(times),
        "attempted": attempted,
        "failed": failed,
    }
    traced_jobs = 0
    if trace:
        tracer, untraced_spans, traced_spans = traced
        traced_jobs = len(traced_spans)
        metrics = tracer.layer_metrics(traced_jobs or 1, clock=meter.clock)
        io_calls = tracer.calls("io.")
        if io_calls and not cls.uses_io:
            print(f"error: {io_calls} io calls on a workload that should make none", file=sys.stderr)
            result["correct"] = False
        metrics["trace.overhead_ratio"] = (
            sum(meter.adjusted_many(traced_spans)) / sum(meter.adjusted_many(untraced_spans))
            if untraced_spans else 0.0, "ratio")
        tracer.save(OUT / f"spans-{name}.npz")
    else:
        metrics = {
            "rows_per_s": (loop.rows / sum(times) if times else 0.0, "rows/s"),
            "job_p50_s": (statistics.median(times) if times else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["record"] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "tppdepth": tppdepth.__version__},
        "source": source_info(),
        "inputs": {"variants": [{"kind": v.kind, "k": v.k, "rates": list(v.rates)}
                                for v in workload.variants],
                   "sizes": workload.sizes, "rows_per_job": workload.rows_per_job(),
                   **loop.facts},
        "jobs": len(times),
        "traced_jobs": traced_jobs,
        "error_rate": failed / attempted,
        "job_times_s": times,
        "tail": tail_percentile(times),
        "wall": {"job_times_s": wall_times,
                 "rows_per_s": loop.rows / sum(wall_times) if wall_times else 0.0,
                 "job_p50_s": statistics.median(wall_times) if wall_times else 0.0,
                 "setup_s": setup_wall_s},
        "host_speed": meter.summary(),
    }
    return result


def report(result: dict) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    record = result["record"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    for key, metric in result["metrics"].items():
        line = f"  {key:<48} {metric['value']:.6g} {metric['unit']}"
        if key == "job_p50_s":
            tail = record["tail"]
            line += f"  ({record['jobs']} jobs; " + (
                f"p{tail['percentile']:g} {tail['value_s']:.6g} s)" if tail
                else f"no tail percentile: fewer than {TAIL_MIN_BEYOND} jobs beyond p50)")
        print(line)
    print(f"  {'error_rate':<48} {record['error_rate']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} jobs failed)")
    wall, speed = record["wall"], record["host_speed"]
    print(f"  times above are at reference host speed; in wall time: rows_per_s "
          f"{wall['rows_per_s']:.6g}, job_p50_s {wall['job_p50_s']:.6g}, setup_s {wall['setup_s']:.6g}; "
          f"host probe p5/p50/p95 {speed['probe_s_p5'] * 1e3:.3g}/{speed['probe_s_p50'] * 1e3:.3g}/"
          f"{speed['probe_s_p95'] * 1e3:.3g} ms over {speed['probes']} probes")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tppdepth" / "__init__.py").is_file():
        print("error: run from the root of a tppdepth checkout (src/tppdepth not found)", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**40:
        print("error: --seed must be in [0, 2**40)", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC.resolve()))
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result["record"]
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "metrics": result["metrics"]}, indent=2) + "\n")
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
