"""toricfan benchmark: seeded workloads, checked outputs, metrics as JSON.

    python3 perfbench/run.py --workload cli-corpus --seed 1 --seconds 30 --trace 0

runs one workload in this process and prints, as its last line, a JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, measured untraced; with
`--trace 1` they are the per-layer ones from a traced pass (see spans.py).
Without `--workload`, every workload runs in its own child process and a
table of the end-to-end metrics is printed.

Run it from the root of a toricfan source tree; it imports `src/toricfan`
from there and refuses to run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import exact  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import FAIL, OK, WRONG, Raw  # noqa: E402

WORKLOADS = {
    "cli-corpus": lambda files, seed, tf: workloads.cli_corpus(files, seed),
    "big-fan": lambda files, seed, tf: workloads.big_fan(files, seed),
    "flow-limits": lambda files, seed, tf: workloads.flow_limits(files, seed, tf),
}
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]
SETUP_REPS = 3
MIN_OPS = 100

# The CPU speed of a shared machine drifts, by up to a quarter within a
# minute on a 2-vCPU cloud host.  So every timing is scaled to a reference
# speed: a fixed loop of the interpreter work toricfan does (integer
# arithmetic, JSON, tuples and sets) is timed at least every CAL_EVERY_S,
# and a time t measured after it is reported as
# t * CAL_REF_S / (the loop's time, best of 3).  CAL_REF_S is the loop's
# time on that host at its usual speed, so scaled times read close to
# seconds there.  The raw times are printed too.
CAL_DOC = {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
           "maximal_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}
CAL_REF_S = 0.0018
CAL_EVERY_S = 0.25


def calibration_loop_s():
    t0 = perf_counter()
    x = 0
    for i in range(20000):
        x += i * i % 7
    for _ in range(20):
        doc = json.loads(json.dumps(CAL_DOC))
        cones = {tuple(c) for c in doc["maximal_cones"]}
        x += len(cones) + sum(a * b for r in doc["rays"] for a, b in zip(r, (3, 5, 7)))
    return perf_counter() - t0


class Speed:
    """The current speed factor: reference loop time over measured loop time."""

    def __init__(self):
        self.factor = 1.0
        self.last = float("-inf")

    def update(self, force=False):
        if force or perf_counter() - self.last >= CAL_EVERY_S:
            self.factor = CAL_REF_S / min(calibration_loop_s() for _ in range(3))
            self.last = perf_counter()
        return self.factor


def fresh_import():
    """Import toricfan from SRC, dropping any copy imported before, so each
    set-up pays the import."""
    for name in [n for n in sys.modules if n == "toricfan" or n.startswith("toricfan.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    tf = importlib.import_module("toricfan")
    for sub in ("cli", "formats", "flow", "fan"):
        importlib.import_module(f"toricfan.{sub}")
    if not os.path.abspath(tf.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"toricfan was imported from {tf.__file__}, not from {SRC}")
    return tf


def run_op(tf, op, index, tracer=None):
    """Run one operation; returns (seconds, Raw).  Only the call into the
    program is timed."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    if tracer is not None:
        tracer.op_id = index
    raw = Raw()
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        main = tf.cli.main
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                raw.code = main(op.argv)
        except SystemExit as e:  # argparse usage errors
            raw.code = e.code
        except Exception as e:  # an escaped exception is an output to check
            raw.error = e
        dt = perf_counter() - t0
        raw.stdout, raw.stderr = out.getvalue(), err.getvalue()
    else:
        t0 = perf_counter()
        try:
            raw.value = op.call()
        except Exception as e:
            raw.error = e
        dt = perf_counter() - t0
    return dt, raw


class Tally:
    def __init__(self):
        self.latencies = []  # scaled to the reference speed
        self.raw = []
        self.status = {OK: 0, FAIL: 0, WRONG: 0}
        self.examples = {}

    def add(self, op, dt, factor, status, detail):
        self.latencies.append(dt * factor)
        self.raw.append(dt)
        self.status[status] += 1
        if status != OK:
            self.examples.setdefault((op.kind, status), detail)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.status[FAIL] + self.status[WRONG]


def checked(op, raw):
    """(status, detail) of an operation; output the check cannot even
    parse is WRONG."""
    try:
        return op.check(raw)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return WRONG, f"unreadable output: {type(e).__name__}: {e}"


def run_ops(tf, ops, tally, speed, tracer=None):
    """Run and check each operation once; returns the raw seconds spent
    in the program."""
    total = 0.0
    for i, op in enumerate(ops):
        factor = speed.update()
        dt, raw = run_op(tf, op, i, tracer)
        tally.add(op, dt, factor, *checked(op, raw))
        total += dt
    return total


def set_up(name, seed, workdir, speed):
    """Import, write the inputs and warm up; repeated SETUP_REPS times so
    the reported set-up time is a median.  Returns the last repetition:
    the package, the operations, how many of them a traced run uses, and
    the scaled and raw set-up seconds."""
    scaled, raw = [], []
    for rep in range(SETUP_REPS):
        before = speed.update(force=True)
        t0 = perf_counter()
        tf = fresh_import()
        files_dir = os.path.join(workdir, f"setup{rep}")
        os.makedirs(files_dir)
        ops, traced = WORKLOADS[name](workloads.Files(files_dir), seed, tf)
        warm_up(tf, os.path.join(files_dir, "warm"))
        dt = perf_counter() - t0
        raw.append(dt)
        scaled.append(dt * (before + speed.update(force=True)) / 2.0)
        if rep:
            shutil.rmtree(os.path.join(workdir, f"setup{rep - 1}"))
    return tf, ops, traced, statistics.median(scaled), statistics.median(raw)


def warm_up(tf, files_dir):
    """One cheap call of each command on cp2, so that lazily imported
    modules and first-call costs are paid before timing."""
    os.makedirs(files_dir)
    files = workloads.Files(files_dir)
    warm = workloads.fan_ops(files, exact.cpn(2), "complete", random.Random(0), 1,
                             workloads.ALL_COMMANDS)
    for op in warm:
        _, raw = run_op(tf, op, -1)
        status, detail = checked(op, raw)
        if status != OK:
            raise SystemExit(f"warm-up {op.kind} on cp2 failed: {detail}")


def measure(tf, ops, seconds, speed):
    """Run whole cycles of the operations while another one, at the mean
    cycle time so far, would end less than half a cycle past `seconds`,
    and until at least MIN_OPS operations ran.  Every run thus measures the
    same mix; only the number of cycles varies."""
    tally = Tally()
    t0 = perf_counter()
    cycles = 0
    while True:
        run_ops(tf, ops, tally, speed)
        cycles += 1
        elapsed = perf_counter() - t0
        if tally.attempted >= MIN_OPS and elapsed + 0.5 * elapsed / cycles >= seconds:
            break
    return tally, latency_metrics(tally.latencies, len(ops)) | {
        "ok_ratio": tally.status[OK] / tally.attempted}


def latency_metrics(lat, cycle):
    """Throughput of the median cycle, so that a slow spell of the machine
    during one cycle does not move it, and latency quantiles over all
    operations."""
    cycle_s = [sum(lat[i:i + cycle]) for i in range(0, len(lat), cycle)]
    return {
        "ops_per_s": cycle / statistics.median(cycle_s),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000.0,
    }


def measure_traced(tf, ops, name, seed, speed):
    """Untraced and traced passes over the same operations, alternated
    twice so that drift in machine speed cancels from the overhead ratio.
    Work counters must agree between the two traced passes; per-layer
    metrics come from the first one."""
    tally = Tally()
    untraced_s = traced_s = 0.0
    tracers = []
    for _ in range(2):
        untraced_s += run_ops(tf, ops, tally, speed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_s += run_ops(tf, ops, tally, speed, tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    first, second = (spans.work_counters(t) for t in tracers)
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        raise SystemExit(f"work counters differ between identical traced passes: {diff}")
    os.makedirs(OUT, exist_ok=True)
    tracers[0].write(os.path.join(OUT, f"spans-{name}-seed{seed}.csv.gz"), [op.kind for op in ops])
    return tally, spans.per_layer_metrics(tracers[0], untraced_s, traced_s)


def environment():
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


def run_workload(name, seed, seconds, traced):
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    speed = Speed()
    try:
        tf, ops, trace_count, setup_s, setup_raw_s = set_up(name, seed, workdir, speed)
        if traced:
            ops = ops[:trace_count]
            tally, metrics = measure_traced(tf, ops, name, seed, speed)
            specs = spans.per_layer_metric_specs()
        else:
            tally, metrics = measure(tf, ops, seconds, speed)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            specs = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    print(f"# workload {name} seed {seed} python {env['python']} nproc {env['nproc']} "
          f"commit {env['commit']} ops_per_cycle {len(ops)}")
    print(f"# attempted {tally.attempted} ok {tally.status[OK]} fail {tally.status[FAIL]} "
          f"wrong {tally.status[WRONG]} error_rate {tally.failed / tally.attempted!r} "
          f"latency_samples {tally.attempted}")
    raw = latency_metrics(tally.raw, len(ops))
    print(f"# unscaled setup_s {setup_raw_s!r} ops_per_s {raw['ops_per_s']!r} "
          f"op_p50_ms {raw['op_p50_ms']!r} op_p90_ms {raw['op_p90_ms']!r}")
    for (kind, status), detail in sorted(tally.examples.items()):
        print(f"# first {status} {kind}: {detail}")
    result = {
        "correct": tally.status[WRONG] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in specs},
    }
    print(json.dumps(result))


def run_all(seed, seconds):
    """Each workload in its own process, so that set-up time and peak
    memory belong to it alone; prints the end-to-end metrics as a table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        rows.append((name, json.loads(lines[-1])))
    print()
    print(f"{'workload':<12} {'metric':<12} {'value':>14} unit   samples")
    for name, res in rows:
        n, failed = res["attempted"], res["failed"]
        for metric, unit in END_TO_END:
            value = res["metrics"][metric]["value"]
            print(f"{name:<12} {metric:<12} {value:>14.6g} {unit:<6} {n}")
        print(f"{name:<12} {'error_rate':<12} {failed / n:>14.6g} {'ratio':<6} "
              f"{failed} failed of {n}")
    if not all(res["correct"] for _, res in rows):
        raise SystemExit("some outputs were wrong")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toricfan", "__init__.py")):
        sys.stderr.write(f"no toricfan sources under {SRC}; run from a toricfan checkout\n")
        return 2
    if args.workload is None:
        run_all(args.seed, args.seconds)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
