"""Benchmark of the angmf CLI: one closed-loop client calling angmf.cli.main in-process.

Usage (from the repository root):

    python3 bench/run.py --workload {map_eval,direction_fit,train} \
        --seed N --seconds S --trace {0,1}

Each op is one ``angmf.cli.main(argv)`` call, issued only after the
previous one finished, and every op's output is checked.  Set-up is
measured first: fresh interpreters import ``angmf.cli`` and run the
workload's first op.  An unmeasured warm-up runs the first op of each CLI
command once in-process.

``--trace 0`` then runs whole cycles of the op mix until the ops have been
busy for S seconds and reports the end-to-end metrics.  ``--trace 1`` runs
untraced cycles for S/2 seconds, then the workload's fixed number of
traced cycles with a span around every call into the angmf layers, and
reports the per-layer metrics and the tracing overhead; the spans are
written to ``.bench_out/<workload>.spans.tsv``.

Human-readable lines come first ("metric NAME VALUE UNIT ..." for every
metric, including the ones that are not part of the JSON).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy loads: on a 2-core host an inherited BLAS thread
# count moved refine-demo by about 20 %.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
# the --trace 0 metrics; failed_op_ratio is printed but left out because it is 0 on a good run
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
PROBE_TIMEOUT_S = 120


class Runner:
    """Runs ops through angmf.cli.main, checks every output and counts failures.

    The first run of an op is checked against the benchmark's own
    recomputation; every later run of the identical op must reproduce its
    output bytes (stdout included).
    """

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.labels = []  # op id -> label
        self.digests = {}  # argv -> digest of the first checked output
        self.results = {}  # argv -> quality numbers returned by the check
        self.attempted = 0
        self.failures = []

    def run(self, op):
        """Run one op in-process and settle it; returns its latency in seconds."""
        _remove(op.outputs)
        if self.tracer is not None:
            self.tracer.op_id = len(self.labels)
        self.labels.append(op.label)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as e:
                code = f"SystemExit({e.code})"
            except Exception as e:  # an op that raises is a failed op, not a crashed run
                code = f"{type(e).__name__}: {e}"
            latency = time.perf_counter() - t0
        self.settle(op, code, out.getvalue(), err.getvalue())
        return latency

    def probe(self, op):
        """Run one op in a fresh interpreter and settle it; returns the process wall time."""
        _remove(op.outputs)
        self.labels.append(op.label + " (probe)")
        cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), *op.argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = "timeout", "", ""
        elapsed = time.perf_counter() - t0
        self.settle(op, code, stdout, stderr)
        return elapsed

    def settle(self, op, code, stdout, stderr):
        self.attempted += 1
        try:
            if code != 0:
                raise RuntimeError(f"exit {code}: {stderr.strip()[-300:]}")
            h = hashlib.sha256(stdout.encode())
            for path in op.outputs:
                with open(path, "rb") as f:
                    h.update(f.read())
            digest = h.hexdigest()
            first = self.digests.get(op.argv)
            if first is None:
                self.results[op.argv] = op.check(stdout)
                self.digests[op.argv] = digest
            elif digest != first:
                raise RuntimeError("output differs from an earlier run of the identical op")
        except Exception as e:  # any failed check is one failed op
            self.failures.append(f"{op.label}: {type(e).__name__}: {e}")


def _remove(paths):
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def measure(runner, workload, seconds, min_cycles):
    """Run whole cycles until the ops were busy for ``seconds``; returns (latencies, cycles run)."""
    latencies = []
    cycle = 0
    while True:
        latencies += [runner.run(op) for op in workload.cycle(cycle)]
        cycle += 1
        if sum(latencies) >= seconds and cycle >= min_cycles:
            return latencies, cycle


def latency_metrics(latencies):
    """ops/s, median and tail latency, with a note naming the tail percentile."""
    s = sorted(latencies)
    n = len(s)
    if n > 10:
        # the highest percentile with at least 10 samples beyond it
        tail, note = s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops, 10 beyond"
    else:
        tail, note = s[-1], f"max of {n} ops (fewer than 11)"
    return {
        "ops_per_s": (n / sum(s), "ops/s", f"{n} ops, busy {sum(s):.2f} s"),
        "op_p50_ms": (1e3 * statistics.median(s), "ms", f"{n} ops"),
        "op_tail_ms": (1e3 * tail, "ms", note),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    try:
        return (git / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({name})"


def metadata(args):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": _git_commit(),
    }


def traced_round(runner, workload, seconds, workload_name):
    """Untraced cycles for ``seconds``, then the workload's traced cycles; returns the metrics."""
    untraced, cycle = measure(runner, workload, seconds, 1)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    traced = []
    try:
        for c in range(cycle, cycle + workload.trace_cycles):
            traced += [runner.run(op) for op in workload.cycle(c)]
    finally:
        tracer.uninstall()
        runner.tracer = None
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{workload_name}.spans.tsv", runner.labels)
    plain, with_spans = len(untraced) / sum(untraced), len(traced) / sum(traced)
    metrics = {name: (value, unit, "") for name, (value, unit) in tracer.per_layer().items()}
    metrics["untraced_ops_per_s"] = (plain, "ops/s", f"{len(untraced)} ops")
    metrics["traced_ops_per_s"] = (with_spans, "ops/s", f"{len(traced)} ops")
    metrics["trace.overhead"] = (1.0 - with_spans / plain, "1", "share of untraced ops/s lost to tracing")
    if tracer.absent:
        metrics["absent_targets"] = (len(tracer.absent), "count", ", ".join(tracer.absent))
    return metrics


def run(args, cli, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(cli)
    first = workload.cycle(0)
    setup_s = statistics.median(runner.probe(first[0]) for _ in range(SETUP_PROBES))
    # warm-up: the first op of each CLI command, so its lazy set-up is not timed
    warmup = {}
    for op in first:
        warmup.setdefault(op.argv[0], op)
    for op in warmup.values():
        runner.run(op)

    metrics = {"setup_s": (setup_s, "s", f"median of {SETUP_PROBES} fresh interpreters")}
    if args.trace:
        metrics.update(traced_round(runner, workload, args.seconds / 2.0, args.workload))
        reported = [name for name, _ in PER_LAYER] + ["trace.overhead"]
    else:
        latencies, _ = measure(runner, workload, args.seconds, workload.min_cycles)
        metrics.update(latency_metrics(latencies))
        reported = END_TO_END
    failed = len(runner.failures)
    metrics["failed_op_ratio"] = (failed / runner.attempted, "1", f"{failed} of {runner.attempted} ops")
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MiB", "")
    for name, (value, unit) in workload.quality(list(runner.results.values())).items():
        metrics[name] = (value, unit, "")

    print("# meta " + json.dumps(metadata(args), sort_keys=True))
    for message in runner.failures[:20]:
        print(f"# failed {message}")
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} {value!r} {unit}" + (f"  # {note}" if note else ""))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }
    print(json.dumps(result))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "angmf" / "cli.py").is_file():
        print(f"error: no angmf sources at {SRC / 'angmf'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from angmf import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported angmf from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, cli, workdir)
    finally:
        remove_workdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
