"""Print the ROADMAP north-star baseline table from one traced round.

Usage (from the repository root):

    python3 bench/baseline.py [--seed N]

Runs one cycle of each workload (map_eval, direction_fit, train) with
spans on the top-level layer calls only (``tracing.BASELINE_TARGETS``:
none of them runs many times inside another, so the per-call times carry
little wrapper cost) and prints the table rows as markdown.  No CLI op
builds a 640x480 map from vectors, so ``NormalMap.from_vectors`` is
called once directly on the map_eval ground truth (its valid pixels)
under the same tracer.  Every op's output is checked as in bench/run.py.
"""

import argparse
import json
import os
import sys

import run  # pins the BLAS thread count, so it loads before numpy

import numpy as np  # noqa: E402

from tracing import BASELINE_TARGETS, Tracer  # noqa: E402
from workloads import PCT_METRIC, WORKLOADS  # noqa: E402


FROM_VECTORS = "from_vectors 640x480"
MAP_EVAL_READS = ("eval", "sparsify mean", "sparsify median", "sparsify rmse", f"sparsify {PCT_METRIC}")


class _Spans:
    """The traced spans, selectable by span name and by the label of their op."""

    def __init__(self, tracer, labels):
        self.ids, self.dur, _ = tracer.durations()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.label = np.array([labels[o] if 0 <= o < len(labels) else "" for o in tracer.op])
        self.names = tracer.names
        self.counts = {(n, c, labels[o]): v for (n, c, o), v in tracer.counts.items() if 0 <= o < len(labels)}

    def select(self, name, *labels):
        nid = self.names.index(name) if name in self.names else -1
        return np.flatnonzero((self.ids == nid) & np.isin(self.label, labels))

    def ms(self, idx):
        return f"{1e3 * float(np.mean(self.dur[idx])):.0f} ms" if idx.size else "absent"

    def call_ms(self, name, label):
        return self.ms(self.select(name, label))

    def iterations(self, name, label):
        n = self.counts.get((name, "iterations", label))
        calls = self.select(name, label).size
        return f"{n / calls:g} iterations" if n is not None and calls else "iterations unknown"


def table(tracer, labels):
    """The north-star rows as (workload, time) pairs."""
    sp = _Spans(tracer, labels)
    reads = sp.select("mapio.read_normal_map", *MAP_EVAL_READS)
    revalidate = sp.select("mapio.NormalMap.init", *MAP_EVAL_READS)
    revalidate = revalidate[np.isin(sp.parent[revalidate], reads)]
    train = sp.select("refine.train", "refine-demo")
    return [
        ("`sample_angmf` 1e5, κ=5",
         f"{sp.call_ms('sampling.sample_angmf', 'sample angmf kappa=5')} "
         f"(`sample_vonmf`: {sp.call_ms('sampling.sample_vonmf', 'sample vonmf kappa=5')})"),
        ("`sparsification` 640×480, median",
         f"{sp.call_ms('metrics.sparsification', 'sparsify median')} "
         f"(mean: {sp.call_ms('metrics.sparsification', 'sparsify mean')})"),
        ("`select_pixels` 640×480", sp.call_ms("pixel_select.select_pixels", "select-pixels")),
        ("`NormalMap.from_vectors` 640×480", sp.call_ms("mapio.NormalMap.from_vectors", FROM_VECTORS)),
        ("`read_normal_map` 640×480",
         f"{sp.ms(reads)} ({sp.ms(revalidate)} of it re-validating in the `NormalMap` constructor)"),
        ("`fit_angmf_mle` 1e5",
         f"{sp.call_ms('estimators.fit_angmf_mle', 'fit mle clean')}, "
         f"{sp.iterations('estimators.fit_angmf_mle', 'fit mle clean')}"),
        ("`spherical_median` 1e5",
         f"{sp.call_ms('estimators.spherical_median', 'fit median clean')}, "
         f"{sp.iterations('estimators.spherical_median', 'fit median clean')}"),
        ("`refine.train` default demo",
         f"{float(np.mean(sp.dur[train])):.2f} s" if train.size else "absent"),
    ]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if not (run.SRC / "angmf" / "cli.py").is_file():
        print(f"error: no angmf sources at {run.SRC / 'angmf'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from angmf import cli, mapio

    workdir = run.ROOT / ".bench_work" / f"baseline-{os.getpid()}"
    runner = run.Runner(cli)
    tracer = Tracer()
    try:
        workloads = {}
        for name, cls in WORKLOADS.items():
            (workdir / name).mkdir(parents=True)
            workloads[name] = cls(args.seed, workdir / name)
        for wl in workloads.values():
            runner.run(wl.cycle(0)[0])  # warm-up, untraced
        tracer.install(BASELINE_TARGETS)
        runner.tracer = tracer
        for wl in workloads.values():
            for op in wl.cycle(0):
                runner.run(op)
        tracer.op_id = len(runner.labels)
        runner.labels.append(FROM_VECTORS)
        gt = workloads["map_eval"].gt
        mapio.NormalMap.from_vectors(gt, valid=~np.isnan(gt[..., 0]))
    finally:
        tracer.uninstall()
        run.remove_workdir(workdir)

    meta = run.metadata(argparse.Namespace(workload="all", seed=args.seed, seconds=None, trace=1))
    print(f"<!-- {json.dumps(meta, sort_keys=True)} -->")
    print("| workload | time |")
    print("| --- | --- |")
    for workload, time in table(tracer, runner.labels):
        print(f"| {workload} | {time} |")
    for message in runner.failures:
        print(f"failed: {message}", file=sys.stderr)
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())
