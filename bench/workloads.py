"""Workloads of the angmf benchmark: inputs, op mixes and output checks.

Every input is drawn from numpy's own ``Generator`` seeded with the
workload seed and written by the benchmark's own writers, so ``angmf``
receives only files and argv and a change to its samplers cannot change
another op's inputs.  Every check recomputes the expected answer with
numpy alone.  A workload runs as a sequence of cycles; each cycle is the
workload's full op mix, so a run made of whole cycles always has the same
mix of ops.  ``min_cycles`` is chosen so that a measured run holds at
least 11 ops of the slowest op type: the tail latency (the highest
percentile with 10 samples beyond it) then stays inside one op type
whatever the run length.
"""

import csv
import json
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["CheckFailed", "Op", "WORKLOADS"]

MAP_W, MAP_H = 640, 480
N_DIRECTIONS = 100_000
SAMPLE_KAPPAS = (0.5, 5.0, 50.0)
CONTAMINATION = 0.2
PCT_METRIC = "pct_11_25"
_HEADER = struct.Struct("<5sII")


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own recomputation."""


@dataclass(frozen=True)
class Op:
    """One call of ``angmf.cli.main``: its argv, the files it writes and its check.

    ``check(stdout)`` raises CheckFailed or returns a dict of quality numbers.
    """

    label: str
    argv: tuple
    outputs: tuple
    check: Callable


def _close(got, want, rel=1e-9, abs_tol=1e-12):
    return math.isfinite(got) and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _load_json(path):
    def reject(token):
        raise CheckFailed(f"{path}: JSON holds the non-standard constant {token}")

    with open(path) as f:
        return json.load(f, parse_constant=reject)


def _read_csv(path, header):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    _require(rows and rows[0] == header, f"{path}: header {rows[:1]} != {header}")
    return rows[1:]


def _unit_rows(gen, n):
    v = gen.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _angmf_angles(gen, kappa):
    """Exact AngMF error angles by rejection from Gamma(2, 1/kappa).

    The error-angle density is proportional to sin(a) exp(-kappa a) on
    [0, pi]; the Gamma(2) proposal is a exp(-kappa a), so accepting with
    probability sin(a)/a (and only a <= pi) is exact.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    out = np.empty(kappa.shape)
    todo = np.arange(kappa.size)
    while todo.size:
        a = gen.gamma(2.0, 1.0 / kappa.ravel()[todo])
        keep = (a <= math.pi) & (gen.random(todo.size) * a < np.sin(a))
        out.ravel()[todo[keep]] = a[keep]
        todo = todo[~keep]
    return out


def _perturb(gen, base, alpha):
    """Rotate each unit ``base`` row by ``alpha`` toward a random tangent direction."""
    r = _unit_rows(gen, base.shape[0])
    t = r - np.sum(r * base, axis=1, keepdims=True) * base
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    return np.cos(alpha)[:, None] * base + np.sin(alpha)[:, None] * t


def _expected_angle(kappa):
    """Closed-form AngMF mean error angle in radians; broadcasts over arrays."""
    z = np.exp(-math.pi * kappa)
    return 2.0 * kappa / (kappa * kappa + 1.0) + math.pi * z / (1.0 + z)


def _angle_moments(dist, kappa):
    """Mean and standard deviation of the error angle, by quadrature on [0, pi]."""
    a = np.linspace(0.0, math.pi, 400_001)
    if dist == "angmf":
        w = np.sin(a) * np.exp(-kappa * a)
    else:
        w = np.sin(a) * np.exp(kappa * (np.cos(a) - 1.0))
    w /= np.trapezoid(w, a)
    mean = float(np.trapezoid(a * w, a))
    var = float(np.trapezoid((a - mean) ** 2 * w, a))
    if dist == "angmf":
        mean = float(_expected_angle(kappa))
    return mean, math.sqrt(var)


def _write_map(path, magic, data):
    height, width = data.shape[:2]
    with open(path, "wb") as f:
        f.write(_HEADER.pack(magic, width, height))
        f.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def _write_vectors(path, v):
    np.savetxt(path, v, fmt="%.17g", delimiter=",", header="x,y,z", comments="")


def _read_vectors(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _fmt_dir(v):
    return ",".join(repr(float(x)) for x in v)


def _angle(u, v):
    return math.acos(max(-1.0, min(1.0, float(np.dot(u, v)))))


# --- map_eval ---------------------------------------------------------------


def _pct_threshold(metric):
    whole, _, frac = metric[len("pct_"):].partition("_")
    return float(whole + ("." + frac if frac else ""))


def _metric_value(e, metric):
    if metric == "mean":
        return float(np.mean(e))
    if metric == "median":
        return float(np.median(e))
    if metric == "rmse":
        return float(math.sqrt(np.mean(e * e)))
    return float(100.0 - 100.0 * np.mean(e < _pct_threshold(metric)))


def _prefix_curve(e_sorted, metric):
    """Brute force: the metric over each of the 100 kept prefixes."""
    n = e_sorted.size
    return np.array([_metric_value(e_sorted[:-(-x * n // 100)], metric) for x in range(1, 101)])


class MapEval:
    """The paper's evaluation path (eval, sparsify, select-pixels) at 640x480."""

    name = "map_eval"
    why = ("evaluation at full frame size: SNMP1/SKMP1 reads, sparsification and one large "
           "pixel selection; loads mapio, metrics, pixel_select and rng, not refine, estimators or sampling")
    trace_cycles = 2
    # two sparsify-median ops per cycle: at least 11 of the slowest op type
    min_cycles = 6

    def __init__(self, seed, workdir):
        gen = np.random.default_rng([seed, 1])
        n = MAP_W * MAP_H
        # four plane strips with mild per-pixel wobble
        planes = _unit_rows(gen, 4)
        strip = np.minimum(np.arange(MAP_W) * 4 // MAP_W, 3)
        gt = planes[np.broadcast_to(strip, (MAP_H, MAP_W)).ravel()] + 0.05 * gen.standard_normal((n, 3))
        gt /= np.linalg.norm(gt, axis=1, keepdims=True)
        kappa = np.exp(gen.uniform(math.log(2.0), math.log(300.0), n))
        # the true error follows a kappa that the estimate only tracks, so
        # the ranking is informative but not perfect
        true_kappa = kappa * np.exp(0.4 * gen.standard_normal(n))
        pred = _perturb(gen, gt, _angmf_angles(gen, true_kappa))

        gt32 = gt.astype(np.float32)
        pred32 = pred.astype(np.float32)
        kappa32 = kappa.astype(np.float32)
        gt32[gen.random(n) < 0.03] = np.nan
        pred32[gen.random(n) < 0.02] = np.nan
        kappa32[gen.random(n) < 0.01] = np.nan
        self.gt = gt32.reshape(MAP_H, MAP_W, 3)
        self.pred = pred32.reshape(MAP_H, MAP_W, 3)
        self.kappa = kappa32.reshape(MAP_H, MAP_W)

        self.paths = {k: str(workdir / f"{k}.{ext}") for k, ext in
                      (("pred", "snmp"), ("gt", "snmp"), ("kappa", "skmp"))}
        _write_map(self.paths["pred"], b"SNMP1", self.pred)
        _write_map(self.paths["gt"], b"SNMP1", self.gt)
        _write_map(self.paths["kappa"], b"SKMP1", self.kappa)
        self.out = workdir
        self.select_seeds = [int(s) for s in gen.integers(1, 2**31, 3)]
        self._errors = None

    def errors(self):
        """Per-pixel angular errors in degrees, NaN where pred or gt is invalid."""
        if self._errors is None:
            a = self.pred.astype(np.float64)
            b = self.gt.astype(np.float64)
            err = np.degrees(np.arccos(np.clip(np.sum(a * b, axis=-1), -1.0, 1.0)))
            err[np.isnan(a[..., 0]) | np.isnan(b[..., 0])] = np.nan
            self._errors = err
        return self._errors

    def cycle(self, index):
        ops = [self._eval()]
        ops += [self._sparsify(m) for m in ("mean", "median", "rmse", PCT_METRIC)]
        ops.append(self._select(self.select_seeds[(2 * index) % 3]))
        ops.append(self._sparsify("median"))
        ops.append(self._select(self.select_seeds[(2 * index + 1) % 3]))
        return ops

    def _eval(self):
        out = str(self.out / "eval.json")

        def check(stdout):
            got = _load_json(out)
            e = self.errors()
            e = e[~np.isnan(e)]
            n = e.size
            want = {"mean": float(np.mean(e)), "median": float(np.median(e)),
                    "rmse": float(math.sqrt(np.mean(e * e)))}
            for t in (5.0, 7.5, 11.25, 22.5, 30.0):
                key = "pct_" + f"{t:g}".replace(".", "_")
                want[key] = float(100.0 * np.mean(e < t))
            _require(sorted(got) == sorted(want), f"eval keys {sorted(got)}")
            for key, w in want.items():
                # a last-bit change in an error may move one pixel across a threshold
                tol = 200.0 / n if key.startswith("pct_") else 1e-12
                _require(_close(got[key], w, abs_tol=tol), f"eval {key}: {got[key]} != {w}")
            return {}

        argv = ("eval", "--pred", self.paths["pred"], "--gt", self.paths["gt"], "--out-json", out)
        return Op("eval", argv, (out,), check)

    def _sparsify(self, metric):
        out_json = str(self.out / f"sparsify-{metric}.json")
        out_csv = str(self.out / f"sparsify-{metric}.csv")
        out_oracle = str(self.out / f"sparsify-{metric}.oracle.csv")

        def check(stdout):
            got = _load_json(out_json)
            err = self.errors().ravel()
            k = self.kappa.ravel()
            ok = ~np.isnan(err) & ~np.isnan(k)
            e = err[ok]
            unc = _expected_angle(k[ok].astype(np.float64))
            est = _prefix_curve(e[np.argsort(unc, kind="stable")], metric)
            orc = _prefix_curve(np.sort(e, kind="stable"), metric)
            # a pct curve value moves by 100/k when one pixel crosses the threshold
            tol = 1e-3 if metric.startswith("pct_") else 1e-9
            want = {"ausc_estimated": float(np.mean(est)), "ausc_oracle": float(np.mean(orc)),
                    "ause": float(np.mean(est - orc))}
            _require(got.get("metric") == metric, f"sparsify metric {got.get('metric')!r}")
            for key, w in want.items():
                _require(_close(got[key], w, abs_tol=tol), f"sparsify {metric} {key}: {got[key]} != {w}")
            for path, curve in ((out_csv, est), (out_oracle, orc)):
                rows = _read_csv(path, ["x_percent", "value"])
                _require([int(r[0]) for r in rows] == list(range(1, 101)), f"{path}: x column")
                values = np.array([float(r[1]) for r in rows])
                _require(np.allclose(values, curve, rtol=1e-9, atol=tol), f"{path}: curve values")
            return {}

        argv = ("sparsify", "--pred", self.paths["pred"], "--gt", self.paths["gt"],
                "--kappa", self.paths["kappa"], "--metric", metric,
                "--out-csv", out_csv, "--out-json", out_json)
        return Op(f"sparsify {metric}", argv, (out_json, out_csv, out_oracle), check)

    def _select(self, seed, r_s=0.4, beta=0.7):
        out = str(self.out / f"select-{seed}.csv")

        def check(stdout):
            with open(out) as f:
                _require(f.readline().strip() == "index,role", f"{out}: header")
            rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=1,
                              dtype=[("index", np.int64), ("role", "U10")])
            idx, roles = rows["index"], rows["role"]
            _require(set(np.unique(roles)) <= {"importance", "coverage"}, "select roles")
            k = self.kappa.ravel()
            valid = ~np.isnan(k)
            n_valid = int(valid.sum())
            n_select = int(math.floor(r_s * n_valid + 0.5))
            n_imp = int(math.floor(beta * n_select))
            imp, cov = idx[roles == "importance"], idx[roles == "coverage"]
            _require(idx.size == n_select, f"select count {idx.size} != {n_select}")
            _require(imp.size == n_imp, f"importance count {imp.size} != {n_imp}")
            _require(np.unique(idx).size == idx.size, "selected indices repeat")
            _require(bool(np.all(valid[idx])), "an invalid pixel was selected")
            cand = np.flatnonzero(valid)
            unc = _expected_angle(k[cand].astype(np.float64))
            top = np.sort(cand[np.argsort(-unc, kind="stable")[:n_imp]])
            _require(np.array_equal(np.sort(imp), top), "importance set is not the top-uncertainty set")
            _require(np.intersect1d(imp, cov).size == 0, "importance and coverage overlap")
            return {}

        argv = ("select-pixels", "--kappa-map", self.paths["kappa"], "--rs", repr(r_s),
                "--beta", repr(beta), "--seed", str(seed), "--out-csv", out)
        return Op("select-pixels", argv, (out,), check)

    @staticmethod
    def quality(results):
        return {}


# --- direction_fit ----------------------------------------------------------


class DirectionFit:
    """Directional statistics: exact sampling, three estimators, boundary simulation."""

    name = "direction_fit"
    why = ("sample at 1e5 for kappa 0.5/5/50, fit mle/median/mean on clean and 20% contaminated CSVs, "
           "simulate-boundary; loads sampling, distributions, estimators, sphere and mapio CSV I/O, "
           "not refine or metrics")
    trace_cycles = 1
    min_cycles = 3

    def __init__(self, seed, workdir):
        gen = np.random.default_rng([seed, 2])
        self.out = workdir
        self.sample_mus = {(d, k): _unit_rows(gen, 1)[0] for d in ("angmf", "vonmf") for k in SAMPLE_KAPPAS}
        self.sample_seeds = {key: int(gen.integers(1, 2**31)) for key in self.sample_mus}
        self.boundary_seeds = [int(s) for s in gen.integers(1, 2**31, 3)]
        self.fit_mu = _unit_rows(gen, 1)[0]
        self.fit_kappa = float(gen.uniform(3.0, 8.0))
        n = N_DIRECTIONS
        base = np.broadcast_to(self.fit_mu, (n, 3))
        clean = _perturb(gen, base, _angmf_angles(gen, np.full(n, self.fit_kappa)))
        dirty = clean.copy()
        swap = gen.random(n) < CONTAMINATION
        dirty[swap] = _unit_rows(gen, int(swap.sum()))
        self.fit_paths = {"clean": str(workdir / "fit-clean.csv"), "contaminated": str(workdir / "fit-dirty.csv")}
        _write_vectors(self.fit_paths["clean"], clean)
        _write_vectors(self.fit_paths["contaminated"], dirty)
        self._moments = {}

    def cycle(self, index):
        # Six fits, six vonmf samples and six slow ops (angmf samples and
        # simulations): the median latency falls in the middle of the vonmf
        # samples and the tail inside the slow ops.  The op types are
        # interleaved so that a slow spell of the host hits every type alike.
        fits = [self._fit(est, which) for which in ("clean", "contaminated") for est in ("mle", "median", "mean")]
        ops = []
        for i, kappa in enumerate((5.0, 0.5, 50.0)):
            vonmf = self._sample("vonmf", kappa)
            ops += [self._sample("angmf", kappa), fits[2 * i], vonmf,
                    self._boundary(self.boundary_seeds[i]), fits[2 * i + 1], vonmf]
        return ops

    def _sample(self, dist, kappa):
        mu = self.sample_mus[(dist, kappa)]
        out = str(self.out / f"sample-{dist}-{kappa:g}.csv")

        def check(stdout):
            v = _read_vectors(out)
            _require(v.shape == (N_DIRECTIONS, 3), f"sample rows {v.shape}")
            _require(bool(np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) < 1e-9)), "sample rows are not unit")
            if (dist, kappa) not in self._moments:
                self._moments[(dist, kappa)] = _angle_moments(dist, kappa)
            mean, sd = self._moments[(dist, kappa)]
            got = float(np.mean(np.arccos(np.clip(v @ mu, -1.0, 1.0))))
            se = sd / math.sqrt(N_DIRECTIONS)
            _require(abs(got - mean) < 5.0 * se, f"{dist} kappa {kappa}: mean angle {got} vs {mean} +- {se}")
            return {}

        argv = ("sample", "--dist", dist, "--mu=" + _fmt_dir(mu), "--kappa", repr(kappa),
                "--n", str(N_DIRECTIONS), "--seed", str(self.sample_seeds[(dist, kappa)]), "--out-csv", out)
        return Op(f"sample {dist} kappa={kappa:g}", argv, (out,), check)

    def _fit(self, estimator, which):
        out = str(self.out / f"fit-{estimator}-{which}.json")
        clean = which == "clean"

        def check(stdout):
            got = _load_json(out)
            _require(got.get("estimator") == estimator, f"fit estimator {got.get('estimator')!r}")
            d = np.asarray(got["direction"], dtype=np.float64)
            _require(d.shape == (3,) and abs(np.linalg.norm(d) - 1.0) < 1e-9, "fit direction is not unit")
            tol = 0.01 if clean else 0.03
            err = _angle(d, self.fit_mu)
            _require(err < tol, f"fit {estimator} {which}: direction off by {err} rad")
            if estimator != "mean":
                _require(got.get("converged") is True, f"fit {estimator} {which} did not converge")
            if estimator != "mle":
                return {}
            k = float(got["kappa"])
            rel = abs(k - self.fit_kappa) / self.fit_kappa
            if clean:
                _require(rel < 0.05, f"fit mle clean: kappa {k} vs {self.fit_kappa}")
            else:
                # uniform outliers can only lower the fitted concentration
                _require(0.0 < k < self.fit_kappa, f"fit mle contaminated: kappa {k} vs {self.fit_kappa}")
            return {"kappa_rel_err": rel}

        argv = ("fit", "--samples-csv", self.fit_paths[which], "--estimator", estimator, "--out-json", out)
        return Op(f"fit {estimator} {which}", argv, (out,), check)

    def _boundary(self, seed):
        out = str(self.out / f"boundary-{seed}.json")

        def check(stdout):
            got = _load_json(out)
            counts = [got[k] for k in ("median_wins", "mean_wins", "ties")]
            _require(all(isinstance(c, int) and c >= 0 for c in counts), f"boundary counts {counts}")
            _require(got["trials"] == 100 and sum(counts) == got["trials"], f"boundary counts {counts}")
            for key in ("mean_error_deg_avg", "median_error_deg_avg"):
                _require(math.isfinite(got[key]) and got[key] >= 0.0, f"boundary {key} = {got[key]}")
            return {}

        argv = ("simulate-boundary", "--seed", str(seed), "--out-json", out)
        return Op("simulate-boundary", argv, (out,), check)

    @staticmethod
    def quality(results):
        rel = [r["kappa_rel_err"] for r in results if "kappa_rel_err" in r]
        return {"fit_kappa_rel_err": (float(np.mean(rel)) if rel else math.nan, "1")}


# --- train ------------------------------------------------------------------


class Train:
    """refine-demo at its defaults: the uncertainty-guided training loop."""

    name = "train"
    why = ("refine-demo at 32x32, 6 frames, 12 epochs with rotating seeds; loads refine (forward/backward), "
           "synth, small pixel_select calls and NormalMap.from_vectors, no map files or CSV samples")
    trace_cycles = 1
    min_cycles = 3
    N_SEEDS = 4

    def __init__(self, seed, workdir):
        gen = np.random.default_rng([seed, 3])
        self.seeds = [int(s) for s in gen.integers(1, 2**31, self.N_SEEDS)]
        self.out = workdir

    def cycle(self, index):
        return [self._demo(s) for s in self.seeds]

    def _demo(self, seed):
        out = str(self.out / f"refine-{seed}.csv")

        def check(stdout):
            rows = _read_csv(out, ["epoch", "mean_deg", "median_deg", "rmse_deg", "nll"])
            _require([int(r[0]) for r in rows] == list(range(1, 13)), "refine-demo epochs")
            curve = np.array([[float(x) for x in r[1:]] for r in rows])
            _require(bool(np.all(np.isfinite(curve))), "refine-demo curve is not finite")
            _require(curve[-1, 0] < curve[0, 0], f"refine-demo error rose: {curve[0, 0]} -> {curve[-1, 0]}")
            _require(stdout.startswith("epoch 12:"), f"refine-demo printed {stdout[:40]!r}")
            return {"final_mean_deg": float(curve[-1, 0])}

        argv = ("refine-demo", "--seed", str(seed), "--out-csv", out)
        return Op("refine-demo", argv, (out,), check)

    @staticmethod
    def quality(results):
        final = [r["final_mean_deg"] for r in results if "final_mean_deg" in r]
        return {"train_final_mean_deg": (float(np.mean(final)) if final else math.nan, "deg")}


WORKLOADS = {w.name: w for w in (MapEval, DirectionFit, Train)}
