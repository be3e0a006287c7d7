"""Command-line front end.

Angles cross this boundary in degrees; everything internal is radians.
Commands that draw random numbers require an explicit --seed so runs are
reproducible by construction.  Exit codes: 0 success, 2 usage or
validation error, 3 I/O or format error, 4 numerical failure; each status
lives on its error class (``AngmfError.exit_code``).
"""

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import mapio, metrics, refine, synth
from .distributions import AngMFParams, VonMFParams, expected_angular_error
from .errors import AngmfError, DegenerateVector, FormatError, NumericalError
from .estimators import KAPPA_CEILING, fit_angmf_mle, mean_direction, spherical_median
from .pixel_select import SelectionConfig, select_pixels
from .rng import RngState
from .sampling import sample_angmf, sample_vonmf
from .sphere import angle_between, normalize

# Sample rows per simulate-boundary block (at least one trial each): bounds
# memory for any --trials, and blocks this size stay in cache
BOUNDARY_BLOCK_ROWS = 2**15


def _parse_direction(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got {text!r}")
    try:
        v = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric component in {text!r}")
    if not all(map(math.isfinite, v)):
        raise argparse.ArgumentTypeError(f"non-finite component in {text!r}")
    try:
        return normalize(np.asarray(v))
    except DegenerateVector:
        raise argparse.ArgumentTypeError(f"direction has zero length: {text!r}")


def _input_path(text):
    # a missing path or a directory is a usage error (exit 2); read failures on an
    # existing file, a named pipe or /dev/fd/N included, stay I/O errors (exit 3)
    if not os.path.exists(text) or os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return text


def _number_where(cast, ok, requirement):
    """An argparse type for ``cast(text)`` values that satisfy ``ok``."""

    def parse(text):
        try:
            v = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{'not a number' if cast is float else 'invalid int value'}: {text!r}")
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must {requirement}: {text!r}")
        return v

    return parse


# math.isfinite stays out of the int types: it overflows on ints beyond the float range
_finite_float = _number_where(float, math.isfinite, "be finite")
_nonneg_float = _number_where(float, lambda v: math.isfinite(v) and v >= 0.0, "be finite and >= 0")
_positive_float = _number_where(float, lambda v: math.isfinite(v) and v > 0.0, "be finite and > 0")
_positive_int = _number_where(int, lambda v: v >= 1, "be >= 1")
_seed = _number_where(int, lambda v: 0 <= v < 1 << 64, "lie in [0, 2**64)")


def _cmd_eval(args):
    pred = mapio.read_normal_map(args.pred)
    gt = mapio.read_normal_map(args.gt)
    errs = metrics.valid_errors(metrics.angular_errors(pred, gt))
    report = metrics.summarize(errs)
    mapio.write_json(report.to_json_dict(), args.out_json)


def _cmd_sparsify(args):
    pred = mapio.read_normal_map(args.pred)
    gt = mapio.read_normal_map(args.gt)
    kmap = mapio.read_kappa_map(args.kappa)
    if kmap.data.shape != pred.data.shape[:2]:
        raise FormatError(f"kappa map {kmap.data.shape} does not match normal maps", offset=5)
    err_grid = metrics.angular_errors(pred, gt)
    ok = ~np.isnan(err_grid) & kmap.valid
    errs = err_grid[ok]
    del pred, gt, err_grid  # the full-frame inputs are not needed past here; dropping them lowers the peak heap
    unc = expected_angular_error(kmap.data[ok])
    est = metrics.sparsification(errs, unc, metric=args.metric)
    orc = metrics.oracle_curve(errs, metric=args.metric)
    if args.out_csv:
        mapio.write_curve_csv(est, args.out_csv)
        mapio.write_curve_csv(orc, args.out_csv.removesuffix(".csv") + ".oracle.csv")
    payload = {
        "metric": args.metric,
        "ausc_estimated": metrics.ausc(est),
        "ausc_oracle": metrics.ausc(orc),
        "ause": metrics.ause(est, orc),
    }
    mapio.write_json(payload, args.out_json)


def _cmd_sample(args):
    rng = RngState(args.seed)
    if args.dist == "angmf":
        out = sample_angmf(AngMFParams(mu=args.mu, kappa=args.kappa), args.n, rng)
    else:
        out = sample_vonmf(VonMFParams(mu=args.mu, kappa=args.kappa), args.n, rng)
    mapio.write_vectors_csv(out, args.out_csv)


def _cmd_fit(args):
    samples = mapio.read_vectors_csv(args.samples_csv)
    samples = normalize(samples)
    if args.estimator == "mean":
        d = mean_direction(samples)
        mapio.write_json({"estimator": "mean", "direction": [float(x) for x in d]}, args.out_json)
        return
    if args.estimator == "median":
        d, report = spherical_median(samples, tol=args.tol, full_output=True)
        payload = {"estimator": "median", "direction": [float(x) for x in d]}
    else:
        report = fit_angmf_mle(samples, tol=args.tol)
        payload = {
            "estimator": "mle",
            "direction": [float(x) for x in report.params.mu],
            "kappa": report.params.kappa,
            "nll": report.final_nll,
        }
    payload.update(iterations=report.iterations, converged=report.converged)
    mapio.write_json(payload, args.out_json)
    if not report.converged:
        stop = "did not converge"
        if args.estimator == "mle" and report.params.kappa == KAPPA_CEILING:
            stop = f"stopped at the kappa ceiling {KAPPA_CEILING}"
        raise NumericalError(f"{args.estimator} {stop} after {report.iterations} iterations")


def _degrees(x):
    # x/pi*180 instead of math.degrees so pi/2 lands exactly on 90.0
    return x / math.pi * 180.0


def _cmd_expected_error(args):
    values = [_degrees(expected_angular_error(k)) for k in args.kappa]
    if args.out_json is not None:
        mapio.write_json(dict(zip(map(str, args.kappa), values)), args.out_json)
    else:
        for v in values:
            print(v)


def _cmd_select_pixels(args):
    cfg = SelectionConfig(r_s=args.rs, beta_ug=args.beta)  # flag errors before the map is read
    kmap = mapio.read_kappa_map(args.kappa_map)
    valid = kmap.valid
    unc = np.zeros(valid.shape)  # select_pixels reads it at valid pixels only
    unc[valid] = expected_angular_error(kmap.data[valid])
    sel = select_pixels(unc, valid, cfg, RngState(args.seed))
    mapio.write_selection_csv(sel, args.out_csv)


def _cmd_simulate_boundary(args):
    rng = RngState(args.seed)
    sep = math.radians(args.separation_deg)
    normal_a = np.array([0.0, 0.0, 1.0])
    normal_b = np.array([math.sin(sep), 0.0, math.cos(sep)])
    scene = synth.TwoPlaneScene(
        normal_a=normal_a,
        normal_b=normal_b,
        contamination=args.contamination,
        jitter_kappa=args.jitter_kappa,
    )
    per_block = max(1, BOUNDARY_BLOCK_ROWS // args.samples)
    err_mean, err_median = [], []
    for start in range(0, args.trials, per_block):
        samples = synth.sample_boundary_pixels(scene, rng, args.samples, min(per_block, args.trials - start))
        err_mean.append(np.degrees(angle_between(mean_direction(samples), normal_a)))
        err_median.append(np.degrees(angle_between(spherical_median(samples), normal_a)))
    err_mean, err_median = np.concatenate(err_mean), np.concatenate(err_median)
    median_wins = int(np.count_nonzero(err_median < err_mean))
    mean_wins = int(np.count_nonzero(err_mean < err_median))
    payload = {
        "trials": args.trials,
        "median_wins": median_wins,
        "mean_wins": mean_wins,
        "ties": args.trials - median_wins - mean_wins,
        "mean_error_deg_avg": float(np.mean(err_mean)),
        "median_error_deg_avg": float(np.mean(err_median)),
    }
    mapio.write_json(payload, args.out_json)


def _cmd_refine_demo(args):
    cfg = refine.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        r_s=args.rs,
        beta_ug=args.beta,
        seed=args.seed,
    )
    frames = synth.demo_frames(args.seed, args.frames, args.width, args.height, args.planes,
                               args.separation_deg, args.jitter_kappa, args.contamination)
    mlp, stats = refine.train(frames, cfg)
    if args.out_weights:
        mapio.save_weights(mlp, args.out_weights)
    if args.out_csv:
        mapio.write_epoch_csv(stats, args.out_csv)
    last = stats[-1]
    print(f"epoch {last.epoch}: mean {last.report.mean_deg:.3f} deg, nll {last.nll:.6f}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reports a rejection as one ``<prog>: error: ...`` line, without the usage."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")  # "-1,0,0" and "-.5,0,1" are values, not options

    def error(self, message):
        self.exit(AngmfError.exit_code, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The parser of every command, built once per process: ``main`` reuses it, so callers must not change it."""
    p = _Parser(prog="angmf", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("eval", help="error metrics between two normal maps")
    q.add_argument("--pred", required=True, type=_input_path)
    q.add_argument("--gt", required=True, type=_input_path)
    q.add_argument("--out-json", default=None)
    q.set_defaults(func=_cmd_eval)

    q = sub.add_parser("sparsify", help="sparsification curves and AUSC/AUSE")
    q.add_argument("--pred", required=True, type=_input_path)
    q.add_argument("--gt", required=True, type=_input_path)
    q.add_argument("--kappa", required=True, type=_input_path, help="SKMP1 kappa map for the uncertainty ranking")
    q.add_argument("--metric", default="mean", choices=metrics.METRIC_NAMES)
    q.add_argument("--out-csv", default=None, help="estimated curve; oracle goes to *.oracle.csv")
    q.add_argument("--out-json", default=None)
    q.set_defaults(func=_cmd_sparsify)

    q = sub.add_parser("sample", help="draw exact samples from either family")
    q.add_argument("--dist", default="angmf", choices=("angmf", "vonmf"))
    q.add_argument("--mu", required=True, type=_parse_direction, help="mean direction 'x,y,z'")
    q.add_argument("--kappa", required=True, type=_nonneg_float)
    q.add_argument("--n", required=True, type=int)
    q.add_argument("--seed", required=True, type=_seed)
    q.add_argument("--out-csv", required=True)
    q.set_defaults(func=_cmd_sample)

    q = sub.add_parser("fit", help="fit a direction (and kappa for mle) to samples")
    q.add_argument("--samples-csv", required=True, type=_input_path)
    q.add_argument("--estimator", default="mle", choices=("mean", "median", "mle"))
    q.add_argument("--tol", default=1e-8, type=_positive_float)
    q.add_argument("--out-json", default=None)
    q.set_defaults(func=_cmd_fit)

    q = sub.add_parser("expected-error", help="expected angular error E[alpha] in degrees")
    q.add_argument("--kappa", required=True, type=_nonneg_float, nargs="+")
    q.add_argument("--out-json", default=None)
    q.set_defaults(func=_cmd_expected_error)

    q = sub.add_parser("select-pixels", help="uncertainty-guided pixel selection from a kappa map")
    q.add_argument("--kappa-map", required=True, type=_input_path)
    q.add_argument("--rs", default=0.4, type=float)
    q.add_argument("--beta", default=0.7, type=float)
    q.add_argument("--seed", required=True, type=_seed)
    q.add_argument("--out-csv", required=True)
    q.set_defaults(func=_cmd_select_pixels)

    q = sub.add_parser("simulate-boundary", help="mean vs median on boundary mixtures")
    q.add_argument("--separation-deg", default=60.0, type=_finite_float)
    q.add_argument("--contamination", default=0.2, type=float)
    q.add_argument("--jitter-kappa", default=50.0, type=_positive_float)
    q.add_argument("--samples", default=1000, type=_positive_int)
    q.add_argument("--trials", default=100, type=_positive_int)
    q.add_argument("--seed", required=True, type=_seed)
    q.add_argument("--out-json", default=None)
    q.set_defaults(func=_cmd_simulate_boundary)

    q = sub.add_parser("refine-demo", help="train the toy refinement MLP on synthetic frames")
    q.add_argument("--width", default=32, type=int)
    q.add_argument("--height", default=32, type=int)
    q.add_argument("--planes", default=3, type=_positive_int)
    q.add_argument("--frames", default=6, type=int)
    q.add_argument("--separation-deg", default=60.0, type=_finite_float)
    q.add_argument("--jitter-kappa", default=50.0, type=_positive_float)
    q.add_argument("--contamination", default=0.2, type=float)
    q.add_argument("--epochs", default=12, type=int)
    q.add_argument("--batch-size", default=1, type=int)
    q.add_argument("--lr", default=1e-2, type=float)
    q.add_argument("--rs", default=0.4, type=float)
    q.add_argument("--beta", default=0.7, type=float)
    q.add_argument("--seed", required=True, type=_seed)
    q.add_argument("--out-weights", default=None)
    q.add_argument("--out-csv", default=None)
    q.set_defaults(func=_cmd_refine_demo)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (AngmfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code if isinstance(e, AngmfError) else FormatError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
