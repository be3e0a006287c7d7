"""Toy pixel-wise refinement: a small MLP with (mu, kappa) heads.

The network maps a per-pixel feature vector through three ReLU hidden
layers (128 wide by default) to four raw outputs.  The first three are
L2-normalized into the direction mu; the fourth goes through a modified
ELU, f(x) = x + 1 for x >= 0 and exp(x) below, so kappa stays positive
with unit slope at zero.  Backpropagation is written out by hand,
including the exact Jacobian of v / ||v||, and is verified against finite
differences in the test suite.

Training follows the uncertainty-guided scheme: each step forwards a full
frame, converts kappa to expected angular error, selects pixels via
:func:`angmf.pixel_select.select_pixels`, and backpropagates the mean nll
over the selected pixels only, slicing the selected rows out of that same
full-frame forward.  Updates are plain minibatch gradient descent.  Each
epoch ends with one more forward per frame, which gives the mean nll, the
kappa collapse check and the error summary.  That evaluation forwards
frame 0 last, and the next epoch's first step, on frame 0 with the same
weights, reuses its forward, so a run makes 2·E·F − (E − 1) whole-frame
forwards for E epochs of F frames.

Layer products run in the dtype of the features: float32 features give
float32 matmuls, bias adds and ReLUs, any other input float64.  Training
casts each frame's features to float32 once per run, as the paper trains
in float32, while the master weights, their updates and the AngMF head
(mu, kappa, the nll and its gradient) stay float64; the backward casts
the head gradient and the weights to the activations' dtype for its
products.  A run keeps one workspace of layer outputs in that dtype, one
buffer per (layer, rows), and every forward writes its matrix products
into it.  A forward's layer activations and raw head output alias those
buffers and stay valid only until the next forward of as many rows, so
each backward runs before the next forward.  The single-pixel ``forward``
and ``backward`` run in float64 and use no workspace.

Weight initialization draws from the run's RngState: for each layer in
order, the weight matrix is filled row-major with uniform values in
[-1/sqrt(fan_in), +1/sqrt(fan_in)] and biases start at zero.  Weight
files (``RMLP1``) are read and written by :mod:`angmf.mapio`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import AngMFParams, angmf_grad_rows, angmf_nll_rows, expected_angular_error
from .errors import DomainError, EmptyBatch, NormalizationError, NumericalError, ShapeError
from .metrics import MetricsReport, summarize
from .pixel_select import SelectionConfig, select_pixels
from .rng import RngState
from .sphere import angle_between, dot3, normalize

__all__ = [
    "RefineMLP",
    "TrainConfig",
    "EpochStats",
    "modified_elu",
    "modified_elu_grad",
    "init_mlp",
    "forward",
    "backward",
    "train",
]


def modified_elu(x):
    """x + 1 for x >= 0, exp(x) below; positive, continuous, slope 1 at 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x >= 0.0, x + 1.0, np.exp(np.minimum(x, 0.0)))
    return out if out.ndim else float(out)


def modified_elu_grad(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x >= 0.0, 1.0, np.exp(np.minimum(x, 0.0)))
    return out if out.ndim else float(out)


@dataclass
class RefineMLP:
    """Plain MLP parameters; weights[l] has shape (out, in)."""

    weights: list
    biases: list

    @property
    def dims(self):
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)


def init_mlp(in_dim, hidden_dims=(128, 128, 128), rng=None):
    """Seeded uniform +-1/sqrt(fan_in) init; see the module docstring for draw order."""
    if rng is None:
        rng = RngState(0)
    dims = (int(in_dim),) + tuple(int(d) for d in hidden_dims) + (4,)
    if any(d < 1 for d in dims):
        raise DomainError(f"layer widths must be >= 1, got {dims}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        w = bound * (2.0 * rng.uniform(fan_out * fan_in) - 1.0)
        weights.append(w.reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return RefineMLP(weights=weights, biases=biases)


def _forward_batch(mlp, x, work=None):
    """Forward a (N, in_dim) batch; returns (mu, kappa, (acts, z, r)): layer inputs, raw head output, |v|.

    The layer products run in float32 for float32 ``x`` and in float64 for
    any other input; ``mu``, ``kappa`` and ``r`` are float64 either way.
    ``work`` is an optional workspace dict that maps (layer, N) to that
    layer's output buffer; missing buffers are added on first use, in the
    dtype of the first forward that needs them.  With a workspace,
    ``acts[1:]`` and ``z`` alias its buffers and stay valid only until the
    next forward of N rows on it.
    """
    x = np.asarray(x)
    x = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
    if x.ndim != 2 or x.shape[1] != mlp.weights[0].shape[1]:
        raise ShapeError(f"expected (N, {mlp.weights[0].shape[1]}) features, got {x.shape}")
    acts = [x]
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out = None
        if work is not None:
            out = work.get((l, len(x)))
            if out is None:
                out = work[(l, len(x))] = np.empty((len(x), w.shape[0]), dtype=x.dtype)
        z = np.matmul(acts[l], w.T.astype(x.dtype, copy=False), out=out)
        z += b.astype(x.dtype, copy=False)
        if l < last:
            acts.append(np.maximum(z, 0.0, out=z))
    v = z[:, :3]  # dot3 and the division below widen float32 exactly
    r = np.sqrt(dot3(v, v))
    if np.any(r < 1e-12):
        raise NormalizationError("direction head collapsed below 1e-12")
    mu = v / r[:, None]
    kappa = modified_elu(z[:, 3])
    return mu, kappa, (acts, z, r)


def forward(mlp, feature):
    """Per-pixel prediction as AngMFParams."""
    mu, kappa, _ = _forward_batch(mlp, np.asarray(feature, dtype=np.float64)[None, :])
    return AngMFParams(mu=mu[0], kappa=float(kappa[0]))


def _head_gradients(n_gt, r, mu, kappa, z3):
    """d(nll)/d(raw outputs) for each row, shape (N, 4)."""
    d_mu, d_kappa = angmf_grad_rows(mu, kappa, n_gt)
    # exact Jacobian of v / ||v||: J^T y = (y - mu (mu . y)) / r, which is y / r for a tangent y
    d_v = d_mu / r[:, None]

    dz = np.empty((n_gt.shape[0], 4))
    dz[:, :3] = d_v
    dz[:, 3] = d_kappa * modified_elu_grad(z3)
    return dz


def _backward_batch(mlp, rows, fwd, n_gt):
    """Mean-nll gradients (dWs, dbs) over ``rows`` of ``fwd = _forward_batch(mlp, x)``."""
    mu, kappa, (acts, z, r) = fwd
    n_gt = np.asarray(n_gt, dtype=np.float64)
    if n_gt.shape != (len(rows), 3):
        raise ShapeError(f"expected ({len(rows)}, 3) targets, got {n_gt.shape}")
    if len(rows) == 0:
        raise EmptyBatch("cannot backpropagate an empty batch")
    delta = _head_gradients(n_gt, r[rows], mu[rows], kappa[rows], z[rows, 3]) / len(rows)

    dtype = acts[0].dtype  # the forward's product dtype; the head above is float64
    delta = delta.astype(dtype, copy=False)
    d_ws = [None] * len(mlp.weights)
    d_bs = [None] * len(mlp.weights)
    for l in range(len(mlp.weights) - 1, -1, -1):
        a = acts[l][rows]
        d_ws[l] = delta.T @ a
        d_bs[l] = delta.sum(axis=0)
        if l > 0:  # a ReLU output is > 0 exactly where its pre-activation is
            delta = (delta @ mlp.weights[l].astype(dtype, copy=False)) * (a > 0.0)
    return d_ws, d_bs


def backward(mlp, feature, n_gt):
    """Single-pixel nll gradients in every weight and bias."""
    fwd = _forward_batch(mlp, np.asarray(feature, dtype=np.float64)[None, :])
    return _backward_batch(mlp, [0], fwd, np.asarray(n_gt, dtype=np.float64)[None, :])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 1
    learning_rate: float = 1e-2
    r_s: float = 0.4
    beta_ug: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("epochs and batch_size must be >= 1")
        # zero is legal (a no-op run used to baseline metrics); negative is not
        if not self.learning_rate >= 0.0:
            raise DomainError(f"learning_rate must be >= 0, got {self.learning_rate}")
        SelectionConfig(r_s=self.r_s, beta_ug=self.beta_ug)  # bounds check only


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    nll: float
    report: MetricsReport


def _evaluate(mlp, data, epoch, work=None):
    """EpochStats from one forward per frame: mean nll over valid pixels, then errors.

    Frame 0 is forwarded last, and that forward is returned with the stats
    as ``(stats, fwd)``, so the next step on frame 0 can reuse it while the
    weights and ``work`` are unchanged.  The nll terms are still added in
    frame order.
    """
    outs = [None] * len(data)
    for i in [*range(1, len(data)), 0]:
        x, gt, ok = data[i]
        fwd = _forward_batch(mlp, x, work)
        outs[i] = (fwd[0][ok], fwd[1][ok], gt[ok])
    total, count = 0.0, 0
    for mu, kappa, gt in outs:
        total += float(angmf_nll_rows(mu, kappa, gt).sum())
        count += len(kappa)
    nll = total / count
    # before normalize, which would reject a NaN mu as bad input, not divergence
    if not math.isfinite(nll):
        raise NumericalError(f"training diverged at epoch {epoch} (nll = {nll})")
    if not any(np.any(kappa) for _, kappa, _ in outs):
        raise NumericalError(f"kappa collapsed to 0 at every valid pixel at epoch {epoch}")
    # angmf eval's kernel on the float32 map NormalMap.from_vectors would store
    errs = [np.degrees(angle_between(normalize(mu).astype(np.float32), gt)) for mu, _, gt in outs]
    return EpochStats(epoch=epoch, nll=nll, report=summarize(np.concatenate(errs))), fwd


def train(frames, config):
    """Train on a list of SyntheticFrames; returns (mlp, per-epoch stats).

    One RngState seeded from ``config.seed`` drives initialization and
    every per-step pixel selection in order, so a (frames, config) pair
    fully determines the final weights bit for bit.  All forwards share
    one workspace, and each backward runs before the next forward.
    """
    frames = list(frames)
    if not frames:
        raise EmptyBatch("no training frames")
    rng = RngState(config.seed)
    mlp = init_mlp(frames[0].features.shape[-1], rng=rng)
    sel_cfg = SelectionConfig(r_s=config.r_s, beta_ug=config.beta_ug)
    # float32 features make every forward and backward product float32
    data = [(f.features.reshape(-1, f.features.shape[-1]).astype(np.float32),
             f.gt.data.reshape(-1, 3).astype(np.float64), f.gt.valid.ravel()) for f in frames]

    stats, work, reuse = [], {}, None
    # a diverging run overflows in its matmuls and updates; the non-finite
    # kappa and nll checks report that, so numpy's warnings only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            for start in range(0, len(data), config.batch_size):
                batch = data[start:start + config.batch_size]
                acc_w = [np.zeros_like(w) for w in mlp.weights]
                acc_b = [np.zeros_like(b) for b in mlp.biases]
                for x, gt, valid in batch:
                    # the epoch-end forward of frame 0 has this step's weights
                    fwd = reuse if reuse is not None else _forward_batch(mlp, x, work)
                    reuse = None
                    kappa = fwd[1]
                    if not np.all(np.isfinite(kappa)):
                        raise NumericalError(f"training diverged at epoch {epoch} (non-finite kappa)")
                    unc = expected_angular_error(kappa)
                    idx = select_pixels(unc, valid, sel_cfg, rng).all_indices
                    if idx.size == 0:
                        raise DomainError(f"r_s = {config.r_s} selects no pixel of a frame "
                                          f"with {np.count_nonzero(valid)} valid pixels")
                    d_ws, d_bs = _backward_batch(mlp, idx, fwd, gt[idx])
                    for l in range(len(acc_w)):
                        acc_w[l] += d_ws[l]
                        acc_b[l] += d_bs[l]
                scale = config.learning_rate / len(batch)
                for l in range(len(acc_w)):
                    mlp.weights[l] = mlp.weights[l] - scale * acc_w[l]
                    mlp.biases[l] = mlp.biases[l] - scale * acc_b[l]

            epoch_stats, reuse = _evaluate(mlp, data, epoch, work)
            stats.append(epoch_stats)
    return mlp, stats

