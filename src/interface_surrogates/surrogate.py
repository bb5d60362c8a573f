"""Dense leaky-ReLU network, relative-L2 loss, full-batch Adam.

Everything is plain float64 numpy: the networks are small enough that a
hand-written reverse pass is both faster to verify and bit-reproducible.
Training runs full batch with multi-restart selection by test error.
"""

import contextlib
import os
import struct
import time
from pathlib import Path

import numpy as np

_CKPT_MAGIC = b"MLPC"
_CKPT_VERSION = 1


class Mlp:
    """Weights of a beta-leaky-ReLU network: L affine layers, the last
    one linear.  widths = [N_0, ..., N_L]."""

    def __init__(self, widths, beta, weights):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ValueError(f"invalid widths {widths}")
        if not 0 <= beta <= 1:
            raise ValueError(f"activation slope must be in [0, 1], got {beta}")
        if len(weights) != len(widths) - 1:
            raise ValueError("one (A, b) pair per affine layer required")
        for ell, (A, b) in enumerate(weights):
            if A.shape != (widths[ell + 1], widths[ell]) or b.shape != (widths[ell + 1],):
                raise ValueError(f"layer {ell + 1} shape mismatch")
        self.widths = widths
        self.beta = float(beta)
        self.weights = weights

    @property
    def n_layers(self):
        return len(self.weights)


def default_widths(d, n_points, depth=10, hidden=10):
    """Layer widths used throughout: depth affine layers, hidden width 10."""
    return [d] + [hidden] * (depth - 1) + [n_points]


def init(widths, beta=0.2, seed=0):
    """Uniform(-a, a) entries, a = 1/sqrt(10) except 1/sqrt(N_L) for the
    output layer; biases follow the same law as their layer's weights."""
    rng = np.random.default_rng(seed)
    weights = []
    last = len(widths) - 2
    for ell in range(len(widths) - 1):
        a = 1.0 / np.sqrt(widths[-1]) if ell == last else 1.0 / np.sqrt(10.0)
        A = rng.uniform(-a, a, size=(widths[ell + 1], widths[ell]))
        b = rng.uniform(-a, a, size=widths[ell + 1])
        weights.append((A, b))
    return Mlp(widths, beta, weights)


def _forward_cached(net, Y):
    """All pre-activations and activations, for the reverse pass."""
    zs = [Y]
    pres = []
    z = Y
    for ell, (A, b) in enumerate(net.weights):
        pre = z @ A.T + b
        pres.append(pre)
        if ell < net.n_layers - 1:
            z = np.where(pre > 0, pre, net.beta * pre)
        else:
            z = pre
        zs.append(z)
    return pres, zs


def forward(net, y):
    """Realization of the network; accepts a single input or a batch."""
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    out = _forward_cached(net, np.atleast_2d(y))[1][-1]
    return out[0] if single else out


def loss(net, Y, Q):
    """Mean relative squared Euclidean error over the batch."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    norms = np.sum(Q * Q, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm target in batch")
    out = forward(net, np.atleast_2d(Y))
    return float(np.mean(np.sum((Q - out) ** 2, axis=1) / norms))


def backward(net, Y, Q):
    """Gradient of loss() for every (A, b); slope at the kink taken as beta."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    norms = np.sum(Q * Q, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm target in batch")
    pres, zs = _forward_cached(net, Y)
    n = Y.shape[0]
    G = 2.0 * (zs[-1] - Q) / (n * norms[:, None])
    grads = [None] * net.n_layers
    for ell in range(net.n_layers - 1, -1, -1):
        A, _ = net.weights[ell]
        grads[ell] = (G.T @ zs[ell], G.sum(axis=0))
        if ell > 0:
            G = (G @ A) * np.where(pres[ell - 1] > 0, 1.0, net.beta)
    return grads


class AdamState:
    """First/second moment accumulators mirroring the weight shapes."""

    def __init__(self, net, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [(np.zeros_like(A), np.zeros_like(b)) for A, b in net.weights]
        self.v = [(np.zeros_like(A), np.zeros_like(b)) for A, b in net.weights]
        self.step = 0
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_step(net, grads, state):
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for ell in range(net.n_layers):
        for slot in (0, 1):
            g = grads[ell][slot]
            m = state.m[ell][slot]
            v = state.v[ell][slot]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            w = net.weights[ell][slot]
            w -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return net, state


class TrainReport:
    """Outcome of one restart (or the selected best one)."""

    def __init__(self, loss_history, train_error, test_error, restart, seed,
                 wall_time, hyperparams, diverged=False):
        self.loss_history = np.asarray(loss_history, dtype=float)
        self.train_error = float(train_error)
        self.test_error = float(test_error)
        self.restart = int(restart)
        self.seed = int(seed)
        self.wall_time = float(wall_time)
        self.hyperparams = dict(hyperparams)
        self.diverged = bool(diverged)

    @property
    def gap(self):
        """Train/test error gap relative to the test error."""
        if self.test_error == 0:
            return 0.0
        return (self.test_error - self.train_error) / self.test_error

    def to_dict(self):
        return {
            "train_error": self.train_error,
            "test_error": self.test_error,
            "gap": self.gap,
            "restart": self.restart,
            "seed": self.seed,
            "wall_time": self.wall_time,
            "epochs_run": int(self.loss_history.size),
            "final_loss": float(self.loss_history[-1]) if self.loss_history.size else None,
            "hyperparams": self.hyperparams,
            "diverged": self.diverged,
        }


def train(train_set, test_set, widths, epochs, restarts=1, base_seed=0,
          beta=0.2, lr=2e-4, callback=None):
    """Full-batch Adam with restart selection by test error.

    Each restart initializes from base_seed + r and trains for the full
    epoch budget; the network with the lowest test error (square root of
    the relative-L2 loss on the held-out set) wins.  A restart whose loss
    turns NaN is recorded as diverged and skipped for selection.
    """
    Y_tr, Q_tr = (np.atleast_2d(np.asarray(a, dtype=float)) for a in train_set)
    Y_te, Q_te = (np.atleast_2d(np.asarray(a, dtype=float)) for a in test_set)
    if Y_tr.shape[0] == 0 or Y_te.shape[0] == 0:
        raise ValueError("empty train or test set")
    hyper = {
        "widths": list(widths),
        "beta": beta,
        "lr": lr,
        "adam_betas": (0.9, 0.999),
        "adam_eps": 1e-8,
        "epochs": epochs,
        "restarts": restarts,
    }
    best = None
    reports = []
    for r in range(restarts):
        seed = base_seed + r
        net = init(widths, beta=beta, seed=seed)
        state = AdamState(net, lr=lr)
        history = np.empty(epochs)
        t0 = time.perf_counter()
        diverged = False
        for epoch in range(epochs):
            grads = backward(net, Y_tr, Q_tr)
            adam_step(net, grads, state)
            history[epoch] = loss(net, Y_tr, Q_tr)
            if not np.isfinite(history[epoch]):
                history = history[: epoch + 1]
                diverged = True
                break
            if callback is not None:
                callback(r, epoch, history[epoch])
        wall = time.perf_counter() - t0
        if diverged:
            report = TrainReport(history, np.inf, np.inf, r, seed, wall,
                                 hyper, diverged=True)
        else:
            report = TrainReport(history,
                                 np.sqrt(loss(net, Y_tr, Q_tr)),
                                 np.sqrt(loss(net, Y_te, Q_te)),
                                 r, seed, wall, hyper)
        reports.append(report)
        if not diverged and (best is None or report.test_error < best[1].test_error):
            best = (net, report)
    if best is None:
        raise ArithmeticError("all restarts diverged")
    return best[0], best[1], reports


@contextlib.contextmanager
def atomic_open(path, mode="w", newline=None):
    """Open a temp file beside path for writing and rename it over path
    once the block completes, so an interrupted write never leaves path
    half-written; the temp file is removed either way."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_network(net, path):
    """Versioned binary checkpoint: widths, slope, row-major weights."""
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(net.widths)))
        fh.write(struct.pack(f"<{len(net.widths)}I", *net.widths))
        fh.write(struct.pack("<d", net.beta))
        for A, b in net.weights:
            fh.write(np.ascontiguousarray(A).tobytes())
            fh.write(np.ascontiguousarray(b).tobytes())


def load_network(path):
    with open(path, "rb") as fh:
        def read(n):
            data = fh.read(n)
            if len(data) != n:
                raise ValueError(f"{path}: truncated checkpoint")
            return data

        if fh.read(4) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a network checkpoint")
        version, n_widths = struct.unpack("<II", read(8))
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        widths = list(struct.unpack(f"<{n_widths}I", read(4 * n_widths)))
        (beta,) = struct.unpack("<d", read(8))
        weights = []
        for ell in range(n_widths - 1):
            n_out, n_in = widths[ell + 1], widths[ell]
            A = np.frombuffer(read(8 * n_out * n_in), dtype="<f8").reshape(n_out, n_in)
            b = np.frombuffer(read(8 * n_out), dtype="<f8")
            weights.append((A.copy(), b.copy()))
        rest = fh.read(1)
        if rest:
            raise ValueError(f"{path}: trailing bytes in checkpoint")
    return Mlp(widths, beta, weights)
