"""Dense leaky-ReLU network, relative-L2 loss, full-batch Adam.

Everything is plain float64 numpy: the networks are small enough that a
hand-written reverse pass is both faster to verify and bit-reproducible.
Training runs full batch with multi-restart selection by test error.
The parameters are one flat vector, so one Adam update and one write
cover them.  Activations are feature-major, (width, n) for a batch of n;
forward takes and returns row-major batches.

An epoch is one forward and one reverse pass, both in buffers allocated
once per train call; backward returns the loss of its own forward pass.
That is the loss before the epoch's step, so the loss history, which
records the loss after each step, takes it from the next epoch's pass,
and one loss() after the last step completes it.
"""

import contextlib
import os
import struct
import time
from pathlib import Path

import numpy as np

_CKPT_MAGIC = b"MLPC"
_CKPT_VERSION = 1

# Adam's moment decay rates and denominator guard: AdamState runs with these
# and train reports them, so a report always names the optimizer that ran
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Mlp:
    """Weights of a beta-leaky-ReLU network: L affine layers, the last
    one linear.  widths = [N_0, ..., N_L].  ``params`` holds A_1, b_1,
    A_2, ... (each A row-major) in one float64 vector that the given
    weights are copied into; ``weights`` are (A, b) views of it."""

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
        self.params = np.concatenate([np.append(A, b) for A, b in weights], dtype=float)
        self.weights = self.split(self.params)

    @property
    def n_layers(self):
        return len(self.weights)

    def split(self, vec):
        """(A, b) views of each layer in a vector laid out like params."""
        return _split(self.widths, vec)


def _split(widths, vec):
    views, k = [], 0
    for n_in, n_out in zip(widths, widths[1:]):
        views.append((vec[k:k + n_out * n_in].reshape(n_out, n_in),
                      vec[k + n_out * n_in:k + n_out * (n_in + 1)]))
        k += n_out * (n_in + 1)
    return views


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


class _Work:
    """Buffers for training on one batch, allocated once per train call.

    Each hidden layer keeps its (width, n) activation and pre > 0 mask
    for the reverse pass.  ``ping`` and ``pong`` hold the gradient in
    turn and ``scratch`` the hidden pre-activations and the activation
    slopes; all three are flat, sized for the widest layer, and viewed
    (width, n).  ``targets`` is Q feature-major and ``norms`` its squared
    norms per sample, checked once.
    """

    def __init__(self, widths, Q):
        self.n = n = Q.shape[0]
        self.norms = _target_norms(Q)
        self.scale = n * self.norms
        self.targets = np.ascontiguousarray(Q.T)
        self.acts = [np.empty((w, n)) for w in widths[1:-1]]
        self.masks = [np.empty((w, n), dtype=bool) for w in widths[1:-1]]
        self.ping, self.pong, self.scratch = (np.empty(n * max(widths[1:]))
                                              for _ in range(3))

    def view(self, flat, width):
        """The leading (width, n) block of a flat buffer, C-contiguous."""
        return flat[: width * self.n].reshape(width, self.n)


def _forward(net, z, work=None):
    """Output of the network for the feature-major batch z, (N_0, n), as
    an (N_L, n) array.  With work, each hidden activation and its mask
    stay in work for backward and the output is written to work.ping;
    without, every array is fresh.

    The activation is maximum(pre, beta * pre), which for 0 <= beta <= 1
    is pre where pre > 0 and beta * pre elsewhere, except that beta = 0
    maps pre = +inf to NaN.
    """
    for ell, (A, b) in enumerate(net.weights):
        hidden = ell < net.n_layers - 1
        into = None
        if work is not None:
            into = work.view(work.scratch if hidden else work.ping, A.shape[0])
        pre = np.matmul(A, z, out=into)
        pre += b[:, None]
        if not hidden:
            return pre
        if work is None:
            z = np.maximum(pre, net.beta * pre)
        else:
            np.greater(pre, 0, out=work.masks[ell])
            z = np.multiply(pre, net.beta, out=work.acts[ell])
            np.maximum(pre, z, out=z)


def forward(net, y):
    """Realization of the network for one input or a batch, one per row."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return _forward(net, y[:, None])[:, 0]
    return _forward(net, y.T).T


def _target_norms(Q):
    norms = np.sum(Q * Q, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm target in batch")
    return norms


def _relative_loss(residual, norms):
    """The loss for a feature-major residual, (N_L, n)."""
    return float(np.mean(np.sum(residual * residual, axis=0) / norms))


def loss(net, Y, Q):
    """Mean relative squared Euclidean error over the batch."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    norms = _target_norms(Q)
    return _relative_loss(_forward(net, Y.T) - Q.T, norms)


def backward(net, Y, Q, work=None):
    """loss() and its gradient from one forward pass.

    Returns (value, grad): value equals loss(net, Y, Q) bit for bit, and
    grad is a fresh vector laid out like net.params.  The slope at the
    kink is taken as beta.  ``work`` is the _Work that train builds once
    for this batch.
    """
    if work is None:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        work = _Work(net.widths, Q)
    G = _forward(net, Y.T, work)
    G -= work.targets
    value = _relative_loss(G, work.norms)
    G *= 2.0
    G /= work.scale
    # 1 - beta + beta rounds to exactly 1.0 for 0 <= beta <= 1, so each
    # slope entry is exactly 1.0 or beta
    rest = 1.0 - net.beta
    ping, pong = work.ping, work.pong
    grad = np.empty_like(net.params)
    layers = list(zip(net.weights, net.split(grad)))
    for ell in range(net.n_layers - 1, -1, -1):
        (A, _), (gA, gb) = layers[ell]
        z = work.acts[ell - 1] if ell > 0 else Y.T
        np.matmul(G, z.T, out=gA)
        np.sum(G, axis=1, out=gb)
        if ell > 0:
            G = np.matmul(A.T, G, out=work.view(pong, A.shape[1]))
            ping, pong = pong, ping
            slope = np.multiply(work.masks[ell - 1], rest,
                                out=work.view(work.scratch, A.shape[1]))
            slope += net.beta
            G *= slope
    return value, grad


class AdamState:
    """First/second moment accumulators, laid out like the parameters."""

    def __init__(self, net, lr=2e-4):
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self.step = 0
        self.lr = lr
        self.beta1, self.beta2 = ADAM_BETAS
        self.eps = ADAM_EPS


def adam_step(net, grad, state):
    """Standard bias-corrected Adam update of net.params, in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    state.m *= b1
    state.m += (1 - b1) * grad
    state.v *= b2
    state.v += (1 - b2) * grad * grad
    net.params -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + state.eps)
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
            "epoch_ms": (1000.0 * self.wall_time / self.loss_history.size
                         if self.loss_history.size else None),
            "final_loss": float(self.loss_history[-1]) if self.loss_history.size else None,
            # tuples as lists, so that the dict equals its JSON round trip
            "hyperparams": {k: list(v) if isinstance(v, tuple) else v
                            for k, v in self.hyperparams.items()},
            "diverged": self.diverged,
        }


def train(train_set, test_set, widths, epochs, restarts=1, base_seed=0,
          beta=0.2, lr=2e-4, callback=None):
    """Full-batch Adam with restart selection by test error.

    Each restart initializes from base_seed + r and trains for the full
    epoch budget; the network with the lowest test error (square root of
    the relative-L2 loss on the held-out set) wins.  A restart whose loss
    turns NaN is recorded as diverged and skipped for selection.
    callback(restart, epoch, loss after that epoch's step) is called for
    every finite loss, as soon as the next forward pass has computed it.
    """
    Y_tr, Q_tr = (np.atleast_2d(np.asarray(a, dtype=float)) for a in train_set)
    Y_te, Q_te = (np.atleast_2d(np.asarray(a, dtype=float)) for a in test_set)
    if Y_tr.shape[0] == 0 or Y_te.shape[0] == 0:
        raise ValueError("empty train or test set")
    if restarts < 1 or epochs < 0:
        raise ValueError(f"need restarts >= 1 and epochs >= 0, got {restarts} "
                         f"and {epochs}")
    hyper = {
        "widths": list(widths),
        "beta": beta,
        "lr": lr,
        "adam_betas": ADAM_BETAS,
        "adam_eps": ADAM_EPS,
        "epochs": epochs,
        "restarts": restarts,
    }
    work = _Work(widths, Q_tr)
    best = None
    reports = []
    for r in range(restarts):
        seed = base_seed + r
        net = init(widths, beta=beta, seed=seed)
        state = AdamState(net, lr=lr)
        history = []
        t0 = time.perf_counter()
        # backward returns the loss before its step, which is the loss after
        # the previous step; one loss() after the loop gives the last one
        for epoch in range(epochs + 1):
            if epoch < epochs:
                value, grad = backward(net, Y_tr, Q_tr, work)
            else:
                value = loss(net, Y_tr, Q_tr)
            if epoch > 0:
                history.append(value)
                if not np.isfinite(value):
                    break
                if callback is not None:
                    callback(r, epoch - 1, value)
            if epoch < epochs:
                adam_step(net, grad, state)
        wall = time.perf_counter() - t0
        diverged = bool(history) and not np.isfinite(history[-1])
        if diverged:
            report = TrainReport(history, np.inf, np.inf, r, seed, wall,
                                 hyper, diverged=True)
        else:
            report = TrainReport(history, np.sqrt(value),
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
    """Versioned binary checkpoint: widths, slope, then net.params."""
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(net.widths)))
        fh.write(struct.pack(f"<{len(net.widths)}I", *net.widths))
        fh.write(struct.pack("<d", net.beta))
        fh.write(net.params.tobytes())


def load_network(path):
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        # a length taken from the header is checked against the bytes left
        # before reading, so a corrupt width cannot ask for a huge buffer
        def read(n):
            data = fh.read(n) if n <= end - fh.tell() else b""
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
        size = sum(n_out * (n_in + 1) for n_in, n_out in zip(widths, widths[1:]))
        params = np.frombuffer(read(8 * size), dtype="<f8")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes in checkpoint")
    return Mlp(widths, beta, _split(widths, params))
