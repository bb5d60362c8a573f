"""Dense leaky-ReLU network, relative-L2 loss, full-batch Adam.

A hand-written numpy reverse pass, deterministic on one machine; full-batch
training with multi-restart selection by test error.  The parameters are
one flat float64 vector, so one Adam update and one write cover them.
Activations are feature-major, (width, n) for a batch of n; forward takes
and returns row-major batches.

An epoch is one forward and one reverse pass in PASS_DTYPE (float32)
buffers allocated once per train call, over float64 master weights: the
parameters, the gradient backward returns, Adam and checkpoints stay
float64, as do loss() and forward(), and so evaluation, the reported
errors and restart selection.  The pass puts a floor near 1e-7 absolute
on the network's output, so on O(1) targets the attainable relative error
floors near 1e-6.  backward returns its pass's loss, summed in float64
and within about 1e-7 relative of loss(): the loss before the epoch's
step.  So the loss history, which records the loss after each step, takes
it from the next epoch's pass, and one loss() after the last step ends it.
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
# the dtype of a training epoch's forward and reverse pass; train reports it
PASS_DTYPE = np.float32


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
    """PASS_DTYPE buffers for training on the batch (Y, Q, norms) that
    _batch returns, allocated once per train call.

    ``inputs`` and ``targets`` are Y and Q feature-major, ``params`` a copy
    of the parameters under the (A, b) views ``weights``, ``grad`` laid out
    like it, and ``scale`` n times the float64 ``norms``.  Each hidden layer
    keeps its (width, n) activation and pre > 0 mask for the reverse pass.
    ``ping`` and ``pong`` hold the gradient in turn and ``scratch`` the
    hidden pre-activations and the activation slopes; all three are flat,
    sized for the widest layer, and viewed (width, n).
    """

    def __init__(self, widths, Y, Q, norms):
        self.n = n = Q.shape[0]
        self.norms, self.scale = norms, (n * norms).astype(PASS_DTYPE)
        self.inputs, self.targets = (np.ascontiguousarray(a.T, dtype=PASS_DTYPE)
                                     for a in (Y, Q))
        self.params = np.empty(sum(o * (i + 1) for i, o in zip(widths, widths[1:])), PASS_DTYPE)
        self.grad = np.empty_like(self.params)
        self.weights = _split(widths, self.params)
        self.acts = [np.empty((w, n), PASS_DTYPE) for w in widths[1:-1]]
        self.masks = [np.empty((w, n), dtype=bool) for w in widths[1:-1]]
        self.ping, self.pong, self.scratch = (np.empty(n * max(widths[1:]), PASS_DTYPE)
                                              for _ in range(3))

    def view(self, flat, width):
        """The leading (width, n) block of a flat buffer, C-contiguous."""
        return flat[: width * self.n].reshape(width, self.n)


def _forward(net, z, work=None):
    """Output of the network for the feature-major batch z, (N_0, n), as
    an (N_L, n) array.  With work, the layers are work.weights, each
    hidden activation and its mask stay in work for backward and the
    output is written to work.ping; without, every array is fresh.

    The activation is maximum(pre, beta * pre), which for 0 <= beta <= 1
    is pre where pre > 0 and beta * pre elsewhere, except that beta = 0
    maps pre = +inf to NaN.
    """
    for ell, (A, b) in enumerate(net.weights if work is None else work.weights):
        hidden = ell < net.n_layers - 1
        into = None if work is None else work.view(
            work.scratch if hidden else work.ping, A.shape[0])
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


def _relative_loss(residual, norms):
    """The loss for a feature-major residual, (N_L, n), summed in float64."""
    return float(np.mean(np.sum(residual * residual, axis=0, dtype=float) / norms))


def _batch(widths, Y, Q):
    """Y and Q as float64 batches, one sample per row, checked to fit
    widths, and Q's squared norms per sample, checked nonzero."""
    Y, Q = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (Y, Q))
    if Y.shape[0] != Q.shape[0] or (Y.shape[1], Q.shape[1]) != (widths[0], widths[-1]):
        raise ValueError(f"inputs {Y.shape} and targets {Q.shape} do not fit a "
                         f"network from {widths[0]} to {widths[-1]}")
    norms = np.sum(Q * Q, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm target in batch")
    return Y, Q, norms


def loss(net, Y, Q):
    """Mean relative squared Euclidean error over the batch."""
    Y, Q, norms = _batch(net.widths, Y, Q)
    return _relative_loss(_forward(net, Y.T) - Q.T, norms)


def backward(net, Y, Q, work=None):
    """loss() and its gradient from one forward pass in PASS_DTYPE.

    Returns (value, grad): value is the loss of that pass, summed in
    float64, and grad a fresh float64 vector laid out like net.params.
    The slope at the kink is taken as beta.  ``work`` is the _Work that
    train builds once for the batch; with it, Y and Q are read from work.
    """
    if work is None:
        work = _Work(net.widths, *_batch(net.widths, Y, Q))
    work.params[:] = net.params
    G = _forward(net, work.inputs, work)
    G -= work.targets
    value = _relative_loss(G, work.norms)
    G *= 2.0
    G /= work.scale
    # 1 - beta + beta rounds to exactly 1 for 0 <= beta <= 1, so each
    # slope entry is exactly 1 or beta
    beta = PASS_DTYPE(net.beta)
    rest = 1 - beta
    ping, pong = work.ping, work.pong
    layers = list(zip(work.weights, net.split(work.grad)))
    for ell in range(net.n_layers - 1, -1, -1):
        (A, _), (gA, gb) = layers[ell]
        z = work.acts[ell - 1] if ell > 0 else work.inputs
        np.matmul(G, z.T, out=gA)
        np.sum(G, axis=1, out=gb)
        if ell > 0:
            G = np.matmul(A.T, G, out=work.view(pong, A.shape[1]))
            ping, pong = pong, ping
            slope = np.multiply(work.masks[ell - 1], rest,
                                out=work.view(work.scratch, A.shape[1]))
            slope += beta
            G *= slope
    return value, work.grad.astype(float)


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
    Y_tr, Q_tr, norms = _batch(widths, *train_set)
    Y_te, Q_te, _ = _batch(widths, *test_set)
    if Y_tr.shape[0] == 0 or Y_te.shape[0] == 0:
        raise ValueError("empty train or test set")
    if restarts < 1 or epochs < 0:
        raise ValueError(f"need restarts >= 1 and epochs >= 0, got {restarts} "
                         f"and {epochs}")
    hyper = {"widths": list(widths), "beta": beta, "lr": lr, "adam_betas": ADAM_BETAS,
             "adam_eps": ADAM_EPS, "pass_dtype": np.dtype(PASS_DTYPE).name,
             "epochs": epochs, "restarts": restarts}
    # NaN fails the test, and a float64 beyond the pass's range turns inf in the cast
    if not all(np.all(np.abs(a) <= np.finfo(PASS_DTYPE).max) for a in (Y_tr, Q_tr, Y_te, Q_te)):
        raise ValueError(f"train and test sets must be finite in {hyper['pass_dtype']}")
    work = _Work(widths, Y_tr, Q_tr, norms)
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
        errors = ((np.inf, np.inf) if diverged
                  else (np.sqrt(value), np.sqrt(loss(net, Y_te, Q_te))))
        report = TrainReport(history, *errors, r, seed, wall, hyper, diverged)
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
