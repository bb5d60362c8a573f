import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from interface_surrogates import surrogate
from interface_surrogates.surrogate import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    default_widths,
    forward,
    init,
    load_network,
    loss,
    save_network,
    train,
)


# ------------------------------------------------------------ initialization


def test_init_deterministic():
    a = init([8, 10, 10, 5], seed=123)
    b = init([8, 10, 10, 5], seed=123)
    for (A1, b1), (A2, b2) in zip(a.weights, b.weights):
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(b1, b2)


def test_init_ranges():
    net = init([8, 10, 10, 100], seed=5)
    a_hidden = 1 / np.sqrt(10)
    for A, b in net.weights[:-1]:
        assert np.abs(A).max() < a_hidden and np.abs(b).max() < a_hidden
    A_last, b_last = net.weights[-1]
    assert np.abs(A_last).max() < 0.1 and np.abs(b_last).max() < 0.1


def test_init_entry_mean():
    net = init([300, 350, 10], seed=9)
    entries = net.weights[0][0].ravel()
    a = 1 / np.sqrt(10)
    stderr = a / np.sqrt(3) / np.sqrt(entries.size)
    assert abs(entries.mean()) <= 3 * stderr


def test_default_widths():
    assert default_widths(8, 64) == [8] + [10] * 9 + [64]


def test_invalid_construction():
    with pytest.raises(ValueError):
        init([5], seed=0)
    with pytest.raises(ValueError):
        Mlp([2, 2], 1.5, [(np.zeros((2, 2)), np.zeros(2))])
    with pytest.raises(ValueError):
        Mlp([2, 3], 0.2, [(np.zeros((2, 2)), np.zeros(2))])


# ------------------------------------------------------------------- forward


def test_forward_identity_layer():
    net = Mlp([3, 3], 0.0, [(np.eye(3), np.zeros(3))])
    y = np.array([0.5, 0.0, 2.0])
    np.testing.assert_array_equal(forward(net, y), y)


def test_forward_affine_when_slope_one():
    net = init([4, 6, 5, 2], beta=1.0, seed=3)
    M = np.eye(4)
    c = np.zeros(4)
    for A, b in net.weights:
        c = A @ c + b
        M = A @ M
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(20, 4))
    np.testing.assert_allclose(forward(net, Y), Y @ M.T + c, rtol=1e-12, atol=1e-12)


def test_forward_single_input_is_row_of_batch():
    net = init([5, 10, 10, 3], seed=6)
    Y = np.random.default_rng(7).uniform(-1, 1, (9, 5))
    out = forward(net, Y)
    assert out.shape == (9, 3)
    # not bit for bit: one input runs a matrix-vector product, the batch a
    # matrix-matrix product, and their sums round differently
    for y, row in zip(Y, out):
        np.testing.assert_allclose(forward(net, y), row, rtol=1e-12, atol=1e-15)


def test_forward_piecewise_linear_in_input():
    net = init([5, 10, 10, 3], seed=11)
    rng = np.random.default_rng(4)
    y_a, y_b = rng.uniform(-1, 1, (2, 5))
    ts = np.linspace(0, 1, 2001)
    seg = y_a + ts[:, None] * (y_b - y_a)
    out = forward(net, seg)
    d2 = np.abs(np.diff(out, 2, axis=0))
    scale = np.abs(out).max()
    kinked = np.any(d2 > 1e-10 * scale, axis=1)
    # a handful of activation-boundary crossings, linear everywhere else
    assert 0 < kinked.sum() <= 60
    assert d2[~kinked].max() <= 1e-10 * scale


# ---------------------------------------------------------------------- loss


def zero_net(d, m):
    return Mlp([d, m], 0.2, [(np.zeros((m, d)), np.zeros(m))])


def test_loss_perfect_prediction():
    net = init([3, 10, 2], seed=0)
    Y = np.random.default_rng(1).uniform(-1, 1, (7, 3))
    Q = forward(net, Y)
    assert loss(net, Y, Q) <= 1e-30


def test_loss_unit_relative_error():
    net = zero_net(2, 2)
    assert loss(net, [[0.3, -0.4]], [[3.0, 4.0]]) == pytest.approx(1.0)


def test_loss_is_mean_of_relative_errors():
    # constant prediction [0.9, 0]; targets chosen so the per-sample
    # relative squared errors are exactly 0.01 and 0.03
    net = Mlp([1, 2], 0.2, [(np.zeros((2, 1)), np.array([0.9, 0.0]))])
    qa = np.array([[1.0, 0.0]])
    qb = np.array([[0.9 / (1 - np.sqrt(0.03)), 0.0]])
    assert loss(net, [[0.0]], qa) == pytest.approx(0.01)
    assert loss(net, [[0.0]], qb) == pytest.approx(0.03)
    both = loss(net, [[0.0], [0.0]], np.vstack([qa, qb]))
    assert both == pytest.approx(0.02)


def test_loss_rejects_zero_norm_target():
    net = zero_net(2, 2)
    with pytest.raises(ValueError):
        loss(net, [[1.0, 1.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        backward(net, [[1.0, 1.0]], [[0.0, 0.0]])


# ------------------------------------------------------------------ backward


def test_params_are_one_vector_under_the_weights():
    net = init([4, 7, 12, 5, 3], seed=3)
    assert net.params.shape == (sum(o * (i + 1) for i, o in zip(net.widths, net.widths[1:])),)
    start = 0
    for A, b in net.weights:
        for part in (A, b):
            assert np.shares_memory(part, net.params)
            np.testing.assert_array_equal(part.ravel(), net.params[start:start + part.size])
            start += part.size
    vec = np.arange(net.params.size, dtype=float)
    for (A, b), (vA, vb) in zip(net.weights, net.split(vec)):
        assert vA.shape == A.shape and vb.shape == b.shape
        assert np.shares_memory(vA, vec) and np.shares_memory(vb, vec)
    np.testing.assert_array_equal(
        np.concatenate([np.append(vA, vb) for vA, vb in net.split(vec)]), vec)
    # the constructor copies, so the caller's arrays stay its own
    A = np.ones((2, 3))
    copied = Mlp([3, 2], 0.2, [(A, np.zeros(2))])
    copied.params[:] = 5.0
    np.testing.assert_array_equal(A, 1.0)


def test_backward_matches_finite_differences():
    net = init([3, 4, 2], seed=21)
    rng = np.random.default_rng(2)
    Y = rng.uniform(-1, 1, (5, 3))
    Q = rng.uniform(0.5, 1.5, (5, 2))
    _, grad = backward(net, Y, Q)

    theta = net.params.copy()
    h = 1e-6
    fd = np.empty_like(theta)
    for i in range(theta.size):
        net.params[i] = theta[i] + h
        up = loss(net, Y, Q)
        net.params[i] = theta[i] - h
        dn = loss(net, Y, Q)
        net.params[i] = theta[i]
        fd[i] = (up - dn) / (2 * h)
    denom = np.abs(fd).max()
    assert np.abs(grad - fd).max() / denom <= 1e-5


def row_major_backward(net, Y, Q):
    """The gradient on (n, width) activations, one fresh array per step."""
    zs, masks = [Y], []
    for A, b in net.weights[:-1]:
        pre = zs[-1] @ A.T + b
        masks.append(pre > 0)
        zs.append(np.maximum(pre, net.beta * pre))
    A, b = net.weights[-1]
    G = 2 * (zs[-1] @ A.T + b - Q) / (len(Y) * np.sum(Q * Q, axis=1)[:, None])
    grads = []
    for ell in range(net.n_layers - 1, -1, -1):
        grads.append((G.T @ zs[ell], G.sum(axis=0)))
        if ell > 0:
            G = (G @ net.weights[ell][0]) * np.where(masks[ell - 1], 1.0, net.beta)
    return grads[::-1]


@pytest.mark.parametrize("beta", [0.0, 0.2, 1.0])
def test_backward_matches_row_major_reference(beta):
    # backward's pass runs in float32 against this float64 reference: its
    # loss within 1e-6 relative (measured <= 2.6e-8) and each gradient
    # entry within rtol 1e-5 plus 1e-6 of the largest entry, which the
    # entries near zero that beta = 0 and 0.2 leave need (measured: <= 6.2e-6
    # entrywise, <= 6.0e-8 of the largest)
    (Y, Q), _ = affine_dataset(n_train=96, n_test=8)
    net = init([4, 7, 12, 5, 3], beta=beta, seed=4)
    value, grad = backward(net, Y, Q)
    assert value == pytest.approx(loss(net, Y, Q), rel=1e-6)
    ref = row_major_backward(net, Y, Q)
    atol = 1e-6 * max(np.abs(g).max() for layer in ref for g in layer)
    for (gA, gb), (rA, rb) in zip(net.split(grad), ref):
        np.testing.assert_allclose(gA, rA, rtol=1e-5, atol=atol)
        np.testing.assert_allclose(gb, rb, rtol=1e-5, atol=atol)


def test_backward_affine_closed_form():
    # single affine layer: gradient of the relative loss has a closed form
    rng = np.random.default_rng(8)
    A = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    net = Mlp([3, 2], 1.0, [(A.copy(), b.copy())])
    Y = rng.uniform(-1, 1, (6, 3))
    Q = rng.uniform(0.5, 1.5, (6, 2))
    out = Y @ A.T + b
    norms = np.sum(Q * Q, axis=1)
    R = 2 * (out - Q) / (len(Y) * norms[:, None])
    gA, gb = net.split(backward(net, Y, Q)[1])[0]
    # a float32 pass against the float64 closed form (measured <= 1.1e-6)
    np.testing.assert_allclose(gA, R.T @ Y, rtol=1e-5)
    np.testing.assert_allclose(gb, R.sum(axis=0), rtol=1e-5)


def test_loss_and_backward_reject_a_batch_that_does_not_fit():
    (Y, Q), _ = affine_dataset(n_train=64, n_test=8)
    net = init([4, 5, 3], seed=0)
    # rows that differ, then an input and a target width the network lacks
    for Y_bad, Q_bad in ((Y, Q[:1]), (Y[:, :3], Q), (Y, Q[:, :2])):
        shapes = re.escape(f"inputs {Y_bad.shape} and targets {Q_bad.shape}")
        for f in (loss, backward):
            with pytest.raises(ValueError, match=shapes):
                f(net, Y_bad, Q_bad)


def test_epoch_allocates_no_activation_sized_temporaries():
    # one float64 (10, n) array is what a silent upcast of an activation
    # allocates; the epoch's own temporaries are per-sample loss terms and
    # parameter-sized vectors
    n = 8192
    Y = np.random.default_rng(0).uniform(-1, 1, (n, 8))
    Q = 1.5 + np.sin(Y[:, :1])
    net = init(default_widths(8, 1), seed=0)
    work = surrogate._Work(net.widths, *surrogate._batch(net.widths, Y, Q))
    state = AdamState(net)
    adam_step(net, backward(net, Y, Q, work)[1], state)
    tracemalloc.start()
    try:
        adam_step(net, backward(net, Y, Q, work)[1], state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * 8


def test_backward_finite_on_zero_network():
    net = zero_net(3, 2)
    _, grad = backward(net, np.zeros((4, 3)), np.ones((4, 2)))
    assert grad.shape == net.params.shape and np.all(np.isfinite(grad))


# ---------------------------------------------------------------------- adam


def test_adam_zero_gradient_no_update():
    net = init([3, 4, 2], seed=1)
    before = net.params.copy()
    state = AdamState(net)
    adam_step(net, np.zeros_like(net.params), state)
    np.testing.assert_array_equal(net.params, before)


def test_adam_first_step_is_lr_sized():
    net = zero_net(2, 2)
    state = AdamState(net, lr=1e-3)
    g = np.empty_like(net.params)
    gA, gb = net.split(g)[0]
    gA[:] = 7.0
    gb[:] = -3.0
    adam_step(net, g, state)
    A, b = net.weights[0]
    np.testing.assert_allclose(A, -1e-3, rtol=1e-6)
    np.testing.assert_allclose(b, 1e-3, rtol=1e-6)


def test_adam_minimizes_scalar_quadratic():
    net = Mlp([1, 1], 0.2, [(np.array([[0.0]]), np.zeros(1))])
    state = AdamState(net, lr=1e-2)
    for _ in range(10_000):
        w = net.weights[0][0][0, 0]
        adam_step(net, np.array([2 * (w - 5.0), 0.0]), state)
    assert abs(net.weights[0][0][0, 0] - 5.0) <= 1e-3


def per_array_adam(weights, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """adam_step written over each (A, b) array in turn, in place."""
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for layer in zip(weights, grads, m, v):
        for w, g, mm, vv in zip(*layer):
            mm *= b1
            mm += (1 - b1) * g
            vv *= b2
            vv += (1 - b2) * g * g
            w -= lr * (mm / c1) / (np.sqrt(vv / c2) + eps)


def test_adam_flat_equals_per_array_loop():
    (Y, Q), _ = affine_dataset(n_train=64, n_test=8)
    net = init([4, 7, 12, 5, 3], seed=3)
    state = AdamState(net, lr=1e-2)
    ref = [(A.copy(), b.copy()) for A, b in net.weights]
    m = [(np.zeros_like(A), np.zeros_like(b)) for A, b in ref]
    v = [(np.zeros_like(A), np.zeros_like(b)) for A, b in ref]
    for step in range(1, 6):
        _, grad = backward(net, Y, Q)
        adam_step(net, grad, state)
        per_array_adam(ref, net.split(grad), m, v, step, lr=1e-2)
        for (A, b), (A_ref, b_ref) in zip(net.weights, ref):
            np.testing.assert_array_equal(A, A_ref)
            np.testing.assert_array_equal(b, b_ref)
    for flat, layers in ((state.m, m), (state.v, v)):
        np.testing.assert_array_equal(flat, np.concatenate([np.append(*p) for p in layers]))


# --------------------------------------------------------------------- train


def affine_dataset(seed=42, n_train=512, n_test=256):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(3, 4)) * 0.5
    c = rng.normal(size=3)
    Y_tr = rng.uniform(-1, 1, (n_train, 4))
    Y_te = rng.uniform(-1, 1, (n_test, 4))
    return (Y_tr, Y_tr @ M.T + c), (Y_te, Y_te @ M.T + c)


def test_train_affine_target():
    tr, te = affine_dataset()
    net, report, reports = train(tr, te, [4, 10, 3], epochs=2000, restarts=2,
                                 base_seed=0, lr=1e-2)
    assert report.test_error <= 1e-3
    assert len(reports) == 2
    assert report.hyperparams["adam_betas"] == (0.9, 0.999)


def test_reported_adam_constants_are_the_ones_run(monkeypatch):
    ran = []
    step = surrogate.adam_step

    def recording(net, grad, state):
        ran.append((state.beta1, state.beta2, state.eps))
        return step(net, grad, state)

    monkeypatch.setattr(surrogate, "adam_step", recording)
    tr, te = affine_dataset(n_train=16, n_test=8)
    for betas, eps in (((0.9, 0.999), 1e-8), ((0.8, 0.99), 1e-6)):
        monkeypatch.setattr(surrogate, "ADAM_BETAS", betas)
        monkeypatch.setattr(surrogate, "ADAM_EPS", eps)
        ran.clear()
        _, report, _ = train(tr, te, [4, 5, 3], epochs=3, restarts=2)
        assert set(ran) == {(*report.hyperparams["adam_betas"],
                             report.hyperparams["adam_eps"])}
        assert report.hyperparams["adam_betas"] == betas
        assert report.hyperparams["adam_eps"] == eps


def test_reported_pass_dtype_is_the_one_run(monkeypatch):
    ran = set()
    back = surrogate.backward

    def recording(net, Y, Q, work):
        ran.update(a.dtype.name for a in (work.inputs, work.targets, work.params,
                                          work.grad, work.ping, *work.acts))
        return back(net, Y, Q, work)

    monkeypatch.setattr(surrogate, "backward", recording)
    tr, te = affine_dataset(n_train=16, n_test=8)
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(surrogate, "PASS_DTYPE", dtype)
        ran.clear()
        _, report, _ = train(tr, te, [4, 5, 3], epochs=3, restarts=2)
        assert ran == {report.hyperparams["pass_dtype"]} == {np.dtype(dtype).name}


def test_train_single_relu_representable_target():
    rng = np.random.default_rng(13)
    Y_tr = rng.uniform(-1, 1, (512, 4))
    Y_te = rng.uniform(-1, 1, (256, 4))
    # offset keeps every target nonzero; still one hidden unit plus bias
    Q_tr = np.maximum(0.0, Y_tr[:, :1]) + 0.5
    Q_te = np.maximum(0.0, Y_te[:, :1]) + 0.5
    net, report, _ = train((Y_tr, Q_tr), (Y_te, Q_te), [4, 10, 1],
                           epochs=5000, restarts=2, base_seed=0, lr=1e-2)
    assert report.test_error <= 1e-2


def test_train_deterministic():
    tr, te = affine_dataset(n_train=64, n_test=32)
    runs = [train(tr, te, [4, 10, 3], epochs=200, restarts=2, base_seed=7)
            for _ in range(2)]
    r1, r2 = runs[0][1], runs[1][1]
    np.testing.assert_array_equal(r1.loss_history, r2.loss_history)
    assert r1.test_error == r2.test_error
    for (A1, b1), (A2, b2) in zip(runs[0][0].weights, runs[1][0].weights):
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(b1, b2)


def test_train_restart_selection():
    tr, te = affine_dataset(n_train=64, n_test=32)
    _, best, reports = train(tr, te, [4, 10, 3], epochs=300, restarts=3,
                             base_seed=1, lr=5e-3)
    assert best.test_error == min(r.test_error for r in reports)
    assert reports[best.restart].test_error == best.test_error


def test_train_all_divergent_raises():
    tr, te = affine_dataset(n_train=32, n_test=16)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError):
            train(tr, te, [4, 10, 3], epochs=50, restarts=2, base_seed=0,
                  lr=1e300)


def reference_train(tr, te, widths, epochs, restarts, base_seed, beta, lr):
    """The training loop step by step: backward, each on a fresh batch,
    then adam_step.  The loss after a step is the next backward's value,
    and loss() after the last step.  Returns (net, history, train error,
    test error) per restart."""
    runs = []
    for r in range(restarts):
        net = init(widths, beta=beta, seed=base_seed + r)
        state = AdamState(net, lr=lr)
        history = []
        for _ in range(epochs):
            value, grads = backward(net, *tr)
            # the float32 pass's loss against float64 (measured <= 2.1e-8)
            assert value == pytest.approx(loss(net, *tr), rel=1e-6)
            history.append(value)
            adam_step(net, grads, state)
        history = history[1:] + [loss(net, *tr)]
        runs.append((net, history, np.sqrt(loss(net, *tr)), np.sqrt(loss(net, *te))))
    return runs


@pytest.mark.parametrize("widths", [[4, 10, 10, 3], [4, 7, 12, 5, 3]])
@pytest.mark.parametrize("beta", [0.0, 0.2, 1.0])
def test_train_equals_reference_loop(beta, widths):
    tr, te = affine_dataset(n_train=96, n_test=32)
    kw = dict(epochs=60, restarts=2, base_seed=5, beta=beta, lr=5e-3)
    net, best, reports = train(tr, te, widths, **kw)
    runs = reference_train(tr, te, widths, **kw)
    for report, (ref_net, history, train_error, test_error) in zip(reports, runs):
        np.testing.assert_array_equal(report.loss_history, history)
        assert report.train_error == train_error
        assert report.test_error == test_error
    for (A, b), (A_ref, b_ref) in zip(net.weights, runs[best.restart][0].weights):
        np.testing.assert_array_equal(A, A_ref)
        np.testing.assert_array_equal(b, b_ref)


def test_backward_grads_do_not_alias_work():
    (Y, Q), _ = affine_dataset(n_train=64, n_test=8)
    net = init([4, 10, 10, 3], seed=2)
    work = surrogate._Work(net.widths, *surrogate._batch(net.widths, Y, Q))
    _, grad = backward(net, Y, Q, work)
    kept = grad.copy()
    adam_step(net, grad, AdamState(net, lr=1e-2))
    _, again = backward(net, Y, Q, work)
    np.testing.assert_array_equal(grad, kept)
    for (aA, _), (kA, _) in zip(net.split(again), net.split(kept)):
        assert not np.array_equal(aA, kA)


def test_train_divergence_after_the_last_step():
    # the one step blows the weights up, so only the loss after the last
    # step is non-finite; the restart is still diverged
    tr, te = affine_dataset(n_train=32, n_test=16)
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="all restarts diverged"):
            train(tr, te, [4, 10, 3], epochs=1, restarts=1, lr=1e300,
                  callback=lambda *args: seen.append(args))
    assert seen == []


def test_train_zero_epochs_returns_the_initial_net():
    tr, te = affine_dataset(n_train=32, n_test=16)
    net, report, _ = train(tr, te, [4, 10, 3], epochs=0, restarts=2, base_seed=4)
    assert report.loss_history.size == 0 and not report.diverged
    data = report.to_dict()
    assert data["final_loss"] is None and data["epoch_ms"] is None
    start = init([4, 10, 3], seed=4 + report.restart)
    for (A, b), (A0, b0) in zip(net.weights, start.weights):
        np.testing.assert_array_equal(A, A0)
        np.testing.assert_array_equal(b, b0)
    assert report.train_error == np.sqrt(loss(start, *tr))
    assert report.test_error == np.sqrt(loss(start, *te))


@pytest.mark.parametrize("kw", [dict(restarts=0), dict(epochs=-1)])
def test_train_rejects_bad_budget(kw):
    tr, te = affine_dataset(n_train=32, n_test=16)
    with pytest.raises(ValueError):
        train(tr, te, [4, 10, 3], **{"epochs": 10, "restarts": 1, **kw})


@pytest.mark.parametrize("case", ["train-rows", "test-rows", "input-width",
                                  "target-width"])
def test_train_rejects_sets_that_do_not_fit(case):
    (Y, Q), (Y_te, Q_te) = affine_dataset(n_train=32, n_test=64)
    tr, te = {"train-rows": ((Y, Q[:-1]), (Y_te, Q_te)),
              "test-rows": ((Y, Q), (Y_te, Q_te[:1])),
              "input-width": ((Y[:, :3], Q), (Y_te[:, :3], Q_te)),
              "target-width": ((Y, Q[:, :2]), (Y_te, Q_te[:, :2]))}[case]
    bad = te if case == "test-rows" else tr
    with pytest.raises(ValueError, match=re.escape(
            f"inputs {bad[0].shape} and targets {bad[1].shape}")):
        train(tr, te, [4, 5, 3], epochs=3)


# NaN and inf are not finite; 1e39 is finite in float64 and inf in float32
@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39])
def test_train_rejects_data_not_finite_in_float32(bad):
    tr, te = affine_dataset(n_train=32, n_test=16)
    for part in range(4):
        sets = [a.copy() for a in (*tr, *te)]
        sets[part][3, 0] = bad
        with pytest.raises(ValueError, match="finite in float32"):
            train(sets[:2], sets[2:], [4, 10, 3], epochs=3)


def test_train_empty_raises():
    with pytest.raises(ValueError):
        train((np.empty((0, 4)), np.empty((0, 1))),
              (np.empty((0, 4)), np.empty((0, 1))), [4, 10, 1], epochs=10)


# ----------------------------------------------------------- serialization


def test_checkpoint_roundtrip(tmp_path):
    net = init([8, 10, 10, 5], beta=0.2, seed=77)
    path = tmp_path / "net.mlpc"
    save_network(net, path)
    back = load_network(path)
    assert back.widths == net.widths and back.beta == net.beta
    for (A1, b1), (A2, b2) in zip(net.weights, back.weights):
        np.testing.assert_array_equal(A1, A2)
        np.testing.assert_array_equal(b1, b2)


# magic, version 1, two widths of 2^32 - 1 and beta 0.2: a header whose
# layer sizes overflow any buffer
CORRUPT_WIDTHS = b"MLPC" + struct.pack("<II2Id", 1, 2, 2**32 - 1, 2**32 - 1, 0.2)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mlpc"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_network(path)
    good = tmp_path / "net.mlpc"
    save_network(init([3, 4, 2], seed=0), good)
    data = good.read_bytes()
    good.write_bytes(data + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_network(good)
    # a checkpoint cut anywhere, header included, is a ValueError naming it
    cut = tmp_path / "cut.mlpc"
    for end in range(len(data)):
        cut.write_bytes(data[:end])
        with pytest.raises(ValueError, match="cut.mlpc"):
            load_network(cut)
    # a 28-byte header claiming widths [2^32 - 1, 2^32 - 1]: the body it
    # sizes is checked against the file before any read
    huge = tmp_path / "huge.mlpc"
    huge.write_bytes(CORRUPT_WIDTHS)
    with pytest.raises(ValueError, match="huge.mlpc: truncated checkpoint"):
        load_network(huge)


def test_report_json():
    tr, te = affine_dataset(n_train=32, n_test=16)
    _, report, _ = train(tr, te, [4, 10, 3], epochs=100, restarts=1, base_seed=3)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["epochs_run"] == 100
    assert data["epoch_ms"] == pytest.approx(1000 * report.wall_time / 100)
    assert data["test_error"] == report.test_error
    assert data["gap"] == pytest.approx((report.test_error - report.train_error)
                                        / report.test_error)


def test_checkpoint_bytes_pinned(tmp_path):
    # digest recorded from the per-layer writer that defined this format;
    # the same bytes mean checkpoints written by it still load
    path = tmp_path / "net.mlpc"
    save_network(init([3, 4, 2], seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ed139f2ea1d71b0dde579664dd70ebf8dc9ba81c722ac5460a79e9f2c241acc9")


def test_checkpoint_survives_interrupted_write(tmp_path, monkeypatch):
    path = tmp_path / "net.mlpc"
    save_network(init([3, 4, 2], seed=0), path)
    before = path.read_bytes()
    net = init([3, 4, 2], seed=1)

    def torn_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def write_half_of_params(data):
            if len(data) != net.params.nbytes:
                return write(data)
            write(data[: len(data) // 2])
            raise KeyboardInterrupt

        fh.write = write_half_of_params
        return fh

    monkeypatch.setattr(surrogate, "open", torn_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        save_network(net, path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["net.mlpc"]
