"""Losses, optimizers, models, and the full loop on the synthetic task.

The separability check at the bottom builds a classifier purely from the
generator's constants (no fitting): cumulative-sum threshold crossings read
out by a linear discriminant whose moments come from quadrature. It scoring
100% is what licenses the training-accuracy expectations elsewhere.
"""

import numpy as np
import pytest
from scipy.stats import norm

from psn.data import (_AMP_JITTER, _IMG_SIZE, _PIXEL_NOISE, _ROW_KEEP_PROB,
                      _class_geometry, _toy_images, synth_toy_dataset)
from psn.errors import ContractError, DivergenceError
from psn.tensor import Tape, Tensor, no_tape
from psn.training import (AdamLike, History, Model, ModelSpec, SGDMomentum,
                          TrainConfig, cosine_lr, cross_entropy, evaluate,
                          loss_ce_mean, loss_tet, train)


def _logits(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


# ------------------------------------------------------------------ losses


def test_uniform_logits_cost_log_c():
    for c in (2, 5):
        logits = _logits(np.zeros((3, c)))
        loss = cross_entropy(logits, np.zeros(3, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(c))


def test_confident_correct_logits_cost_nothing():
    logits = _logits([[30.0, 0.0], [0.0, 30.0]])
    loss = cross_entropy(logits, np.array([0, 1]))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-10)


def test_label_out_of_range_rejected():
    logits = _logits(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ContractError):
        cross_entropy(logits, np.array([-1, 0]))


def test_cross_entropy_gradient_is_softmax_minus_target():
    logits = Tensor(np.array([[1.0, -1.0, 0.5]]), requires_grad=True)
    with Tape() as tape:
        tape.backward(cross_entropy(logits, np.array([2])))
    z = logits.data[0]
    softmax = np.exp(z - z.max())
    softmax /= softmax.sum()
    target = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(logits.grad[0], softmax - target, rtol=1e-10)


def test_tet_equals_mean_loss_for_single_step():
    rng = np.random.default_rng(80)
    out = _logits(rng.standard_normal((1, 4, 3)))
    labels = np.array([0, 2, 1, 1])
    a = float(loss_tet(out, labels).data)
    b = float(loss_ce_mean(out, labels).data)
    assert a == pytest.approx(b, rel=1e-12)


def test_tet_equals_mean_loss_for_time_constant_logits():
    rng = np.random.default_rng(81)
    one = rng.standard_normal((1, 5, 4))
    out = _logits(np.repeat(one, 6, axis=0))
    labels = np.array([3, 0, 1, 2, 0])
    a = float(loss_tet(out, labels).data)
    b = float(loss_ce_mean(out, labels).data)
    assert a == pytest.approx(b, rel=1e-12)


def test_tet_hand_example():
    # (T, N, C) = (2, 2, 2); oracle computed step by step with logsumexp.
    out = np.array([[[2.0, 0.0], [0.0, 1.0]],
                    [[1.0, 1.0], [3.0, 0.0]]])
    labels = np.array([0, 1])

    def ce_row(z, y):
        return float(np.log(np.exp(z).sum()) - z[y])

    expect = np.mean([ce_row(out[t, n], labels[n])
                      for t in range(2) for n in range(2)])
    got = float(loss_tet(_logits(out), labels).data)
    assert got == pytest.approx(expect, rel=1e-12)


def test_tet_differs_when_logits_move_over_time():
    out = _logits([[[4.0, 0.0]], [[-4.0, 0.0]]])
    labels = np.array([0])
    assert float(loss_tet(out, labels).data) > float(
        loss_ce_mean(out, labels).data)


def test_losses_require_three_axes():
    with pytest.raises(ContractError):
        loss_ce_mean(_logits(np.zeros((4, 2))), np.zeros(4, dtype=int))
    with pytest.raises(ContractError):
        loss_tet(_logits(np.zeros((4, 2))), np.zeros(4, dtype=int))


# -------------------------------------------------------------- optimizers


def test_sgd_momentum_hand_steps():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGDMomentum([p], lr=0.1)
    p.grad = np.array([2.0])
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * 2.0])
    p.grad = np.array([2.0])
    opt.step()
    # velocity: 0.9 * 2 + 2 = 3.8
    np.testing.assert_allclose(p.data, [0.8 - 0.1 * 3.8])


def test_adam_first_step_is_signlike():
    p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    opt = AdamLike([p], lr=0.01)
    p.grad = np.array([3.0, -0.2])
    opt.step()
    # After bias correction the first update is g / (|g| + eps).
    np.testing.assert_allclose(p.data, [1.0 - 0.01, -1.0 + 0.01], rtol=1e-6)


def test_zero_lr_leaves_parameters_bit_identical():
    rng = np.random.default_rng(82)
    for opt_cls in (SGDMomentum, AdamLike):
        p = Tensor(rng.standard_normal(5), requires_grad=True)
        before = p.data.tobytes()
        opt = opt_cls([p], lr=0.0)
        p.grad = rng.standard_normal(5)
        opt.step()
        opt.step()
        assert p.data.tobytes() == before


def test_optimizers_skip_gradless_params():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    opt = SGDMomentum([p, q], lr=0.5)
    p.grad = np.ones(2)
    opt.step()
    np.testing.assert_allclose(p.data, [0.5, 0.5])
    np.testing.assert_array_equal(q.data, [1.0, 1.0])


def test_optimizer_validation():
    p = Tensor(np.ones(1), requires_grad=True)
    for opt_cls in (SGDMomentum, AdamLike):
        with pytest.raises(ContractError):
            opt_cls([p], lr=-0.1)


def _sgd_reference(params, grads, velocity, lr, momentum=0.9):
    """One SGD-with-momentum step, parameter by parameter."""
    for p, g, v in zip(params, grads, velocity):
        if g is None:
            continue
        v *= momentum
        v += g
        p -= np.asarray(lr * v, dtype=p.dtype)


def _adam_reference(params, grads, m_state, v_state, t, lr, b1=0.9,
                    b2=0.999, eps=1e-8):
    """One AdamLike step, parameter by parameter."""
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p, g, m, v in zip(params, grads, m_state, v_state):
        if g is None:
            continue
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        p -= np.asarray(lr * update, dtype=p.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_flat_optimizers_match_a_per_parameter_loop(kind, dtype):
    rng = np.random.default_rng([31, 0])
    shapes = [(5, 3), (), (7,), (2, 2, 3), (4,)]
    gradless = 3  # never gets a gradient; the 0-d one skips step 2 only
    init = [rng.standard_normal(s).astype(dtype) for s in shapes]
    params = [Tensor(a.copy(), requires_grad=True) for a in init]
    if kind == "sgd":
        opt = SGDMomentum(params, lr=0.1)
        state = [[np.zeros_like(a) for a in init]]
    else:
        opt = AdamLike(params, lr=0.01)
        state = [[np.zeros_like(a) for a in init] for _ in range(2)]
    ref = [a.copy() for a in init]
    for t in range(1, 5):
        # train() sets a numpy float64 rate from the cosine schedule.
        lr = opt.lr = np.float64(opt.lr) if t % 2 else float(opt.lr)
        grads = [None if i == gradless or (i, t) == (1, 2) else
                 (rng.standard_normal(s) * 10.0 ** (i - 2)).astype(dtype)
                 for i, s in enumerate(shapes)]
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        opt.step()
        if kind == "sgd":
            _sgd_reference(ref, grads, state[0], lr)
        else:
            _adam_reference(ref, grads, state[0], state[1], t, lr)
        for p, r in zip(params, ref):
            assert p.data.dtype == dtype and p.data.shape == r.shape
            assert p.data.tobytes() == r.tobytes()
    assert params[gradless].data.tobytes() == init[gradless].tobytes()


def test_optimizers_refuse_mixed_dtypes():
    p32 = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    p64 = Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
    for opt_cls in (SGDMomentum, AdamLike):
        with pytest.raises(ContractError, match="dtype"):
            opt_cls([p32, p64], lr=0.1)
        opt_cls([p32, Tensor(np.zeros(3, dtype=np.float32))], lr=0.1)


def test_lr_schedules():
    assert cosine_lr(1.0, 0, 11) == pytest.approx(1.0)
    assert cosine_lr(1.0, 10, 11) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(1.0, 5, 11) == pytest.approx(0.5)
    assert cosine_lr(0.3, 0, 1) == 0.3


# ------------------------------------------------------------------ models


def test_model_spec_validation():
    with pytest.raises(ContractError):
        ModelSpec(layers=())
    with pytest.raises(ContractError):
        ModelSpec(layers=(("neuron", "psn", {}),), num_steps=4)  # no synapse
    with pytest.raises(ContractError):
        ModelSpec(layers=(("linear", 4, 8), ("neuron", "psn", {})))  # no T
    with pytest.raises(ContractError):
        ModelSpec(layers=(("linear", 4, 8), ("neuron", "perceptron")),
                  num_steps=4)
    with pytest.raises(ContractError):
        ModelSpec(layers=(("linear", 4),))
    with pytest.raises(ContractError):
        ModelSpec(layers=(("linear", 4, 8),), head="argmax")
    for dims in ((4, 0), (0, 4), (4, -1)):
        with pytest.raises(ContractError, match=">= 1"):
            ModelSpec(layers=(("linear",) + dims,))


def test_model_channel_mismatch():
    spec = ModelSpec(layers=(("linear", 8, 4),))
    with pytest.raises(ContractError):
        Model(spec, 6)


def test_model_forward_shapes_and_state_dict():
    spec = ModelSpec(layers=(("linear", 5, 8), ("neuron", "lif"),
                             ("linear", 8, 3)), seed=0)
    model = Model(spec, 5)
    out = model.forward(Tensor(np.zeros((4, 6, 5), dtype=np.float32)))
    assert out.data.shape == (4, 6, 3)
    sd = model.state_dict()
    assert sorted(sd) == ["layer0.bias", "layer0.weight",
                          "layer2.bias", "layer2.weight"]


def test_model_same_seed_same_init():
    spec = ModelSpec(layers=(("linear", 4, 6), ("neuron", "psn", {}),
                             ("linear", 6, 2)), seed=3, num_steps=5)
    a = Model(spec, 4).state_dict()
    b = Model(spec, 4).state_dict()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes()


def test_load_state_dict_strictness():
    spec = ModelSpec(layers=(("linear", 3, 4),))
    model = Model(spec, 3)
    sd = model.state_dict()
    with pytest.raises(ContractError):
        model.load_state_dict({k: v for k, v in sd.items()
                               if k != "layer0.bias"})
    bad = dict(sd)
    bad["layer0.weight"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ContractError):
        model.load_state_dict(bad)


def test_unknown_neuron_options_rejected():
    # The surrogate's alpha is fixed, so it is no neuron option either.
    for opts in ({"leak": 0.5}, {"alpha": 2.0}):
        spec = ModelSpec(layers=(("linear", 4, 4), ("neuron", "lif", opts)))
        with pytest.raises(ContractError, match="unknown neuron options"):
            Model(spec, 4)


def test_masked_lambda_plumbing():
    spec = ModelSpec(layers=(("linear", 4, 6), ("neuron", "masked-psn",
                                                {"order": 2}),
                             ("linear", 6, 2)), num_steps=5)
    model = Model(spec, 4)
    assert model.masked_lambda() == 1.0
    model.set_masked_lambda(0.25)
    assert model.masked_lambda() == 0.25

    plain = Model(ModelSpec(layers=(("linear", 4, 2),)), 4)
    assert plain.masked_lambda() is None
    plain.set_masked_lambda(0.5)  # no-op without masked layers


def test_firing_rates_need_a_forward_pass():
    spec = ModelSpec(layers=(("linear", 3, 4), ("neuron", "if")))
    model = Model(spec, 3)
    with pytest.raises(ContractError):
        model.firing_rates()
    model.forward(Tensor(np.ones((2, 2, 3), dtype=np.float32)))
    rates = model.firing_rates()
    assert len(rates) == 1 and 0.0 <= rates[0] <= 1.0


# -------------------------------------------------------------- train loop


def _tiny_split(seed=21):
    return synth_toy_dataset(2, 24, seed=seed)


def _tiny_spec(kind="psn", opts=None):
    return ModelSpec(layers=(("linear", 16, 12), ("neuron", kind,
                                                  opts or {}),
                             ("linear", 12, 2)), seed=5, num_steps=16)


def _tiny_model(kind="psn", opts=None):
    return Model(_tiny_spec(kind, opts), 16)


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(epochs=0)
    with pytest.raises(ContractError):
        TrainConfig(epochs=1, learning_rate=0.0)
    with pytest.raises(ContractError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(epochs=1, optimizer_kind="lbfgs")
    with pytest.raises(ContractError):
        TrainConfig(epochs=1, loss_kind="mse")


def test_training_is_bit_deterministic():
    train_b, test_b = _tiny_split()
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=4)
    h1 = train(_tiny_model(), train_b, test_b, cfg)
    h2 = train(_tiny_model(), train_b, test_b, cfg)
    assert h1.lines() == h2.lines()


def test_history_contract_per_epoch():
    train_b, test_b = _tiny_split()
    cfg = TrainConfig(epochs=3, batch_size=16)
    hist = train(_tiny_model(), train_b, test_b, cfg)
    assert len(hist.series("train", "loss")) == 3
    assert len(hist.series("train", "accuracy")) == 3
    assert len(hist.series("test", "accuracy")) == 3
    assert len(hist.series("train", "lr")) == 3
    assert len(hist.series("test", "firing_rate.0")) == 3
    epochs = [e for e, _ in hist.series("train", "loss")]
    assert epochs == [0, 1, 2]
    # Wall times ride beside the records, never in the text form.
    assert len(hist.epoch_seconds) == 3
    assert all(s > 0 for s in hist.epoch_seconds)
    assert "seconds" not in hist.to_text()


def test_history_text_roundtrip(tmp_path):
    def parse(text):
        return [(int(e), s, m, float(v)) for e, s, m, v in
                (line.split("\t") for line in text.splitlines())]

    hist = History()
    hist.add(0, "train", "loss", 0.69314718055994531)
    hist.add(0, "test", "accuracy", 0.5)
    assert parse(hist.to_text()) == hist.records
    path = tmp_path / "history.txt"
    hist.write(path)
    assert parse(path.read_text()) == hist.records
    # Atomic writer leaves nothing behind.
    assert [p.name for p in tmp_path.iterdir()] == ["history.txt"]


def test_lambda_rides_the_schedule_in_training():
    train_b, test_b = _tiny_split()
    cfg = TrainConfig(epochs=10, batch_size=24, learning_rate=1e-3)
    hist = train(_tiny_model("masked-psn", {"order": 2}), train_b, test_b,
                 cfg)
    lam = [v for _, v in hist.series("train", "lambda")]
    assert len(lam) == 10
    assert lam[0] == 0.0
    assert all(b >= a for a, b in zip(lam, lam[1:]))
    sat = int(np.ceil((10 - 1) / 8))
    assert lam[sat] == 1.0 and lam[-1] == 1.0


def test_divergence_names_the_first_bad_tensor():
    train_b, test_b = _tiny_split()
    model = Model(_tiny_spec(), train_b.num_channels)
    model.named_parameters()["layer2.bias"].data[0] = np.nan
    cfg = TrainConfig(epochs=1, batch_size=16)
    with pytest.raises(DivergenceError) as err:
        train(model, train_b, test_b, cfg)
    assert err.value.tensor_name == "layer2.output"
    assert "layer2.output" in str(err.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reports_the_earliest_nonfinite_tensor():
    # Poison both ends; the report must name the first one in forward
    # order even though the loss only blows up through the last layer.
    train_b, test_b = _tiny_split()
    model = Model(_tiny_spec(), train_b.num_channels)
    model.named_parameters()["layer0.bias"].data[:] = np.inf
    model.named_parameters()["layer2.bias"].data[:] = np.nan
    with pytest.raises(DivergenceError) as err:
        train(model, train_b, test_b, TrainConfig(epochs=1, batch_size=16))
    assert err.value.tensor_name == "layer0.output"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_spikes_are_laundered_not_fatal():
    # A poisoned hidden unit saturates or silences its neuron; spikes stay
    # binary, the loss stays finite, and training completes. Divergence
    # only triggers on a non-finite loss.
    train_b, test_b = _tiny_split()
    model = Model(_tiny_spec(), train_b.num_channels)
    model.named_parameters()["layer0.weight"].data[0, 0] = np.inf
    hist = train(model, train_b, test_b,
                 TrainConfig(epochs=1, batch_size=16))
    assert np.isfinite(hist.series("train", "loss")[0][1])


def test_loss_decreases_on_the_easy_task():
    train_b, test_b = _tiny_split()
    cfg = TrainConfig(epochs=8, batch_size=16, learning_rate=2e-3)
    hist = train(_tiny_model(), train_b, test_b, cfg)
    losses = [v for _, v in hist.series("train", "loss")]
    assert losses[-1] < losses[0]


def test_evaluate_always_firing_model_reports_rate_one():
    train_b, _ = _tiny_split()
    spec = ModelSpec(layers=(("linear", 16, 8), ("neuron", "psn", {}),
                             ("linear", 8, 2)), seed=0, num_steps=16)
    model = Model(spec, 16)
    # Threshold so low every charge crosses it.
    model.named_parameters()["layer1.threshold"].data[:] = -1e6
    _, rates = evaluate(model, train_b)
    assert rates[0] == pytest.approx(1.0)


def test_evaluate_untrained_model_sits_at_chance():
    train_b, _ = synth_toy_dataset(4, 500, seed=6)
    spec = ModelSpec(layers=(("linear", 16, 12), ("neuron", "psn", {}),
                             ("linear", 12, 4)), seed=12, num_steps=16)
    model = Model(spec, 16)
    acc, _ = evaluate(model, train_b)
    assert abs(acc - 0.25) < 0.05


def test_evaluate_per_step_head_votes():
    train_b, _ = _tiny_split()
    spec = ModelSpec(layers=(("linear", 16, 8), ("neuron", "lif"),
                             ("linear", 8, 2)), head="per-step", seed=1)
    model = Model(spec, 16)
    acc, rates = evaluate(model, train_b)
    assert 0.0 <= acc <= 1.0 and len(rates) == 1


def test_train_accepts_prebuilt_model_and_mutates_it():
    train_b, test_b = _tiny_split()
    model = Model(_tiny_spec(), train_b.num_channels)
    before = {k: v.copy() for k, v in model.state_dict().items()}
    train(model, train_b, test_b, TrainConfig(epochs=1, batch_size=16))
    after = model.state_dict()
    assert any(not np.array_equal(before[k], after[k]) for k in before)


# ---------------------------------------------- separability witness


def _crossing_moments(levels, starts, widths, amps, c):
    """Mean/variance of the 8 crossing-count features for one class.

    Quadrature over the amplitude jitter; the keep-mask and pixel noise
    enter through a Gaussian approximation of each cumulative column sum.
    """
    T = _IMG_SIZE
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(7)
    out = []
    s = int(starts[c])
    for x, w_gh in zip(gh_x, gh_w):
        a = amps[c] * (1.0 + _AMP_JITTER * x)
        colmean = np.zeros(T)
        colmean[s:s + widths[c]] = a * _ROW_KEEP_PROB
        colvar = np.full(T, (_PIXEL_NOISE ** 2) / T)
        colvar[s:s + widths[c]] += (a ** 2) * _ROW_KEEP_PROB \
            * (1 - _ROW_KEEP_PROB) / T
        cum = np.cumsum(colmean)
        sd = np.sqrt(np.cumsum(colvar))
        p = norm.cdf((cum[None, :] - levels[:, None]) / sd[None, :])
        m = p.mean(axis=1)
        v = (p * (1 - p)).sum(axis=1) / T ** 2
        out.append((w_gh / np.sqrt(2 * np.pi), m, v))
    return out


def test_toy_task_is_linearly_separable_through_a_psn():
    """A constants-only classifier scores 100%: the task is learnable.

    Layer 0 scales each channel so the running sum crosses 1.0 exactly when
    the raw cumulative column mean crosses one of 8 fixed levels; the dense
    neuron's lower-triangular ones weight builds that running sum; the
    readout is a linear discriminant of the crossing counts with moments
    from quadrature. Nothing is fit to samples.
    """
    C, T = 4, _IMG_SIZE
    starts, widths, amps = _class_geometry(C)
    levels = np.linspace(0.8, 3.0, 8)
    beta = 1.0

    phi = np.zeros((C, 8))
    cov = np.zeros((8, 8))
    for c in range(C):
        ats = _crossing_moments(levels, starts, widths, amps, c)
        mc = sum(w * m for w, m, _ in ats)
        phi[c] = mc
        for w, m, v in ats:
            d = m - mc
            cov += (np.outer(d, d) + np.diag(v)) * w / C
    cov += np.eye(8) * 1e-5
    prec = np.linalg.inv(cov)

    train_b, test_b = synth_toy_dataset(4, 500, seed=3)
    # The train split's own statistics, which standardized both splits.
    train_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(2)[0])
    raw, _ = _toy_images(4, 500, train_rng)
    mu, sigma = float(raw.mean()), float(raw.std())

    spec = ModelSpec(layers=(("linear", 16, 32), ("neuron", "psn", {}),
                             ("linear", 32, 4)), seed=7, num_steps=16)
    model = Model(spec, 16)
    p = model.named_parameters()
    W0 = np.zeros((16, 32), dtype=np.float32)
    b0 = np.zeros(32, dtype=np.float32)
    for u, g in enumerate(sigma * beta / levels):
        W0[:, u] = g / 16.0
        b0[u] = g * mu / sigma
    p["layer0.weight"].data[...] = W0
    p["layer0.bias"].data[...] = b0
    p["layer1.weight"].data[...] = np.tril(np.ones((T, T), dtype=np.float32))
    p["layer1.threshold"].data[...] = beta
    W1 = np.zeros((32, 4), dtype=np.float32)
    W1[:8, :] = prec @ phi.T
    p["layer2.weight"].data[...] = W1
    p["layer2.bias"].data[...] = (
        -0.5 * np.einsum("cu,uv,cv->c", phi, prec, phi)).astype(np.float32)

    for batch in (train_b, test_b):
        with no_tape():
            out = model.forward(Tensor(batch.inputs.data)).data
        pred = out.mean(axis=0).argmax(axis=1)
        assert (pred == batch.labels).mean() == 1.0
