"""Velocity MLP, its hand-rolled gradients, pretraining, and the SDE sampler."""

import json
import math

import numpy as np
import pytest

from georeward import (
    SamplerConfig,
    VelocityPolicy,
    fm_pretrain,
    init_policy,
    interpolate,
    load_policy,
    params_vector,
    rollout,
    save_policy,
    sde_step,
    sigma_schedule,
    time_grid,
    transition_logprob,
    transition_mean,
    velocity,
    velocity_grad,
    with_params,
)
from georeward.errors import (
    ConfigError,
    DomainError,
    NumericError,
    ShapeError,
    TrainingError,
)


def zero_policy(dim=2, hidden=4):
    pol = init_policy(dim, hidden, np.random.default_rng(0))
    return with_params(pol, np.zeros_like(params_vector(pol)))


# ---------------------------------------------------------------------------
# forward pass

def test_zero_weights_give_zero_velocity():
    pol = zero_policy()
    out = velocity(pol, np.ones((5, 2)), 0.3)
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_single_unit_hand_computation():
    # 1-d input, one hidden unit per layer: the whole network in closed form
    pol = VelocityPolicy(
        w1=np.array([[0.5, -0.3]]), b1=np.array([0.1]),
        w2=np.array([[1.2]]), b2=np.array([-0.2]),
        w3=np.array([[2.0]]), b3=np.array([0.05]),
    )
    x, t = 0.7, 0.4
    h1 = math.tanh(0.5 * x - 0.3 * t + 0.1)
    h2 = math.tanh(1.2 * h1 - 0.2)
    want = 2.0 * h2 + 0.05
    got = velocity(pol, np.array([x]), t)
    assert got[0] == pytest.approx(want, abs=1e-15)


def test_velocity_batch_matches_single():
    pol = init_policy(3, 8, np.random.default_rng(1))
    xs = np.random.default_rng(2).standard_normal((6, 3))
    batch = velocity(pol, xs, 0.6)
    for i in range(6):
        np.testing.assert_allclose(batch[i], velocity(pol, xs[i], 0.6), rtol=1e-13)


def test_velocity_is_time_continuous():
    pol = init_policy(2, 16, np.random.default_rng(3))
    x = np.array([0.4, -1.1])
    jump = np.abs(velocity(pol, x, 0.5) - velocity(pol, x, 0.5 + 1e-8)).max()
    scale = 1.0 + np.abs(params_vector(pol)).sum()
    assert jump <= 1e-6 * scale


def test_velocity_rejects_non_finite_input():
    pol = init_policy(2, 4, np.random.default_rng(4))
    with pytest.raises(NumericError):
        velocity(pol, np.array([np.nan, 0.0]), 0.5)


def test_params_round_trip():
    pol = init_policy(3, 8, np.random.default_rng(5))
    vec = params_vector(pol)
    again = params_vector(with_params(pol, vec))
    np.testing.assert_array_equal(vec, again)
    # w1 takes [x, t], so its fan-in is dim + 1
    assert vec.size == 8 * 4 + 8 + 8 * 8 + 8 + 3 * 8 + 3


def test_interpolate_endpoints_are_exact():
    rng = np.random.default_rng(6)
    x0, eps = rng.standard_normal(4), rng.standard_normal(4)
    np.testing.assert_array_equal(interpolate(x0, eps, 0.0), x0)
    np.testing.assert_array_equal(interpolate(x0, eps, 1.0), eps)
    np.testing.assert_allclose(
        interpolate(np.array([1.0]), np.array([-1.0]), 0.5), [0.0], atol=1e-15
    )


# ---------------------------------------------------------------------------
# gradients

def grad_by_central_differences(pol, x, t, upstream, h=1e-6):
    theta = params_vector(pol)
    out = np.empty_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        f_plus = float((velocity(with_params(pol, plus), x, t) * upstream).sum())
        f_minus = float((velocity(with_params(pol, minus), x, t) * upstream).sum())
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return out


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        hidden = int(rng.integers(3, 9))
        pol = init_policy(dim, hidden, rng)
        x = rng.standard_normal((3, dim))
        t = float(rng.uniform(0.1, 0.9))
        upstream = rng.standard_normal((3, dim))
        grad = velocity_grad(pol, x, t, upstream)
        fd = grad_by_central_differences(pol, x, t, upstream)
        err = np.abs(grad - fd).max() / (1.0 + np.abs(grad).max())
        assert err < 1e-7


def test_gradient_is_linear_in_upstream():
    rng = np.random.default_rng(8)
    pol = init_policy(2, 6, rng)
    x = rng.standard_normal((4, 2))
    u1, u2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    g = velocity_grad(pol, x, 0.3, 2.0 * u1 - 0.5 * u2)
    g1 = velocity_grad(pol, x, 0.3, u1)
    g2 = velocity_grad(pol, x, 0.3, u2)
    np.testing.assert_allclose(g, 2.0 * g1 - 0.5 * g2, atol=1e-12)


def test_zero_upstream_zero_gradient():
    pol = init_policy(2, 6, np.random.default_rng(9))
    g = velocity_grad(pol, np.ones((2, 2)), 0.5, np.zeros((2, 2)))
    np.testing.assert_array_equal(g, np.zeros_like(g))


def test_gradient_rejects_upstream_shape_mismatch():
    pol = init_policy(2, 6, np.random.default_rng(10))
    with pytest.raises(ShapeError):
        velocity_grad(pol, np.ones((2, 2)), 0.5, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# pretraining

def test_pretrain_toy_interpolant_values():
    # x0 = 1, eps = -1, t = 0.5: the training pair the regression sees
    assert interpolate(np.array([1.0]), np.array([-1.0]), 0.5)[0] == 0.0
    assert (np.array([-1.0]) - np.array([1.0]))[0] == -2.0


def test_pretrain_learns_the_gaussian_velocity(gauss_velocity):
    rng = np.random.default_rng(7)
    pol = init_policy(1, 16, rng)
    trained, losses = fm_pretrain(
        pol, lambda r, n: r.standard_normal((n, 1)), 2000, 0.02, rng, batch_size=128
    )
    assert len(losses) == 2000
    xs = np.linspace(-1.0, 1.0, 21)
    errs = []
    for t in np.linspace(0.02, 0.98, 25):
        pred = velocity(trained, xs[:, None], t)[:, 0]
        errs.append(np.mean((pred - gauss_velocity(xs, t)) ** 2))
    assert float(np.mean(errs)) < 0.01


def test_pretrain_loss_trends_down():
    rng = np.random.default_rng(7)
    pol = init_policy(1, 16, rng)
    _, losses = fm_pretrain(
        pol, lambda r, n: r.standard_normal((n, 1)), 2000, 0.02, rng, batch_size=128
    )
    losses = np.asarray(losses)
    chunks = losses.reshape(20, 100).mean(axis=1)
    assert (chunks[1:] < chunks[0]).all()
    # window means fluctuate by O(sigma / sqrt(100)); allow four standard errors
    slack = 4.0 * float(losses[1000:].std()) / 10.0
    assert (np.diff(chunks) <= slack).all()


def test_pretrain_divergence_raises_with_history():
    rng = np.random.default_rng(11)
    pol = init_policy(1, 8, rng)
    with pytest.raises(TrainingError) as exc:
        fm_pretrain(pol, lambda r, n: r.standard_normal((n, 1)), 200, 1e9, rng)
    assert exc.value.metrics  # partial loss history attached


def test_pretrain_is_deterministic():
    def run():
        rng = np.random.default_rng(12)
        pol = init_policy(2, 8, rng)
        trained, losses = fm_pretrain(
            pol, lambda r, n: r.standard_normal((n, 2)), 50, 0.01, rng
        )
        return params_vector(trained), losses

    t1, l1 = run()
    t2, l2 = run()
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(l1, l2)


# ---------------------------------------------------------------------------
# SDE stepping

def test_sampler_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(steps=1)
    with pytest.raises(ConfigError):
        SamplerConfig(noise_scale=-0.1)


def test_sigma_schedule_uses_the_midpoint():
    val = sigma_schedule(0.5, 0.1, 1.0)
    t_mid = 0.5 - 0.05
    assert val == pytest.approx(math.sqrt(t_mid / (1.0 - t_mid)), abs=1e-12)
    with pytest.raises(DomainError):
        sigma_schedule(0.05, 0.2, 1.0)  # midpoint below zero


def test_sde_step_worked_value():
    # x + (1 - t) v = 0 makes the score correction vanish: x_next = 1.2
    policy = lambda x, t: np.full_like(x, -2.0)
    x_next, mean, sigma_step = sde_step(policy, np.array([1.0]), 0.5, 0.1, 1.0, np.array([0.0]))
    assert x_next[0] == pytest.approx(1.2, abs=1e-9)
    assert mean[0] == x_next[0]
    assert sigma_step > 0


def test_sde_step_zero_noise_is_plain_euler():
    policy = lambda x, t: np.full_like(x, 0.7)
    x = np.array([0.3, -0.4])
    x_next, mean, sigma_step = sde_step(policy, x, 0.8, 0.05, 0.0, np.zeros(2))
    np.testing.assert_allclose(x_next, x - 0.7 * 0.05, atol=1e-15)
    np.testing.assert_array_equal(x_next, mean)
    assert sigma_step == 0.0


def test_sde_step_noise_is_symmetric_about_the_mean():
    policy = lambda x, t: -x
    x = np.array([0.5, 1.5])
    z = np.array([0.7, -1.3])
    up, mean, _ = sde_step(policy, x, 0.6, 0.1, 0.9, z)
    dn, _, _ = sde_step(policy, x, 0.6, 0.1, 0.9, -z)
    np.testing.assert_allclose(up + dn, 2.0 * mean, atol=1e-15)


def test_sde_step_domain_errors():
    policy = lambda x, t: x
    with pytest.raises(DomainError):
        sde_step(policy, np.array([1.0]), 0.0, 0.1, 1.0, np.array([0.0]))
    with pytest.raises(DomainError):
        sde_step(policy, np.array([1.0]), 1.2, 0.1, 1.0, np.array([0.0]))
    with pytest.raises(DomainError):
        sde_step(policy, np.array([1.0]), 0.5, 0.0, 1.0, np.array([0.0]))


def test_transition_mean_consistency():
    pol = init_policy(2, 6, np.random.default_rng(13))
    x = np.array([0.2, -0.7])
    t, dt = 0.5, 0.1
    sigma = sigma_schedule(t, dt, 0.7)
    z = np.array([0.3, 0.3])
    x_next, mean, sigma_step = sde_step(pol, x, t, dt, 0.7, z)
    np.testing.assert_array_equal(mean, transition_mean(pol, x, t, dt, sigma))
    np.testing.assert_array_equal(x_next, mean + sigma_step * z)


# ---------------------------------------------------------------------------
# transition log-density

def test_logprob_worked_value():
    lp = transition_logprob(np.array([0.3]), np.array([0.3]), math.sqrt(0.1))
    assert lp == pytest.approx(-0.5 * math.log(2.0 * math.pi * 0.1), abs=1e-9)
    assert lp == pytest.approx(0.23235401329235035, abs=1e-9)


def test_logprob_one_sigma_drop():
    s = 0.37
    at_mean = transition_logprob(np.array([0.0]), np.array([0.0]), s)
    off = transition_logprob(np.array([s]), np.array([0.0]), s)
    assert at_mean - off == pytest.approx(0.5, abs=1e-12)


def test_logprob_dimension_scales_the_normalizer():
    s = 0.5
    one = transition_logprob(np.zeros(1), np.zeros(1), s)
    two = transition_logprob(np.zeros(2), np.zeros(2), s)
    assert two == pytest.approx(2.0 * one, abs=1e-12)


def test_logprob_batched_rows():
    s = 0.4
    x = np.array([[0.0, 0.0], [0.4, 0.0]])
    mean = np.zeros((2, 2))
    lp = transition_logprob(x, mean, s)
    assert lp.shape == (2,)
    assert lp[0] - lp[1] == pytest.approx(0.5, abs=1e-12)

    # one sigma_step per row gives exactly the row-by-row scalar densities
    sigmas = np.array([0.4, 0.9])
    per_row = transition_logprob(x, mean, sigmas)
    np.testing.assert_array_equal(
        per_row, [transition_logprob(x[i], mean[i], sigmas[i]) for i in range(2)]
    )
    with pytest.raises(DomainError):
        transition_logprob(x, mean, np.array([0.4, 0.0]))


def test_logprob_rejects_zero_sigma():
    with pytest.raises(DomainError):
        transition_logprob(np.zeros(1), np.zeros(1), 0.0)


def test_logprob_integrates_to_one():
    s = 0.3
    xs = np.linspace(-8 * s, 8 * s, 20001)
    dens = np.exp([transition_logprob(np.array([v]), np.array([0.0]), s) for v in xs])
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# rollouts

def test_time_grid_endpoints():
    grid = time_grid(10)
    assert grid.shape == (11,)
    assert grid[0] == 1.0 and grid[-1] == 0.0
    np.testing.assert_allclose(np.diff(grid), -0.1, atol=1e-12)


def test_rollout_is_seed_deterministic():
    pol = init_policy(2, 8, np.random.default_rng(14))
    eps = np.array([0.3, -0.8])
    cfg = SamplerConfig(steps=8, noise_scale=0.7)
    steps1, x1 = rollout(pol, eps, cfg, np.random.default_rng(42))
    steps2, x2 = rollout(pol, eps, cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(x1, x2)
    for a, b in zip(steps1, steps2):
        np.testing.assert_array_equal(a.x_next, b.x_next)
        assert a.logp == b.logp


def test_deterministic_rollout_ignores_the_rng():
    pol = init_policy(2, 8, np.random.default_rng(15))
    eps = np.array([1.0, 0.5])
    cfg = SamplerConfig(steps=6, noise_scale=0.0)
    _, x1 = rollout(pol, eps, cfg, np.random.default_rng(1))
    steps, x2 = rollout(pol, eps, cfg, np.random.default_rng(2))
    np.testing.assert_array_equal(x1, x2)
    assert all(s.logp is None for s in steps)


def test_rollout_steps_follow_the_grid():
    pol = init_policy(1, 4, np.random.default_rng(16))
    cfg = SamplerConfig(steps=5, noise_scale=0.7)
    steps, _ = rollout(pol, np.array([0.2]), cfg, np.random.default_rng(0))
    assert len(steps) == 5
    grid = time_grid(5)
    np.testing.assert_allclose([s.t for s in steps], grid[:-1], atol=1e-12)
    np.testing.assert_allclose([s.dt for s in steps], 0.2, atol=1e-12)


def test_rollout_logp_recomputable_from_stored_fields():
    pol = init_policy(2, 8, np.random.default_rng(17))
    cfg = SamplerConfig(steps=10, noise_scale=0.7)
    steps, _ = rollout(pol, np.array([0.1, -0.2]), cfg, np.random.default_rng(3))
    for s in steps:
        again = transition_logprob(s.x_next, s.mean, s.sigma_step)
        assert again == pytest.approx(s.logp, abs=1e-12)
        redo = transition_mean(pol, s.x_t, s.t, s.dt, s.sigma)
        np.testing.assert_array_equal(redo, s.mean)


def test_rollout_matches_chained_sde_steps():
    pol = init_policy(2, 8, np.random.default_rng(19))
    cfg = SamplerConfig(steps=6, noise_scale=0.7)
    steps, x_end = rollout(pol, np.array([0.4, -0.3]), cfg, np.random.default_rng(5))
    x = steps[0].x_t
    for s in steps:
        x_next, mean, sigma_step = sde_step(pol, x, s.t, s.dt, cfg.noise_scale, s.z)
        np.testing.assert_array_equal(mean, s.mean)
        np.testing.assert_array_equal(x_next, s.x_next)
        assert sigma_step == s.sigma_step
        x = x_next
    np.testing.assert_array_equal(x, x_end)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path):
    pol = init_policy(3, 8, np.random.default_rng(18))
    save_policy(pol, tmp_path / "ckpt", meta={"note": "round trip"})
    back = load_policy(tmp_path / "ckpt")
    np.testing.assert_array_equal(params_vector(back), params_vector(pol))
    manifest = json.loads((tmp_path / "ckpt" / "policy.json").read_text())
    # input layer carries the appended time coordinate
    assert manifest["layer_dims"] == [4, 8, 8, 3]
    assert manifest["activation"] == "tanh"
    assert manifest["meta"]["note"] == "round trip"


def test_checkpoint_rejects_foreign_activation(tmp_path):
    pol = init_policy(2, 4, np.random.default_rng(19))
    save_policy(pol, tmp_path / "ckpt")
    doc = json.loads((tmp_path / "ckpt" / "policy.json").read_text())
    doc["activation"] = "relu"
    (tmp_path / "ckpt" / "policy.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_policy(tmp_path / "ckpt")


def test_checkpoint_rejects_mismatched_dims(tmp_path):
    pol = init_policy(2, 4, np.random.default_rng(20))
    save_policy(pol, tmp_path / "ckpt")
    doc = json.loads((tmp_path / "ckpt" / "policy.json").read_text())
    doc["layer_dims"] = [2, 8, 8, 2]
    (tmp_path / "ckpt" / "policy.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_policy(tmp_path / "ckpt")
