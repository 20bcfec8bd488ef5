"""Group sampling, the on-policy surrogate, and the full training loop."""

import dataclasses
import math

import numpy as np
import pytest

from georeward import (
    PolicySnapshot,
    TrainerConfig,
    fm_pretrain,
    group_advantages,
    init_policy,
    latent_reward,
    params_vector,
    sample_group,
    surrogate_loss,
    toy_scene,
    train,
    with_params,
)
from georeward import grpo
from georeward.errors import ConfigError, EmptyMaskError, TrainingError
from georeward.grpo import GroupRollout
from georeward.policy import transition_logprob, transition_mean


@pytest.fixture(scope="module")
def pretrained():
    rng = np.random.default_rng(1)
    pol = init_policy(4, 32, rng)
    means = np.array([-2.5, 1.5])

    def sampler(r, n):
        idx = r.choice(2, size=(n, 4))
        return means[idx] + 0.7 * r.standard_normal((n, 4))

    trained, _ = fm_pretrain(pol, sampler, 300, 0.01, rng, batch_size=128)
    return trained


def small_config(**kw):
    base = dict(group_size=4, steps=6, grad_window=3, iterations=5, seed=0)
    base.update(kw)
    return TrainerConfig(**base)


def make_group(snapshot, config, seed=0, template=None):
    rng = np.random.default_rng([config.seed, seed])
    return sample_group(snapshot, template or toy_scene(), config, rng)


# ---------------------------------------------------------------------------
# config

def test_config_window_bound_message():
    with pytest.raises(ConfigError, match=r"grad_window exceeds steps \(11 > 10\)"):
        TrainerConfig(steps=10, grad_window=11)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainerConfig(group_size=1)
    with pytest.raises(ConfigError):
        TrainerConfig(ema_decay=1.0)
    with pytest.raises(ConfigError):
        TrainerConfig(lr=-0.1)
    with pytest.raises(ConfigError):
        TrainerConfig(kl_beta=-1.0)
    with pytest.raises(ConfigError):
        TrainerConfig(grad_window=0)


def test_config_sampler_mirror():
    cfg = TrainerConfig(steps=7, noise_scale=0.3)
    s = cfg.sampler()
    assert s.steps == 7 and s.noise_scale == 0.3


# ---------------------------------------------------------------------------
# advantages

def test_advantages_worked_vector():
    adv = group_advantages(np.array([-0.1, -0.2, -0.3, -0.4]))
    want = np.array([3.0, 1.0, -1.0, -3.0]) / math.sqrt(5.0)
    np.testing.assert_allclose(adv, want, atol=1e-9)


def test_advantages_are_standardized():
    rng = np.random.default_rng(21)
    adv = group_advantages(rng.standard_normal(16))
    assert adv.mean() == pytest.approx(0.0, abs=1e-12)
    assert adv.std() == pytest.approx(1.0, abs=1e-12)


def test_advantages_shift_invariance():
    rng = np.random.default_rng(22)
    r = rng.standard_normal(8)
    np.testing.assert_allclose(
        group_advantages(r), group_advantages(r + 17.3), atol=1e-9
    )


def test_degenerate_group_gets_zero_advantages():
    np.testing.assert_array_equal(group_advantages(np.full(4, -0.25)), np.zeros(4))


def test_advantages_need_a_group():
    with pytest.raises(ConfigError):
        group_advantages(np.array([1.0]))


# ---------------------------------------------------------------------------
# snapshots and groups

def test_sample_group_shapes(pretrained):
    cfg = small_config()
    group = make_group(PolicySnapshot.from_policy(pretrained), cfg)
    assert len(group.trajectories) == 4
    assert all(len(t) == 6 for t in group.trajectories)
    assert group.x0s.shape == (4, 4)
    assert group.rewards.shape == (4,)
    assert group.advantages.mean() == pytest.approx(0.0, abs=1e-12)


def test_sync_noise_shares_the_initial_draw(pretrained):
    snap = PolicySnapshot.from_policy(pretrained)
    group = make_group(snap, small_config(sync_noise=True))
    first = group.eps_init[0]
    assert all(np.array_equal(first, e) for e in group.eps_init)
    split = make_group(snap, small_config(sync_noise=False))
    assert not all(np.array_equal(split.eps_init[0], e) for e in split.eps_init)


def test_zero_noise_with_sync_collapses_the_group(pretrained):
    snap = PolicySnapshot.from_policy(pretrained)
    group = make_group(snap, small_config(noise_scale=0.0, sync_noise=True))
    assert group.rewards.std() == 0.0
    np.testing.assert_array_equal(group.advantages, np.zeros(4))


def test_sample_group_threads_do_not_change_the_draw(pretrained, pooled_fields, watch_threads, monkeypatch):
    snap = PolicySnapshot.from_policy(pretrained)
    template = dataclasses.replace(toy_scene(), **pooled_fields)
    monkeypatch.setenv("GEOFLOW_THREADS", "1")
    serial = make_group(snap, small_config(), template=template)
    monkeypatch.setenv("GEOFLOW_THREADS", "4")
    watch, off_main = watch_threads
    watch(grpo, "latent_reward")
    threaded = make_group(snap, small_config(), template=template)
    assert off_main["latent_reward"] == [True] * 4
    np.testing.assert_array_equal(serial.rewards, threaded.rewards)
    np.testing.assert_array_equal(serial.x0s, threaded.x0s)
    assert len(serial.trajectories) == len(threaded.trajectories) == 4
    for a_steps, b_steps in zip(serial.trajectories, threaded.trajectories, strict=True):
        assert len(a_steps) == len(b_steps) == 6
        for a, b in zip(a_steps, b_steps):
            for f in dataclasses.fields(a):
                va, vb = getattr(a, f.name), getattr(b, f.name)
                if isinstance(va, np.ndarray):
                    assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), f.name
                else:
                    assert va == vb, f.name


def test_sample_group_maps_each_member_once(pretrained, monkeypatch):
    calls = {"ordered_map": 0, "rollout": 0, "latent_reward": 0}

    def counting(name):
        original = getattr(grpo, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(grpo, name, wrapper)

    for name in calls:
        counting(name)
    make_group(PolicySnapshot.from_policy(pretrained), small_config(group_size=3))
    assert calls == {"ordered_map": 1, "rollout": 3, "latent_reward": 3}


def test_sample_group_reports_an_empty_mask_as_a_training_error(pretrained, monkeypatch):
    def empty(*args, **kwargs):
        raise EmptyMaskError("no valid pixels")

    monkeypatch.setattr(grpo, "latent_reward", empty)
    with pytest.raises(TrainingError, match="degenerate decode left no valid pixels to score: no valid pixels"):
        make_group(PolicySnapshot.from_policy(pretrained), small_config(group_size=2))


def test_latent_reward_matches_group_rewards(pretrained):
    cfg = small_config()
    group = make_group(PolicySnapshot.from_policy(pretrained), cfg)
    redo = latent_reward(group.x0s[2], toy_scene(), seed=cfg.seed)
    assert redo == group.rewards[2]


# ---------------------------------------------------------------------------
# surrogate

def test_on_policy_surrogate_is_the_kl_penalty(pretrained):
    snap = PolicySnapshot.from_policy(pretrained)
    cfg = small_config(kl_beta=0.004)
    group = make_group(snap, cfg)
    pol = snap.policy_old()
    loss, grad, stats = surrogate_loss(pol, pol, group, cfg)
    # ratio == 1 everywhere: the objective mean is the advantage mean, zero
    assert stats["kl"] == 0.0
    assert set(stats) == {"kl"}
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(grad).all()


def _surrogate_ref(policy, policy_ref, group, config):
    """surrogate_loss with mu_theta recomputed per row by _batch_means, as
    it was before the stored step means stood in for it."""
    xs, ts, dts, sigmas, sig_steps, _, x_nexts, advs = grpo._window_batch(group, config.grad_window)
    n = xs.shape[0]
    mean_new = grpo._batch_means(policy, xs, ts, dts, sigmas)
    mean_ref = grpo._batch_means(policy_ref, xs, ts, dts, sigmas)
    var_step = sig_steps * sig_steps
    kl = float((((mean_new - mean_ref) ** 2).sum(axis=1) / (2.0 * var_step)).mean())
    loss = float(-advs.mean() + config.kl_beta * kl)
    up_mean = (-advs / (n * var_step))[:, None] * (x_nexts - mean_new)
    up_mean += (config.kl_beta / n) * (mean_new - mean_ref) / var_step[:, None]
    g_coef = -dts * (1.0 + sigmas * sigmas * (1.0 - ts) / (2.0 * ts))
    return loss, grpo.velocity_grad(policy, xs, ts, up_mean * g_coef[:, None]), kl


def test_stored_step_means_match_the_recomputed_ones(pretrained):
    # under the sampling policy, the means the sampler stored are
    # _batch_means' bits, so the surrogate reads them instead
    snap = PolicySnapshot.from_policy(pretrained)
    cfg = small_config(kl_beta=0.004, grad_window=3)
    group = make_group(snap, cfg)
    pol = snap.policy_old()
    ref_policy = with_params(pretrained, params_vector(pretrained) + 0.01)
    xs, ts, dts, sigmas, _, means, _, _ = grpo._window_batch(group, cfg.grad_window)
    assert means.tobytes() == grpo._batch_means(pol, xs, ts, dts, sigmas).tobytes()
    loss, grad, stats = surrogate_loss(pol, ref_policy, group, cfg)
    ref_loss, ref_grad, ref_kl = _surrogate_ref(pol, ref_policy, group, cfg)
    assert stats["kl"] > 0
    assert (loss, stats["kl"]) == (ref_loss, ref_kl)
    assert grad.tobytes() == ref_grad.tobytes()


def test_surrogate_rejects_deterministic_steps(pretrained):
    snap = PolicySnapshot.from_policy(pretrained)
    cfg = small_config(noise_scale=0.0)
    group = make_group(snap, cfg)
    with pytest.raises(TrainingError, match="noise_scale"):
        surrogate_loss(snap.policy_old(), snap.policy_old(), group, cfg)


def test_zero_advantages_leave_only_the_anchor(pretrained):
    snap = PolicySnapshot.from_policy(pretrained)
    cfg = small_config(kl_beta=0.004)
    group = make_group(snap, cfg)
    flat = GroupRollout(
        eps_init=group.eps_init,
        trajectories=group.trajectories,
        x0s=group.x0s,
        rewards=np.full_like(group.rewards, -0.2),
        advantages=np.zeros_like(group.advantages),
    )
    pol = snap.policy_old()
    loss, grad, stats = surrogate_loss(pol, pol, flat, cfg)
    assert loss == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_array_equal(grad, np.zeros_like(grad))


def test_window_truncation_is_exact(pretrained):
    # criterion: steps past the window must not reach the gradient
    snap = PolicySnapshot.from_policy(pretrained)
    cfg = small_config(steps=6, grad_window=3)
    group = make_group(snap, cfg)
    pol = snap.policy_old()
    loss_full, grad_full, _ = surrogate_loss(pol, pol, group, cfg)
    cut = GroupRollout(
        eps_init=group.eps_init,
        trajectories=[traj[:3] for traj in group.trajectories],
        x0s=group.x0s,
        rewards=group.rewards,
        advantages=group.advantages,
    )
    loss_cut, grad_cut, _ = surrogate_loss(pol, pol, cut, cfg)
    assert loss_full == loss_cut
    np.testing.assert_array_equal(grad_full, grad_cut)


def test_first_update_matches_vanilla_policy_gradient(pretrained):
    # on policy, the surrogate's gradient must equal the plain REINFORCE
    # estimator on the same window; checked by central differences of
    # L(theta) = -mean(adv * logp_theta)
    snap = PolicySnapshot.from_policy(pretrained)
    cfg = small_config(steps=4, grad_window=2, kl_beta=0.0)
    group = make_group(snap, cfg)
    pol = snap.policy_old()
    _, grad, _ = surrogate_loss(pol, pol, group, cfg)

    rows = [
        (s, adv)
        for traj, adv in zip(group.trajectories, group.advantages)
        for s in traj[:2]
    ]

    def pg_loss(vec):
        cand = with_params(pol, vec)
        vals = [
            adv * float(transition_logprob(
                s.x_next, transition_mean(cand, s.x_t, s.t, s.dt, s.sigma), s.sigma_step
            ))
            for s, adv in rows
        ]
        return -float(np.mean(vals))

    theta = params_vector(pol)
    h = 1e-6
    idx = np.random.default_rng(24).choice(theta.size, size=60, replace=False)
    for i in idx:
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        fd = (pg_loss(plus) - pg_loss(minus)) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6 * (1.0 + abs(fd)))


# ---------------------------------------------------------------------------
# training loop

def test_train_metrics_rows(pretrained):
    res = train(small_config(iterations=3), pretrained, toy_scene())
    assert len(res.metrics) == 3
    for i, row in enumerate(res.metrics):
        assert set(row) == {"iter", "reward_mean", "reward_std", "kl", "grad_norm"}
        assert row["iter"] == i
    assert not np.array_equal(params_vector(res.policy), params_vector(pretrained))


def test_train_is_deterministic(pretrained):
    a = train(small_config(iterations=3), pretrained, toy_scene())
    b = train(small_config(iterations=3), pretrained, toy_scene())
    assert a.metrics == b.metrics
    np.testing.assert_array_equal(params_vector(a.policy), params_vector(b.policy))
    np.testing.assert_array_equal(
        params_vector(a.ema_policy), params_vector(b.ema_policy)
    )


def test_train_ema_trails_the_policy(pretrained):
    res = train(small_config(iterations=4, ema_decay=0.9), pretrained, toy_scene())
    theta0 = params_vector(pretrained)
    move_pol = np.linalg.norm(params_vector(res.policy) - theta0)
    move_ema = np.linalg.norm(params_vector(res.ema_policy) - theta0)
    assert 0.0 < move_ema < move_pol


def test_train_leaves_the_kl_anchor_unchanged(pretrained):
    # train() passes `pretrained` itself as the KL reference, so it must
    # never write into that policy's parameters
    before = params_vector(pretrained)
    res = train(small_config(iterations=3), pretrained, toy_scene())
    np.testing.assert_array_equal(params_vector(pretrained), before)
    assert not np.array_equal(params_vector(res.policy), before)


def test_zero_lr_never_moves_and_stays_flat(pretrained):
    res = train(small_config(iterations=30, lr=0.0), pretrained, toy_scene())
    np.testing.assert_array_equal(params_vector(res.policy), params_vector(pretrained))
    rewards = np.array([m["reward_mean"] for m in res.metrics])
    # OLS slope confidence interval must cover zero
    from scipy import stats

    fit = stats.linregress(np.arange(rewards.size), rewards)
    half = 1.96 * fit.stderr
    assert fit.slope - half <= 0.0 <= fit.slope + half


def test_stronger_anchor_moves_less(pretrained):
    masses = []
    for beta in (0.004, 1.0, 10.0):
        res = train(small_config(iterations=25, kl_beta=beta), pretrained, toy_scene())
        masses.append(
            np.linalg.norm(params_vector(res.policy) - params_vector(pretrained))
        )
    assert masses[0] > masses[1] > masses[2]


def test_train_abort_attaches_last_good_policy(pretrained):
    cfg = small_config(iterations=6, kl_beta=1e280)
    with pytest.raises(TrainingError) as exc:
        train(cfg, pretrained, toy_scene())
    assert exc.value.last_good is not None
    assert np.isfinite(params_vector(exc.value.last_good)).all()
    assert exc.value.metrics  # rows up to and including the bad iteration


def test_train_rejects_deterministic_sampler(pretrained):
    with pytest.raises(TrainingError, match="noise_scale"):
        train(small_config(noise_scale=0.0, iterations=2), pretrained, toy_scene())
