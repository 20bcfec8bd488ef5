"""Group-relative policy optimization over the latent scene-corruption
space: synchronized-noise groups, group-normalized advantages, one
on-policy policy-gradient step per group over a truncated window with a KL
anchor to the pretrained policy, and an EMA shadow of the live parameters.

The generator is the SDE sampler from .policy; a rollout's terminal sample
decodes into a corrupted rendered pair whose score is the trajectory's
(sparse, terminal) reward.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyMaskError, TrainingError
from .policy import (
    SamplerConfig,
    VelocityPolicy,
    params_vector,
    rollout,
    transition_mean,
    velocity_grad,
    with_params,
)
from .reward import RewardConfig, score_pair
from .runtime import ordered_map
from .synth import decode_latent, render_frame


@dataclass(frozen=True)
class TrainerConfig:
    """Optimizer settings. grad_window is the number of leading SDE steps
    (highest t, largest sigma) that receive gradient; later steps are
    sampled but never differentiated through."""

    group_size: int = 4
    steps: int = 10
    grad_window: int = 5
    kl_beta: float = 0.004
    lr: float = 0.05
    ema_decay: float = 0.99
    iterations: int = 200
    seed: int = 0
    sync_noise: bool = True
    noise_scale: float = 0.7

    def __post_init__(self):
        if self.group_size < 2:
            raise ConfigError(f"group_size must be >= 2, got {self.group_size}")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if self.grad_window < 1:
            raise ConfigError(f"grad_window must be >= 1, got {self.grad_window}")
        if self.grad_window > self.steps:
            raise ConfigError(
                f"grad_window exceeds steps ({self.grad_window} > {self.steps})"
            )
        if self.kl_beta < 0:
            raise ConfigError(f"kl_beta must be >= 0, got {self.kl_beta}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ConfigError(f"ema_decay must be in [0, 1), got {self.ema_decay}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.noise_scale < 0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(steps=self.steps, noise_scale=self.noise_scale)


@dataclass
class PolicySnapshot:
    """Flat live and EMA parameter vectors, plus a blueprint instance that
    fixes the layer shapes. theta_ema only ever moves by the EMA rule."""

    theta: np.ndarray
    theta_ema: np.ndarray
    blueprint: VelocityPolicy

    @classmethod
    def from_policy(cls, policy: VelocityPolicy):
        v = params_vector(policy)
        return cls(
            theta=v.copy(),
            theta_ema=v.copy(),
            blueprint=policy,
        )

    def policy_old(self) -> VelocityPolicy:
        """The sampling policy; on-policy, so it is the live theta."""
        return with_params(self.blueprint, self.theta)


@dataclass
class GroupRollout:
    """One sampled group: initial noise per member, frozen trajectories
    under the sampling policy, terminal latents, and their
    rewards/advantages."""

    eps_init: list
    trajectories: list
    x0s: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray


def latent_reward(z, template, seed=0, reward_config=None, *, frame_a=None):
    """Decode a latent and score the resulting pair; the trainer's reward.
    frame_a is passed on to decode_latent."""
    pair = decode_latent(z, template, seed=seed, frame_a=frame_a)
    score = score_pair(
        pair.image_a,
        pair.image_b,
        pair.depth_a,
        pair.depth_b,
        pair.intrinsics,
        pair.intrinsics,
        pair.pose_a,
        pair.pose_b,
        pair.flow_fwd,
        pair.flow_bwd,
        reward_config,
        confidence_a=pair.confidence,
        confidence_b=pair.confidence,
    )
    return float(score.r_pair)


def group_advantages(rewards):
    """Standardize within the group (population std); a spread below 1e-9
    means the group carries no ranking signal, so advantages are zeroed
    rather than amplified out of numerical noise."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ConfigError(f"need a flat group of >= 2 rewards, got shape {r.shape}")
    sigma = float(r.std())
    if sigma < 1e-9:
        return np.zeros_like(r)
    return (r - r.mean()) / sigma


def sample_group(
    snapshot: PolicySnapshot, template, config: TrainerConfig, rng, reward_config=None, *, frame_a=None
):
    """Roll out one group under snapshot.policy_old() and score the
    terminal decodes.

    eps_init is drawn from rng first (one shared draw when sync_noise, G
    draws otherwise); per-member SDE noise then comes from rng.spawn(G), so
    serial and threaded execution consume identical streams. frame_a is
    passed on to every latent_reward call.
    """
    g = config.group_size
    policy_old = snapshot.policy_old()
    sampler = config.sampler()
    d = policy_old.dim
    if config.sync_noise:
        shared = rng.standard_normal(d)
        eps_init = [shared.copy() for _ in range(g)]
    else:
        eps_init = [rng.standard_normal(d) for _ in range(g)]
    streams = rng.spawn(g)

    results = ordered_map(
        lambda i: rollout(policy_old, eps_init[i], sampler, streams[i]), range(g)
    )
    x0s = np.stack([x0 for _, x0 in results])
    try:
        rewards = np.array(
            ordered_map(
                lambda x0: latent_reward(
                    x0, template, seed=config.seed, reward_config=reward_config, frame_a=frame_a
                ),
                list(x0s),
            )
        )
    except EmptyMaskError as exc:
        raise TrainingError(f"degenerate decode left no valid pixels to score: {exc}")
    return GroupRollout(
        eps_init=eps_init,
        trajectories=[steps for steps, _ in results],
        x0s=x0s,
        rewards=rewards,
        advantages=group_advantages(rewards),
    )


def _window_batch(group, window):
    """Flatten the first `window` steps of every trajectory into arrays."""
    rows = [
        (s.x_t, s.t, s.dt, s.sigma, s.sigma_step, s.x_next, adv)
        for traj, adv in zip(group.trajectories, group.advantages)
        for s in traj[:window]
    ]
    xs, ts, dts, sigmas, sig_steps, x_nexts, advs = zip(*rows)
    return (
        np.stack(xs),
        np.array(ts),
        np.array(dts),
        np.array(sigmas),
        np.array(sig_steps),
        np.stack(x_nexts),
        np.array(advs),
    )


def _batch_means(policy, xs, ts, dts, sigmas):
    # Per-row transition_mean, not a fused batch: each row then equals the
    # sampler's stored step mean bit for bit, which keeps outputs
    # byte-identical; on a tiny window that matters more than speed.
    return np.stack(
        [transition_mean(policy, x, t, dt, s) for x, t, dt, s in zip(xs, ts, dts, sigmas)]
    )


def surrogate_loss(policy, policy_ref, group, config: TrainerConfig):
    """Loss and gradient of one on-policy step: the group-baseline policy
    gradient (REINFORCE) over the leading grad_window steps, plus the KL
    anchor to the reference policy.

    loss = -mean_{i, k < M} Â_i
           + kl_beta · mean ‖mu_theta − mu_ref‖² / (2 sigma_step²)
    grad = -mean_{i, k < M} Â_i ∇ log pi_theta(x_next | x_t) + kl_beta ∇ KL

    `policy` must be the policy that sampled the group (train() passes
    snapshot.policy_old()): there the likelihood-ratio surrogate has exactly
    this value and gradient. Gradient reaches the parameters only through
    v_theta at the stored (x_t, t), via the drift factor
    dmean/dv = -dt (1 + sigma² (1 - t) / (2t)). Returns (loss, grad, stats)
    with stats = {"kl"}.
    """
    xs, ts, dts, sigmas, sig_steps, x_nexts, advs = _window_batch(group, config.grad_window)
    if np.any(sig_steps <= 0):
        raise TrainingError("surrogate needs stochastic steps; noise_scale is 0")
    n = xs.shape[0]

    mean_new = _batch_means(policy, xs, ts, dts, sigmas)
    mean_ref = _batch_means(policy_ref, xs, ts, dts, sigmas)

    var_step = sig_steps * sig_steps
    kl_per = ((mean_new - mean_ref) ** 2).sum(axis=1) / (2.0 * var_step)
    kl = float(kl_per.mean())
    loss = float(-advs.mean() + config.kl_beta * kl)

    # d loss / d mean_new, both terms.
    up_mean = (-advs / (n * var_step))[:, None] * (x_nexts - mean_new)
    up_mean += (config.kl_beta / n) * (mean_new - mean_ref) / var_step[:, None]

    g_coef = -dts * (1.0 + sigmas * sigmas * (1.0 - ts) / (2.0 * ts))
    grad = velocity_grad(policy, xs, ts, up_mean * g_coef[:, None])

    return loss, grad, {"kl": kl}


@dataclass
class TrainResult:
    """Final + EMA policies and the per-iteration metric rows."""

    policy: VelocityPolicy
    ema_policy: VelocityPolicy
    metrics: list = field(default_factory=list)


def train(config: TrainerConfig, pretrained: VelocityPolicy, template, reward_config=None):
    """Run the full loop: per iteration sample one group under theta, take
    one on-policy gradient step with a KL anchor to `pretrained`, update
    the EMA. Deterministic in (config, pretrained, template). A non-finite
    loss or gradient aborts with the last finite policy attached to the
    error.
    """
    snap = PolicySnapshot.from_policy(pretrained)
    rc = reward_config if reward_config is not None else RewardConfig()
    # The first decoded frame does not depend on the latent: shade it once
    # and share it, read-only, with every decode of the run.
    frame_a = render_frame(template, 0)
    for arr in frame_a:
        arr.flags.writeable = False
    metrics = []
    for it in range(config.iterations):
        rng = np.random.default_rng([config.seed, it])
        policy_old = snap.policy_old()
        group = sample_group(snap, template, config, rng, reward_config=rc, frame_a=frame_a)
        loss, grad, stats = surrogate_loss(policy_old, pretrained, group, config)
        with np.errstate(over="ignore", invalid="ignore"):
            grad_norm = float(np.linalg.norm(grad))
        row = {
            "iter": it,
            "reward_mean": float(group.rewards.mean()),
            "reward_std": float(group.rewards.std()),
            "kl": stats["kl"],
            "grad_norm": grad_norm,
        }
        metrics.append(row)
        if not (np.isfinite(loss) and np.isfinite(grad_norm)):
            raise TrainingError(
                f"non-finite surrogate at iteration {it}",
                last_good=policy_old,
                metrics=metrics,
            )
        snap.theta = snap.theta - config.lr * grad
        snap.theta_ema = config.ema_decay * snap.theta_ema + (1.0 - config.ema_decay) * snap.theta
    return TrainResult(
        policy=with_params(pretrained, snap.theta),
        ema_policy=with_params(pretrained, snap.theta_ema),
        metrics=metrics,
    )
