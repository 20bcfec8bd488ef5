"""Toy velocity-field generator: a small MLP with hand-written gradients,
a flow-matching pretraining loop, and ODE/SDE samplers with closed-form
Gaussian transition densities.

The interpolant is x_t = (1 - t) * x_0 + t * eps with t running 1 -> 0 at
sampling time, so t = 1 is pure noise. Everything runs in float64 so the
gradient and density checks can be tight.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError, ShapeError, TrainingError
from .grid import _dump_json, _load_json, load_tensor, save_tensor


@dataclass
class VelocityPolicy:
    """Two-hidden-layer tanh MLP over (x, t); linear output head.

    Treat instances as immutable: updates go through params_vector and
    with_params, which copy.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        h, din = self.w1.shape
        if self.w2.shape != (h, h) or self.w3.shape[1] != h:
            raise ShapeError("hidden layer shapes are inconsistent")
        if self.b1.shape != (h,) or self.b2.shape != (h,) or self.b3.shape != (self.w3.shape[0],):
            raise ShapeError("bias shapes are inconsistent")
        if self.w3.shape[0] != din - 1:
            raise ShapeError(f"output dim {self.w3.shape[0]} must equal input dim {din} - 1")
        for blk in self.blocks():
            if not np.isfinite(blk).all():
                raise NumericError("policy parameters must be finite")

    @property
    def dim(self):
        return self.w3.shape[0]

    @property
    def hidden(self):
        return self.w1.shape[0]

    @property
    def layer_dims(self):
        return (self.dim + 1, self.hidden, self.hidden, self.dim)

    def blocks(self):
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)


_BLOCK_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def init_policy(dim: int, hidden: int, rng) -> VelocityPolicy:
    """Glorot-uniform weights, zero biases."""
    if dim < 1 or hidden < 1:
        raise ConfigError(f"dim and hidden must be >= 1, got {dim}, {hidden}")

    def glorot(fan_out, fan_in):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_out, fan_in))

    return VelocityPolicy(
        w1=glorot(hidden, dim + 1),
        b1=np.zeros(hidden),
        w2=glorot(hidden, hidden),
        b2=np.zeros(hidden),
        w3=glorot(dim, hidden),
        b3=np.zeros(dim),
    )


def params_vector(policy: VelocityPolicy) -> np.ndarray:
    return np.concatenate([b.ravel() for b in policy.blocks()])


def with_params(policy: VelocityPolicy, vec: np.ndarray) -> VelocityPolicy:
    """New policy with the same shapes and the given flat parameter vector."""
    vec = np.asarray(vec, dtype=np.float64)
    blocks = []
    off = 0
    for b in policy.blocks():
        blocks.append(vec[off : off + b.size].reshape(b.shape).copy())
        off += b.size
    if off != vec.size:
        raise ShapeError(f"parameter vector has {vec.size} entries, expected {off}")
    return VelocityPolicy(*blocks)


def _stack_input(x, t):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    tb = np.broadcast_to(np.asarray(t, dtype=np.float64), (xb.shape[0],))
    inp = np.concatenate([xb, tb[:, None]], axis=1)
    return inp, single


def _forward(policy, inp):
    a1 = inp @ policy.w1.T + policy.b1
    h1 = np.tanh(a1)
    a2 = h1 @ policy.w2.T + policy.b2
    h2 = np.tanh(a2)
    out = h2 @ policy.w3.T + policy.b3
    return out, (inp, h1, h2)


def velocity(policy: VelocityPolicy, x, t):
    """Forward pass v(x, t); x is a d-vector or an (N, d) batch."""
    inp, single = _stack_input(x, t)
    if not np.isfinite(inp).all():
        raise NumericError("velocity input is non-finite")
    out, _ = _forward(policy, inp)
    return out[0] if single else out


def _backward(policy, cache, upstream):
    """Parameter gradient of sum_n upstream_n . v(x_n, t_n)."""
    inp, h1, h2 = cache
    u = np.atleast_2d(upstream)
    gw3 = u.T @ h2
    gb3 = u.sum(axis=0)
    dh2 = u @ policy.w3
    da2 = dh2 * (1.0 - h2 * h2)
    gw2 = da2.T @ h1
    gb2 = da2.sum(axis=0)
    dh1 = da2 @ policy.w2
    da1 = dh1 * (1.0 - h1 * h1)
    gw1 = da1.T @ inp
    gb1 = da1.sum(axis=0)
    return np.concatenate([g.ravel() for g in (gw1, gb1, gw2, gb2, gw3, gb3)])


def velocity_grad(policy: VelocityPolicy, x, t, upstream) -> np.ndarray:
    """Exact gradient of upstream . v(x, t) with respect to the parameters,
    flattened in the params_vector layout."""
    inp, single = _stack_input(x, t)
    up = np.asarray(upstream, dtype=np.float64)
    up = up[None, :] if single else np.atleast_2d(up)
    if up.shape != (inp.shape[0], policy.dim):
        raise ShapeError(f"upstream shape {up.shape} does not match ({inp.shape[0]}, {policy.dim})")
    _, cache = _forward(policy, inp)
    return _backward(policy, cache, up)


def interpolate(x0, eps, t):
    """Straight-line interpolant (1 - t) x_0 + t eps; equals x_0 at t = 0
    and eps at t = 1 exactly."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim and t.shape != x0.shape[: t.ndim]:
        raise ShapeError(f"time shape {t.shape} does not broadcast over {x0.shape}")
    tt = t[..., None] if t.ndim else t
    return (1.0 - tt) * x0 + tt * eps


def fm_pretrain(policy, data_sampler, iterations, lr, rng, batch_size=128, momentum=0.9):
    """Stochastic gradient descent on the straight-path regression loss.

    data_sampler(rng, n) must return (n, d) draws of x_0. Per step a batch
    of (x_0, eps, t) is drawn, the interpolant formed, and the squared error
    of v against (eps - x_0) minimized. The learning rate decays linearly
    to a tenth of lr so the terminal iterate settles instead of wandering
    in SGD noise. Returns (policy, losses).
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    if lr <= 0:
        raise ConfigError(f"lr must be > 0, got {lr}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    theta = params_vector(policy)
    vel = np.zeros_like(theta)
    losses = np.empty(iterations)
    for it in range(iterations):
        pol = with_params(policy, theta)
        x0 = np.asarray(data_sampler(rng, batch_size), dtype=np.float64)
        if x0.shape != (batch_size, policy.dim):
            raise ShapeError(f"data sampler returned {x0.shape}, expected ({batch_size}, {policy.dim})")
        eps = rng.standard_normal(x0.shape)
        t = rng.uniform(size=batch_size)
        xt = interpolate(x0, eps, t)
        inp, _ = _stack_input(xt, t)
        out, cache = _forward(pol, inp)
        resid = out - (eps - x0)
        loss = float((resid * resid).sum() / batch_size)
        losses[it] = loss
        if not np.isfinite(loss) or loss > 1e6:
            raise TrainingError(f"flow-matching loss diverged at step {it}: {loss}", metrics=losses[: it + 1].tolist())
        grad = _backward(pol, cache, 2.0 * resid / batch_size)
        step_lr = lr * (1.0 - 0.9 * it / iterations)
        vel = momentum * vel - step_lr * grad
        theta = theta + vel
    return with_params(policy, theta), losses


@dataclass(frozen=True)
class SamplerConfig:
    """SDE sampler settings: step count K over a uniform 1 -> 0 grid and the
    noise scale a of sigma_t = a sqrt(t / (1 - t))."""

    steps: int = 10
    noise_scale: float = 0.7

    def __post_init__(self):
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if self.noise_scale < 0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")


@dataclass
class TrajectoryStep:
    """One SDE transition. logp is the isotropic-Gaussian log-density of
    x_next given (mean, sigma_step); None for deterministic steps. sigma is
    the continuous noise level (sigma_step before the sqrt(dt) scaling),
    stored so the transition mean can be re-derived under another policy
    through the exact same arithmetic."""

    t: float
    dt: float
    x_t: np.ndarray
    mean: np.ndarray
    sigma: float
    sigma_step: float
    z: np.ndarray
    x_next: np.ndarray
    logp: float


def _eval_velocity(policy, x, t):
    if isinstance(policy, VelocityPolicy):
        return velocity(policy, x, t)
    return np.asarray(policy(x, t), dtype=np.float64)


def sigma_schedule(t, dt, noise_scale):
    """Noise level for the step [t - dt, t], evaluated at the interval
    midpoint. The schedule a sqrt(t / (1 - t)) diverges at t = 1, so using
    the midpoint keeps the first step bounded with the same a-scaling."""
    t_mid = t - dt / 2.0
    if t_mid <= 0.0 or t_mid >= 1.0:
        raise DomainError(f"step midpoint {t_mid} outside (0, 1); shrink dt")
    return noise_scale * np.sqrt(t_mid / (1.0 - t_mid))


def transition_mean(policy, x_t, t, dt, sigma):
    """Deterministic part of one reverse-SDE step at noise level sigma.

    mean = x_t - [v + (sigma^2 / (2t)) (x_t + (1 - t) v)] dt

    sigma = 0 gives the plain Euler ODE update. This is the single code
    path for the step mean, shared by the sampler and by the trainer's
    recomputation so identical parameters give bit-identical means.
    """
    x = np.asarray(x_t, dtype=np.float64)
    v = _eval_velocity(policy, x, t)
    if sigma == 0.0:
        return x - v * dt
    drift = v + (sigma * sigma / (2.0 * t)) * (x + (1.0 - t) * v)
    return x - drift * dt


def _step(policy, x_t, t, dt, sigma, z):
    """(x_next, mean, sigma_step) of one step at noise level sigma; z is
    not read when the step is deterministic."""
    mean = transition_mean(policy, x_t, t, dt, sigma)
    sigma_step = float(sigma * np.sqrt(dt))
    if sigma_step == 0.0:
        return mean.copy(), mean, sigma_step
    return mean + sigma_step * np.asarray(z, dtype=np.float64), mean, sigma_step


def sde_step(policy, x_t, t, dt, noise_scale, z):
    """One Euler-Maruyama step of the marginal-preserving reverse SDE.

    x_next = mean + sigma_t sqrt(dt) z with mean per transition_mean.
    Returns (x_next, mean, sigma_step). With noise_scale 0 this reduces
    exactly to the Euler ODE step.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must be in (0, 1], got {t}")
    if dt <= 0.0:
        raise DomainError(f"dt must be > 0, got {dt}")
    sigma = sigma_schedule(t, dt, noise_scale) if noise_scale != 0.0 else 0.0
    return _step(policy, x_t, t, dt, sigma, z)


def transition_logprob(x_next, mean, sigma_step):
    """Log-density of an isotropic Gaussian transition.

    Batched inputs (..., d) give a (...) result; sigma_step is a scalar or
    one entry per row.
    """
    if not np.all(np.asarray(sigma_step) > 0):
        raise DomainError(f"sigma_step must be > 0 for a density, got {sigma_step}")
    x = np.asarray(x_next, dtype=np.float64)
    m = np.asarray(mean, dtype=np.float64)
    if x.shape != m.shape:
        raise ShapeError(f"x_next shape {x.shape} does not match mean {m.shape}")
    d = x.shape[-1] if x.ndim else 1
    sq = ((x - m) ** 2).sum(axis=-1) if x.ndim else (x - m) ** 2
    out = -0.5 * d * np.log(2.0 * np.pi * sigma_step * sigma_step) - sq / (2.0 * sigma_step * sigma_step)
    return float(out) if np.ndim(out) == 0 else out


def time_grid(steps: int):
    """Uniform grid 1 -> 0 with `steps` intervals; the last point is exactly 0."""
    return np.linspace(1.0, 0.0, steps + 1)


def rollout(policy, eps_init, config: SamplerConfig, rng):
    """Run K SDE steps from t = 1 to t = 0, recording every transition.

    eps_init is the caller's initial noise (shared across a group when the
    trainer wants synchronized starts). Deterministic given (policy,
    eps_init, rng state).
    """
    x = np.asarray(eps_init, dtype=np.float64).copy()
    ts = time_grid(config.steps)
    steps = []
    for k in range(config.steps):
        t = float(ts[k])
        dt = float(ts[k] - ts[k + 1])
        if config.noise_scale > 0:
            sigma = float(sigma_schedule(t, dt, config.noise_scale))
            z = rng.standard_normal(x.shape)
        else:
            sigma = 0.0
            z = np.zeros_like(x)
        x_next, mean, sigma_step = _step(policy, x, t, dt, sigma, z)
        logp = transition_logprob(x_next, mean, sigma_step) if sigma_step > 0 else None
        steps.append(
            TrajectoryStep(
                t=t,
                dt=dt,
                x_t=x,
                mean=mean,
                sigma=sigma,
                sigma_step=sigma_step,
                z=z,
                x_next=x_next,
                logp=logp,
            )
        )
        x = x_next
    return steps, x


def save_policy(policy: VelocityPolicy, out_dir, meta=None):
    """Checkpoint: one tensor file per parameter block plus a JSON manifest."""
    os.makedirs(out_dir, exist_ok=True)
    for name, blk in zip(_BLOCK_NAMES, policy.blocks()):
        save_tensor(blk, os.path.join(out_dir, f"{name}.gft"))
    manifest = {
        "layer_dims": list(policy.layer_dims),
        "activation": "tanh",
        "meta": meta or {},
    }
    _dump_json(manifest, os.path.join(out_dir, "policy.json"))


def load_policy(ckpt_dir) -> VelocityPolicy:
    path = os.path.join(ckpt_dir, "policy.json")
    if not os.path.isfile(path):
        raise ConfigError(f"no policy manifest at {path}")
    manifest = _load_json(path)
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {type(manifest).__name__}")
    if manifest.get("activation") != "tanh":
        raise ConfigError(f"unsupported activation {manifest.get('activation')!r}")
    layer_dims = manifest.get("layer_dims", [])
    if not isinstance(layer_dims, list):
        raise ConfigError(f"{path}: layer_dims must be a list, got {layer_dims!r}")
    blocks = [load_tensor(os.path.join(ckpt_dir, f"{name}.gft")) for name in _BLOCK_NAMES]
    pol = VelocityPolicy(*blocks)
    if list(pol.layer_dims) != layer_dims:
        raise ConfigError("manifest layer_dims do not match the stored tensors")
    return pol
