"""Geometry-grounded rewards for video generators, a toy rectified-flow
policy trained against them, and the evaluation stack around both.

The package namespace holds the names the README and the acceptance gate
use; everything else is imported from its module (georeward.synth, ...).
"""

from ._version import __version__
from .adapter import VideoBundle, read_bundle, write_bundle
from .camera import Intrinsics, PoseSE3, project
from .errors import GeoRewardError
from .grid import load_tensor, save_tensor
from .grpo import (
    PolicySnapshot,
    TrainerConfig,
    group_advantages,
    latent_reward,
    sample_group,
    surrogate_loss,
    train,
)
from .metrics import CorrespondenceSet, eight_point, fundamental_from_pose, sampson_error
from .policy import (
    fm_pretrain,
    init_policy,
    params_vector,
    rollout,
    sde_step,
    time_grid,
    velocity,
    velocity_grad,
    with_params,
)
from .reward import (
    RewardConfig,
    geo_quality,
    normalized_epe,
    pair_reward,
    relative_depth_error,
    score_pair,
    score_video,
)
from .synth import (
    PerturbationSpec,
    SceneSpec,
    decode_latent,
    inject_perturbation,
    render_frame,
    render_pair,
    render_video,
    toy_scene,
)
