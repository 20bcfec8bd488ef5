"""Geometry-grounded rewards for video generators, a toy rectified-flow
policy trained against them, and the evaluation stack around both."""

from ._version import __version__
from .adapter import VideoBundle, read_bundle, write_bundle
from .camera import (
    Intrinsics,
    PoseSE3,
    Z_MIN,
    project,
    relative_transform,
    reproject_depth,
    rigid_flow,
    unproject,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    DomainError,
    EmptyMaskError,
    FormatError,
    GeoRewardError,
    GridTypeError,
    InputError,
    InsufficientDataError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .grid import backward_warp, bilinear_sample, load_tensor, save_tensor
from .grpo import (
    GroupRollout,
    PolicySnapshot,
    TrainerConfig,
    TrainResult,
    group_advantages,
    importance_ratio,
    latent_reward,
    sample_group,
    surrogate_loss,
    train,
)
from .metrics import (
    CorrespondenceSet,
    SampsonResult,
    dynamic_degree,
    eight_point,
    fundamental_from_pose,
    sample_correspondences,
    sampson_error,
)
from .policy import (
    SamplerConfig,
    TrajectoryStep,
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
from .reward import (
    HOLE_SENTINEL,
    PairScore,
    RewardConfig,
    VideoScore,
    geo_quality,
    normalized_epe,
    pair_reward,
    r_dino,
    r_geo,
    reference_features,
    relative_depth_error,
    score_pair,
    score_video,
)
from .synth import (
    LATENT_DIM,
    ObjectSpec,
    PerturbationSpec,
    RenderedPair,
    RenderedVideo,
    SceneSpec,
    decode_latent,
    flow_at,
    inject_perturbation,
    perturbation_from_dict,
    render_frame,
    render_pair,
    render_video,
    scene_from_dict,
    toy_scene,
    wobble_field,
)
