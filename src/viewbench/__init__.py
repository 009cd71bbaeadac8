"""Viewpoint-estimation benchmark kit.

Angle codecs for continuous and discretized azimuth, the detection and
pose training losses with analytic gradients, AP/AVP evaluation, a
seeded synthetic detection+viewpoint benchmark, and a small trainable
network tying them together, plus finite-difference verification and a
CLI for end-to-end runs.
"""

from .angles import (
    azimuth_to_bin,
    bin_center,
    canonicalize,
    circular_difference,
    decode,
    encode,
    flip_azimuth,
)
from .errors import (
    AmbiguousDecode,
    BackgroundInPoseLoss,
    BackgroundInRegression,
    ClassOutOfRange,
    ConfigError,
    DivergenceError,
    EmptyClassError,
    FormatError,
    GenerationError,
    InvalidAngle,
    InvalidBinning,
    InvalidConfig,
    InvalidParameter,
    LayoutError,
    ViewbenchError,
)
from .losses import (
    JointClsOutputs,
    JointRegOutputs,
    Labels,
    LossResult,
    LossSpec,
    Target,
    as_labels,
    classification_loss,
    default_geometric_sigma,
    geometric_classification_loss,
    huber,
    joint_classification_loss,
    joint_detection_score,
    joint_detection_scores,
    joint_regression_loss,
    regression_loss,
)
from .metrics import (
    Box,
    ClassMetrics,
    Detection,
    Detections,
    EvalReport,
    GroundTruth,
    PRCurve,
    detection_table,
    evaluate,
    iou,
    pr_curve,
)
from .net import (
    ModelParams,
    NetConfig,
    TrainConfig,
    TrainResult,
    backward,
    forward,
    init_params,
    make_batch,
    predict,
    sgd_step,
    train,
)
from .synthetic import (
    ClassSpec,
    Dataset,
    Proposals,
    Scene,
    appearance,
    appearance_clean,
    default_benchmark,
    default_class_specs,
    generate,
    oracle_eval,
    regenerate_feature,
)

__version__ = "0.1.0"
