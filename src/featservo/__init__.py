"""Feature-based visual servoing toolkit with a simulated camera loop."""

from .control import (
    ControlConfig,
    control_law,
    pseudo_inverse,
    stack_interaction,
)
from .features import (
    FeatureSet,
    SyntheticDetectorConfig,
    render_target,
    synthetic_detect,
    top_k,
)
from .geometry import (
    CameraIntrinsics,
    Pose,
    compose,
    integrate_twist,
    inverse,
    pixel_to_normalized,
    pose_error,
    relative,
)
from .matching import (
    CorrespondenceSet,
    InlierSet,
    RansacConfig,
    match_nn,
    ransac_inliers,
    tracking_update,
)
from .simulate import (
    DEFAULT_INTRINSICS,
    Scene,
    ServoRunConfig,
    ServoTrace,
    make_box_scene,
    run_servo,
)

__version__ = "0.1.0"
