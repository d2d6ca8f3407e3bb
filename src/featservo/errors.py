"""Exception hierarchy shared across the toolkit."""


class FeatServoError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveDepth(FeatServoError):
    """A point at or behind the camera plane cannot be projected."""


class DimensionMismatch(FeatServoError):
    """Paired vectors/matrices disagree on feature count."""


class InsufficientFeatures(FeatServoError):
    """Fewer than 3 correspondences: the twist is unconstrained (2k < 6)."""


class TooFewCorrespondences(FeatServoError):
    """Not enough pairs to seed the robust model fit."""


class NonFiniteStep(FeatServoError):
    """dt times the commanded twist overflows the pose step."""


class InvalidFeatureSet(FeatServoError, ValueError):
    """Keypoints that break the FeatureSet invariants, as detector output can."""


class TooFewVisibleLandmarks(FeatServoError):
    """Target render sees fewer than 3 object landmarks."""


class ConfigError(FeatServoError):
    """Invalid or unknown experiment configuration entry."""
