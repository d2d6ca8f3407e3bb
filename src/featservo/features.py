"""Feature sets, the synthetic oracle detector over a landmark scene's
table, and the target render: the same detector, noise-free, over the
object rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFeatureSet, TooFewVisibleLandmarks
from .geometry import CameraIntrinsics, Pose, project_many


def _row_norms(descriptors: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Row norms of float32 descriptors, accumulated in `dtype`."""
    d = descriptors.astype(dtype, copy=False)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _check_unit_rows(descriptors: np.ndarray) -> None:
    """Raise unless each row's norm, accumulated in float64, is within 1e-6
    of 1 (NaN fails)."""
    if not np.all(np.abs(_row_norms(descriptors) - 1.0) <= 1e-6):
        raise InvalidFeatureSet("descriptors must be finite and unit norm")


class FeatureSet:
    """Immutable, ordered set of keypoints for one image.

    Stored as parallel arrays: pixels (n,2), float32 unit descriptors (n,d),
    scores (n,). Depths (meters) are present for target renders; landmark
    ids only for simulated detections.
    """

    __slots__ = ("pixels", "descriptors", "scores", "image_size", "depths", "landmark_ids")

    def __init__(self, pixels, descriptors, scores, image_size, depths=None, landmark_ids=None):
        pixels = np.atleast_2d(np.asarray(pixels, dtype=float))
        with np.errstate(over="ignore"):  # values past float32's range fail the unit-norm check
            descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.float32))
        scores = np.asarray(scores, dtype=float).reshape(-1)
        n = scores.size
        if pixels.shape != (n, 2) and not (n == 0 and pixels.size == 0):
            raise InvalidFeatureSet(f"pixels shape {pixels.shape} != ({n}, 2)")
        if descriptors.ndim != 2 or descriptors.shape[0] != n:
            raise InvalidFeatureSet("descriptor row count mismatch")
        w, h = int(image_size[0]), int(image_size[1])
        # checks in positive form, so NaN (every comparison false) fails them
        if n > 0:
            if not np.all((pixels >= 0) & (pixels < (w, h))):
                raise InvalidFeatureSet("keypoint pixel outside image bounds")
            if not np.all((scores >= 0) & (scores <= 1)):
                raise InvalidFeatureSet("scores must lie in [0, 1]")
        _check_unit_rows(descriptors)
        if depths is not None:
            depths = np.asarray(depths, dtype=float).reshape(-1)
            if depths.size != n:
                raise InvalidFeatureSet("depth count != keypoint count")
            if not np.all((depths > 0) & (depths < np.inf)):
                raise InvalidFeatureSet("depths must be positive and finite")
        if landmark_ids is not None:
            landmark_ids = np.asarray(landmark_ids, dtype=np.int64).reshape(-1)
            if landmark_ids.size != n:
                raise InvalidFeatureSet("landmark id count != keypoint count")
        self._freeze(pixels.reshape(n, 2), descriptors, scores, (w, h), depths, landmark_ids)

    def _freeze(self, pixels, descriptors, scores, image_size, depths, landmark_ids):
        """Store already-checked arrays, read-only, and return the set."""
        self.pixels = pixels
        self.descriptors = descriptors
        self.scores = scores
        self.image_size = image_size
        self.depths = depths
        self.landmark_ids = landmark_ids
        for a in (pixels, descriptors, scores, depths, landmark_ids):
            if a is not None:
                a.setflags(write=False)
        return self

    def __len__(self) -> int:
        return self.scores.size

    def subset(self, indices) -> "FeatureSet":
        """Rows `indices`, in that order; a slice gives views. Rows of a
        checked set pass the constructor's checks, so they are not checked
        again."""
        if isinstance(indices, slice):
            idx = indices
        else:
            idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        return FeatureSet.__new__(FeatureSet)._freeze(
            self.pixels[idx],
            self.descriptors[idx],
            self.scores[idx],
            self.image_size,
            None if self.depths is None else self.depths[idx],
            None if self.landmark_ids is None else self.landmark_ids[idx],
        )


@dataclass(frozen=True)
class SyntheticDetectorConfig:
    """Imperfection model for the oracle detector. Descriptor noise is
    zero-mean, of per-component standard deviation `descriptor_noise_sigma`,
    uniform over 256 levels: one raw generator byte per component, within
    1.7254 sigma. Matching sees it through 256-term dot products,
    near-Gaussian for any noise of that variance, and a byte costs an eighth
    of a generator word."""

    descriptor_noise_sigma: float = 0.0
    detection_dropout: float = 0.0
    pixel_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # checks in positive form, so NaN (every comparison false) fails them
        if not (0 <= self.descriptor_noise_sigma < np.inf and 0 <= self.pixel_noise_sigma < np.inf):
            raise ValueError("noise sigmas must be non-negative and finite")
        if not 0.0 <= self.detection_dropout <= 1.0:
            raise ValueError("dropout must be a probability")


def landmark_scores(seed: int, ids) -> np.ndarray:
    """Deterministic per-landmark confidence in [0, 1): splitmix64 of (seed, id)."""
    mixed_seed = (int(seed) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = np.asarray(ids, dtype=np.uint64) + np.uint64(mixed_seed)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) / float(2**53)


def _in_frame(pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Per-row mask of pixels inside the image; NaN and inf fall outside."""
    inside = (pixels >= 0) & (pixels < (intrinsics.width, intrinsics.height))
    return inside[:, 0] & inside[:, 1]


def _visible(scene, camera: Pose, intrinsics: CameraIntrinsics):
    """Project the scene's landmarks; returns (pixels, depths, visible mask).

    Visible means positive depth, inside the frame and within the scene's
    view cone.
    """
    pixels, depths = project_many(camera.world_to_camera(scene.points), intrinsics)
    visible = (depths > 1e-9) & _in_frame(pixels, intrinsics)
    visible[: scene.n_object] &= scene.view_cone_mask(camera.translation)
    return pixels, depths, visible


def synthetic_detect(
    scene,
    camera: Pose,
    intrinsics: CameraIntrinsics,
    cfg: SyntheticDetectorConfig,
    rng: np.random.Generator | None = None,
) -> FeatureSet:
    """Oracle detector over a landmark scene.

    Projects every visible landmark (positive depth, in frame, within the
    scene's view cone), applies dropout and pixel/descriptor noise, and
    records ground-truth landmark ids and depths; rows come highest score
    first, ties in landmark-id order. Deterministic given (scene, camera,
    cfg.seed) when no generator is supplied; a caller that passes one
    generator to every call gets a fresh noise draw each time.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    pixels, depths, visible = _visible(scene, camera, intrinsics)
    idx = np.flatnonzero(visible)
    # one draw per visible landmark, in scene order, so runs are reproducible;
    # drawn at dropout 0 too, where it keeps every row, so the stream is the same
    draw = rng.random(idx.size)
    if cfg.detection_dropout > 0:
        idx = idx[draw >= cfg.detection_dropout]
    pixels = pixels[idx]
    if cfg.pixel_noise_sigma > 0:
        pixels = pixels + rng.normal(0.0, cfg.pixel_noise_sigma, size=(idx.size, 2))
        # keypoints pushed out of frame by noise are dropped, never clamped
        inb = _in_frame(pixels, intrinsics)
        idx, pixels = idx[inb], pixels[inb]
    # ranked highest score first by a stable sort, so ties keep scene (landmark
    # id) order whatever the view; each row is gathered once, in that order
    scores = scene.scores[idx]
    rank = np.argsort(-scores, kind="stable")
    landmarks = idx[rank]
    # each property of the set is checked once, where it is established: the
    # in-frame filters are the pixel check, `_visible`'s depth > 1e-9 the depth
    # positivity check, the scores are `landmark_scores`, in [0, 1) for any
    # seed and id, and the scene checked its unit rows when it was built. An
    # infinite depth still projects in frame
    depths = depths[landmarks]
    if not np.all(depths < np.inf):
        raise InvalidFeatureSet("depths must be positive and finite")
    desc = scene.descriptors[landmarks]
    if cfg.descriptor_noise_sigma > 0:
        # one generator byte per component, rows in returned order: byte b
        # adds (b - 127.5)*delta, zero-mean with variance sigma**2 exactly.
        # Norms accumulated in float32 renormalize rows to within 2.1e-7 of
        # 1 (the worst of 5.1e6 rows, sigma 1e-3 to 1e10), so the unit-norm
        # check is the one float64 pass. A sigma past about 1.1e18 overflows
        # the squared norms, one past float32's range the delta: zero or NaN
        # rows, which fail the check
        m, d = desc.shape
        noise = rng.bit_generator.random_raw(-(-m * d // 8)).view(np.uint8)[: m * d]
        with np.errstate(over="ignore", invalid="ignore"):
            delta = np.float32(cfg.descriptor_noise_sigma * (12 / (256**2 - 1)) ** 0.5)
            step = np.subtract(noise.reshape(m, d), np.float32(127.5), dtype=np.float32)
            step *= delta
            desc += step
            desc /= _row_norms(desc, np.float32)[:, None]
        _check_unit_rows(desc)
    return FeatureSet.__new__(FeatureSet)._freeze(
        pixels[rank], desc, scores[rank], (intrinsics.width, intrinsics.height),
        depths, scene.ids[landmarks],
    )


def render_target(scene, target_pose: Pose, intrinsics: CameraIntrinsics) -> FeatureSet:
    """Noise-free render of the target view, with exact depths: the detector
    without noise over the scene's object rows, so clutter never appears."""
    fs = synthetic_detect(scene.without_clutter(), target_pose, intrinsics,
                          SyntheticDetectorConfig())
    if len(fs) < 3:
        raise TooFewVisibleLandmarks(f"only {len(fs)} object landmarks visible from target pose")
    return fs


def top_k(fs: FeatureSet, k: int) -> FeatureSet:
    """Keep the k highest-confidence keypoints (all if fewer), by a stable
    sort on descending score: equal scores keep their row order."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k >= len(fs):
        return fs
    if np.all(fs.scores[:-1] >= fs.scores[1:]):
        # non-increasing, as synthetic_detect returns it: the sort's prefix
        return fs.subset(slice(k))
    return fs.subset(np.argsort(-fs.scores, kind="stable")[:k])
