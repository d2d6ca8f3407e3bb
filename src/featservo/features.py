"""Feature-set data model and a synthetic oracle detector over landmark
scenes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFeatureSet
from .geometry import CameraIntrinsics, Pose, project_many


def _sq_norms(descriptors: np.ndarray) -> np.ndarray:
    """Squared row norms of float32 descriptors, accumulated in float64."""
    d = descriptors.astype(np.float64)
    return np.einsum("ij,ij->i", d, d)


class FeatureSet:
    """Immutable, ordered set of keypoints for one image.

    Stored as parallel arrays: pixels (n,2), float32 unit descriptors (n,d),
    scores (n,). Depths (meters) are present for target renders; landmark
    ids only for simulated detections.
    """

    __slots__ = (
        "pixels", "descriptors", "scores", "image_size", "depths", "landmark_ids", "sq_norms"
    )

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
        sq_norms = _sq_norms(descriptors)
        # checks in positive form, so NaN (every comparison false) fails them
        if n > 0:
            if not np.all((pixels >= 0) & (pixels < (w, h))):
                raise InvalidFeatureSet("keypoint pixel outside image bounds")
            if not np.all((scores >= 0) & (scores <= 1)):
                raise InvalidFeatureSet("scores must lie in [0, 1]")
            if not np.all(np.abs(np.sqrt(sq_norms) - 1.0) <= 1e-6):
                raise InvalidFeatureSet("descriptors must be finite and unit norm")
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
        self._freeze(
            pixels.reshape(n, 2),
            descriptors,
            scores,
            (w, h),
            depths,
            landmark_ids,
            sq_norms.astype(np.float32),
        )

    def _freeze(self, pixels, descriptors, scores, image_size, depths, landmark_ids, sq_norms):
        """Store already-checked arrays, read-only. `sq_norms` are the
        descriptors' squared norms as float32, shared with matching."""
        self.pixels = pixels
        self.descriptors = descriptors
        self.scores = scores
        self.image_size = image_size
        self.depths = depths
        self.landmark_ids = landmark_ids
        self.sq_norms = sq_norms
        for a in (pixels, descriptors, scores, depths, landmark_ids, sq_norms):
            if a is not None:
                a.setflags(write=False)

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
        out = FeatureSet.__new__(FeatureSet)
        out._freeze(
            self.pixels[idx],
            self.descriptors[idx],
            self.scores[idx],
            self.image_size,
            None if self.depths is None else self.depths[idx],
            None if self.landmark_ids is None else self.landmark_ids[idx],
            self.sq_norms[idx],
        )
        return out


@dataclass(frozen=True)
class SyntheticDetectorConfig:
    """Imperfection model for the oracle detector."""

    descriptor_noise_sigma: float = 0.0
    detection_dropout: float = 0.0
    pixel_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.descriptor_noise_sigma < 0 or self.pixel_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
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


def _order_by_score(pixels, scores):
    """Descending score; ties broken by pixel (u, v) ascending."""
    return np.lexsort((pixels[:, 1], pixels[:, 0], -scores))


def _in_frame(pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Per-row mask of pixels inside the image; NaN and inf fall outside."""
    return (
        (pixels[:, 0] >= 0)
        & (pixels[:, 0] < intrinsics.width)
        & (pixels[:, 1] >= 0)
        & (pixels[:, 1] < intrinsics.height)
    )


def _visible(scene, points: np.ndarray, camera: Pose, intrinsics: CameraIntrinsics):
    """Project world points; returns (pixels, depths, visible mask).

    Visible means positive depth, inside the frame and within the scene's
    view cone.
    """
    pixels, depths = project_many(camera.world_to_camera(points), intrinsics)
    visible = (depths > 1e-9) & _in_frame(pixels, intrinsics)
    visible &= scene.view_cone_mask(points, camera.translation)
    return pixels, depths, visible


def _ranked_rows(scene, keep, pixels, ids):
    """Rows `keep` of per-landmark arrays, highest confidence first, and
    their scores in that order, so callers gather each row once."""
    scores = scene.scores[ids[keep]]
    rank = _order_by_score(pixels[keep], scores)
    return keep[rank], scores[rank]


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
    records ground-truth landmark ids and depths. Deterministic given
    (scene, camera, cfg.seed) when no generator is supplied; a caller that
    passes one generator to every call gets a fresh noise draw each time.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    points, descriptors, ids = scene.current_view_landmarks()
    pixels, depths, visible = _visible(scene, points, camera, intrinsics)
    idx = np.flatnonzero(visible)
    # one draw per visible landmark, in scene order, so runs are reproducible
    keep = rng.random(idx.size) >= cfg.detection_dropout
    idx = idx[keep]
    n = idx.size
    noisy_pixels = pixels[idx]
    if cfg.pixel_noise_sigma > 0:
        noisy_pixels = noisy_pixels + rng.normal(0.0, cfg.pixel_noise_sigma, size=(n, 2))
    noise = None
    if cfg.descriptor_noise_sigma > 0:
        noise = rng.standard_normal((n, descriptors.shape[1]), dtype=np.float32)

    # keypoints pushed out of frame by noise are dropped, never clamped
    inb = np.flatnonzero(_in_frame(noisy_pixels, intrinsics))
    rows, scores = _ranked_rows(scene, inb, noisy_pixels, ids[idx])
    landmarks = idx[rows]
    # the table rows are unit float32; without noise they are kept as they
    # are. Noise and normalization act row by row, so each kept row, gathered
    # once in final order, gets the bytes it would get if every row were
    # noised and normalized first
    desc = descriptors[landmarks]
    if noise is not None:
        # a sigma or noise past float32's range gives inf, then NaN rows,
        # which fail FeatureSet's unit-norm check
        with np.errstate(over="ignore", invalid="ignore"):
            desc += noise[rows] * np.float32(cfg.descriptor_noise_sigma)
            desc /= np.sqrt(_sq_norms(desc)).astype(np.float32)[:, None]
    return FeatureSet(
        noisy_pixels[rows],
        desc,
        scores,
        (intrinsics.width, intrinsics.height),
        depths=depths[landmarks],
        landmark_ids=ids[landmarks],
    )


def top_k(fs: FeatureSet, k: int) -> FeatureSet:
    """Keep the k highest-confidence keypoints (all if fewer)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k >= len(fs):
        return fs
    if np.all(fs.scores[:-1] > fs.scores[1:]):
        # already in score order, as synthetic_detect returns it: the prefix
        return fs.subset(slice(k))
    order = _order_by_score(fs.pixels, fs.scores)
    return fs.subset(order[:k])
