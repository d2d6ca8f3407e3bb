"""Descriptor nearest-neighbour matching, RANSAC outlier rejection with a
normalized-DLT homography model, and the tracking mode that restricts
matching to the previous cycle's inlier targets near convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySet, TooFewCorrespondences, TrackingLost
from .features import FeatureSet

MIN_TRACKED_INLIERS = 3


@dataclass(frozen=True)
class RansacConfig:
    inlier_threshold: float = 2.0  # pixels, symmetric transfer error
    max_iterations: int = 1000
    confidence: float = 0.999
    min_sample: int = 4  # homography
    seed: int = 0

    def __post_init__(self):
        if self.inlier_threshold <= 0:
            raise ValueError("inlier_threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True)
class CorrespondenceSet:
    """Matched (current, target) keypoint pairs, ascending descriptor distance."""

    current_indices: np.ndarray  # (n,) into the current FeatureSet
    target_indices: np.ndarray  # (n,) into the target FeatureSet
    distances: np.ndarray  # (n,) descriptor distances
    current_pixels: np.ndarray  # (n, 2)
    target_pixels: np.ndarray  # (n, 2)

    def __len__(self) -> int:
        return self.distances.size

    def take(self, indices) -> "CorrespondenceSet":
        idx = np.asarray(indices, dtype=np.int64)
        return CorrespondenceSet(
            self.current_indices[idx],
            self.target_indices[idx],
            self.distances[idx],
            self.current_pixels[idx],
            self.target_pixels[idx],
        )


@dataclass(frozen=True)
class InlierSet:
    """RANSAC-accepted subset of a CorrespondenceSet plus the accepted model."""

    correspondences: CorrespondenceSet  # parent set
    indices: np.ndarray  # (l,) into the parent's pair list
    model: np.ndarray  # 3x3 homography mapping current -> target pixels

    def __len__(self) -> int:
        return self.indices.size

    @property
    def current_indices(self) -> np.ndarray:
        return self.correspondences.current_indices[self.indices]

    @property
    def target_indices(self) -> np.ndarray:
        return self.correspondences.target_indices[self.indices]

    @property
    def current_pixels(self) -> np.ndarray:
        return self.correspondences.current_pixels[self.indices]

    @property
    def target_pixels(self) -> np.ndarray:
        return self.correspondences.target_pixels[self.indices]


def match_nn(current: FeatureSet, target: FeatureSet) -> CorrespondenceSet:
    """Mutual Euclidean nearest-neighbour matching on descriptors.

    A pair survives only if each side is the other's nearest neighbour, so
    no target index appears twice. Equal distances resolve to the lowest
    index.
    """
    empty = CorrespondenceSet(
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0),
        np.zeros((0, 2)),
        np.zeros((0, 2)),
    )
    if len(current) == 0 or len(target) == 0:
        return empty

    # squared distances via gemm; argmin picks the lowest index on ties
    cur, tgt = current.descriptors, target.descriptors
    d2 = (
        np.sum(cur**2, axis=1)[:, None]
        + np.sum(tgt**2, axis=1)[None, :]
        - 2.0 * (cur @ tgt.T)
    )
    np.maximum(d2, 0.0, out=d2)
    nearest_tgt = np.argmin(d2, axis=1)
    nearest_cur = np.argmin(d2, axis=0)
    keep = nearest_cur[nearest_tgt] == np.arange(len(current))
    cur_idx = np.flatnonzero(keep).astype(np.int64)
    tgt_idx = nearest_tgt[cur_idx].astype(np.int64)
    dist = np.sqrt(d2[cur_idx, tgt_idx])
    order = np.argsort(dist, kind="stable")
    cur_idx, tgt_idx, dist = cur_idx[order], tgt_idx[order], dist[order]
    return CorrespondenceSet(
        cur_idx, tgt_idx, dist, current.pixels[cur_idx], target.pixels[tgt_idx]
    )


def _normalize_points(pts: np.ndarray):
    """Hartley normalization: zero centroid, mean distance sqrt(2)."""
    c = pts.mean(axis=0)
    scale = np.sqrt(2.0) / (np.mean(np.linalg.norm(pts - c, axis=1)) + 1e-12)
    T = np.array([[scale, 0.0, -scale * c[0]], [0.0, scale, -scale * c[1]], [0.0, 0.0, 1.0]])
    return (pts - c) * scale, T


def fit_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Direct linear transform on normalized coordinates; None if degenerate."""
    n = src.shape[0]
    if n < 4:
        return None
    sn, Ts = _normalize_points(src)
    dn, Td = _normalize_points(dst)
    A = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    A[0::2, 0] = x
    A[0::2, 1] = y
    A[0::2, 2] = 1.0
    A[0::2, 6] = -u * x
    A[0::2, 7] = -u * y
    A[0::2, 8] = -u
    A[1::2, 3] = x
    A[1::2, 4] = y
    A[1::2, 5] = 1.0
    A[1::2, 6] = -v * x
    A[1::2, 7] = -v * y
    A[1::2, 8] = -v
    _, sigma, Vt = np.linalg.svd(A)
    if n == 4 and sigma[-2] < 1e-8 * max(sigma[0], 1.0):
        return None  # rank-deficient sample (collinear points)
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Td) @ Hn @ Ts
    if abs(H[2, 2]) < 1e-12:
        return None
    return H / H[2, 2]


def _apply_homography(H: np.ndarray, pts: np.ndarray) -> np.ndarray:
    q = pts @ H[:, :2].T + H[:, 2]
    w = q[:, 2]
    bad = np.abs(w) < 1e-12
    w = np.where(bad, 1e-12, w)
    out = q[:, :2] / w[:, None]
    out[bad] = np.inf
    return out


def symmetric_transfer_error(H: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair symmetric transfer error in pixels."""
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        return np.full(src.shape[0], np.inf)
    fwd = _apply_homography(H, src) - dst
    bwd = _apply_homography(Hinv, dst) - src
    return np.sqrt(np.sum(fwd**2, axis=1) + np.sum(bwd**2, axis=1))


def _degenerate_sample(pts: np.ndarray) -> bool:
    """True if any 3 of the 4 sample points are (near-)collinear."""
    for skip in range(4):
        tri = np.delete(pts, skip, axis=0)
        a, b = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * abs(a[0] * b[1] - a[1] * b[0])
        if area < 1e-6:
            return True
    return False


def ransac_inliers(
    C: CorrespondenceSet, cfg: RansacConfig, rng: np.random.Generator | None = None
) -> InlierSet:
    """Largest homography consensus over the correspondence set.

    Adaptive iteration count from the standard confidence bound; the
    winning model is refit on its inliers and the set re-thresholded so
    every returned pair satisfies the threshold under the returned model.
    Bit-reproducible for a fixed (input, seed) when no generator is given.
    """
    n = len(C)
    if n < cfg.min_sample:
        raise TooFewCorrespondences(f"{n} pairs < min_sample {cfg.min_sample}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    src, dst = C.current_pixels, C.target_pixels

    best_count = 0
    best_mask = None
    best_model = None
    needed = cfg.max_iterations
    it = 0
    while it < min(needed, cfg.max_iterations):
        it += 1
        sample = rng.choice(n, size=cfg.min_sample, replace=False)
        if _degenerate_sample(src[sample]) or _degenerate_sample(dst[sample]):
            continue
        H = fit_homography(src[sample], dst[sample])
        if H is None:
            continue
        mask = symmetric_transfer_error(H, src, dst) <= cfg.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            best_model = H
            w = count / n
            if w >= 1.0:
                break
            denom = np.log1p(-min(w**cfg.min_sample, 1 - 1e-12))
            needed = int(np.ceil(np.log1p(-cfg.confidence) / denom))

    if best_mask is None or best_count < cfg.min_sample:
        raise TooFewCorrespondences("no non-degenerate consensus found")

    # refit on the consensus, then re-threshold under the refit model
    refit = fit_homography(src[best_mask], dst[best_mask])
    if refit is not None:
        refined = symmetric_transfer_error(refit, src, dst) <= cfg.inlier_threshold
        if refined.sum() >= cfg.min_sample:
            best_mask, best_model = refined, refit
    return InlierSet(C, np.flatnonzero(best_mask).astype(np.int64), best_model)


def mean_correspondence_error(R: InlierSet) -> float:
    """Mean Euclidean pixel distance between paired current/target keypoints."""
    if len(R) == 0:
        raise EmptySet("no inlier pairs")
    return float(np.mean(np.linalg.norm(R.current_pixels - R.target_pixels, axis=1)))


@dataclass(frozen=True)
class TrackingState:
    """Near-convergence mode locking the matchable target subset.

    Once active, each cycle matches against the previous cycle's inlier
    targets, so tracked inlier sets shrink monotonically.
    """

    activation_threshold: float = 10.0  # pixels, mean correspondence error
    active: bool = False
    locked_target: FeatureSet | None = None

    def matchable_target(self, full_target: FeatureSet) -> FeatureSet:
        return self.locked_target if self.active else full_target


def tracking_update(
    state: TrackingState,
    matched_target: FeatureSet,
    inliers: InlierSet,
    mean_error: float,
) -> TrackingState:
    """Advance the tracking state after one matching cycle.

    `matched_target` must be the target set the cycle's correspondences
    index into (the full set when inactive, the locked subset when active).
    Raises TrackingLost when a tracked cycle retains fewer than 3 inliers;
    the caller falls back to full matching.
    """
    if state.active and len(inliers) < MIN_TRACKED_INLIERS:
        raise TrackingLost(f"tracked inliers fell to {len(inliers)}")
    if not state.active and mean_error >= state.activation_threshold:
        return state
    if not state.active and len(inliers) < MIN_TRACKED_INLIERS:
        return state  # not enough support to lock onto
    locked = matched_target.subset(inliers.target_indices)
    return replace(state, active=True, locked_target=locked)
