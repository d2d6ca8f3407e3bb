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
CHUNK = 8  # RANSAC hypotheses drawn, fitted and scored per batch


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
        if not isinstance(self.min_sample, int) or self.min_sample < 4:
            raise ValueError("min_sample must be an integer >= 4")


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

    # squared distances via gemm, in place: -2G + (|a|^2 + |b|^2) takes the
    # same rounding steps as (|a|^2 + |b|^2) - 2G; argmin picks the lowest
    # index on ties
    d2 = current.descriptors @ target.descriptors.T
    d2 *= -2.0
    d2 += current.sq_norms[:, None] + target.sq_norms[None, :]
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
    """Hartley normalization of (..., n, 2) point sets: zero centroid, mean
    distance sqrt(2); returns the normalized points and the (..., 3, 3) T."""
    c = pts.mean(axis=-2, keepdims=True)
    scale = np.sqrt(2.0) / (np.mean(np.linalg.norm(pts - c, axis=-1), axis=-1) + 1e-12)
    T = np.zeros(scale.shape + (3, 3))
    T[..., 0, 0] = T[..., 1, 1] = scale
    T[..., 0, 2] = -scale * c[..., 0, 0]
    T[..., 1, 2] = -scale * c[..., 0, 1]
    T[..., 2, 2] = 1.0
    return (pts - c) * scale[..., None, None], T


def _dlt(src: np.ndarray, dst: np.ndarray):
    """Normalized DLT over a stack of (..., n, 2) correspondence sets.

    Returns the (..., 3, 3) models scaled to H[2, 2] = 1 and a mask of the
    non-degenerate ones. At n = 4 the 8x9 system needs the full SVD for its
    null vector; above that the thin SVD has the same last row of Vt.
    """
    n = src.shape[-2]
    sn, Ts = _normalize_points(src)
    dn, Td = _normalize_points(dst)
    A = np.zeros(src.shape[:-2] + (2 * n, 9))
    x, y = sn[..., 0], sn[..., 1]
    u, v = dn[..., 0], dn[..., 1]
    A[..., 0::2, 0] = x
    A[..., 0::2, 1] = y
    A[..., 0::2, 2] = 1.0
    A[..., 0::2, 6] = -u * x
    A[..., 0::2, 7] = -u * y
    A[..., 0::2, 8] = -u
    A[..., 1::2, 3] = x
    A[..., 1::2, 4] = y
    A[..., 1::2, 5] = 1.0
    A[..., 1::2, 6] = -v * x
    A[..., 1::2, 7] = -v * y
    A[..., 1::2, 8] = -v
    _, sigma, Vt = np.linalg.svd(A, full_matrices=n == 4)
    bad = np.zeros(src.shape[:-2], dtype=bool)
    if n == 4:  # rank-deficient sample (collinear points)
        bad = sigma[..., -2] < 1e-8 * np.maximum(sigma[..., 0], 1.0)
    Hn = Vt[..., -1, :].reshape(src.shape[:-2] + (3, 3))
    H = np.linalg.inv(Td) @ Hn @ Ts
    bad |= np.abs(H[..., 2, 2]) < 1e-12
    return H / np.where(bad, 1.0, H[..., 2, 2])[..., None, None], ~bad


def fit_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Direct linear transform on normalized coordinates; None if degenerate,
    which includes a 4-point sample with 3 collinear points on either side
    (the DLT alone catches only the source side)."""
    if src.shape[0] < 4:
        return None
    if src.shape[0] == 4 and (_collinear(src[None]) | _collinear(dst[None]))[0]:
        return None
    H, ok = _dlt(src, dst)
    return H if ok else None


def _apply_homography(H: np.ndarray, pts: np.ndarray) -> np.ndarray:
    q = pts @ H[..., :2].swapaxes(-1, -2) + H[..., None, :, 2]
    w = q[..., 2]
    bad = np.abs(w) < 1e-12
    w = np.where(bad, 1e-12, w)
    out = q[..., :2] / w[..., None]
    out[bad] = np.inf
    return out


def _transfer_error(H: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Symmetric transfer error of every pair under each of a stack of
    (..., 3, 3) models; a singular model scores inf on every pair."""
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        if H.ndim == 2:
            return np.full(src.shape[0], np.inf)
        # one singular model fails the stacked inverse; score them one by one
        return np.stack([_transfer_error(h, src, dst) for h in H])
    fwd = _apply_homography(H, src) - dst
    bwd = _apply_homography(Hinv, dst) - src
    return np.sqrt(np.sum(fwd**2, axis=-1) + np.sum(bwd**2, axis=-1))


def symmetric_transfer_error(H: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair symmetric transfer error in pixels."""
    return _transfer_error(H, src, dst)


# the four 3-point subsets of a sample's first four points
_TRIANGLES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _collinear(pts: np.ndarray) -> np.ndarray:
    """Per sample of a (k, m, 2) stack: True if any 3 of its first 4 points
    are (near-)collinear."""
    tri = pts[:, _TRIANGLES]
    a = tri[..., 1, :] - tri[..., 0, :]
    b = tri[..., 2, :] - tri[..., 0, :]
    area = 0.5 * np.abs(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    return np.any(area < 1e-6, axis=-1)


def _score_samples(src, dst, samples, threshold):
    """Fit and score one chunk of (k, m) samples at once.

    Returns the (k, 3, 3) models and (k, n) inlier masks; a collinear or
    degenerate sample keeps an all-False mask.
    """
    models = np.zeros((len(samples), 3, 3))
    masks = np.zeros((len(samples), len(src)), dtype=bool)
    s, d = src[samples], dst[samples]
    fit = np.flatnonzero(~(_collinear(s) | _collinear(d)))
    H, ok = _dlt(s[fit], d[fit])
    fit, H = fit[ok], H[ok]
    if fit.size:
        models[fit] = H
        masks[fit] = _transfer_error(H, src, dst) <= threshold
    return models, masks


def ransac_inliers(
    C: CorrespondenceSet, cfg: RansacConfig, rng: np.random.Generator | None = None
) -> InlierSet:
    """Largest homography consensus over the correspondence set.

    Adaptive iteration count from the standard confidence bound; the
    winning model is refit on its inliers and the set re-thresholded so
    every returned pair satisfies the threshold under the returned model.
    Bit-reproducible for a fixed (input, seed) when no generator is given.

    Hypotheses are drawn, fitted and scored CHUNK at a time, then accepted
    in draw order exactly as one at a time; when the stopping bound falls
    inside a chunk, the generator is rewound so it ends where a serial loop
    would leave it.
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
    done = False
    while not done:
        state = rng.bit_generator.state
        k = min(CHUNK, min(needed, cfg.max_iterations) - it)
        samples = np.array(
            [rng.choice(n, size=cfg.min_sample, replace=False) for _ in range(k)]
        )
        models, masks = _score_samples(src, dst, samples, cfg.inlier_threshold)
        for j, count in enumerate(masks.sum(axis=1).tolist()):
            it += 1
            if count > best_count:
                best_count = count
                best_mask = masks[j]
                best_model = models[j]
                w = count / n
                if w >= 1.0:
                    done = True
                else:
                    denom = np.log1p(-min(w**cfg.min_sample, 1 - 1e-12))
                    needed = int(np.ceil(np.log1p(-cfg.confidence) / denom))
            done = done or it >= min(needed, cfg.max_iterations)
            if done:
                if j + 1 < k:  # leave the generator after draw j, not draw k
                    rng.bit_generator.state = state
                    for _ in range(j + 1):
                        rng.choice(n, size=cfg.min_sample, replace=False)
                break

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
