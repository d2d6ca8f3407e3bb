"""Descriptor nearest-neighbour matching, RANSAC outlier rejection seeded by
a prior model, with closed-form 4-point homography hypotheses and a
normalized-DLT local refit, and the tracking lock that restricts matching
to the previous cycle's inlier targets near convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewCorrespondences
from .features import FeatureSet

MIN_SAMPLE = 4  # pairs that fix a homography
CHUNK = 8  # RANSAC hypotheses drawn, fitted and scored per batch


@dataclass(frozen=True)
class RansacConfig:
    # pixels: hypotheses are scored by the one-sided transfer error, the
    # returned set by the symmetric one
    inlier_threshold: float = 2.0
    max_iterations: int = 1000
    confidence: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.inlier_threshold <= 0:
            raise ValueError("inlier_threshold must be positive")
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True)
class CorrespondenceSet:
    """Matched (current, target) keypoint pairs, ascending descriptor distance."""

    current_indices: np.ndarray  # (n,) into the current FeatureSet
    target_indices: np.ndarray  # (n,) into the target FeatureSet
    distances: np.ndarray  # (n,) float32 descriptor distances
    current_pixels: np.ndarray  # (n, 2)
    target_pixels: np.ndarray  # (n, 2)

    def __len__(self) -> int:
        return self.distances.size


@dataclass(frozen=True)
class InlierSet(CorrespondenceSet):
    """The RANSAC-accepted pairs of a CorrespondenceSet, with their rows in it
    and the accepted model."""

    indices: np.ndarray  # (l,) rows of the matched set, ascending
    model: np.ndarray  # 3x3 homography mapping current -> target pixels


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two descriptor arrays hold equal values, rejecting on shape
    and row 0 before the full comparison."""
    return a is b or (
        a.shape == b.shape
        and (a.size == 0 or np.array_equal(a[0], b[0]))
        and np.array_equal(a, b)
    )


def match_nn(
    current: FeatureSet,
    target: FeatureSet,
    last: tuple[np.ndarray, np.ndarray, CorrespondenceSet] | None = None,
) -> CorrespondenceSet:
    """Mutual Euclidean nearest-neighbour matching on descriptors.

    A pair survives only if each side is the other's nearest neighbour, so
    no target index appears twice. Equal distances resolve to the lowest
    index.

    `last` is an earlier call's (current descriptors, target descriptors,
    result). When both descriptor arrays equal this call's, its indices and
    distances, which depend on the descriptors alone, are returned as they
    are, with the pixels gathered from this call's sets.
    """
    if last is not None and _same_rows(last[1], target.descriptors) and _same_rows(
        last[0], current.descriptors
    ):
        C = last[2]
        cur_idx, tgt_idx, dist = C.current_indices, C.target_indices, C.distances
        return CorrespondenceSet(
            cur_idx, tgt_idx, dist, current.pixels[cur_idx], target.pixels[tgt_idx]
        )
    if len(current) == 0 or len(target) == 0:
        return CorrespondenceSet(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float32),
            np.zeros((0, 2)),
            np.zeros((0, 2)),
        )

    # float32 squared distances via gemm, in place: -2G + (|a|^2 + |b|^2)
    # takes the same rounding steps as (|a|^2 + |b|^2) - 2G; argmin picks the
    # lowest index on ties
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
    # read-only, as a later call may hand them out again
    for a in (cur_idx, tgt_idx, dist):
        a.setflags(write=False)
    return CorrespondenceSet(
        cur_idx, tgt_idx, dist, current.pixels[cur_idx], target.pixels[tgt_idx]
    )


def _normalize_points(pts: np.ndarray):
    """Hartley normalization of (..., n, 2) point sets: zero centroid, mean
    distance sqrt(2); returns the normalized points and the (..., 3, 3) T."""
    n = pts.shape[-2]
    c = pts.sum(axis=-2, keepdims=True) / n
    d = pts - c
    scale = np.sqrt(2.0) / (np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2).sum(axis=-1) / n + 1e-12)
    T = np.zeros(scale.shape + (3, 3))
    T[..., 0, 0] = T[..., 1, 1] = scale
    T[..., 0, 2] = -scale * c[..., 0, 0]
    T[..., 1, 2] = -scale * c[..., 0, 1]
    T[..., 2, 2] = 1.0
    return d * scale[..., None, None], T


def _dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Normalized DLT of n >= 5 pairs, scaled to H[2, 2] = 1; None if degenerate.

    The 2n x 9 system A of the Hartley-normalized pairs has the rows
    (p, 0, -u p) and (0, p, -v p), p = (x, y, 1). Its 9x9 normal matrix
    M = A^T A is assembled from the 3x3 blocks of one product
    P^T [P, uP, vP, (u^2 + v^2) P], and the model is the eigenvector of M's
    smallest eigenvalue. A second eigenvalue near zero (three, when all
    source points lie on one line) leaves the model unfixed, and a model of
    rank 2 (all target points on one line) is no homography. One Newton
    step, with the gradient A^T A h taken through the residuals A h, undoes
    the error that squaring A into M adds: the model then lies within
    rounding of the exact null vector of A, as close as the SVD's.
    """
    n = src.shape[0]
    (sn, dn), (Ts, Td) = _normalize_points(np.stack([src, dst]))
    P = np.ones((n, 3))
    P[:, :2] = sn
    W = np.ones((n, 4))
    W[:, 1:3] = dn
    W[:, 3] = dn[:, 0] ** 2 + dn[:, 1] ** 2
    G = P.T @ (W[:, :, None] * P[:, None, :]).reshape(n, 12)
    # eigh reads the lower triangle only
    M = np.zeros((9, 9))
    M[0:3, 0:3] = M[3:6, 3:6] = G[:, 0:3]
    M[6:9, 0:3] = -G[:, 3:6].T
    M[6:9, 3:6] = -G[:, 6:9].T
    M[6:9, 6:9] = G[:, 9:12]
    ev, V = np.linalg.eigh(M)
    if ev[1] <= 1e-12 * ev[8]:
        return None
    h, B = V[:, 0], V[:, 1:]
    q = P @ h.reshape(3, 3).T
    r = q[:, :2] - dn * q[:, 2:]  # the residuals A h, one (x, y) row per pair
    E = np.empty((n, 3))
    E[:, :2] = r
    E[:, 2] = -(r[:, 0] * dn[:, 0] + r[:, 1] * dn[:, 1])
    grad = (E.T @ P).ravel()  # A^T A h
    Hn = (h - B @ ((grad @ B) / (ev[1:] - ev[0]))).reshape(3, 3)
    # a model of rank 2 maps every point onto one line: the target side
    # lies on one line
    if abs(np.linalg.det(Hn)) < 1e-10:
        return None
    H = np.linalg.inv(Td) @ Hn @ Ts
    if abs(H[2, 2]) < 1e-12:
        return None
    return H / H[2, 2]


def _minimal_fit(src: np.ndarray, dst: np.ndarray):
    """Closed-form homographies of a (k, 4, 2) stack of 4-point samples.

    With each side's first three points, lifted to w = 1, as the columns of
    P and Q, entry i of lam = adj(P) p4 and of mu = adj(Q) q4 is twice the
    signed area of the triangle that leaves out point i, as det(P) and
    det(Q) are for point 4. H = Q diag(mu / lam) adj(P) / det(Q) maps each
    p_i onto q_i, and p4 with w = 1. A sample is degenerate when any of
    these four triangles has an area below 1e-6 on either side (three
    points near one line).

    Returns the (k, 3, 3) models, zero where degenerate, and a mask of the
    non-degenerate ones.
    """
    p = np.stack([src, dst])
    # per side: lam_1, lam_2, lam_3 and det(P) as cross products of edges
    base = p[..., [1, 0, 0, 0], :]
    a = p[..., [2, 3, 1, 1], :] - base
    b = p[..., [3, 2, 3, 2], :] - base
    area2 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    ok = np.abs(area2).min(axis=(0, 2)) >= 2e-6
    scale = np.where(ok[:, None], area2[1, :, :3], 0.0)
    scale /= np.where(ok[:, None], area2[0, :, :3] * area2[1, :, 3:], 1.0)
    # row r of adj(P) is the cross product of the lifted points u[r] and v[r]
    u, v = src[:, [1, 2, 0]], src[:, [2, 0, 1]]
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    adj_p = np.stack([u[..., 1] - v[..., 1], v[..., 0] - u[..., 0], cross], axis=-1)
    Q = np.concatenate([dst[:, :3], np.ones((len(dst), 3, 1))], axis=2).swapaxes(1, 2)
    return (Q * scale[:, None, :]) @ adj_p, ok


def fit_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Homography mapping src onto dst pixels, scaled to H[2, 2] = 1; None if
    degenerate. Four pairs take the closed form of `_minimal_fit`, which
    rejects three near-collinear points on either side; more take the
    normalized DLT of `_dlt`."""
    if src.shape[0] < 4:
        return None
    if src.shape[0] == 4:
        H, ok = _minimal_fit(src[None], dst[None])
        H, ok = H[0], ok[0] and abs(H[0, 2, 2]) >= 1e-12
        return H / H[2, 2] if ok else None
    return _dlt(src, dst)


def _apply_homography(H: np.ndarray, pts: np.ndarray) -> np.ndarray:
    q = pts @ H[:, :2].T + H[:, 2]
    w = q[:, 2]
    bad = np.abs(w) < 1e-12
    w = np.where(bad, 1e-12, w)
    out = q[:, :2] / w[:, None]
    out[bad] = np.inf
    return out


def symmetric_transfer_error(H: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair symmetric transfer error in pixels; a singular model scores
    inf on every pair."""
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        return np.full(src.shape[0], np.inf)
    fwd = _apply_homography(H, src) - dst
    bwd = _apply_homography(Hinv, dst) - src
    return np.sqrt(np.sum(fwd**2, axis=1) + np.sum(bwd**2, axis=1))


def _one_sided_inliers(H, src, dst, threshold):
    """(k, n) masks of the pairs within `threshold` px of their forward
    transfer under each of a stack of models, without dividing by w:
    |q_xy - dst * q_w|^2 <= threshold^2 * q_w^2 and q_w > 0."""
    q = src @ H[..., :2].swapaxes(-1, -2) + H[..., None, :, 2]
    w = q[..., 2]
    r = q[..., :2] - dst * w[..., None]
    return (r[..., 0] ** 2 + r[..., 1] ** 2 <= threshold**2 * w**2) & (w > 0)


def _iteration_bound(count: int, n: int, cfg: RansacConfig) -> int:
    """Hypotheses needed, by the standard confidence formula, to draw one
    all-inlier sample when `count` of the n pairs are inliers; 0 when all are."""
    w = count / n
    if w >= 1.0:
        return 0
    denom = np.log1p(-min(w**MIN_SAMPLE, 1 - 1e-12))
    return min(cfg.max_iterations, int(np.ceil(np.log1p(-cfg.confidence) / denom)))


def ransac_inliers(
    C: CorrespondenceSet,
    cfg: RansacConfig,
    rng: np.random.Generator | None = None,
    prior: np.ndarray | None = None,
) -> InlierSet:
    """Largest homography consensus over the correspondence set.

    A `prior` model (in the servo loop, the last cycle's model moved on by
    the last image motion) is scored first by the symmetric transfer error.
    When it holds every pair it is returned with all of them, and no
    hypothesis is drawn. When it holds at least MIN_SAMPLE pairs it is refit
    on them, the refit kept when it holds at least as many, and that count
    is the best so far, both for the returned set and for the one-sided
    support a chunk's hypothesis must beat to be refit; fewer, and it is
    dropped.

    Hypotheses are drawn CHUNK at a time, one `rng.random` call per chunk.
    They are fitted in closed form (a degenerate sample gets the zero model,
    which holds no pair) and scored by their one-sided transfer error. Each
    chunk's best hypothesis, when it beats every earlier one, is refit on
    its support and re-thresholded by the symmetric transfer error (local
    optimisation); a count above the best so far picks the returned set and
    sets the adaptive iteration bound from the standard confidence formula.
    Every returned pair satisfies the threshold under the returned model,
    which is never singular. Bit-reproducible for a fixed (input, seed,
    prior) when no generator is given.
    """
    n = len(C)
    if n < MIN_SAMPLE:
        raise TooFewCorrespondences(f"{n} pairs < {MIN_SAMPLE}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    src, dst = C.current_pixels, C.target_pixels
    t = cfg.inlier_threshold

    best_count = best_support = 0
    best_mask = best_model = None
    limit = cfg.max_iterations
    if prior is not None:
        model, mask = prior, symmetric_transfer_error(prior, src, dst) <= t
        count = int(mask.sum())
        if MIN_SAMPLE <= count < n:
            # local optimisation, kept when it holds at least as many pairs
            refit = fit_homography(src[mask], dst[mask])
            if refit is not None:
                refit_mask = symmetric_transfer_error(refit, src, dst) <= t
                if refit_mask.sum() >= count:
                    model, mask, count = refit, refit_mask, int(refit_mask.sum())
        if count >= MIN_SAMPLE:
            best_support = best_count = count
            best_mask, best_model = mask, model
            limit = _iteration_bound(count, n, cfg)
    it = 0
    while it < limit:
        k = min(CHUNK, limit - it)
        it += k
        samples = np.argpartition(rng.random((k, n)), MIN_SAMPLE - 1, axis=1)[:, :MIN_SAMPLE]
        H = _minimal_fit(src[samples], dst[samples])[0]
        masks = _one_sided_inliers(H, src, dst, t)
        counts = masks.sum(axis=1)
        j = int(np.argmax(counts))
        if counts[j] <= best_support:
            continue
        best_support = counts[j]
        # local optimisation; keep the hypothesis when the refit fails
        model = fit_homography(src[masks[j]], dst[masks[j]])
        if model is not None:
            mask = symmetric_transfer_error(model, src, dst) <= t
        if model is None or mask.sum() < MIN_SAMPLE:
            model = H[j]
            mask = symmetric_transfer_error(model, src, dst) <= t
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask, best_model = count, mask, model
            limit = _iteration_bound(count, n, cfg)

    if best_mask is None or best_count < MIN_SAMPLE:
        raise TooFewCorrespondences("no non-degenerate consensus found")
    keep = np.flatnonzero(best_mask)
    return InlierSet(
        C.current_indices[keep],
        C.target_indices[keep],
        C.distances[keep],
        src[keep],
        dst[keep],
        indices=keep,
        model=best_model,
    )


def tracking_update(
    locked: FeatureSet | None,
    matched_target: FeatureSet,
    inliers: InlierSet,
    mean_error: float,
    threshold: float,
) -> FeatureSet | None:
    """The target subset the next cycle matches against, None for the full set.

    Matching locks onto the inlier targets once the mean error first drops
    below `threshold`. `matched_target` must be the set the cycle's
    correspondences index into (the locked subset once locked), so a locked
    subset only shrinks. Inliers that keep every row in order give back
    `matched_target` itself.
    """
    if locked is None and mean_error >= threshold:
        return None
    idx = inliers.target_indices
    # idx[0] rejects most reordered sets before the full comparison
    n = len(matched_target)
    if idx.size == n and idx[0] == 0 and np.array_equal(idx, np.arange(n)):
        return matched_target
    return matched_target.subset(idx)
