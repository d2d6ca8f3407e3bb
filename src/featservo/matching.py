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
CHUNK = 8  # RANSAC hypotheses per step: each step's best may be refit and lower the bound
# hypotheses x pairs that a block after the first draws, fits and scores at
# most: cut short by a falling bound, it wastes about one chunk's fixed cost
BLOCK_ELEMENTS = 1024
# _minimal_fit's point indices, as arrays once rather than lists per call
_BASE, _EDGE_A, _EDGE_B = np.array([1, 0, 0, 0]), np.array([2, 3, 1, 1]), np.array([3, 2, 3, 2])
_ADJ_U, _ADJ_V = np.array([1, 2, 0]), np.array([2, 0, 1])


@dataclass(frozen=True)
class RansacConfig:
    # pixels: hypotheses are scored by the one-sided transfer error, the
    # returned set by the symmetric one
    inlier_threshold: float = 2.0
    max_iterations: int = 1000
    confidence: float = 0.999
    seed: int = 0

    def __post_init__(self):
        # checks in positive form, so NaN (every comparison false) fails them
        if not 0 < self.inlier_threshold < np.inf:
            raise ValueError("inlier_threshold must be positive and finite")
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True)
class CorrespondenceSet:
    """Matched (current, target) keypoint pairs, ascending descriptor distance."""

    current_indices: np.ndarray  # (n,) into the current FeatureSet
    target_indices: np.ndarray  # (n,) into the target FeatureSet
    current_pixels: np.ndarray  # (n, 2)
    target_pixels: np.ndarray  # (n, 2)

    def __len__(self) -> int:
        return self.current_indices.size


@dataclass(frozen=True)
class InlierSet(CorrespondenceSet):
    """The RANSAC-accepted pairs of a CorrespondenceSet, with their rows in it
    and the accepted model."""

    indices: np.ndarray  # (l,) rows of the matched set, ascending
    model: np.ndarray  # 3x3 homography mapping current -> target pixels


def match_nn(current: FeatureSet, target: FeatureSet) -> CorrespondenceSet:
    """Mutual Euclidean nearest-neighbour matching on descriptors.

    A pair survives only if each side is the other's nearest neighbour, so
    no target index appears twice. Equal distances resolve to the lowest
    index. The pairs come in ascending distance, equal distances in current
    index order. The indices depend on the descriptors alone.
    """
    if len(current) == 0 or len(target) == 0:
        none = np.zeros(0, dtype=np.int64)
        return CorrespondenceSet(none, none, np.zeros((0, 2)), np.zeros((0, 2)))

    # float32 squared distances of unit rows via gemm, in place:
    # |a - b|^2 = 2 - 2a.b; argmin picks the lowest index on ties
    d2 = current.descriptors @ target.descriptors.T
    d2 *= -2.0
    d2 += 2.0
    np.maximum(d2, 0.0, out=d2)
    nearest_tgt = np.argmin(d2, axis=1)
    nearest_cur = np.argmin(d2, axis=0)
    keep = nearest_cur[nearest_tgt] == np.arange(len(current))
    cur_idx = np.flatnonzero(keep).astype(np.int64, copy=False)
    tgt_idx = nearest_tgt[cur_idx].astype(np.int64, copy=False)
    order = np.argsort(d2[cur_idx, tgt_idx], kind="stable")
    cur_idx, tgt_idx = cur_idx[order], tgt_idx[order]
    # read-only, as the servo loop may hand them out again
    cur_idx.setflags(write=False)
    tgt_idx.setflags(write=False)
    return CorrespondenceSet(cur_idx, tgt_idx, current.pixels[cur_idx], target.pixels[tgt_idx])


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
    (p, 0, -u p) and (0, p, -v p), p = (x, y, 1), and the model is the
    eigenvector of the smallest eigenvalue of A^T A. A second eigenvalue
    near zero (three, when all source points lie on one line) leaves the
    model unfixed, and a model of rank 2 (all target points on one line) is
    no homography. One Newton step, with the gradient A^T (A h), undoes the
    error that squaring A adds: the model then lies within rounding of the
    exact null vector of A, as close as the SVD's.
    """
    n = src.shape[0]
    (sn, dn), (Ts, Td) = _normalize_points(np.stack([src, dst]))
    A = np.zeros((n, 2, 9))
    A[:, 0, 0:2] = A[:, 1, 3:5] = sn
    A[:, 0, 2] = A[:, 1, 5] = 1.0
    A[:, :, 6:9] = -dn[:, :, None] * A[:, :1, 0:3]
    A = A.reshape(2 * n, 9)
    ev, V = np.linalg.eigh(A.T @ A)
    if ev[1] <= 1e-12 * ev[8]:
        return None
    h, B = V[:, 0], V[:, 1:]
    grad = A.T @ (A @ h)
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
    base = p[..., _BASE, :]
    a = p[..., _EDGE_A, :] - base
    b = p[..., _EDGE_B, :] - base
    area2 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    ok = np.abs(area2).min(axis=(0, 2)) >= 2e-6
    scale = np.where(ok[:, None], area2[1, :, :3], 0.0)
    scale /= np.where(ok[:, None], area2[0, :, :3] * area2[1, :, 3:], 1.0)
    # row r of adj(P) is the cross product of the lifted points u[r] and v[r]
    u, v = src[:, _ADJ_U], src[:, _ADJ_V]
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


def _residuals(H: np.ndarray, pts: np.ndarray, to: np.ndarray):
    """The (x, y) columns of H applied to (n, 2) points, minus `to`; inf
    where |w| < 1e-12."""
    x, y, w = (pts @ H[:, :2].T + H[:, 2]).T
    bad = np.abs(w) < 1e-12
    if bad.any():
        w = np.where(bad, 1e-12, w)
        x, y = x / w, y / w
        x[bad] = y[bad] = np.inf
        return x - to[:, 0], y - to[:, 1]
    return x / w - to[:, 0], y / w - to[:, 1]


def symmetric_transfer_error(H: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair symmetric transfer error in pixels; a singular model scores
    inf on every pair."""
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        return np.full(src.shape[0], np.inf)
    # by columns, which for two is bit for bit np.sum(r**2, axis=1)
    fx, fy = _residuals(H, src, dst)
    bx, by = _residuals(Hinv, dst, src)
    return np.sqrt((fx * fx + fy * fy) + (bx * bx + by * by))


def _one_sided_inliers(H, src, dst, threshold):
    """(k, n) masks of the pairs within `threshold` px of their forward
    transfer under each of a stack of models, without dividing by w:
    |q_xy - dst * q_w|^2 <= threshold^2 * q_w^2 and q_w > 0."""
    q = src @ H[..., :2].swapaxes(-1, -2) + H[..., None, :, 2]
    w = q[..., 2]
    r = q[..., :2] - dst * w[..., None]
    # a huge threshold squares to inf, and inf * 0 is NaN: both compare as
    # they should, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return (r[..., 0] ** 2 + r[..., 1] ** 2 <= threshold * threshold * w**2) & (w > 0)


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
    the control law's decay) is scored first by the symmetric transfer error.
    When it holds every pair it is returned with all of them, and no
    hypothesis is drawn. When it holds at least MIN_SAMPLE pairs it is refit
    on them, the refit kept when it holds at least as many, and that count
    is the best so far, both for the returned set and for the one-sided
    support a chunk's hypothesis must beat to be refit; fewer, and it is
    dropped.

    Hypotheses are drawn, fitted in closed form (a degenerate sample gets
    the zero model, which holds no pair) and scored by their one-sided
    transfer error in blocks: one `rng.random((size, n))` call, one fit and
    one score per block. The first block is one chunk; each later one covers
    what the bound still allows, up to BLOCK_ELEMENTS hypothesis-pair
    scores. A block is walked CHUNK hypotheses at a time. Each chunk's best
    hypothesis, when it beats every earlier one, is refit on its support
    and re-thresholded by the symmetric transfer error (local
    optimisation); a count above the best so far picks the returned set and
    sets the adaptive iteration bound from the standard confidence formula.
    When the bound falls inside a block, the generator goes back to the
    block's start and draws the walked chunks again, so the outputs and the
    generator's final state are those of drawing each chunk alone.
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
    it, rows = 0, CHUNK  # the first block is one chunk
    while it < limit:
        start, end = it, min(it + rows, limit)
        state = rng.bit_generator.state if end - start > CHUNK else None
        samples = np.argpartition(rng.random((end - start, n)), MIN_SAMPLE - 1,
                                  axis=1)[:, :MIN_SAMPLE]
        H = _minimal_fit(src[samples], dst[samples])[0]
        masks = _one_sided_inliers(H, src, dst, t)
        counts = masks.sum(axis=1)
        while it < min(end, limit):
            lo, k = it - start, min(CHUNK, limit - it)
            it += k
            j = lo + int(np.argmax(counts[lo:lo + k]))
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
        if it < end:  # the bound fell inside the block: redraw the walked chunks
            rng.bit_generator.state = state
            rng.random((it - start, n))
        rows = max(CHUNK, BLOCK_ELEMENTS // n // CHUNK * CHUNK)

    if best_mask is None or best_count < MIN_SAMPLE:
        raise TooFewCorrespondences("no non-degenerate consensus found")
    if best_count == n:  # every pair holds: C's own arrays, not gathered again
        return InlierSet(C.current_indices, C.target_indices, src, dst,
                         indices=np.arange(n), model=best_model)
    keep = np.flatnonzero(best_mask)
    return InlierSet(C.current_indices[keep], C.target_indices[keep], src[keep], dst[keep],
                     indices=keep, model=best_model)


def tracking_update(target: FeatureSet, inliers: InlierSet) -> FeatureSet:
    """The tracking lock a cycle's inliers leave: `target`'s inlier rows in
    row order, or `target` itself when the inliers cover every row.

    `target` must be the set the cycle's correspondences index into (the
    lock once locked), so a lock only shrinks and keeps its rows in the
    render's order; returning `target` itself saves the copy. When to lock,
    and when to give a lock up, is the servo loop's to decide.
    """
    # the target rows of mutual nearest-neighbour pairs are distinct
    idx = inliers.target_indices
    if idx.size == len(target):
        return target
    return target.subset(np.sort(idx))
