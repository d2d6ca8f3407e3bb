"""Simulated world and closed servo loop: landmark scenes with clutter,
noiseless target rendering with exact feature depths, and the
detect/match/reject/control cycle driven to convergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .control import ControlConfig, control_law, stack_interaction
from .errors import TooFewCorrespondences, TooFewVisibleLandmarks
from .features import (
    FeatureSet,
    SyntheticDetectorConfig,
    _ranked_rows,
    _visible,
    landmark_scores,
    synthetic_detect,
    top_k,
)
from .geometry import CameraIntrinsics, Pose, integrate_twist, pixel_to_normalized
from .matching import RansacConfig, match_nn, ransac_inliers, tracking_update

DEFAULT_INTRINSICS = CameraIntrinsics(fx=600.0, fy=600.0, cx=160.0, cy=120.0, width=320, height=240)

_INSUFFICIENT_LIMIT = 10  # consecutive starved cycles before giving up


class Scene:
    """3D landmark world: object landmarks (rendered in target views) plus
    clutter landmarks visible only in current views.

    Canonical descriptors are drawn in float64 from the seed, normalized and
    stored as float32. Points, descriptors, ids and detection scores live in
    one read-only table, object rows first; the per-group attributes are row
    views of it.
    """

    def __init__(
        self,
        object_points,
        clutter_points,
        seed: int,
        object_normals=None,
        max_incidence_deg: float | None = None,
        descriptor_dim: int = 256,
    ):
        obj = np.asarray(object_points, dtype=float).reshape(-1, 3)
        points = np.vstack([obj, np.asarray(clutter_points, dtype=float).reshape(-1, 3)])
        n = obj.shape[0]
        self.seed = int(seed)
        self.descriptor_dim = int(descriptor_dim)
        self.max_incidence_deg = max_incidence_deg
        if object_normals is not None:
            object_normals = np.asarray(object_normals, dtype=float).reshape(-1, 3)
            if object_normals.shape[0] != n:
                raise ValueError("one normal per object landmark required")
            object_normals = object_normals / np.linalg.norm(object_normals, axis=1, keepdims=True)
        self.object_normals = object_normals

        rng = np.random.default_rng(self.seed)
        desc = rng.normal(size=(points.shape[0], self.descriptor_dim))
        desc /= np.linalg.norm(desc, axis=1, keepdims=True)
        self._set_table(points, desc.astype(np.float32), n)

    def _set_table(self, points: np.ndarray, descriptors: np.ndarray, n_object: int) -> None:
        """Make (points, descriptors) the landmark table; its first n_object
        rows are the object landmarks, and row i has id i and score
        landmark_scores(seed, i)."""
        self._ids = np.arange(points.shape[0], dtype=np.int64)
        self.scores = landmark_scores(self.seed, self._ids)
        self._points, self._descriptors = points, descriptors
        for a in (points, descriptors, self._ids, self.scores):
            a.setflags(write=False)
        self.object_points, self.clutter_points = points[:n_object], points[n_object:]
        self.object_descriptors = descriptors[:n_object]
        self.clutter_descriptors = descriptors[n_object:]
        self.object_ids, self.clutter_ids = self._ids[:n_object], self._ids[n_object:]

    @property
    def n_object(self) -> int:
        return self.object_points.shape[0]

    @property
    def n_clutter(self) -> int:
        return self.clutter_points.shape[0]

    def current_view_landmarks(self):
        """Everything a current-view detector can see, object rows then
        clutter rows: the (points, descriptors, ids) table itself."""
        return self._points, self._descriptors, self._ids

    def view_cone_mask(self, points: np.ndarray, camera_position: np.ndarray) -> np.ndarray:
        """Per-landmark visibility from a camera position, by incidence angle.

        Only object landmarks carry normals; clutter always passes.
        """
        mask = np.ones(points.shape[0], dtype=bool)
        if self.object_normals is None or self.max_incidence_deg is None:
            return mask
        n = self.n_object
        to_cam = camera_position - points[:n]
        to_cam /= np.linalg.norm(to_cam, axis=1, keepdims=True) + 1e-300
        cos_inc = np.sum(to_cam * self.object_normals, axis=1)
        mask[:n] = cos_inc >= np.cos(np.deg2rad(self.max_incidence_deg))
        return mask

    def without_clutter(self) -> "Scene":
        """The same scene without clutter; its table is the object rows of
        this one, so the object descriptors are shared, not regenerated."""
        scene = Scene.__new__(Scene)
        vars(scene).update(vars(self))
        scene._set_table(self.object_points, self.object_descriptors, self.n_object)
        return scene


def _clutter_shell(rng: np.random.Generator, n: int, shell: tuple[float, float]) -> np.ndarray:
    """n points uniform in volume between two spheres around the origin."""
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True) + 1e-300
    lo, hi = shell
    radius = rng.uniform(lo**3, hi**3, size=n) ** (1.0 / 3.0)
    return direction * radius[:, None]


def make_box_scene(
    seed: int,
    n_object: int = 120,
    n_clutter: int = 100,
    box_size: float = 0.12,
    clutter_shell: tuple[float, float] = (0.15, 0.30),
    view_cone_deg: float | None = 85.0,
    descriptor_dim: int = 256,
) -> Scene:
    """Landmarks on three faces of a box at the origin plus a clutter shell.

    The face at z = -size/2 faces a camera placed on the -z axis; the two
    side faces only become visible from tilted viewpoints, which reproduces
    features that exist in one image but not the other.
    """
    rng = np.random.default_rng([seed, 0xB0])
    half = box_size / 2.0
    n_front = int(round(0.6 * n_object))
    n_side = (n_object - n_front) // 2
    n_side2 = n_object - n_front - n_side

    def face(n, fixed_axis, fixed_value, normal):
        pts = rng.uniform(-half, half, size=(n, 3))
        pts[:, fixed_axis] = fixed_value
        normals = np.tile(np.asarray(normal, dtype=float), (n, 1))
        return pts, normals

    f0, nrm0 = face(n_front, 2, -half, (0.0, 0.0, -1.0))
    f1, nrm1 = face(n_side, 0, half, (1.0, 0.0, 0.0))
    f2, nrm2 = face(n_side2, 1, -half, (0.0, -1.0, 0.0))
    object_points = np.vstack([f0, f1, f2])
    object_normals = np.vstack([nrm0, nrm1, nrm2]) if view_cone_deg is not None else None
    return Scene(
        object_points,
        _clutter_shell(rng, n_clutter, clutter_shell),
        seed,
        object_normals,
        view_cone_deg,
        descriptor_dim,
    )


def make_planar_scene(
    seed: int,
    n_object: int = 80,
    n_clutter: int = 0,
    extent: float = 0.12,
    clutter_shell: tuple[float, float] = (0.15, 0.30),
    descriptor_dim: int = 256,
) -> Scene:
    """Landmarks on the z = 0 plane: all views of the object are related by
    an exact homography, so the consensus set stays stable across cycles."""
    rng = np.random.default_rng([seed, 0xF1])
    half = extent / 2.0
    pts = rng.uniform(-half, half, size=(n_object, 3))
    pts[:, 2] = 0.0
    return Scene(pts, _clutter_shell(rng, n_clutter, clutter_shell), seed, None, None, descriptor_dim)


def render_target(scene: Scene, target_pose: Pose, intrinsics: CameraIntrinsics) -> FeatureSet:
    """Noiseless feature render of the target view, with exact depths.

    Only object landmarks appear; clutter is never part of the target.
    """
    pixels, depths, visible = _visible(scene, scene.object_points, target_pose, intrinsics)
    idx = np.flatnonzero(visible)
    if idx.size < 3:
        raise TooFewVisibleLandmarks(f"only {idx.size} object landmarks visible from target pose")
    rows, scores = _ranked_rows(scene, idx, pixels, scene.object_ids)
    return FeatureSet(
        pixels[rows],
        scene.object_descriptors[rows],
        scores,
        (intrinsics.width, intrinsics.height),
        depths=depths[rows],
        landmark_ids=scene.object_ids[rows],
    )


@dataclass(frozen=True)
class ServoRunConfig:
    target_pose: Pose
    initial_pose: Pose
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    control: ControlConfig = field(default_factory=ControlConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)
    detector: SyntheticDetectorConfig = field(default_factory=SyntheticDetectorConfig)
    dt: float = 0.05
    tracking_threshold: float = 10.0  # px mean error to enter tracking mode
    success_threshold: float = 2.0  # px mean inlier error for convergence
    max_cycles: int = 400
    top_k: int = 500
    use_current_interaction: bool = False  # diagnostic: true L(s, Z) each cycle

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not isinstance(self.tracking_threshold, (int, float)):
            raise ValueError("tracking_threshold must be a number")
        if self.success_threshold <= 0:
            raise ValueError("success_threshold must be positive")
        if type(self.max_cycles) is not int or self.max_cycles < 1:
            raise ValueError("max_cycles must be an integer >= 1")
        if type(self.top_k) is not int or self.top_k < 0:
            raise ValueError("top_k must be an integer >= 0")


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    pose: Pose  # camera pose the cycle's image was taken from
    twist: np.ndarray  # commanded twist, 6-vector
    n_correspondences: int
    n_inliers: int
    mean_error: float  # px, NaN when no inlier set exists
    error_norm: float  # norm of the normalized-coordinate error vector
    tracking: bool  # matching was restricted to the locked target subset
    event: str = ""  # "", "tracking_lost", "insufficient_features"
    inlier_target_ids: tuple = ()
    pair_errors: np.ndarray | None = None  # px per inlier pair
    pair_id_match: np.ndarray | None = None  # ground-truth verification per pair


@dataclass(frozen=True)
class ServoTrace:
    records: list
    status: str  # Converged | MaxCycles | InsufficientFeatures

    @property
    def final_pose(self) -> Pose:
        return self.records[-1].pose

    @property
    def final_mean_error(self) -> float:
        return self.records[-1].mean_error

    def __len__(self) -> int:
        return len(self.records)


class ServoLoop:
    """One closed-loop servo run; owns all per-run mutable state."""

    def __init__(self, scene: Scene, cfg: ServoRunConfig):
        self.scene = scene
        self.cfg = cfg
        self.target_full = render_target(scene, cfg.target_pose, cfg.intrinsics)
        self.pose = cfg.initial_pose
        self.cycle = 0
        self.locked: FeatureSet | None = None  # tracking lock, see tracking_update
        self.tracking_disabled = False
        self._detect_rng = np.random.default_rng([cfg.detector.seed, 0xDE])
        self._ransac_rng = np.random.default_rng([cfg.ransac.seed, 0x5C])
        # without descriptor noise the descriptors can repeat from one cycle
        # to the next, and match_nn can then reuse the last match
        self._reuse_match = cfg.detector.descriptor_noise_sigma == 0
        self._last_match = None  # (current descriptors, target descriptors, pairs)
        # RANSAC's prior: the last model moved on by the image motion between
        # the last two models (constant velocity, H1 H0^-1 H1), or the last
        # model alone after one success; None on cycle 1 and after a failed
        # cycle
        self._prior: np.ndarray | None = None
        self._last_model: np.ndarray | None = None

    def step(self) -> CycleRecord:
        cfg = self.cfg
        self.cycle += 1

        current = synthetic_detect(
            self.scene, self.pose, cfg.intrinsics, cfg.detector, self._detect_rng
        )
        current = top_k(current, cfg.top_k)
        tracking_flag = self.locked is not None
        target = self.locked if tracking_flag else self.target_full

        C = match_nn(current, target, last=self._last_match)
        if self._reuse_match:
            self._last_match = (current.descriptors, target.descriptors, C)
        try:
            R = ransac_inliers(C, cfg.ransac, rng=self._ransac_rng, prior=self._prior)
        except TooFewCorrespondences:
            self._prior = self._last_model = None
            # the only way a cycle fails: RANSAC keeps at least 4 pairs, and
            # the control law needs 3 points
            event = "insufficient_features"
            if tracking_flag:
                # tracked matching starved out: fall back to full matching
                self.locked = None
                self.tracking_disabled = True
                event = "tracking_lost"
            return CycleRecord(
                cycle=self.cycle,
                pose=self.pose,
                twist=np.zeros(6),
                n_correspondences=len(C),
                n_inliers=0,
                mean_error=float("nan"),
                error_norm=float("nan"),
                tracking=tracking_flag,
                event=event,
            )

        last, self._last_model = self._last_model, R.model
        self._prior = R.model if last is None else R.model @ np.linalg.solve(last, R.model)
        current_px, target_px = R.current_pixels, R.target_pixels
        s = pixel_to_normalized(current_px, cfg.intrinsics).reshape(-1)
        s_star = pixel_to_normalized(target_px, cfg.intrinsics).reshape(-1)
        e = s - s_star
        if cfg.use_current_interaction:
            L = stack_interaction(s, current.depths[R.current_indices])
        else:
            L = stack_interaction(s_star, target.depths[R.target_indices])
        twist = control_law(e, L, cfg.control)

        pair_errors = np.linalg.norm(current_px - target_px, axis=1)
        mean_error = float(np.mean(pair_errors))
        pair_id_match = None
        inlier_ids = ()
        if target.landmark_ids is not None:
            inlier_ids = tuple(np.sort(target.landmark_ids[R.target_indices]).tolist())
            if current.landmark_ids is not None:
                pair_id_match = (
                    current.landmark_ids[R.current_indices]
                    == target.landmark_ids[R.target_indices]
                )

        record = CycleRecord(
            cycle=self.cycle,
            pose=self.pose,
            twist=twist,
            n_correspondences=len(C),
            n_inliers=len(R),
            mean_error=mean_error,
            error_norm=float(np.linalg.norm(e)),
            tracking=tracking_flag,
            inlier_target_ids=inlier_ids,
            pair_errors=pair_errors,
            pair_id_match=pair_id_match,
        )

        self.pose = integrate_twist(self.pose, twist, cfg.dt)
        if not self.tracking_disabled:
            self.locked = tracking_update(
                self.locked, target, R, mean_error, cfg.tracking_threshold
            )
        return record


def run_servo(scene: Scene, cfg: ServoRunConfig) -> ServoTrace:
    """Iterate the servo loop to convergence, cycle budget, or feature loss."""
    loop = ServoLoop(scene, cfg)
    records = []
    status = "MaxCycles"
    starved = 0
    for _ in range(cfg.max_cycles):
        rec = loop.step()
        records.append(rec)
        if np.isfinite(rec.mean_error) and rec.mean_error < cfg.success_threshold:
            status = "Converged"
            break
        if rec.event == "insufficient_features":
            starved += 1
            if starved >= _INSUFFICIENT_LIMIT:
                status = "InsufficientFeatures"
                break
        else:
            starved = 0
    return ServoTrace(records=records, status=status)


_NUM = "%.17g"  # exact float64 round trip in every CSV


def write_csv(path, schema: str, columns, rows) -> None:
    """A '# schema' comment line, the header, then one line per row.

    `columns` is a sequence of (name, cell) pairs; cell(row) is the text of
    that column for one row.
    """
    with open(path, "w") as f:
        f.write(f"# {schema}\n" + ",".join(name for name, _ in columns) + "\n")
        for row in rows:
            f.write(",".join([cell(row) for _, cell in columns]) + "\n")


# trace.csv columns in order; the profile CSVs reuse some of them
TRACE_COLUMNS = (
    ("cycle", lambda r: str(r.cycle)),
    ("tracking", lambda r: "1" if r.tracking else "0"),
    ("event", lambda r: r.event),
    ("n_correspondences", lambda r: str(r.n_correspondences)),
    ("n_inliers", lambda r: str(r.n_inliers)),
    ("mean_error_px", lambda r: _NUM % r.mean_error),
    ("error_norm", lambda r: _NUM % r.error_norm),
    *(
        (name, lambda r, i=i: _NUM % r.twist.item(i))
        for i, name in enumerate(("vx", "vy", "vz", "wx", "wy", "wz"))
    ),
    # pose_0..pose_11 are Pose.to_flat(): rotation row-major, then translation
    *((f"pose_{i}", lambda r, i=i: _NUM % r.pose.rotation.item(i)) for i in range(9)),
    *((f"pose_{9 + i}", lambda r, i=i: _NUM % r.pose.translation.item(i)) for i in range(3)),
    ("inlier_target_ids", lambda r: ";".join(str(i) for i in r.inlier_target_ids)),
)


def write_trace_csv(trace: ServoTrace, path) -> None:
    """Full per-cycle trace, one row per cycle; stable column order."""
    write_csv(path, "featservo_trace_v1", TRACE_COLUMNS, trace.records)


def write_trace_summary(trace: ServoTrace, path) -> None:
    summary = {
        "schema": "featservo_trace_summary_v1",
        "status": trace.status,
        "cycles": len(trace),
        "final_mean_error_px": trace.final_mean_error,
        "final_pose": trace.final_pose.to_flat(),
        "tracking_cycles": sum(1 for r in trace.records if r.tracking),
        "events": [
            {"cycle": r.cycle, "event": r.event} for r in trace.records if r.event
        ],
    }
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
