"""Simulated world and closed servo loop: landmark scenes with clutter as
one table, the detect/match/reject/control cycle driven to convergence
from a target rendered by `features.render_target`, and the trace outputs.
"""

from __future__ import annotations

import json
from math import isfinite, sqrt
from numbers import Real
from dataclasses import dataclass, field

import numpy as np

from .control import ControlConfig, control_law, pseudo_inverse, stack_interaction
from .errors import TooFewCorrespondences
from .features import (
    FeatureSet,
    SyntheticDetectorConfig,
    _unit_sq_norms,
    landmark_scores,
    render_target,
    synthetic_detect,
    top_k,
)
from .geometry import _EYE, CameraIntrinsics, Pose, integrate_twist, pixel_to_normalized
from .matching import CorrespondenceSet, RansacConfig, match_nn, ransac_inliers, tracking_update

DEFAULT_INTRINSICS = CameraIntrinsics(fx=600.0, fy=600.0, cx=160.0, cy=120.0, width=320, height=240)

_INSUFFICIENT_LIMIT = 10  # consecutive starved cycles before giving up
_TABLE = ("points", "descriptors", "ids", "scores", "sq_norms")  # Scene's per-row arrays
# scene sizes, camera distances and translation offsets past 100 m are
# errors: no view of the object is left there, and the builders overflow
MAX_LENGTH_M = 100.0


class Scene:
    """3D landmark world as one read-only table, object rows first: the
    object landmarks (rendered in target views), then clutter landmarks
    visible only in current views.

    Row i is landmark i: `points` (n, 3), float32 unit `descriptors` (n, d),
    `ids` (row i has id i), detection `scores` landmark_scores(seed, i), and
    the descriptors' float32 squared norms `sq_norms`. The rows are checked
    unit-norm once, here, so that the feature sets the detector gathers from
    the table need no second check. The first `n_object` rows are the
    object. Canonical descriptors are drawn in float64 from the seed,
    normalized and stored as float32.
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
        self.points = np.vstack([obj, np.asarray(clutter_points, dtype=float).reshape(-1, 3)])
        self.n_object = n = obj.shape[0]
        self.seed = int(seed)
        self.descriptor_dim = int(descriptor_dim)
        self.max_incidence_deg = max_incidence_deg
        if object_normals is not None:
            object_normals = np.asarray(object_normals, dtype=float).reshape(-1, 3)
            if object_normals.shape[0] != n:
                raise ValueError("one normal per object landmark required")
            object_normals = object_normals / np.linalg.norm(object_normals, axis=1, keepdims=True)
        self.object_normals = object_normals
        self._cos_cone = None  # every landmark passes the view cone
        if object_normals is not None and max_incidence_deg is not None:
            self._cos_cone = np.cos(np.deg2rad(max_incidence_deg))

        rng = np.random.default_rng(self.seed)
        desc = rng.normal(size=(self.points.shape[0], self.descriptor_dim))
        desc /= np.linalg.norm(desc, axis=1, keepdims=True)
        # the float64 draw is freed before the norms copy the float32 rows to
        # float64, so the two never coexist
        self.descriptors = desc = desc.astype(np.float32)
        self.ids = np.arange(self.points.shape[0], dtype=np.int64)
        self.scores = landmark_scores(self.seed, self.ids)
        self.sq_norms = _unit_sq_norms(desc)
        for name in _TABLE:
            getattr(self, name).setflags(write=False)

    def view_cone_mask(self, camera_position: np.ndarray) -> np.ndarray:
        """The object rows' visibility from a camera position, by incidence
        angle, (n_object,); clutter carries no normals and always passes."""
        n = self.n_object
        if self._cos_cone is None:
            return np.ones(n, dtype=bool)
        to_cam = camera_position - self.points[:n]
        dots = np.add.reduce(to_cam * self.object_normals, axis=1)
        norms = np.sqrt(np.add.reduce(to_cam * to_cam, axis=1)) + 1e-300
        return dots / norms >= self._cos_cone

    def without_clutter(self) -> "Scene":
        """The same scene without clutter: every table array is a view of
        this one's object rows, so nothing is drawn or computed again."""
        scene = Scene.__new__(Scene)
        vars(scene).update(vars(self))
        for name in _TABLE:
            setattr(scene, name, getattr(self, name)[: self.n_object])
        return scene


def _is_real(value) -> bool:
    """A real number, NumPy's included, and not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


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
    features that exist in one image but not the other. Lengths are in m,
    at most `MAX_LENGTH_M`, and `view_cone_deg` is None or in (0, 180]; a bad
    argument raises a ValueError that names it.
    """
    # checks in positive form, so NaN (every comparison false) fails them
    for name, value, low in (
        ("n_object", n_object, 0),
        ("n_clutter", n_clutter, 0),
        ("descriptor_dim", descriptor_dim, 1),
    ):
        if type(value) is not int or value < low:
            raise ValueError(f"{name} must be an integer >= {low}")
    if not (_is_real(box_size) and 0 < box_size <= MAX_LENGTH_M):
        raise ValueError(f"box_size must be in (0, {MAX_LENGTH_M:g}] m")
    shell, cone = clutter_shell, view_cone_deg
    if not (len(shell) == 2 and all(map(_is_real, shell))
            and 0 <= shell[0] <= shell[1] <= MAX_LENGTH_M):
        raise ValueError(f"clutter_shell must be 0 <= inner <= outer <= {MAX_LENGTH_M:g} m")
    if cone is not None and not (_is_real(cone) and 0 < cone <= 180):
        raise ValueError("view_cone_deg must be None or in (0, 180]")
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


def make_planar_scene(seed: int, n_object: int = 80) -> Scene:
    """Landmarks uniform on a 12 cm square in the z = 0 plane, with no
    clutter: all views of the object are related by an exact homography, so
    the consensus set stays stable across cycles."""
    rng = np.random.default_rng([seed, 0xF1])
    pts = rng.uniform(-0.06, 0.06, size=(n_object, 3))
    pts[:, 2] = 0.0
    return Scene(pts, np.empty((0, 3)), seed)


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
        # checks in positive form, so NaN (every comparison false) fails them
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        t = self.tracking_threshold
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not -np.inf < t < np.inf:
            raise ValueError("tracking_threshold must be a finite number")
        if not 0 < self.success_threshold < np.inf:
            raise ValueError("success_threshold must be positive and finite")
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
        self.target_full = render = render_target(scene, cfg.target_pose, cfg.intrinsics)
        # the target side of the control law is fixed for the run, as the
        # render is: s* and Z* by landmark id (render ids are object rows);
        # every matched target set is the render or a subset of it
        self._s_star = np.zeros((scene.n_object, 2))
        self._s_star[render.landmark_ids] = pixel_to_normalized(render.pixels, cfg.intrinsics)
        self._Z_star = np.zeros(scene.n_object)
        self._Z_star[render.landmark_ids] = render.depths
        # (the inlier ids in pair order, as bytes, and the pinv of their L* rows)
        self._pinv: tuple | None = None
        self.pose = cfg.initial_pose
        self.cycle = 0
        self.locked: FeatureSet | None = None  # tracking lock, see step
        self.tracking_disabled = False
        self._detect_rng = np.random.default_rng([cfg.detector.seed, 0xDE])
        self._ransac_rng = np.random.default_rng([cfg.ransac.seed, 0x5C])
        # without descriptor noise the descriptors (and their norms) of a
        # detection and of every target set, the render or a lock of it, are
        # the scene's rows of their landmark ids, and target pixels are the
        # render's. Equal ids on both sides, whatever objects hold them, then
        # mean that match_nn, which reads nothing else but the current pixels
        # it gathers, would return the last pairs
        self._reuse_match = cfg.detector.descriptor_noise_sigma == 0
        self._last_match = None  # ((target ids, current ids) as bytes, pairs)
        # RANSAC's prior: the control law shrinks the image error by rho =
        # 1 - gain*dt per cycle, so the last model H (at any scale) moves on to
        # rho*H + (1 - rho)*H[2,2]*I; None on cycle 1 and after a failed cycle
        self._decay = 1.0 - cfg.control.gain * cfg.dt
        self._prior: np.ndarray | None = None

    def step(self) -> CycleRecord:
        cfg = self.cfg
        self.cycle += 1

        current = synthetic_detect(
            self.scene, self.pose, cfg.intrinsics, cfg.detector, self._detect_rng
        )
        current = top_k(current, cfg.top_k)
        tracking_flag = self.locked is not None
        target = self.locked if tracking_flag else self.target_full

        key = (target.landmark_ids.tobytes(), current.landmark_ids.tobytes())
        last = self._last_match
        if last is not None and last[0] == key:
            C = last[1]  # the same target ids, so the same target pixels
            C = CorrespondenceSet(C.current_indices, C.target_indices, C.distances,
                                  current.pixels[C.current_indices], C.target_pixels)
        else:
            C = match_nn(current, target)
            if self._reuse_match:
                self._last_match = (key, C)
        try:
            R = ransac_inliers(C, cfg.ransac, rng=self._ransac_rng, prior=self._prior)
        except TooFewCorrespondences:
            self._prior = None
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

        # in Python floats, entry by entry as numpy would compute it; a huge
        # gain overflows to a non-finite entry: no prior
        h, rho = R.model.ravel().tolist(), self._decay
        c = (1.0 - rho) * h[8]
        prior = [rho * v + c * e for v, e in zip(h, _EYE)]
        self._prior = np.array(prior).reshape(3, 3) if all(map(isfinite, prior)) else None
        current_px, target_px = R.current_pixels, R.target_pixels
        ids = target.landmark_ids[R.target_indices]
        # the control law takes the pairs in ascending target-row order, so the
        # ids repeat whenever the inlier set does, in whatever order matching
        # put its pairs
        order = R.target_indices.argsort()
        pair_ids = ids[order]
        s = pixel_to_normalized(current_px[order], cfg.intrinsics).reshape(-1)
        s_star = self._s_star[pair_ids]
        e = s - s_star.reshape(-1)
        tol = cfg.control.svd_tolerance
        if cfg.use_current_interaction:
            Z = current.depths[R.current_indices[order]]
            L_pinv = pseudo_inverse(stack_interaction(s, Z), tol)
        elif self._pinv is not None and self._pinv[0] == pair_ids.tobytes():
            L_pinv = self._pinv[1]
        else:
            L_pinv = pseudo_inverse(stack_interaction(s_star, self._Z_star[pair_ids]), tol)
            self._pinv = (pair_ids.tobytes(), L_pinv)
        twist = control_law(e, L_pinv, cfg.control)

        dx, dy = (current_px - target_px).T
        pair_errors = np.sqrt(dx * dx + dy * dy)
        mean_error = float(pair_errors.sum()) / pair_errors.size
        record = CycleRecord(
            cycle=self.cycle,
            pose=self.pose,
            twist=twist,
            n_correspondences=len(C),
            n_inliers=len(R),
            mean_error=mean_error,
            error_norm=sqrt(e @ e),
            tracking=tracking_flag,
            inlier_target_ids=tuple(np.sort(ids).tolist()),
            pair_errors=pair_errors,
            pair_id_match=current.landmark_ids[R.current_indices] == ids,
        )

        self.pose = integrate_twist(self.pose, twist, cfg.dt)
        # the lock forms once the mean error first drops below the threshold,
        # shrinks to each cycle's inliers whatever the error, and is given up
        # for the rest of the run when tracked matching starves (above)
        if not self.tracking_disabled and (tracking_flag or mean_error < cfg.tracking_threshold):
            self.locked = tracking_update(target, R)
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


def write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


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
    write_json(path, {
        "schema": "featservo_trace_summary_v1",
        "status": trace.status,
        "cycles": len(trace),
        "final_mean_error_px": trace.final_mean_error,
        "final_pose": trace.final_pose.to_flat(),
        "tracking_cycles": sum(1 for r in trace.records if r.tracking),
        "events": [
            {"cycle": r.cycle, "event": r.event} for r in trace.records if r.event
        ],
    })
