"""Forward kinematics, the analytic Jacobian, Euler-rate handling and
the pose error that the predictive layer linearizes.

Orientation convention is Z-Y-X throughout: a pose orientation vector
``[yaw, pitch, roll]`` corresponds to ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
The transform helpers and the chain kernel accept complex inputs.

The one chain kernel, :func:`joint_frames`, builds the local transform
of every joint at once from one stacked table and forms the joint
frames as their prefix products, in ceil(log2 k) batched matrix
products for k joints, for any batch of configurations; frames only, as
:mod:`dynamics` derives its terms from them.  :func:`chain_frames` adds
the EE frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RobotModel

PITCH_SINGULARITY_TOL = 1e-9
TASK_SINGULARITY_TOL = 1e-8


def wrap_angle(a):
    """Map angles to (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    out = -((-a + np.pi) % (2 * np.pi) - np.pi)
    return out if out.ndim else float(out)


def rotation_rpy(rpy):
    """Fixed-frame rotation Rz(yaw) Ry(pitch) Rx(roll), closed form, of
    the [roll, pitch, yaw] in the last axis of ``rpy``: shape (..., 3, 3)."""
    rpy = np.moveaxis(np.asarray(rpy), -1, 0)
    (cr, cp, cy), (sr, sp, sy) = np.cos(rpy), np.sin(rpy)
    R = np.array([[cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
                  [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
                  [-sp, cp * sr, cp * cr]])
    return np.moveaxis(R, (0, 1), (-2, -1))


def axis_skew(axis):
    """Skew matrix K of a unit axis: K @ v = axis x v."""
    x, y, z = axis
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def euler_zyx(R):
    """Extract [yaw, pitch, roll] from rotation matrices (..., 3, 3)."""
    pitch = np.arcsin(np.clip(-R[..., 2, 0], -1.0, 1.0))
    # Gimbal lock: yaw/roll are coupled; pick roll = 0.
    lock = np.abs(np.cos(pitch)) < PITCH_SINGULARITY_TOL
    yaw = np.where(lock, np.arctan2(-R[..., 0, 1], R[..., 1, 1]),
                   np.arctan2(R[..., 1, 0], R[..., 0, 0]))
    roll = np.where(lock, 0.0, np.arctan2(R[..., 2, 1], R[..., 2, 2]))
    return np.stack([yaw, pitch, roll], axis=-1)


def euler_rate_matrix(yaw, pitch):
    """E with world-frame angular velocity w = E @ [yaw', pitch', roll']."""
    sy, cy = np.sin(yaw), np.cos(yaw)
    sp, cp = np.sin(pitch), np.cos(pitch)
    return np.array([[0.0, -sy, cy * cp],
                     [0.0, cy, sy * cp],
                     [1.0, 0.0, -sp]])


def rotation_vector(R):
    """Axis-angle (rotation vector) of rotation matrices (..., 3, 3)."""
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    angle = np.arccos(np.clip((diag.sum(axis=-1) - 1.0) / 2.0,
                              -1.0, 1.0))[..., None]
    skew = np.stack([R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0],
                     R[..., 1, 0] - R[..., 0, 1]], axis=-1)
    small, near_pi = angle < 1e-12, np.pi - angle < 1e-6
    # Near pi the axis comes from the symmetric part (R + I) / 2.
    axis = np.sqrt(np.maximum((diag + 1.0) / 2.0, 0.0))
    axis *= np.sign(skew) + (np.sign(skew) == 0)
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    sin = np.sin(np.where(small | near_pi, 1.0, angle))
    return np.where(small, 0.0, np.where(near_pi, angle * axis,
                                         angle * skew / (2.0 * sin)))


@dataclass(frozen=True)
class Pose:
    """End-effector position (m) and Z-Y-X Euler orientation (rad), in
    the last axis: a Pose may hold a batch of poses."""

    position: np.ndarray
    orientation: np.ndarray  # [yaw, pitch, roll]

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, float))
        object.__setattr__(self, "orientation",
                           wrap_angle(np.asarray(self.orientation, float)))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.orientation], axis=-1)

    @staticmethod
    def from_vector(v) -> "Pose":
        v = np.asarray(v, float)
        return Pose(v[..., :3], v[..., 3:6])


def joint_frames(model: RobotModel, q, start: int = 0):
    """Homogeneous 4 x 4 frames of joints ``start`` .. end, (..., k, 4, 4).

    Walks the chain from the frame of joint ``start``'s parent
    (``start = model.base_dof_count`` gives the arm in the base frame);
    ``q`` holds the k joint values in its last axis, with any leading
    batch shape, and may be complex.  The local transforms are one matmul
    of (1, sin q, cos q, q) with ``model.fixed_transforms.plain``, the
    frames their prefix products ``F[s:] = F[:-s] @ F[s:]``, s = 1, 2, 4,
    ... < k.
    """
    q = np.asarray(q)
    k = model.total_dof - start
    if q.ndim == 0 or q.shape[-1] != k:
        raise ValueError(f"expected {k} joint values, got shape {q.shape}")
    x = np.empty(q.shape + (1, 4), np.result_type(q, float))
    x[..., 0, 0], x[..., 0, 3] = 1.0, q
    np.sin(q, out=x[..., 0, 1])
    np.cos(q, out=x[..., 0, 2])
    F = (x @ model.fixed_transforms.plain[start:]).reshape(q.shape + (4, 4))
    s = 1
    while s < k:
        F[..., s:, :, :] = F[..., :-s, :, :] @ F[..., s:, :, :]
        s *= 2
    return F


def chain_frames(model: RobotModel, q):
    """Rotation and origin of every joint frame, plus the EE frame.

    Same walk as :func:`joint_frames`, over the whole chain.  Returns
    (rotations, origins, R_ee, p_ee) of shapes (..., m, 3, 3), (..., m, 3),
    (..., 3, 3) and (..., 3): views of the joint frames and of the last
    one times the EE offset.
    """
    F = joint_frames(model, q)
    ee = F[..., -1, :, :] @ model.fixed_transforms.ee
    return F[..., :3, :3], F[..., :3, 3], ee[..., :3, :3], ee[..., :3, 3]


def forward_kinematics(model: RobotModel, q) -> Pose:
    """End-effector pose p = F(q) for the full chain (base + arm)."""
    _, _, R_ee, p_ee = chain_frames(model, np.asarray(q, float))
    return Pose(p_ee, euler_zyx(R_ee))


def linearization(model: RobotModel, q):
    """End-effector pose, analytic Jacobian J and task-singularity test
    (singular, det) at ``q``, from one :func:`chain_frames` pass.

    J is 6 x m: rows 0-2 are the translational Jacobian; rows 3-5 map
    joint rates to Euler-angle rates via the inverse angular-rate
    transform E.  det E = -cos(pitch), and the arcsin pitch of
    :func:`euler_zyx` has a cosine that never rounds to zero, so E is
    never exactly singular.  ``singular`` is True when ``det`` = det(J Jt)
    over task rows and the planned arm columns < TASK_SINGULARITY_TOL.
    """
    q = np.asarray(q, float)
    rotations, origins, R_ee, p_ee = chain_frames(model, q)
    tab = model.fixed_transforms
    # Column k is axis_k x (p_ee - origin_k) if revolute, else axis_k;
    # the cross product written out costs less than np.cross.
    axes = np.einsum("kxy,ky->kx", rotations, tab.axes)
    d = p_ee - origins
    cross = axes[:, [1, 2, 0]] * d[:, [2, 0, 1]] \
        - axes[:, [2, 0, 1]] * d[:, [1, 2, 0]]
    revolute = tab.revolute[:, None]
    euler = euler_zyx(R_ee)
    E = euler_rate_matrix(euler[0], euler[1])
    J = np.vstack([np.where(revolute, cross, axes).T,
                   np.linalg.solve(E, np.where(revolute, axes, 0.0).T)])
    Jt = J[list(model.task_rows), model.arm_slice]
    det = float(np.linalg.det(Jt @ Jt.T))
    return Pose(p_ee, euler), J, det < TASK_SINGULARITY_TOL, det


def pose_error(pose: Pose, ref: Pose) -> np.ndarray:
    """Pose difference with shortest-arc orientation components."""
    return np.concatenate([
        pose.position - ref.position,
        wrap_angle(pose.orientation - ref.orientation),
    ], axis=-1)
