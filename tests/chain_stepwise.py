"""Joint-by-joint chain walk: the reference for ``kinematics.chain_frames``.

The plainest form of the kinematic chain: each joint's frame is reached
from its parent's by the origin rotation ``Rz(yaw) Ry(pitch) Rx(roll)``,
three elementary-rotation matrix products, and then the Rodrigues
rotation about (or the slide along) the joint axis, one joint at a time.
The library builds every local transform at once and takes their prefix
products in a few batched steps; its frames, COM Jacobians, pose and
dynamics terms must match these up to rounding
(``tests/test_chain_kernel.py``).
"""
from __future__ import annotations

import numpy as np

from mmtrack.kinematics import Pose, axis_skew, euler_zyx

_CS_STEP = 1e-20


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    one, zero = np.ones_like(c), np.zeros_like(c)
    return np.array([[one, zero, zero], [zero, c, -s], [zero, s, c]])


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    one, zero = np.ones_like(c), np.zeros_like(c)
    return np.array([[c, zero, s], [zero, one, zero], [-s, zero, c]])


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    one, zero = np.ones_like(c), np.zeros_like(c)
    return np.array([[c, -s, zero], [s, c, zero], [zero, zero, one]])


def rotation_rpy(rpy):
    """Fixed-frame rotation from (roll, pitch, yaw)."""
    return rot_z(rpy[2]) @ rot_y(rpy[1]) @ rot_x(rpy[0])


def _rodrigues(K, K2, angle):
    """I + sin(a) K + (1 - cos(a)) K^2 for any angle shape, (..., 3, 3)."""
    angle = np.asarray(angle)[..., None, None]
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * K2


def rotation_axis(axis, angle):
    """Rodrigues rotation about a unit axis; complex-safe, and batched
    over the shape of ``angle``."""
    K = axis_skew(axis)
    return _rodrigues(K, K @ K, angle)


def chain_frames(model, q, start: int = 0):
    """Same contract as ``kinematics.chain_frames``, one joint at a time."""
    q = np.asarray(q)
    joints = model.joints[start:]
    if q.ndim == 0 or q.shape[-1] != len(joints):
        raise ValueError(f"expected {len(joints)} joint values, got shape {q.shape}")
    dtype = np.result_type(q.dtype, float)
    batch = q.shape[:-1]
    R = np.broadcast_to(np.eye(3, dtype=dtype), batch + (3, 3))
    p = np.zeros(batch + (3,), dtype=dtype)
    rotations = np.empty(batch + (len(joints), 3, 3), dtype=dtype)
    origins = np.empty(batch + (len(joints), 3), dtype=dtype)
    for k, joint in enumerate(joints):
        p = p + R @ joint.origin_xyz
        R = R @ rotation_rpy(joint.origin_rpy)
        if joint.kind == "revolute":
            R = R @ rotation_axis(joint.axis, q[..., k])
        else:
            p = p + np.einsum("...ij,j,...->...i", R, joint.axis, q[..., k])
        rotations[..., k, :, :] = R
        origins[..., k, :] = p
    return (rotations, origins, R @ rotation_rpy(model.ee_offset_rpy),
            p + R @ model.ee_offset_xyz)


def point_jacobians(model, rotations, origins, points, start: int = 0):
    """Translational Jacobian columns (..., P, k, 3) of world ``points``
    (..., P, 3) carried by the frames of :func:`chain_frames`: column k is
    ``axis_k x (point - origin_k)`` if revolute, else ``axis_k``; also the
    angular columns (..., k, 3), ``axis_k`` if revolute, else zero."""
    joints = model.joints[start:]
    axes = np.einsum("...kxy,ky->...kx", rotations,
                     np.stack([j.axis for j in joints]))
    cross = np.cross(axes[..., None, :, :],
                     points[..., :, None, :] - origins[..., None, :, :])
    revolute = np.array([j.kind == "revolute" for j in joints])
    columns = np.where(revolute[:, None], cross, axes[..., None, :, :])
    return columns, np.where(revolute[:, None], axes, 0.0)


def com_jacobians(model, q_m):
    """Translational COM Jacobians in the base frame as [link i, axis,
    joint k] of arm angles ``q_m`` (any batch shape, may be complex):
    ``dynamics._skews_and_columns``'s columns with joint and link
    swapped."""
    start = model.base_dof_count
    R, o, _, _ = chain_frames(model, q_m, start)
    coms = np.einsum("...ixy,iy->...ix", R, model.link_com_offsets) + o
    columns, _ = point_jacobians(model, R, o, coms, start)
    n = model.arm_joint_count
    columns = columns * np.tri(n, dtype=bool)[:, :, None]
    return np.swapaxes(columns, -1, -2)


def forward_kinematics(model, q):
    """Same contract as ``kinematics.forward_kinematics``."""
    _, _, R_ee, p_ee = chain_frames(model, np.asarray(q, float))
    return Pose(p_ee, euler_zyx(R_ee))


def dynamics_terms(model, q_m, qdot_m, gravity=None, a_b=None):
    """(M, bias, G, tau_b) as ``dynamics.configuration_terms(model,
    [q_m], gravity, a_b).at(0, qdot_m)`` defines them, from one
    complex-step pass of :func:`com_jacobians`."""
    masses = model.link_masses
    g = model.gravity if gravity is None else np.asarray(gravity, float)
    Jz = com_jacobians(model, q_m + 1j * _CS_STEP * np.asarray(qdot_m))
    Jc = Jz.real
    Jcdot_qdot = Jz.imag @ qdot_m / _CS_STEP
    M = np.einsum("m,mak,mal->kl", masses, Jc, Jc) + np.diag(model.rotor_inertia)
    bias = np.einsum("m,mak,ma->k", masses, Jc, Jcdot_qdot)
    G = np.einsum("m,mak,a->k", masses, Jc, -g)
    a_b = np.zeros(3) if a_b is None else np.asarray(a_b, float)
    tau_b = np.einsum("m,mak,a->k", masses, Jc, a_b)
    return M, bias, G, tau_b
