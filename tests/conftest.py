import numpy as np

from mmtrack.pomptc import QpProblem


def random_qp(rng, N=None, Nu=None, m_prime=None, t=0.01):
    """Random strictly convex QP with the structured constraint count.

    The bound vector is anchored at a point offset from the
    unconstrained minimizer with non-negative margins, so the problem is
    always feasible while a few constraints are active at the optimum
    for most draws.
    """
    if N is None:
        N = int(rng.integers(1, 4))
    if Nu is None:
        Nu = int(rng.integers(1, N + 1))
    if m_prime is None:
        m_prime = int(rng.integers(1, 3))
    nz = m_prime * Nu
    nc = (2 * N + 4 * Nu) * m_prime
    A = rng.normal(size=(nz, nz))
    S = A @ A.T + nz * np.eye(nz)
    G = 2.0 * rng.normal(size=nz)
    H = rng.normal(size=(nc, nz))
    z_anchor = np.linalg.solve(S, -G) + rng.normal(scale=0.5, size=nz)
    w = H @ z_anchor + rng.uniform(0.0, 0.8, nc)
    return QpProblem(S, G, H, w, t, N, Nu, m_prime)


def hand_qp():
    """1-D instance with a known answer: min z^2 - 4z s.t. z <= 1.

    Exact optimum z* = 1; with penalty factor xi = 5 the relaxed
    stationarity condition 2z - 4 + 5(z - 1) = 0 gives z* = 9/7.
    """
    S = np.array([[2.0]])
    G = np.array([-4.0])
    H = np.array([[1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]])
    w = np.array([1.0, 5.0, 5.0, 5.0, 5.0, 5.0])
    return QpProblem(S, G, H, w, 0.01, 1, 1, 1)


def solver_batch_problems(seed=2024):
    """200 random QPs with m'Nu in [2, 40]; the default seed gives those
    of acceptance criteria 1-3."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(200):
        m_prime = int(rng.integers(1, 9))
        Nu = int(rng.integers(1, 6))
        if m_prime * Nu < 2:
            Nu = 2
        N = int(rng.integers(Nu, 6))
        problems.append(random_qp(rng, N=N, Nu=Nu, m_prime=m_prime))
    return problems


def inertia_matrices(n, seed=0):
    """Symmetric test matrices for the inertia solve: rank-deficient,
    cond(M) = 1e13 (its Cholesky pivots spread as sqrt(cond)), and well
    conditioned."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n - 2))
    B = rng.normal(size=(n, n))
    return {"rank_deficient": A @ A.T,
            "cond_1e13": np.diag(np.geomspace(1.0, 1e-13, n)),
            "well_conditioned": B @ B.T + n * np.eye(n)}
