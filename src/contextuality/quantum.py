"""Finite-dimensional complex linear algebra and the named constructions used package-wide.

Tolerance conventions (used consistently by every module): construction
checks at 1e-10, equality checks at 1e-12, reported probabilities clamped to
[0, 1].  Eigenvalue-based checks run only on matrices of dimension <= 16;
larger inputs are rejected rather than approximated.
"""

from __future__ import annotations

import numpy as np

from .record import Record

CONSTRUCTION_TOL = 1e-10
EQUALITY_TOL = 1e-12
MAX_DIM = 16


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def dagger(a) -> np.ndarray:
    return _as_matrix(a).conj().T


def sup_norm(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def is_hermitian(a, tol: float = EQUALITY_TOL) -> bool:
    m = _as_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the test
        return m.shape[0] == m.shape[1] and sup_norm(m - m.conj().T) <= tol


def is_projector(a, tol: float = EQUALITY_TOL) -> bool:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        return is_hermitian(m, tol) and sup_norm(m @ m - m) <= tol


def tensor(a, b) -> np.ndarray:
    """Kronecker product with shape (rows_a*rows_b, cols_a*cols_b)."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def matrix_to_json(a) -> dict:
    m = _as_matrix(a)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(v) for v in m.real.ravel(order="C")],
        "im": [float(v) for v in m.imag.ravel(order="C")],
    }


def matrix_from_json(d: dict) -> np.ndarray:
    """The complex matrix of a `matrix_to_json` document; entries must be finite."""
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
    except OverflowError as exc:
        raise ValueError(f"matrix shape is not finite: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape {rows} x {cols} is not positive")
    re = np.array(d["re"], dtype=float)
    im = np.array(d["im"], dtype=float) if "im" in d else np.zeros(re.shape)
    for field, part in (("re", re), ("im", im)):
        if part.size != rows * cols:
            raise ValueError(f"matrix field {field!r} has {part.size} entries, "
                             f"not rows x cols = {rows} x {cols}")
    re, im = re.reshape(rows, cols), im.reshape(rows, cols)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return re + 1j * im


def ket(vec) -> np.ndarray:
    """Column vector from a 1-d sequence."""
    v = np.asarray(vec, dtype=complex).reshape(-1, 1)
    return v


def dm(psi) -> np.ndarray:
    """Pure-state density matrix |psi><psi| (input normalised first)."""
    v = ket(psi)
    n = float(np.linalg.norm(v))
    if n == 0:
        raise ValueError("cannot normalise the zero vector")
    v = v / n
    return v @ v.conj().T


def validate_density(rho, tol: float = EQUALITY_TOL) -> np.ndarray:
    m = _as_matrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"density matrix must be square, got {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds the supported {MAX_DIM}")
    if not is_hermitian(m, tol):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(m).real - 1.0) > tol or abs(np.trace(m).imag) > tol:
        raise ValueError(f"density matrix trace must be 1, got {np.trace(m)}")
    eigs = np.linalg.eigvalsh(m)
    if eigs.min() < -1e-10:
        raise ValueError(f"density matrix has a negative eigenvalue {eigs.min()}")
    return m


def born_prob(rho, effect) -> float:
    """Tr(rho E) for a Hermitian effect with spectrum in [0, 1], clamped to [0, 1]."""
    r = _as_matrix(rho)
    e = _as_matrix(effect)
    if r.shape != e.shape:
        raise ValueError(f"state {r.shape} vs effect {e.shape}")
    if not is_hermitian(e):
        raise ValueError("effect is not Hermitian")
    if e.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {e.shape[0]} exceeds the supported {MAX_DIM}")
    spectrum = np.linalg.eigvalsh(e)
    if spectrum.min() < -1e-10 or spectrum.max() > 1 + 1e-10:
        raise ValueError(
            f"effect spectrum [{spectrum.min()}, {spectrum.max()}] outside [0,1]")
    p = float(np.trace(r @ e).real)
    return min(1.0, max(0.0, p))


def expectation(rho, observable) -> float:
    """Tr(rho A) for a Hermitian observable (no [0,1] clamp)."""
    r = _as_matrix(rho)
    a = _as_matrix(observable)
    if r.shape != a.shape:
        raise ValueError(f"state {r.shape} vs observable {a.shape}")
    if not is_hermitian(a, 1e-10):
        raise ValueError("observable is not Hermitian")
    return float(np.trace(r @ a).real)


class ProjectiveContext(Record):
    """One projective measurement: orthogonal projectors resolving the identity."""

    label: str
    outcomes: tuple
    projectors: tuple


def projective_context(label: str, projectors, outcomes=None,
                       tol: float = CONSTRUCTION_TOL) -> ProjectiveContext:
    projs = tuple(_as_matrix(p) for p in projectors)
    if not projs:
        raise ValueError("a projective context needs at least one projector")
    dim = projs[0].shape[0]
    for p in projs:
        if p.shape != (dim, dim):
            raise ValueError("projectors must share a square shape")
        if not is_projector(p, tol):
            raise ValueError(f"context {label!r} contains a non-projector")
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            if sup_norm(projs[i] @ projs[j]) > tol:
                raise ValueError(f"context {label!r} projectors {i},{j} not orthogonal")
    if sup_norm(sum(projs) - np.eye(dim)) > tol:
        raise ValueError(f"context {label!r} projectors do not resolve the identity")
    if outcomes is None:
        outcomes = tuple(range(len(projs)))
    outcomes = tuple(outcomes)
    if len(outcomes) != len(projs):
        raise ValueError("one outcome label per projector required")
    return ProjectiveContext(label=label, outcomes=outcomes, projectors=projs)


def pvm_from_observable(observable, label: str, tol: float = 1e-8) -> ProjectiveContext:
    """Eigenprojector measurement of a Hermitian observable.

    Eigenvalues within ``tol`` of each other share a projector; outcome labels
    are the eigenvalues (exact ints when within tol of an integer).
    """
    a = _as_matrix(observable)
    if not is_hermitian(a, 1e-10):
        raise ValueError(f"observable {label!r} is not Hermitian")
    vals, vecs = np.linalg.eigh(a)
    groups: list[tuple[float, list[int]]] = []
    for idx, v in enumerate(vals):
        if groups and abs(v - groups[-1][0]) <= tol:
            groups[-1][1].append(idx)
        else:
            groups.append((float(v), [idx]))
    outcomes = []
    projectors = []
    for v, idxs in groups:
        p = sum(np.outer(vecs[:, i], vecs[:, i].conj()) for i in idxs)
        r = round(v)
        outcomes.append(int(r) if abs(v - r) <= tol else v)
        projectors.append(p)
    return projective_context(label, projectors, outcomes)


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def kcbs_vectors() -> list[np.ndarray]:
    """Five unit vectors in C^3 with consecutive pairs (cyclically) orthogonal.

    The polar angle satisfies cos^2(theta) = cos(pi/5)/(1 + cos(pi/5)); the
    azimuthal placement steps by 4*pi/5, with cosine in the second component
    and sine in the third.  The sine component is what makes consecutive
    rays exactly orthogonal, which the tests verify directly.
    """
    c = np.cos(np.pi / 5)
    cos_theta = np.sqrt(c / (1 + c))
    sin_theta = np.sqrt(1 - c / (1 + c))
    out = []
    for j in range(5):
        phi = 4 * np.pi * j / 5
        out.append(np.array([cos_theta,
                             sin_theta * np.cos(phi),
                             sin_theta * np.sin(phi)], dtype=complex))
    return out


def kcbs_construction() -> tuple[np.ndarray, list[np.ndarray], float]:
    """Pentagon construction on a qutrit.

    Returns (state |0>, the five dichotomic observables A_j = 2|v_j><v_j| - 1,
    and the cyclic sum of consecutive-pair correlators), whose value is
    5 - 4*sqrt(5) against a noncontextual bound of -3.
    """
    vs = kcbs_vectors()
    eye = np.eye(3, dtype=complex)
    obs = [2 * np.outer(v, v.conj()) - eye for v in vs]
    psi = ket([1, 0, 0])
    rho = psi @ psi.conj().T
    total = sum(expectation(rho, obs[j] @ obs[(j + 1) % 5]) for j in range(5))
    return psi, obs, float(total)


KCBS_NONCONTEXTUAL_BOUND = -3


def peres_mermin_square() -> list[list[np.ndarray]]:
    """The 3x3 grid of two-qubit dichotomic observables with commuting rows/columns.

    Row products are +I; column products are +I, +I, -I, which is what makes a
    global +-1 assignment impossible.
    """
    z1 = tensor(PAULI_Z, ID2)
    z2 = tensor(ID2, PAULI_Z)
    zz = tensor(PAULI_Z, PAULI_Z)
    x2 = tensor(ID2, PAULI_X)
    x1 = tensor(PAULI_X, ID2)
    xx = tensor(PAULI_X, PAULI_X)
    zx = tensor(PAULI_Z, PAULI_X)
    xz = tensor(PAULI_X, PAULI_Z)
    yy = tensor(PAULI_Y, PAULI_Y)
    return [[z1, z2, zz], [x2, x1, xx], [zx, xz, yy]]


PM_LABELS = [["Z1", "Z2", "ZZ"], ["X2", "X1", "XX"], ["ZX", "XZ", "YY"]]


def singlet() -> np.ndarray:
    """Two-qubit singlet density matrix."""
    return dm([0, 1, -1, 0])


def werner_state(alpha: float) -> np.ndarray:
    """Singlet mixed with white noise: alpha*|psi-><psi-| + (1-alpha)/4 * I."""
    if not -1 / 3 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [-1/3, 1], got {alpha}")
    return alpha * singlet() + (1 - alpha) / 4 * np.eye(4, dtype=complex)


def max_entangled(d: int) -> np.ndarray:
    """(1/sqrt(d)) * sum_k |kk> as a unit-norm column vector."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[k * d + k] = 1
    return ket(v / np.sqrt(d))


def eigen_projector(observable, eigenvalue, tol: float = 1e-8) -> np.ndarray:
    """Projector onto the eigenspace of a Hermitian observable at the given eigenvalue."""
    a = _as_matrix(observable)
    if not is_hermitian(a, 1e-10):
        raise ValueError("observable is not Hermitian")
    vals, vecs = np.linalg.eigh(a)
    idxs = [i for i, v in enumerate(vals) if abs(v - eigenvalue) <= tol]
    if not idxs:
        raise ValueError(f"{eigenvalue} is not in the spectrum {sorted(set(np.round(vals, 9)))}")
    return sum(np.outer(vecs[:, i], vecs[:, i].conj()) for i in idxs)


def bloch_state(n: np.ndarray) -> np.ndarray:
    """Qubit density matrix (1/2)(I + n . sigma) for a Bloch vector |n| <= 1."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or np.linalg.norm(n) > 1 + 1e-12:
        raise ValueError(f"Bloch vector must be a 3-vector of norm <= 1, got {n}")
    return 0.5 * (ID2 + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Gaussian square, normalised)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m).real
