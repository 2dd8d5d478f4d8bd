"""One-parameter correlation families and their exact two-factor sampler.

A family is anchored at a center correlation matrix and indexed by a
scalar state u >= 0 together with a branch flag kappa in {0, 1}.  Both
branches share one functional form on the off-diagonal,

    rho_ij(u) = (C_ij + u^2 xi_i xi_j D_ij) / sqrt((1 + xi_i^2 u^2)(1 + xi_j^2 u^2))

with an exactly unit diagonal.  C is the center, xi > 0 is the mode
vector controlling how fast each asset reacts to the state, and D is a
branch direction matrix: the raising branch (kappa = 1) uses the all-ones
direction by default and drives every pair toward comonotonicity, the
lowering branch (kappa = 0) uses the identity and shrinks every pair
toward independence.  Custom directions with unit diagonal generalize
both limits; parameterizing the lowering branch from the center outward
keeps the signed state axis continuous through zero, and is equivalent to
anchoring the family at the lowering limit under the substitution
u -> 1/u.

Positive semidefiniteness is preserved across the family: the numerator
adds a Schur product of PSD matrices to a PSD center, and the
normalisation is a congruence by a positive diagonal.

The same structure samples every member exactly from fixed factors.  With
L_C and L_D lower Cholesky factors of C and D, Xi = diag(xi),
S(u) = diag(1 / sqrt(1 + xi_i^2 u^2)) and independent standard normal
vectors z1, z2,

    x = S(u) (L_C z1 + u Xi L_D z2)

has covariance S (C + u^2 Xi D Xi) S = R(u, kappa), because Xi D Xi is
the Schur product of xi xi' with D.  No state grid is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorrelationError

__all__ = [
    "validate_correlation",
    "validate_psd",
    "repair_psd",
    "cholesky_lower",
    "CorrelationFamily",
]

#: absolute tolerance of the symmetry, diagonal and entry-bound checks
_ENTRY_TOL = 1e-10

#: eigenvalues above this (negative) cutoff are treated as rounding noise
REPAIR_TOL = -1e-8

#: Cholesky pivots below this magnitude are flushed to zero
_PIVOT_TOL = 1e-12


def validate_correlation(mat: np.ndarray) -> np.ndarray:
    """Check symmetry, unit diagonal and entry bounds; return a float copy."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise CorrelationError("correlation matrix must be square")
    if not np.allclose(a, a.T, atol=_ENTRY_TOL):
        raise CorrelationError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(a), 1.0, atol=_ENTRY_TOL):
        raise CorrelationError("correlation matrix must have unit diagonal")
    if np.any(np.abs(a) > 1.0 + _ENTRY_TOL):
        raise CorrelationError("correlation entries must lie in [-1, 1]")
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 1.0)
    return np.clip(a, -1.0, 1.0)


def validate_psd(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric unit-diagonal matrix.

    Shape requirements raise; the caller chooses the acceptance threshold
    on the returned eigenvalue.
    """
    a = validate_correlation(mat)
    return float(np.linalg.eigvalsh(a)[0])


def repair_psd(mat: np.ndarray) -> np.ndarray:
    """Return ``mat`` or an eigenvalue-clipped repair of it.

    Minimum eigenvalues in (REPAIR_TOL, 0) count as rounding noise: the
    spectrum is clipped at zero and the diagonal renormalised back to
    one.  Anything below ``REPAIR_TOL`` raises.
    """
    a = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eigh(a)
    lo = float(vals[0])
    if lo >= 0.0:
        return a
    if lo < REPAIR_TOL:
        raise CorrelationError(f"matrix is not positive semidefinite, min eigenvalue {lo:.3e}")
    repaired = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    d = np.sqrt(np.diag(repaired))
    repaired = repaired / np.outer(d, d)
    np.fill_diagonal(repaired, 1.0)
    return 0.5 * (repaired + repaired.T)


def cholesky_lower(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, tolerating semidefinite matrices.

    Standard library routines reject singular PSD inputs such as the
    all-ones matrix, which this family reaches in its comonotone limit.
    Pivots in (-_PIVOT_TOL, _PIVOT_TOL) are flushed to zero and their
    columns zeroed below the diagonal; a pivot below -_PIVOT_TOL raises.
    """
    a = np.asarray(mat, dtype=float)
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - np.dot(low[j, :j], low[j, :j])
        if d < -_PIVOT_TOL:
            raise CorrelationError(f"negative pivot {d:.3e} at column {j}")
        if d <= _PIVOT_TOL:
            continue
        root = np.sqrt(d)
        low[j, j] = root
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / root
    return low


# ----------------------------------------------------------------------


@dataclass(eq=False)
class CorrelationFamily:
    """State-indexed correlation family around a center matrix.

    The default is flat mode (unit mode vector), under which portfolio
    covariance along either branch is linear in lambda = u^2 / (1 + u^2)
    with a closed-form inverse; for non-flat modes the state solver runs
    a safeguarded Newton iteration in lambda on ``quad_form_slope``.
    ``draw`` samples any member exactly from the Cholesky factors of the
    center and both directions, computed once at construction.
    """

    center: np.ndarray
    mode: np.ndarray | None = None
    up: np.ndarray | None = None
    down: np.ndarray | None = None

    def __post_init__(self):
        self.center = repair_psd(validate_correlation(self.center))
        n = self.center.shape[0]
        if self.mode is None:
            self.mode = np.ones(n)
        else:
            self.mode = np.asarray(self.mode, dtype=float)
            if self.mode.shape != (n,) or np.any(self.mode <= 0.0):
                raise CorrelationError("mode vector must be positive, one entry per asset")
        if self.up is None:
            self.up = np.ones((n, n))
        else:
            self.up = repair_psd(validate_correlation(self.up))
        if self.down is None:
            self.down = np.eye(n)
        else:
            self.down = repair_psd(validate_correlation(self.down))
        # built once and only read afterwards, so worker threads share them safely
        self._chol_center = cholesky_lower(self.center)
        self._chol_dirs = (cholesky_lower(self.down), cholesky_lower(self.up))  # by kappa

    @property
    def n_assets(self) -> int:
        return self.center.shape[0]

    @property
    def flat_mode(self) -> bool:
        """True when every mode entry is one; enables closed-form inversion."""
        return bool(np.all(self.mode == 1.0))

    def direction(self, kappa: int) -> np.ndarray:
        return self.up if kappa else self.down

    def evaluate(self, u: float, kappa: int) -> np.ndarray:
        """Correlation matrix at state ``u`` on branch ``kappa``."""
        if not np.isfinite(u) or u < 0.0:
            raise CorrelationError("state u must be finite and non-negative")
        if kappa not in (0, 1):
            raise CorrelationError("branch flag kappa must be 0 or 1")
        xi = self.mode
        u2 = u * u
        scale = 1.0 / np.sqrt(1.0 + np.square(xi) * u2)
        num = self.center + u2 * np.outer(xi, xi) * self.direction(kappa)
        out = num * np.outer(scale, scale)
        np.fill_diagonal(out, 1.0)
        return out

    def quad_form(self, a: np.ndarray, u: np.ndarray, kappa) -> np.ndarray:
        """Per-row a_p' R(u_p, kappa_p) a_p for loadings ``a`` of shape (p, n).

        S(u) and the center term are shared by both branches; only the
        direction term depends on ``kappa``.  A scalar ``kappa`` evaluates
        that one branch, a per-row array selects between both.
        """
        _, b, c = self._scaled(a, u)

        def form(x, mat):
            return np.einsum("pi,pi->p", x @ mat, x)

        if np.ndim(kappa) == 0:
            along = form(c, self.direction(kappa))
        else:
            along = np.where(kappa > 0, form(c, self.up), form(c, self.down))
        return form(b, self.center) + np.square(u) * along

    def quad_form_slope(self, a: np.ndarray, u: np.ndarray, kappa: int):
        """``quad_form`` on one branch and its derivative in lambda = u^2 / (1 + u^2).

        With s_i = 1 / sqrt(1 + xi_i^2 u^2), b = s a, c = xi b and
        w = (xi s)^2 the form is f = b'Cb + u^2 c'Dc, and

            df/dlambda = [-(Cb).(w b) + c'Dc - u^2 (Dc).(w c)] (1 + u^2)^2

        since d(u^2)/dlambda = (1 + u^2)^2.  The derivative reuses the two
        matrix products of the value; the value has ``quad_form``'s bits.
        """
        scale, b, c = self._scaled(a, u)
        cb = b @ self.center
        dc = c @ self.direction(kappa)
        along = np.einsum("pi,pi->p", dc, c)
        u2 = np.square(u)
        value = np.einsum("pi,pi->p", cb, b) + u2 * along
        w = np.square(self.mode[None, :] * scale)
        slope = along - np.einsum("pi,pi->p", cb, w * b) - u2 * np.einsum("pi,pi->p", dc, w * c)
        return value, slope * np.square(1.0 + u2)

    def _scaled(self, a: np.ndarray, u: np.ndarray):
        """S(u) per row, and the loadings b = S(u) a and c = Xi b."""
        scale = 1.0 / np.sqrt(1.0 + np.square(self.mode)[None, :] * np.square(u)[:, None])
        b = a * scale
        return scale, b, b * self.mode[None, :]

    def mean_correlation(self, u: np.ndarray, kappa) -> np.ndarray:
        """Mean off-diagonal entry of R(u_p, kappa_p) per row, (1'R1 - n) / (n (n - 1))."""
        n = self.n_assets
        if n == 1:
            return np.zeros(u.size)
        return (self.quad_form(np.ones((u.size, n)), u, kappa) - n) / (n * (n - 1))

    def draw(self, z: np.ndarray, u: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """Map normals ``z`` of shape (p, 2n) to rows with correlation R(u_p, kappa_p).

        The map is S(u) (L_C z1 + u Xi L_D z2) from the Cholesky factors of
        the center and of both branch directions, so a draw costs the same
        few matrix products whatever the states are.
        """
        n = self.mode.size
        z1, z2 = z[:, :n], z[:, n:]
        down, up = self._chol_dirs
        along = np.where(kappa[:, None] > 0, z2 @ up.T, z2 @ down.T)
        xu = self.mode[None, :] * u[:, None]
        return (z1 @ self._chol_center.T + xu * along) / np.sqrt(1.0 + np.square(xu))

    def limit(self, kappa: int) -> np.ndarray:
        """Correlation matrix in the u -> infinity limit of a branch."""
        out = self.direction(kappa).copy()
        np.fill_diagonal(out, 1.0)
        return out
