"""One-parameter correlation families and their exact two-factor sampler.

A family is anchored at a center correlation matrix and indexed by a
scalar state u >= 0 together with a branch flag kappa in {0, 1}.  Both
branches share one functional form on the off-diagonal,

    rho_ij(u) = (C_ij + u^2 xi_i xi_j D_ij) / sqrt((1 + xi_i^2 u^2)(1 + xi_j^2 u^2))

with an exactly unit diagonal.  C is the center, xi > 0 is the mode
vector controlling how fast each asset reacts to the state, and D is the
fixed branch limit: the raising branch (kappa = 1) uses the all-ones
matrix and drives every pair toward comonotonicity, the lowering branch
(kappa = 0) uses the identity and shrinks every pair toward independence.
Parameterizing the lowering branch from the center outward keeps the
signed state axis continuous through zero, and is equivalent to anchoring
the family at the lowering limit under the substitution u -> 1/u.

The engine carries the state as lambda = u^2 / (1 + u^2) in [0, 1), the
weight of the branch limit: in flat mode (xi = 1) every member is

    R = (C + u^2 D) / (1 + u^2) = (1 - lambda) C + lambda D,

linear in lambda.  ``state_u`` is the one conversion back to u:
``evaluate`` takes u, and the non-flat ``draw`` converts each row's lambda
with it.  A limit's quadratic form needs no matrix: a'Da is (sum a_i)^2
raising and sum a_i^2 lowering.

Other modes usually take few distinct values.  The assets sharing one
mode xi_g form a mode group, and every S(u) entry in it is the same
s_g = 1 / sqrt(1 + xi_g^2 v) at v = u^2 = lambda / (1 - lambda).  So a
row's a'R a is the form s'As in the G group scales s: ``group_forms``
builds the per-row group cross-forms A_gh = a_g' C_gh a_h as one
(G, G, rows) array A, with the group sums of a_i and a_i^2, and
``group_form_slope`` evaluates the form and its lambda slope from them by
contractions of A per row at v with no square root, each row on its own
branch.  The state solve's Newton runs on them for every non-flat family.

Positive semidefiniteness is preserved across the family: the numerator
adds a Schur product of PSD matrices to a PSD center, and the
normalisation is a congruence by a positive diagonal.

The same structure samples every member exactly from fixed factors.  With
L_C and L_D lower Cholesky factors of C and D, Xi = diag(xi),
S(u) = diag(1 / sqrt(1 + xi_i^2 u^2)) and independent standard normal
vectors z1, z2,

    x = S(u) (L_C z1 + u Xi L_D z2)

has covariance S (C + u^2 Xi D Xi) S = R(u, kappa), because Xi D Xi is
the Schur product of xi xi' with D.  No state grid is needed.  L_D is a
unit first column (raising) or the identity (lowering), so the limit term
needs no matrix product.

Two kinds of family need only n normals.  With one asset every member is
[1].  In flat mode with an equicorrelated center (C_ij = rho for i != j)
every member is an equicorrelation matrix whose off-diagonal level is its
mean correlation, rho' = rho + lambda (1 - rho) raising and
(1 - lambda) rho lowering, and

    x = alpha z + beta (1'z) 1,  alpha = sqrt(1 - rho'),
    beta = (sqrt(1 + (n - 1) rho') - alpha) / n

has covariance alpha^2 I + (2 alpha beta + n beta^2) 11' = R(u, kappa)
(Glasserman, *Monte Carlo Methods in Financial Engineering*, 2.3).

In flat mode the mean pairwise correlation is linear in lambda too,
between the center's mean off-diagonal entry and the branch limit's
(1 raising, 0 lowering), from constants fixed per family, so it costs
O(1) per path.  Other modes read it off the group scales: with all-ones
loadings the group cross-forms are the constants K_gh = 1_g' C_gh 1_h,
so it costs one (rows, G) x (G, G) product per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorrelationError

__all__ = [
    "validate_correlation",
    "repair_psd",
    "cholesky_lower",
    "CorrelationFamily",
    "state_u",
]

#: absolute tolerance of the symmetry, diagonal and entry-bound checks
_ENTRY_TOL = 1e-10

#: eigenvalues above this (negative) cutoff are treated as rounding noise
REPAIR_TOL = -1e-8

#: Cholesky pivots below this magnitude are flushed to zero
_PIVOT_TOL = 1e-12


def validate_correlation(mat: np.ndarray) -> np.ndarray:
    """Check finiteness, symmetry, unit diagonal and entry bounds; return a float copy."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise CorrelationError("correlation matrix must be square")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        raise CorrelationError(
            f"non-finite correlation entries: {len(bad)} of {a.size}, first at "
            f"{tuple(bad[0].tolist())}"
        )
    if not np.allclose(a, a.T, atol=_ENTRY_TOL):
        raise CorrelationError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(a), 1.0, atol=_ENTRY_TOL):
        raise CorrelationError("correlation matrix must have unit diagonal")
    if np.any(np.abs(a) > 1.0 + _ENTRY_TOL):
        raise CorrelationError("correlation entries must lie in [-1, 1]")
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 1.0)
    return np.clip(a, -1.0, 1.0)


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


def state_u(lam):
    """The state u of lambda = u^2 / (1 + u^2): sqrt(lambda / (1 - lambda))."""
    return np.sqrt(lam / (1.0 - lam))


def _form(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Per-row quadratic form a_p' M a_p for a of shape (p, n)."""
    return np.einsum("pi,pi->p", a @ mat, a)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """sum_i a_pi per row; ``sum(axis=1)``'s bits on column-major rows, and
    several times faster than it on row-major ones."""
    return np.einsum("pi->p", a)


def _limit_form(a: np.ndarray, kappa: int) -> np.ndarray:
    """Per-row a_p' D a_p at the branch limit D of ``kappa``: (sum_i a_pi)^2
    raising, sum_i a_pi^2 lowering."""
    return np.square(_row_sum(a)) if kappa else np.einsum("pi,pi->p", a, a)


# ----------------------------------------------------------------------


@dataclass(eq=False)
class CorrelationFamily:
    """State-indexed correlation family around a center matrix.

    The default is flat mode (unit mode vector), under which portfolio
    covariance along either branch is linear in lambda = u^2 / (1 + u^2)
    with a closed-form inverse; for non-flat modes the state solver runs
    a safeguarded Newton iteration in lambda on ``group_form_slope``.
    The branch limits are fixed: ``up`` is the all-ones matrix and
    ``down`` the identity.  ``draw`` samples any member exactly from
    ``n_normals`` normals per row, through the Cholesky factor of the
    center computed once at construction, or through the equicorrelation
    map.
    """

    center: np.ndarray
    mode: np.ndarray | None = None

    def __post_init__(self):
        center = validate_correlation(self.center)
        n = center.shape[0]
        off = center[~np.eye(n, dtype=bool)]
        rho = float(off[0]) if n > 1 and np.all(off == off[0]) else None
        # an equicorrelation matrix is PSD exactly when 1 + (n - 1) rho >= 0, so
        # it is kept as given rather than repaired for its eigenvalues' rounding;
        # every member's rho' is at least rho, so draw's square roots stay real
        if rho is None or 1.0 + (n - 1) * rho < 0.0:
            center, rho = repair_psd(center), None
        self.center = center
        if self.mode is None:
            self.mode = np.ones(n)
        else:
            self.mode = np.asarray(self.mode, dtype=float)
            if self.mode.shape != (n,) or not np.all(np.isfinite(self.mode) & (self.mode > 0.0)):
                raise CorrelationError("mode vector must be positive, one entry per asset")
        # built once and only read afterwards, so every block reads the same factors
        self._chol_center = cholesky_lower(self.center)
        #: True when every mode entry is one; enables closed-form inversion
        self.flat_mode = bool(np.all(self.mode == 1.0))
        # flat-mode mean off-diagonal entry of the center (rho itself when the
        # center is equicorrelated, so no drawn level falls below it) and each
        # branch limit's step from it, by kappa: the identity's mean entry is 0
        # and the all-ones matrix's is 1
        pairs = max(n * (n - 1), 1)
        self._mean_center = rho if rho is not None else (float(self.center.sum()) - n) / pairs
        self._mean_steps = (-self._mean_center, 1.0 - self._mean_center)
        # the center's common off-diagonal entry when every member is an
        # equicorrelation matrix, else None
        self._equi_rho = rho if self.flat_mode else None
        self._n_normals = n if n == 1 or self._equi_rho is not None else 2 * n
        # mode groups: the distinct modes xi_g, the (G, n) membership, the center
        # with the columns off group h zeroed in row block h, and K_gh = 1_g' C_gh 1_h
        self._group_xi, group = np.unique(self.mode, return_inverse=True)
        member = (np.arange(self._group_xi.size)[:, None] == group).astype(float)
        self._group_member = member
        self._group_center = (self.center * member[:, None, :]).reshape(-1, n)
        self._group_sizes = member.sum(axis=1)
        self._group_ones = member @ self.center @ member.T

    @property
    def n_normals(self) -> int:
        """Standard normals per row that ``draw`` maps: n for one asset or a
        flat family with an equicorrelated center, else 2n."""
        return self._n_normals

    @property
    def up(self) -> np.ndarray:
        """The raising branch limit, the all-ones matrix."""
        return np.ones((self.n_assets, self.n_assets))

    @property
    def down(self) -> np.ndarray:
        """The lowering branch limit, the identity."""
        return np.eye(self.n_assets)

    @property
    def n_assets(self) -> int:
        return self.center.shape[0]

    def evaluate(self, u: float, kappa: int) -> np.ndarray:
        """Correlation matrix at state ``u`` on branch ``kappa``."""
        if not np.isfinite(u) or u < 0.0:
            raise CorrelationError("state u must be finite and non-negative")
        if kappa not in (0, 1):
            raise CorrelationError("branch flag kappa must be 0 or 1")
        xi = self.mode
        u2 = u * u
        scale = 1.0 / np.sqrt(1.0 + np.square(xi) * u2)
        num = self.center + u2 * np.outer(xi, xi) * (self.up if kappa else self.down)
        out = num * np.outer(scale, scale)
        np.fill_diagonal(out, 1.0)
        return out

    def group_forms(self, a: np.ndarray):
        """Per-row mode-group forms of loadings ``a`` (p, n) as ``(A, alpha, beta)``.

        Every S(u) entry in group g is the same s_g, so a'R a needs only the
        symmetric (G, G, p) cross-forms A_gh = a_g' C_gh a_h and the (G, p)
        group sums alpha_g = sum_{i in g} a_i and beta_g = sum_{i in g} a_i^2.
        Row block h of ``_group_center`` a' is C_{:, h} a_h; times a' and
        summed over each group's assets it is A, in O(p n G) memory.
        """
        at = a.T
        cross = (self._group_center @ at).reshape(self._group_xi.size, *at.shape)
        cross *= at
        member = self._group_member
        return member @ cross, member @ at, member @ np.square(at)

    def group_form_slope(self, forms, v: np.ndarray, kappa):
        """a'R a and its lambda slope from ``group_forms`` at v = u^2, on branch ``kappa``.

        With s_g = 1 / sqrt(1 + xi_g^2 v) and q_g = xi_g^2 s_g^2 the form is

            f = s'A s + v L,
            L = (sum_g xi_g s_g alpha_g)^2 raising, sum_g q_g beta_g lowering,

        and since ds_g/dv = -q_g s_g / 2, dv/dlambda = (1 + v)^2 and A = A',

            df/dlambda = [-(q s)'A s + L + v dL/dv] (1 + v)^2

        with dL/dv = -(sum xi s alpha)(sum xi s q alpha) raising and
        -sum q^2 beta lowering.  s'A s and the bend (q s)'A s both read one
        contraction A s per row.  ``kappa`` is a scalar or one flag per row:
        both branches' limit terms are formed and each row takes its own.
        """
        cross, alpha, beta = forms
        xi = self._group_xi[:, None]
        s = 1.0 / np.sqrt(1.0 + np.square(xi) * v)
        q = np.square(xi * s)
        cross_s = np.einsum("hgp,hp->gp", cross, s)
        xs, qb = xi * s * alpha, q * beta
        along = np.einsum("gp->p", xs)
        limit, limit_slope = np.where(
            kappa > 0,
            (np.square(along), -along * np.einsum("gp,gp->p", xs, q)),
            (np.einsum("gp->p", qb), -np.einsum("gp,gp->p", qb, q)),
        )
        value = np.einsum("gp,gp->p", s, cross_s) + v * limit
        bend = np.einsum("gp,gp->p", q * s, cross_s)
        return value, (limit - bend + v * limit_slope) * np.square(1.0 + v)

    def mean_correlation(self, lam: np.ndarray, kappa) -> np.ndarray:
        """Mean off-diagonal entry of each row's member at lambda = u^2 / (1 + u^2).

        In flat mode it is m_C + lambda (m_D - m_C) from the center's mean
        entry m_C, fixed at construction, and the branch limit's m_D, 1
        raising and 0 lowering.  Other modes evaluate (1'R1 - n) / (n (n - 1))
        from the mode groups at v = u^2 = lambda / (1 - lambda): with all-ones
        loadings the group forms are the constants K_gh = 1_g' C_gh 1_h and the
        group sizes n_g, so 1'R1 = s'K s + v L with L = (sum_g xi_g s_g n_g)^2
        raising and sum_g xi_g^2 s_g^2 n_g lowering, from each row's (p, G)
        scales s_g.
        """
        n = self.n_assets
        if n == 1:
            return np.zeros(lam.size)
        if self.flat_mode:
            down, up = self._mean_steps
            return self._mean_center + lam * np.where(kappa > 0, up, down)
        v = lam / (1.0 - lam)
        s = 1.0 / np.sqrt(1.0 + np.square(self._group_xi)[None, :] * v[:, None])
        xs = s * self._group_xi[None, :]
        up = np.square(xs @ self._group_sizes)
        down = np.square(xs) @ self._group_sizes
        total = np.einsum("pg,pg->p", s @ self._group_ones, s) + v * np.where(kappa > 0, up, down)
        return (total - n) / (n * (n - 1))

    def draw(self, z: np.ndarray, lam: np.ndarray, kappa: np.ndarray,
             level: np.ndarray) -> np.ndarray:
        """Map normals ``z`` of shape (p, ``n_normals``) to rows with correlation R(u_p, kappa_p).

        ``lam`` is lambda = u^2 / (1 + u^2) per row and ``level`` its
        ``mean_correlation``.  One asset returns ``z`` itself.  An
        equicorrelated family maps n normals by alpha z + beta (1'z) 1 at
        each row's level rho'.  Every other family maps 2n normals by
        S(u) (L_C z1 + u Xi L_D z2) at u = ``state_u(lam)``, from the
        Cholesky factor of the center, so a draw costs one matrix product
        whatever the states are.  L_D z2 is z2's first entry (raising) or
        z2 itself (lowering), and in flat mode S(u) is one scale per row;
        both shortcuts give the general map's bits.
        """
        n = self.mode.size
        if n == 1:
            return z
        if self._equi_rho is not None:
            alpha = np.sqrt(1.0 - level)
            beta = (np.sqrt(1.0 + (n - 1) * level) - alpha) / n
            x = z * alpha[:, None]
            x += (beta * (z @ np.ones(n)))[:, None]
            return x
        u = state_u(lam)
        z1, z2 = z[:, :n], z[:, n:]
        along = np.where(kappa[:, None] > 0, z2[:, :1], z2)
        xu = u[:, None] if self.flat_mode else self.mode[None, :] * u[:, None]
        return (z1 @ self._chol_center.T + xu * along) / np.sqrt(1.0 + np.square(xu))
