"""Per-path correlation state inversion for the local correlation model.

At each simulation step every path carries dollar volatility loadings
a_i = w_i S_i sigma_i(t, S_i) and an index variance target
sigma_B(t, B)^2 B^2 read off the index local volatility at the current
basket level B = sum w_i S_i.  The instantaneous basket variance under a
correlation matrix R is the quadratic form a' R a, so matching the index
market means solving

    a' R(u, kappa) a = target

inside the one-parameter family.  In flat mode both branches are Moebius
in u^2 and invert in closed form; for non-flat modes a monotone bisection
takes over.  The reachable band is [cov_down, cov_up] from the two branch
limits; targets outside it are clamped to the extreme state and flagged
as dispersion bound violations rather than raised, so long simulations
can report a violation fraction instead of dying on one bad step.

The closed-form lowering root divides by (target - diag), honoring the
unit diagonal of the family members.  A widely quoted shortcut divides by
the target alone, which is only exact when the diagonal term vanishes;
the solver can carry that shortcut value along as a diagnostic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corrfam import CorrelationFamily
from ..errors import BoundViolationError, CorrelationError

__all__ = [
    "CovarianceTerms",
    "covariance_terms",
    "StateSolution",
    "solve_state",
    "BoundsReport",
    "check_dispersion_bounds",
]

_REL_EPS = 1e-14

#: state cap: out-of-band targets pin here, and a path at it counts as clamped
U_MAX = 1e3


def _quad_form(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Per-row quadratic form a_p' M a_p for a of shape (paths, n)."""
    return np.einsum("pi,pi->p", a @ mat, a)


@dataclass(frozen=True)
class CovarianceTerms:
    """Quadratic forms of the loading vectors against the family anchors.

    All entries are in price^2 per year.  ``cov_ones`` is the quadratic
    form against the all-ones matrix, i.e. (sum a_i)^2; ``diag`` is
    sum a_i^2.  ``cov_up`` and ``cov_down`` are the branch limits of the
    configured family and coincide with ``cov_ones`` and ``diag`` under
    the default raising and lowering directions.
    """

    a: np.ndarray  # (paths, n) dollar vol loadings
    target: np.ndarray  # (paths,) index local variance times basket^2
    cov_center: np.ndarray
    cov_ones: np.ndarray
    diag: np.ndarray
    cov_up: np.ndarray
    cov_down: np.ndarray

    def __post_init__(self):
        for name in ("a", "target", "cov_center"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise CorrelationError(f"non-finite values in covariance term {name}")


def covariance_terms(
    spots,
    vols,
    weights,
    index_vol,
    family: CorrelationFamily,
) -> CovarianceTerms:
    """Quadratic forms at the current state, one row per path.

    ``spots`` and ``vols`` are (paths, n); ``index_vol`` is the index
    local volatility already evaluated at the basket level sum w_i S_i.
    """
    spots = np.atleast_2d(np.asarray(spots, dtype=float))
    vols = np.atleast_2d(np.asarray(vols, dtype=float))
    weights = np.asarray(weights, dtype=float)
    a = spots * vols * weights[None, :]
    basket = spots @ weights
    target = np.square(np.atleast_1d(np.asarray(index_vol, dtype=float))) * np.square(basket)
    row_sums = a.sum(axis=1)
    cov_ones = np.square(row_sums)
    diag = np.einsum("pi,pi->p", a, a)
    cov_center = _quad_form(a, family.center)
    up, down = family.limit(1), family.limit(0)
    cov_up = cov_ones if np.all(up == 1.0) else _quad_form(a, up)
    cov_down = diag if np.array_equal(down, np.eye(down.shape[0])) else _quad_form(a, down)
    return CovarianceTerms(
        a=a,
        target=target,
        cov_center=cov_center,
        cov_ones=cov_ones,
        diag=diag,
        cov_up=cov_up,
        cov_down=cov_down,
    )


@dataclass(frozen=True)
class StateSolution:
    """Solved states with branch flags and violation bookkeeping."""

    u: np.ndarray
    kappa: np.ndarray  # int, 1 raising / 0 lowering
    violated_high: np.ndarray  # bool, target above the raising limit
    violated_low: np.ndarray  # bool, target below the lowering limit
    simplified_u: np.ndarray | None = None  # lowering-branch shortcut root

    @property
    def signed(self) -> np.ndarray:
        """Signed state encoding: positive raising, negative lowering."""
        return np.where(self.kappa > 0, self.u, -self.u)

    @property
    def n_violations(self) -> int:
        return int(np.count_nonzero(self.violated_high) + np.count_nonzero(self.violated_low))


def _bisect_branch(
    a: np.ndarray,
    family: CorrelationFamily,
    branch: int,
    target: np.ndarray,
    u_max: float,
    iters: int = 64,
) -> np.ndarray:
    lo = np.zeros(target.size)
    hi = np.full(target.size, u_max)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = family.quad_form(a, mid, branch)
        go_up = (val < target) if branch else (val > target)
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    return 0.5 * (lo + hi)


def solve_state(
    terms: CovarianceTerms,
    family: CorrelationFamily,
    *,
    u_max: float = U_MAX,
    track_simplified: bool = False,
) -> StateSolution:
    """Invert the family so each path's basket variance hits its target.

    Closed form in flat mode, per-path bisection otherwise.  Targets
    outside the reachable band clamp to ``u_max`` on the relevant branch
    and are flagged; callers decide how much violation to tolerate.
    """
    target = terms.target
    c0, c_up, c_dn = terms.cov_center, terms.cov_up, terms.cov_down
    scale = np.maximum(np.abs(c_up), 1e-300)
    raising = target >= c0
    violated_high = raising & (target >= c_up - scale * _REL_EPS) & (c_up - c0 > scale * _REL_EPS)
    violated_low = ~raising & (target <= c_dn + scale * _REL_EPS) & (c0 - c_dn > scale * _REL_EPS)

    if family.flat_mode:
        with np.errstate(divide="ignore", invalid="ignore"):
            num_up = target - c0
            u2_up = np.where(num_up <= scale * _REL_EPS, 0.0, num_up / (c_up - target))
            num_dn = c0 - target
            u2_dn = np.where(num_dn <= scale * _REL_EPS, 0.0, num_dn / (target - c_dn))
        u2 = np.where(raising, u2_up, u2_dn)
        u2 = np.where(np.isfinite(u2) & (u2 >= 0.0), u2, u_max**2)
        u = np.minimum(np.sqrt(u2), u_max)
    else:
        u = np.zeros(target.size)
        for branch, mask in ((1, raising), (0, ~raising)):
            rows = np.flatnonzero(mask)
            if rows.size == 0:
                continue
            u[rows] = _bisect_branch(terms.a[rows], family, branch, target[rows], u_max)
    u = np.where(violated_high | violated_low, u_max, u)
    kappa = raising.astype(np.int64)

    simplified = None
    if track_simplified:
        with np.errstate(divide="ignore", invalid="ignore"):
            s2 = (c0 - target) / target
        simplified = np.where(~raising & (s2 > 0.0), np.sqrt(np.abs(s2)), np.nan)
    return StateSolution(
        u=u,
        kappa=kappa,
        violated_high=violated_high,
        violated_low=violated_low,
        simplified_u=simplified,
    )


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Summary of how targets sit inside the reachable variance band."""

    n_checked: int
    n_low: int
    n_high: int
    worst_low: float  # largest relative shortfall below the lower limit
    worst_high: float  # largest relative excess above the upper limit

    @property
    def ok(self) -> bool:
        return self.n_low == 0 and self.n_high == 0

    @property
    def fraction_violated(self) -> float:
        if self.n_checked == 0:
            return 0.0
        return (self.n_low + self.n_high) / self.n_checked

    def require(self, max_fraction: float = 0.0):
        if self.fraction_violated > max_fraction:
            raise BoundViolationError(
                f"{self.n_low} low / {self.n_high} high violations out of "
                f"{self.n_checked} checks, worst {self.worst_low:.3e} / {self.worst_high:.3e}"
            )


def check_dispersion_bounds(terms: CovarianceTerms) -> BoundsReport:
    """Count targets escaping the reachable band [cov_down, cov_up].

    Under default directions the band is [diag, cov_ones], the no-arbitrage
    corridor between fully independent and comonotone constituents.
    """
    target = terms.target
    scale = np.maximum(np.abs(terms.cov_up), 1e-300)
    lower = terms.cov_down
    low = target < lower - scale * 1e-12
    high = target > terms.cov_up + scale * 1e-12
    worst_low = float(np.max((lower - target) / scale, initial=0.0))
    worst_high = float(np.max((target - terms.cov_up) / scale, initial=0.0))
    return BoundsReport(
        n_checked=int(target.size),
        n_low=int(np.count_nonzero(low)),
        n_high=int(np.count_nonzero(high)),
        worst_low=max(worst_low, 0.0),
        worst_high=max(worst_high, 0.0),
    )
