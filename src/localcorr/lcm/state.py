"""Per-path correlation state inversion for the local correlation model.

At each simulation step every path carries dollar volatility loadings
a_i = w_i S_i sigma_i(t, S_i) and an index variance target
sigma_B(t, B)^2 B^2 read off the index local volatility at the current
basket level B = sum w_i S_i.  The instantaneous basket variance under a
correlation matrix R is the quadratic form a' R a, so matching the index
market means solving

    a' R(u, kappa) a = target

inside the one-parameter family.  In flat mode both branches are linear
in lambda = u^2 / (1 + u^2) and invert in closed form; for non-flat modes
a safeguarded Newton iteration in lambda (rtsafe, Numerical Recipes 9.4)
starts from that closed-form ratio.  The reachable band is
[cov_down, cov_up] from the two branch limits; targets outside it are
clamped to the extreme state and flagged as dispersion bound violations
rather than raised, so long simulations can report a violation fraction
instead of dying on one bad step.  The solver and the preflight
``check_dispersion_bounds`` share one band test.

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

#: iteration cap of the non-flat state solve
_MAX_ITERS = 64

#: state cap: out-of-band targets pin here, and a path at it counts as clamped
U_MAX = 1e3
_LAM_MAX = U_MAX**2 / (1.0 + U_MAX**2)  # the cap in lambda = u^2 / (1 + u^2)


def _quad_form(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Per-row quadratic form a_p' M a_p for a of shape (paths, n)."""
    return np.einsum("pi,pi->p", a @ mat, a)


@dataclass(frozen=True)
class CovarianceTerms:
    """Quadratic forms of the loading vectors against the family anchors.

    All entries are in price^2 per year.  ``diag`` is sum a_i^2.
    ``cov_up`` and ``cov_down`` are the branch limits of the configured
    family; under the default raising and lowering directions they are
    (sum a_i)^2 and ``diag``.
    """

    a: np.ndarray  # (paths, n) dollar vol loadings
    target: np.ndarray  # (paths,) index local variance times basket^2
    cov_center: np.ndarray
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
    diag = np.einsum("pi,pi->p", a, a)
    cov_center = _quad_form(a, family.center)
    up, down = family.limit(1), family.limit(0)
    cov_up = np.square(a.sum(axis=1)) if np.all(up == 1.0) else _quad_form(a, up)
    cov_down = diag if np.array_equal(down, np.eye(down.shape[0])) else _quad_form(a, down)
    return CovarianceTerms(
        a=a,
        target=target,
        cov_center=cov_center,
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


def _band(terms: CovarianceTerms):
    """Scale, branch choice and band-violation flags of every target.

    Returns ``(scale, raising, violated_high, violated_low)``.  A target
    on the band edge counts as violating; a branch whose limit does not
    move away from the center flags nothing.
    """
    target = terms.target
    c0, c_up, c_dn = terms.cov_center, terms.cov_up, terms.cov_down
    scale = np.maximum(np.abs(c_up), 1e-300)
    raising = target >= c0
    violated_high = raising & (target >= c_up - scale * _REL_EPS) & (c_up - c0 > scale * _REL_EPS)
    violated_low = ~raising & (target <= c_dn + scale * _REL_EPS) & (c0 - c_dn > scale * _REL_EPS)
    return scale, raising, violated_high, violated_low


def _newton_branch(
    a: np.ndarray,
    family: CorrelationFamily,
    branch: int,
    target: np.ndarray,
    c0: np.ndarray,
    c_lim: np.ndarray,
) -> np.ndarray:
    """Safeguarded Newton in lambda on one branch; returns u per row.

    Starts from the flat-mode root (target - c0) / (c_lim - c0).  The
    sign bracket [lo, hi] keeps the residual below the target at lo and
    above it at hi (mirrored on the lowering branch), so it holds a root
    even where the branch is not monotone.  A Newton step strictly
    outside the bracket is replaced by one bisection step.  A step onto a
    bracket end is kept: near the root a step rounds onto the point just
    evaluated, which is a bracket end.  A row stops once its residual is
    within ``_REL_EPS`` of ``c_lim`` and leaves the active set; a step of
    a few ulp is no stop signal, because converged rows keep swinging by
    that much.
    """
    sign = 1.0 if branch else -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (target - c0) / (c_lim - c0)
    lam = np.where(np.isfinite(lam), np.clip(lam, 0.0, _LAM_MAX), 0.5 * _LAM_MAX)
    tol = _REL_EPS * np.abs(c_lim)
    lo = np.zeros(target.size)
    hi = np.full(target.size, _LAM_MAX)
    rows = np.arange(target.size)
    for _ in range(_MAX_ITERS):
        x = lam[rows]
        val, slope = family.quad_form_slope(a[rows], np.sqrt(x / (1.0 - x)), branch)
        resid = val - target[rows]
        below = sign * resid < 0.0
        lo_r = np.where(below, x, lo[rows])
        hi_r = np.where(below, hi[rows], x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - resid / slope
        step = np.where((step >= lo_r) & (step <= hi_r), step, 0.5 * (lo_r + hi_r))
        live = np.abs(resid) > tol[rows]
        rows = rows[live]
        lam[rows], lo[rows], hi[rows] = step[live], lo_r[live], hi_r[live]
        if rows.size == 0:
            break
    return np.sqrt(lam / (1.0 - lam))


def solve_state(
    terms: CovarianceTerms,
    family: CorrelationFamily,
    *,
    track_simplified: bool = False,
) -> StateSolution:
    """Invert the family so each path's basket variance hits its target.

    Closed form in flat mode, safeguarded Newton in lambda = u^2 / (1 + u^2)
    otherwise, at most ``_MAX_ITERS`` iterations per row.  Every state lies
    in [0, ``U_MAX``]; targets outside the reachable band clamp to ``U_MAX``
    on the relevant branch and are flagged, and callers decide how much
    violation to tolerate.  ``track_simplified`` also returns the lowering
    branch's shortcut root as ``simplified_u``.
    """
    target = terms.target
    c0, c_up, c_dn = terms.cov_center, terms.cov_up, terms.cov_down
    scale, raising, violated_high, violated_low = _band(terms)
    violated = violated_high | violated_low

    if family.flat_mode:
        with np.errstate(divide="ignore", invalid="ignore"):
            num_up = target - c0
            u2_up = np.where(num_up <= scale * _REL_EPS, 0.0, num_up / (c_up - target))
            num_dn = c0 - target
            u2_dn = np.where(num_dn <= scale * _REL_EPS, 0.0, num_dn / (target - c_dn))
        u2 = np.where(raising, u2_up, u2_dn)
        u2 = np.where(np.isfinite(u2) & (u2 >= 0.0), u2, U_MAX**2)
        u = np.minimum(np.sqrt(u2), U_MAX)
    else:
        u = np.zeros(target.size)
        for branch, c_lim, mask in ((1, c_up, raising), (0, c_dn, ~raising)):
            rows = np.flatnonzero(mask & ~violated)
            if rows.size:
                u[rows] = _newton_branch(
                    terms.a[rows], family, branch, target[rows], c0[rows], c_lim[rows]
                )
        u = np.minimum(u, U_MAX)
    u = np.where(violated, U_MAX, u)
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

    Under default directions the band is [diag, (sum a_i)^2], the
    no-arbitrage corridor between fully independent and comonotone
    constituents.  The counts are the flags ``solve_state`` raises on the
    same terms.
    """
    target = terms.target
    scale, _, high, low = _band(terms)
    lower = terms.cov_down
    worst_low = float(np.max((lower - target) / scale, initial=0.0))
    worst_high = float(np.max((target - terms.cov_up) / scale, initial=0.0))
    return BoundsReport(
        n_checked=int(target.size),
        n_low=int(np.count_nonzero(low)),
        n_high=int(np.count_nonzero(high)),
        worst_low=max(worst_low, 0.0),
        worst_high=max(worst_high, 0.0),
    )
