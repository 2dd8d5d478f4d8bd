"""Per-path correlation state inversion for the local correlation model.

At each simulation step every path carries dollar volatility loadings
a_i = w_i S_i sigma_i(t, S_i) and an index variance target
sigma_B(t, B)^2 B^2 read off the index local volatility at the current
basket level B = sum w_i S_i.  The instantaneous basket variance under a
correlation matrix R is the quadratic form a' R a, so matching the index
market means solving

    a' R(u, kappa) a = target

inside the one-parameter family.  The state is solved and carried as
lambda = u^2 / (1 + u^2) in [0, 1), the weight of the branch limit.  In
flat mode both branches are linear in it,

    a' R a = (1 - lambda) cov_center + lambda cov_limit,

with cov_limit = cov_up = (sum a_i)^2 raising, under the all-ones limit,
and diag = sum a_i^2 lowering, under the identity, so one closed form
lambda = (target - cov_center) / (cov_limit - cov_center) solves every
flat family, equicorrelated or not.  For non-flat modes one safeguarded
Newton iteration in lambda (rtsafe, Numerical Recipes 9.4) starts from
that same ratio and runs every row of the step at once, each on its own
branch; a row freezes once it has converged.  Each row's mode-group
forms are taken once per call by matrix products, whatever the group
count, and an iteration contracts them at v = lambda / (1 - lambda).
The reachable band is [diag, cov_up] from the two branch limits; targets
outside it are clamped to the extreme state and flagged as dispersion
bound violations rather than raised, so long simulations can report a
violation fraction instead of dying on one bad step.  The solver and the
preflight ``check_dispersion_bounds`` share one band test.

The cap is one number, ``_LAM_MAX`` = 1e6 / (1 + 1e6) in lambda; ``U_MAX``
is its image under ``state_u``, about 1e3.  Flagged rows take the cap,
and a row at it counts as clamped.

On the lowering branch cov_limit is diag, so the root is
lambda = (cov_center - target) / (cov_center - diag), in u
u^2 = (cov_center - target) / (target - diag): both subtract diag,
honoring the unit diagonal of the family members.  A widely quoted
shortcut divides by the target alone, u^2 = (cov_center - target) / target,
that is lambda = (cov_center - target) / cov_center, which is only exact
when the diagonal term vanishes; the solver does not compute or return it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corrfam import CorrelationFamily, _form, _limit_form, state_u
from ..errors import CorrelationError

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

#: state cap in lambda = u^2 / (1 + u^2): out-of-band targets pin here, and a
#: path at it counts as clamped
_LAM_MAX = 1e6 / (1.0 + 1e6)
#: the same cap in u, about 1e3
U_MAX = float(state_u(_LAM_MAX))


@dataclass(frozen=True)
class CovarianceTerms:
    """Quadratic forms of the loading vectors against the family anchors.

    All entries are in price^2 per year.  ``cov_up`` = (sum a_i)^2 and
    ``diag`` = sum a_i^2 are the forms at the raising and the lowering
    branch limit, and an equicorrelated center's ``cov_center`` is
    (1 - rho) ``diag`` + rho ``cov_up``.
    """

    a: np.ndarray  # (paths, n) dollar vol loadings
    target: np.ndarray  # (paths,) index local variance times basket^2
    cov_center: np.ndarray
    diag: np.ndarray
    cov_up: np.ndarray

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
    diag = _limit_form(a, 0)
    cov_up = _limit_form(a, 1)
    rho = family._equi_rho
    if rho is None:
        cov_center = _form(a, family.center)
    else:  # a'Ca = (1 - rho) sum a_i^2 + rho (sum a_i)^2
        cov_center = (1.0 - rho) * diag + rho * cov_up
    return CovarianceTerms(
        a=a,
        target=target,
        cov_center=cov_center,
        diag=diag,
        cov_up=cov_up,
    )


@dataclass(frozen=True)
class StateSolution:
    """Solved states in lambda = u^2 / (1 + u^2), with branch flags and violation bookkeeping.

    ``level`` is each row's mean pairwise correlation, the family's
    ``mean_correlation`` at the solved state.
    """

    kappa: np.ndarray  # int, 1 raising / 0 lowering
    violated_high: np.ndarray  # bool, target above the raising limit
    violated_low: np.ndarray  # bool, target below the lowering limit
    lam: np.ndarray  # in [0, _LAM_MAX]
    level: np.ndarray

    @property
    def u(self) -> np.ndarray:
        """State per row in [0, ``U_MAX``]."""
        return state_u(self.lam)

    @property
    def signed(self) -> np.ndarray:
        """Signed state encoding: positive raising, negative lowering."""
        u = self.u
        return np.where(self.kappa > 0, u, -u)

    @property
    def clamped(self) -> np.ndarray:
        """Rows at the cap, flagged or not."""
        return self.lam >= _LAM_MAX

    @property
    def n_violations(self) -> int:
        return int(np.count_nonzero(self.violated_high) + np.count_nonzero(self.violated_low))


def _band(terms: CovarianceTerms):
    """Scale, branch choice and band-violation flags of every target.

    Returns ``(scale, raising, violated_high, violated_low)``.  A target
    that moves away from the center is flagged once it reaches its branch
    limit, so a branch whose limit is the center itself or sits on the
    far side of it flags every such target.  A target on the band edge
    counts as violating; a target at the center flags nothing.
    """
    target = terms.target
    scale = np.maximum(np.abs(terms.cov_up), 1e-300)
    tol = scale * _REL_EPS
    gap = target - terms.cov_center  # a gap beyond tol also fixes the branch
    violated_high = (gap > tol) & (target >= terms.cov_up - tol)
    violated_low = (gap < -tol) & (target <= terms.diag + tol)
    return scale, gap >= 0.0, violated_high, violated_low


def _newton(a: np.ndarray, family: CorrelationFamily, kappa: np.ndarray, target: np.ndarray,
            lam: np.ndarray, c_lim: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Safeguarded Newton in lambda from ``lam``, every row at once on its branch ``kappa``.

    The rows' ``group_forms`` are taken once, and each iteration evaluates
    ``group_form_slope`` on every row at v = lambda / (1 - lambda).  Rows
    outside ``live`` start frozen, and a row freezes once its residual is
    within ``_REL_EPS`` of ``c_lim``; the loop ends when none is live.  Each
    row is evaluated from its own forms, so a frozen row moves no other bits.

    The sign bracket [lo, hi] keeps the residual below the target at lo and
    above it at hi (mirrored on the lowering branch), so it holds a root
    even where the branch is not monotone.  A Newton step strictly
    outside the bracket is replaced by one bisection step.  A step onto a
    bracket end is kept: near the root a step rounds onto the point just
    evaluated, which is a bracket end.  A step of a few ulp is no stop
    signal, because converged rows keep swinging by that much.
    """
    forms = family.group_forms(a)
    sign = np.where(kappa > 0, 1.0, -1.0)
    tol = _REL_EPS * np.abs(c_lim)
    lo = np.zeros(target.size)
    hi = np.full(target.size, _LAM_MAX)
    for _ in range(_MAX_ITERS):
        val, slope = family.group_form_slope(forms, lam / (1.0 - lam), kappa)
        resid = val - target
        live = live & (np.abs(resid) > tol)
        if not live.any():
            break
        below = sign * resid < 0.0
        lo = np.where(below, lam, lo)
        hi = np.where(below, hi, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = lam - resid / slope
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        lam = np.where(live, step, lam)
    return lam


def solve_state(terms: CovarianceTerms, family: CorrelationFamily) -> StateSolution:
    """Invert the family so each path's basket variance hits its target.

    Every row starts from the closed form
    lambda = (target - cov_center) / (cov_limit - cov_center) on its
    branch, clipped to [0, ``_LAM_MAX``], which is exact in flat mode; a
    row at the center takes 0 there.  Other modes refine every unflagged
    row by one safeguarded Newton in lambda over all rows, at most
    ``_MAX_ITERS`` iterations; flagged rows start frozen.
    Targets outside the reachable band take ``_LAM_MAX`` on the relevant
    branch and are flagged, and callers decide how much violation to
    tolerate.
    """
    target, c0 = terms.target, terms.cov_center
    scale, raising, violated_high, violated_low = _band(terms)
    violated = violated_high | violated_low
    kappa = raising.astype(np.int64)
    c_lim = np.where(raising, terms.cov_up, terms.diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (target - c0) / (c_lim - c0)
    if family.flat_mode:
        # the band test puts every unflagged row off the center in (0, 1]
        np.minimum(lam, _LAM_MAX, out=lam)
        lam[np.abs(target - c0) <= scale * _REL_EPS] = 0.0
    else:
        lam = np.where(np.isfinite(lam), np.clip(lam, 0.0, _LAM_MAX), 0.5 * _LAM_MAX)
        lam = _newton(terms.a, family, kappa, target, lam, c_lim, ~violated)
    lam[violated] = _LAM_MAX
    return StateSolution(
        kappa=kappa,
        violated_high=violated_high,
        violated_low=violated_low,
        lam=lam,
        level=family.mean_correlation(lam, kappa),
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


def check_dispersion_bounds(terms: CovarianceTerms) -> BoundsReport:
    """Count targets escaping the reachable band [diag, cov_up].

    The band [sum a_i^2, (sum a_i)^2] is the no-arbitrage corridor between
    fully independent and comonotone constituents.  The counts are the
    flags ``solve_state`` raises on the same terms.
    """
    target = terms.target
    scale, _, high, low = _band(terms)
    worst_low = float(np.max((terms.diag - target) / scale, initial=0.0))
    worst_high = float(np.max((target - terms.cov_up) / scale, initial=0.0))
    return BoundsReport(
        n_checked=int(target.size),
        n_low=int(np.count_nonzero(low)),
        n_high=int(np.count_nonzero(high)),
        worst_low=max(worst_low, 0.0),
        worst_high=max(worst_high, 0.0),
    )
