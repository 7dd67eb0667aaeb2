"""Least-squares estimation of device parameters from data.

All fits use the same damped-least-squares engine: steps solve
(J'J + lambda*diag(J'J)) dx = -J'r, damping is multiplied by 10 on a
rejected step and divided by 10 on an accepted one, so the objective never
increases across accepted iterations.  The engine stops on one test, first-
order optimality (Madsen, Nielsen & Tingleff 2004, section 3.2): every
column-scaled gradient component |J_j'r|/|J_j| is at most 1e-4 |r| plus
what rounding the predictions and the parameters to double can leave.  A
fit that exhausts its iteration budget, or finds no step that lowers the
objective, raises FitError.  Standard errors come from the Jacobian at the
optimum.  Each fit hands the engine one model function, which returns the
prediction and its Jacobian; the engine forms the residuals and the
standard errors.

Avoided-crossing data are fit to the two-branch eigenfrequency model with
linearly heater-tuned bare resonances w_i(p) = w_i0 - alpha_i * p_i; the
inter-ring coupling enters only squared, so only its magnitude is
identifiable (reported positive).  Wavelength data are converted to
angular frequency at ingestion; all fits run in rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .spectra import DIP_THRESHOLD
from .supermodes import crossing_geometry

CROSSING_PARAMS = ("kappa_12", "omega1_0", "omega2_0", "alpha1", "alpha2")

MAX_ITERATIONS = 200  # iteration budget of every fit
_GTOL = 1e-4  # largest |J_j'r| / (|J_j| |r|) at a minimum, rounding aside
_LAMBDA_MAX = 1e15
_RANK_RTOL = 1e-10
GUESS_BLOCK_BYTES = 8 << 20  # distance block of auto_initial_guess


@dataclass(frozen=True)
class CrossingDataset:
    """Resonance-versus-heater-power observations of both branches."""

    p1_mw: np.ndarray
    p2_mw: np.ndarray
    branch: tuple[str, ...]
    resonance_rad_s: np.ndarray

    def __post_init__(self):
        p1 = np.asarray(self.p1_mw, dtype=float)
        p2 = np.asarray(self.p2_mw, dtype=float)
        res = np.asarray(self.resonance_rad_s, dtype=float)
        branch = tuple(self.branch)
        n = p1.size
        if not (p2.size == res.size == len(branch) == n):
            raise ValueError("dataset columns must have equal length")
        if n < 6:
            raise ValueError(f"need at least 6 rows, got {n}")
        for b in branch:
            if b not in ("upper", "lower"):
                raise ValueError(f"branch must be 'upper' or 'lower', got {b!r}")
        for b in ("upper", "lower"):
            if branch.count(b) < 2:
                raise ValueError(f"need at least 2 rows on the {b} branch")
        if np.unique(p1).size < 3:
            raise ValueError("need at least 3 distinct p1 settings")
        object.__setattr__(self, "p1_mw", p1)
        object.__setattr__(self, "p2_mw", p2)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "resonance_rad_s", res)


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates with standard errors (0.0 for fixed parameters),
    both keyed and ordered by parameter name, and the engine's run.

    Only a converged fit returns a result; the fits raise FitError otherwise.
    mismatch_warning flags structured residuals (the dip fit only).
    """

    params: dict[str, float]
    stderr: dict[str, float]
    residual_rms: float
    n_iterations: int
    objective_trace: tuple[float, ...]
    mismatch_warning: bool = False


@dataclass(frozen=True)
class LinearFitResult:
    """Straight line through the origin: slope, and r_squared against the
    uncentered total sum of squares."""

    slope: float
    r_squared: float


# --- damped least-squares engine ---------------------------------------------


@dataclass
class _EngineResult:
    theta: np.ndarray
    covariance: np.ndarray
    stderr: np.ndarray  # square root of the covariance diagonal, clipped at 0
    residuals: np.ndarray  # prediction - observed at theta
    residual_rms: float
    n_iterations: int
    objective_trace: tuple[float, ...]


def _scaled_normal(jac: np.ndarray, r: np.ndarray):
    """Column-equilibrated normal equations: unit-diagonal matrix, its rhs,
    and the column scales.  Keeps mixed parameter magnitudes (rad/s
    frequencies next to dimensionless depths) solvable in double precision."""
    jtj = jac.T @ jac
    scale = np.sqrt(np.diag(jtj))
    scale[scale <= 0] = 1.0
    normal = jtj / np.outer(scale, scale)
    rhs = -(jac.T @ r) / scale
    return normal, rhs, scale


def _damped_least_squares(model, observed, theta0) -> _EngineResult:
    """model(theta) returns (prediction, Jacobian), once per trial step; the
    accepted point's Jacobian serves the stop test, the next step and the
    covariance."""
    theta = np.array(theta0, dtype=float)
    prediction, jac = model(theta)
    r = prediction - observed
    cost = float(r @ r)
    trace = [cost]
    lam = 1e-3
    identity = np.eye(theta.size)
    # the gradient that rounding the predictions to double can leave
    rounding = math.sqrt(r.size) * np.finfo(float).eps * float(np.max(np.abs(observed)))
    while True:
        normal, rhs, scale = _scaled_normal(jac, r)
        # first-order optimal up to rounding of the predictions and of theta
        slack = _GTOL * math.sqrt(cost) + rounding + np.abs(normal) @ (scale * np.spacing(np.abs(theta)))
        if np.all(np.abs(rhs) <= slack):
            break
        while lam <= _LAMBDA_MAX and len(trace) <= MAX_ITERATIONS:
            step = np.linalg.solve(normal + lam * identity, rhs) / scale
            prediction, jac_new = model(theta + step)
            r_new = prediction - observed
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new < cost:
                theta = theta + step
                r, jac, cost = r_new, jac_new, cost_new
                trace.append(cost)
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        else:  # out of iterations, or no trial step lowers the objective
            raise FitError(f"no convergence after {len(trace) - 1} iterations (objective {cost:.6g})")

    singular = np.linalg.svd(jac / scale, compute_uv=False)
    if singular[-1] <= _RANK_RTOL * singular[0]:
        raise FitError(
            "rank-deficient Jacobian: one or more parameters are not "
            "identifiable from this dataset (e.g. single-branch data leaves "
            "the inter-ring coupling undetermined up to sign)"
        )
    m, n = jac.shape
    sigma2 = cost / max(m - n, 1)
    covariance = np.linalg.inv(normal) / np.outer(scale, scale) * sigma2
    return _EngineResult(
        theta=theta,
        covariance=covariance,
        stderr=np.sqrt(np.maximum(np.diag(covariance), 0.0)),
        residuals=r,
        residual_rms=math.sqrt(cost / m),
        n_iterations=len(trace) - 1,
        objective_trace=tuple(trace),
    )


def _fit_result(engine: _EngineResult, params: dict[str, float], free, mismatch_warning=False) -> FitResult:
    """The reported parameters with the engine's standard errors for the
    `free` ones, in the engine's order, and 0.0 for the held ones."""
    stderr = dict.fromkeys(params, 0.0)
    stderr.update(zip(free, engine.stderr.tolist()))
    return FitResult(params, stderr, engine.residual_rms, engine.n_iterations, engine.objective_trace,
                     mismatch_warning)


# --- avoided-crossing fit -----------------------------------------------------


def _crossing_model(params: dict[str, float], p1, p2, sign, free: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Branch eigenfrequencies for heater powers (p1, p2), sign +1 upper and
    -1 lower, and their Jacobian in the `free` parameters."""
    omega1 = params["omega1_0"] - params["alpha1"] * p1
    omega2 = params["omega2_0"] - params["alpha2"] * p2
    mean, delta, radius = crossing_geometry(omega1, omega2, params["kappa_12"])
    lean = sign * 0.5 * delta / radius  # d(branch)/d(omega1) - 1/2
    d_w1 = 0.5 + lean
    d_w2 = 0.5 - lean
    columns = {
        "kappa_12": sign * params["kappa_12"] / radius,
        "omega1_0": d_w1,
        "omega2_0": d_w2,
        "alpha1": -p1 * d_w1,
        "alpha2": -p2 * d_w2,
    }
    return mean + sign * radius, np.column_stack([columns[name] for name in free])


def _nearest_rows(p1, p2, upper, lower) -> np.ndarray:
    """For each row in `upper`, the position in `lower` of the row nearest
    in (p1, p2): the first smallest squared distance d*d + e*e.

    Distances are formed a block of upper rows at a time (at most
    GUESS_BLOCK_BYTES).
    """
    p1_low, p2_low = p1[lower], p2[lower]
    rows = max(1, GUESS_BLOCK_BYTES // (2 * 8 * lower.size))  # two float arrays per row
    picks = np.empty(upper.size, dtype=np.intp)
    for start in range(0, upper.size, rows):
        block = upper[start:start + rows]
        d = p1_low - p1[block, None]
        d *= d
        e = p2_low - p2[block, None]
        e *= e
        d += e
        del e
        picks[start:start + block.size] = np.argmin(d, axis=1)
    return picks


def auto_initial_guess(data: CrossingDataset) -> dict[str, float]:
    """Starting point for the crossing fit, derived from the data.

    kappa_12 from half the minimum separation between branch points at
    matching heater settings; the bare-ring lines from straight-line fits
    to the far tails of each branch (far from the crossing a branch
    asymptotes to one bare ring).
    """
    branch = np.array(data.branch)
    upper, lower = np.flatnonzero(branch == "upper"), np.flatnonzero(branch == "lower")
    p1, p2, res = data.p1_mw, data.p2_mw, data.resonance_rad_s

    nearest = lower[_nearest_rows(p1, p2, upper, lower)]
    seps = np.abs(res[upper] - res[nearest])
    k = int(np.argmin(seps))  # the first smallest separation
    best_sep = seps[k]
    p1_star = 0.5 * (p1[upper[k]] + p1[nearest[k]])
    kappa_guess = 0.5 * best_sep if best_sep > 0 else 0.25 * (res.max() - res.min())

    ring1_rows = np.concatenate([upper[p1[upper] < p1_star], lower[p1[lower] > p1_star]])
    ring2_rows = np.concatenate([lower[p1[lower] < p1_star], upper[p1[upper] > p1_star]])

    def line_fit(rows, powers, fallback_alpha):
        if len(rows) < 2 or np.ptp(powers[rows]) == 0.0:
            alpha = fallback_alpha
            omega0 = float(np.mean(res[rows]) + alpha * np.mean(powers[rows])) if rows.size else float(res.mean())
            return omega0, alpha
        design = np.column_stack([np.ones(len(rows)), -powers[rows]])
        coef, *_ = np.linalg.lstsq(design, res[rows], rcond=None)
        return float(coef[0]), float(coef[1])

    omega1_0, alpha1 = line_fit(ring1_rows, p1, fallback_alpha=0.0)
    omega2_0, alpha2 = line_fit(ring2_rows, p2, fallback_alpha=alpha1)
    return {
        "kappa_12": float(kappa_guess),
        "omega1_0": omega1_0,
        "omega2_0": omega2_0,
        "alpha1": alpha1,
        "alpha2": alpha2,
    }


def fit_avoided_crossing(
    data: CrossingDataset,
    initial: dict[str, float] | None = None,
    fixed: dict[str, float] | None = None,
) -> FitResult:
    """Fit the avoided-crossing model to branch resonance data.

    Any subset of {kappa_12, omega1_0, omega2_0, alpha1, alpha2} may be
    held fixed; starting values not supplied in `initial` are derived
    automatically from the data.  Raises FitError on non-convergence or a
    rank-deficient Jacobian.
    """
    fixed = dict(fixed or {})
    initial = dict(initial or {})
    for name in (*fixed, *initial):
        if name not in CROSSING_PARAMS:
            raise ValueError(f"unknown parameter {name!r}")
    free = [name for name in CROSSING_PARAMS if name not in fixed]
    if not free:
        raise ValueError("no free parameters to fit")

    start = auto_initial_guess(data)
    start.update(initial)
    start.update(fixed)

    sign = np.where(np.asarray(data.branch) == "upper", 1.0, -1.0)
    p1, p2 = data.p1_mw, data.p2_mw

    def unpack(theta: np.ndarray) -> dict[str, float]:
        params = dict(fixed)
        params.update(zip(free, theta))
        return params

    def model(theta: np.ndarray):
        return _crossing_model(unpack(theta), p1, p2, sign, free)

    engine = _damped_least_squares(model, data.resonance_rad_s, [start[name] for name in free])
    params = unpack(engine.theta)
    params["kappa_12"] = abs(params["kappa_12"])  # sign not identifiable
    return _fit_result(engine, {name: params[name] for name in CROSSING_PARAMS}, free)


# --- Lorentzian dip fit -------------------------------------------------------


def _count_deep_minima(t: np.ndarray) -> int:
    """Dips counted with a hysteresis band around half depth, so noise at
    the crossing level cannot split one dip into two.  A window whose
    minimum is at least DIP_THRESHOLD times its maximum has none, whatever
    its baseline."""
    if t.min() >= DIP_THRESHOLD * t.max():
        return 0
    depth = t.max() - t.min()
    enter = t.min() + 0.4 * depth
    leave = t.min() + 0.6 * depth
    # the samples that cross the band, True where they enter it; a dip
    # begins at each one whose predecessor left (or that has none)
    entering = t[(t < enter) | (t > leave)] < enter
    return int(entering[:1].sum()) + int(np.count_nonzero(entering[1:] > entering[:-1]))


def fit_lorentzian_dip(omega, t, window: tuple[int, int]) -> FitResult:
    """Fit T(w) = b*(1 - d/(1 + 4(w - w0)^2/w_fwhm^2)) inside an index window
    of the trace t sampled at the ascending frequencies omega.

    The trace may be measured: unnormalized, noisy, with samples above 1.
    Its params are omega0 (the dip center), t_min (the baseline-normalized
    minimum 1 - d), fwhm and baseline, each with a standard error.  The
    window must hold exactly one dip (FitError otherwise); structured
    residuals (lag-1 autocorrelation above 0.5, e.g. a sloped baseline) set
    mismatch_warning instead of silently passing.
    """
    lo, hi = window
    omega = np.asarray(omega, dtype=float)[lo:hi]
    t = np.asarray(t, dtype=float)[lo:hi]
    if omega.size < 8:
        raise ValueError(f"window [{lo}, {hi}) too small for a 4-parameter fit")
    n_dips = _count_deep_minima(t)
    if n_dips == 0:
        raise FitError(f"window [{lo}, {hi}) contains no dip")
    if n_dips > 1:
        raise FitError(f"window [{lo}, {hi}) contains multiple dips; fit one at a time")

    baseline0 = float(t.max())
    i_min = int(np.argmin(t))
    omega0_0 = float(omega[i_min])
    depth0 = max(1.0 - float(t[i_min]) / baseline0, 1e-6)
    level = baseline0 * (1.0 - 0.5 * depth0)
    below = np.flatnonzero(t <= level)
    width0 = float(omega[below[-1]] - omega[below[0]]) if below.size >= 2 else float(np.ptp(omega)) / 4
    width0 = max(width0, float(np.ptp(omega)) / (omega.size - 1))

    def model(theta):
        omega0, depth, width, baseline = theta
        x = omega - omega0
        lor = 1.0 / (1.0 + 4.0 * x**2 / width**2)
        shape = 1.0 - depth * lor
        d_omega0 = -baseline * depth * lor**2 * 8.0 * x / width**2
        d_depth = -baseline * lor
        d_width = -baseline * depth * lor**2 * 8.0 * x**2 / width**3
        return baseline * shape, np.column_stack([d_omega0, d_depth, d_width, shape])

    engine = _damped_least_squares(model, t, [omega0_0, depth0, width0, baseline0])
    omega0, depth, width, baseline = engine.theta.tolist()
    resid = engine.residuals
    denom = float(resid @ resid)
    rho = float(resid[:-1] @ resid[1:]) / denom if denom > 0 else 0.0
    # structure below 1e-6 of the baseline cannot corrupt the extraction
    material = engine.residual_rms > 1e-6 * abs(baseline)
    params = {"omega0": omega0, "t_min": 1.0 - depth, "fwhm": abs(width), "baseline": baseline}
    return _fit_result(engine, params, params, material and abs(rho) > 0.5)


# --- linear fit ----------------------------------------------------------------


def weighted_linear_fit(x, y) -> LinearFitResult:
    """Least-squares straight line through the origin, equal weights.

    Needs at least two points, not all at x = 0.  r_squared uses the
    uncentered total sum of squares, the standard convention for
    origin-constrained fits.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least 2 (x, y) points")
    sxx = float(x @ x)
    if not sxx > 0.0:
        raise ValueError("degenerate x: all values zero")
    slope = float(x @ y) / sxx
    resid = y - slope * x
    chi2 = float(resid @ resid)
    ss_tot = float(y @ y)
    return LinearFitResult(slope=slope, r_squared=1.0 - chi2 / ss_tot if ss_tot > 0 else 1.0)
