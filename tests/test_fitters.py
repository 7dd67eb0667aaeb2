"""Crossing fit, Lorentzian dip fit, linear fit, engine behavior."""

import math

import numpy as np
import pytest

from ringlab import fitters
from ringlab.errors import FitError
from ringlab.fitters import (
    CROSSING_PARAMS,
    CrossingDataset,
    auto_initial_guess,
    fit_avoided_crossing,
    fit_lorentzian_dip,
    weighted_linear_fit,
)
from ringlab.spectra import DIP_THRESHOLD, compute_trace, default_scan_grid, find_dips

MHZ = 2.0 * math.pi * 1e6
PUMP = 1.2066e15

TRUTH = {
    "kappa_12": 150.0 * MHZ,
    "omega1_0": PUMP + 750.0 * MHZ,
    "omega2_0": PUMP + 300.0 * MHZ,
    "alpha1": 30.0 * MHZ,
    "alpha2": 30.0 * MHZ,
}


def synthetic_crossing(noise_sigma=0.0, seed=0, n_p1=15, p2_values=(8.0, 12.0)):
    """Both-branch resonance data from the two-oscillator eigenfrequency formula."""
    rng = np.random.default_rng(seed)
    p1 = np.tile(np.linspace(5.0, 55.0, n_p1), 2)
    p2 = np.tile([p2_values[i % len(p2_values)] for i in range(n_p1)], 2)
    sign = np.repeat([1.0, -1.0], n_p1)
    w1 = TRUTH["omega1_0"] - TRUTH["alpha1"] * p1
    w2 = TRUTH["omega2_0"] - TRUTH["alpha2"] * p2
    res = 0.5 * (w1 + w2) + sign * np.sqrt((0.5 * (w1 - w2)) ** 2 + TRUTH["kappa_12"] ** 2)
    if noise_sigma > 0:
        res = res + noise_sigma * TRUTH["kappa_12"] * rng.standard_normal(res.size)
    return CrossingDataset(
        p1_mw=p1,
        p2_mw=p2,
        branch=tuple("upper" if s > 0 else "lower" for s in sign),
        resonance_rad_s=res,
    )


# --- crossing fit ------------------------------------------------------------------


def test_zero_noise_recovery():
    result = fit_avoided_crossing(synthetic_crossing())
    for name in CROSSING_PARAMS:
        assert result.params[name] == pytest.approx(TRUTH[name], rel=1e-8)


def test_zero_noise_recovery_with_one_parameter_held():
    # exact data end where rounding the predictions leaves the gradient:
    # the stop test must allow for it
    for n_p1 in (8, 15):
        data = synthetic_crossing(n_p1=n_p1)
        for held in CROSSING_PARAMS:
            result = fit_avoided_crossing(data, fixed={held: TRUTH[held]})
            for name in CROSSING_PARAMS:
                assert result.params[name] == pytest.approx(TRUTH[name], rel=1e-8), (n_p1, held, name)
            assert [name for name, err in result.stderr.items() if err == 0.0] == [held]
            assert not result.mismatch_warning


def test_noisy_recovery_within_stderr():
    result = fit_avoided_crossing(synthetic_crossing(noise_sigma=0.01, seed=42))
    kappa = result.params["kappa_12"]
    assert abs(kappa - TRUTH["kappa_12"]) <= 3.0 * result.stderr["kappa_12"]
    assert result.stderr["kappa_12"] > 0


def test_stderr_calibrated_against_monte_carlo():
    estimates, stderrs = [], []
    for seed in range(30):
        result = fit_avoided_crossing(synthetic_crossing(noise_sigma=0.01, seed=seed))
        estimates.append(result.params["kappa_12"])
        stderrs.append(result.stderr["kappa_12"])
    spread = float(np.std(estimates))
    typical = float(np.median(stderrs))
    assert 0.5 * spread <= typical <= 2.0 * spread


def test_symmetric_point_splitting_gives_kappa():
    # rows only at the crossing: half the splitting reads the coupling directly
    p1 = np.array([24.99, 25.0, 25.01, 24.99, 25.0, 25.01])
    p2 = np.full(6, 10.0)
    sign = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    w1 = TRUTH["omega1_0"] - TRUTH["alpha1"] * p1
    w2 = TRUTH["omega2_0"] - TRUTH["alpha2"] * p2
    res = 0.5 * (w1 + w2) + sign * np.sqrt((0.5 * (w1 - w2)) ** 2 + TRUTH["kappa_12"] ** 2)
    half_split = 0.5 * (res[1] - res[4])  # exactly at the symmetric point
    assert half_split == pytest.approx(TRUTH["kappa_12"], rel=1e-9)  # ulp-limited at 1.2e15 rad/s
    data = CrossingDataset(p1_mw=p1, p2_mw=p2, branch=("upper",) * 3 + ("lower",) * 3, resonance_rad_s=res)
    fixed = {name: TRUTH[name] for name in CROSSING_PARAMS if name != "kappa_12"}
    result = fit_avoided_crossing(data, initial={"kappa_12": 0.7 * TRUTH["kappa_12"]}, fixed=fixed)
    assert result.params["kappa_12"] == pytest.approx(half_split, rel=1e-9)


def test_frequency_shift_invariance():
    base = fit_avoided_crossing(synthetic_crossing())
    shift = 2.0 * math.pi * 5e9
    data = synthetic_crossing()
    shifted = CrossingDataset(
        p1_mw=data.p1_mw,
        p2_mw=data.p2_mw,
        branch=data.branch,
        resonance_rad_s=data.resonance_rad_s + shift,
    )
    moved = fit_avoided_crossing(shifted)
    assert moved.params["omega1_0"] - base.params["omega1_0"] == pytest.approx(shift, rel=1e-6)
    assert moved.params["omega2_0"] - base.params["omega2_0"] == pytest.approx(shift, rel=1e-6)
    for name in ("kappa_12", "alpha1", "alpha2"):
        assert moved.params[name] == pytest.approx(base.params[name], rel=1e-9)


def test_recovery_consistency_large_n_small_noise():
    # n = 100 rows, noise 1e-4 of the coupling: estimates pinned to truth
    data = synthetic_crossing(noise_sigma=1e-4, seed=4, n_p1=50)
    result = fit_avoided_crossing(data)
    for name in CROSSING_PARAMS:
        assert result.params[name] == pytest.approx(TRUTH[name], rel=1e-3)


def test_objective_descends_monotonically():
    result = fit_avoided_crossing(synthetic_crossing(noise_sigma=0.01, seed=9))
    trace = np.array(result.objective_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert result.n_iterations <= 200


def test_engine_gives_up_when_no_trial_step_is_finite():
    # the prediction is finite only at the start: every trial step is refused,
    # the damping climbs past _LAMBDA_MAX, and no iteration is completed
    def model(theta):
        return np.array([1.0 if theta[0] == 0.0 else math.nan]), np.array([[1.0]])

    with pytest.raises(FitError, match=r"^no convergence after 0 iterations \(objective 1\)$"):
        fitters._damped_least_squares(model, np.zeros(1), [0.0])


def test_adversarial_starts_reach_the_minimum_or_raise():
    # starts far from the minimum may stall where no step lowers the objective;
    # they must raise, not return a result that is not a minimum
    data = synthetic_crossing(noise_sigma=0.5 * MHZ / TRUTH["kappa_12"], seed=19, n_p1=41, p2_values=(10.0, 12.0))
    minimum = fit_avoided_crossing(data).objective_trace[-1]
    guess = auto_initial_guess(data)
    rng = np.random.default_rng(2020)
    reached = 0
    for _ in range(200):
        initial = {name: value * (1.0 + 0.3 * rng.standard_normal()) for name, value in guess.items()}
        try:
            result = fit_avoided_crossing(data, initial=initial)
        except FitError:
            continue
        assert result.objective_trace[-1] <= minimum * (1.0 + 1e-6)
        reached += 1
    assert reached >= 100


def fit_outcome(fit, **errors):
    """The exception type `fit` raises under np.errstate(**errors), or the
    repr of its result, which keeps every bit of every float in it."""
    try:
        with np.errstate(**errors):
            return repr(fit())
    except (FitError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return type(exc)


def test_fits_end_alike_whether_float_errors_raise_or_not():
    # the engine evaluates the Jacobian at every trial step, rejected ones
    # included: it must not raise there where the prediction alone would not
    rng = np.random.default_rng(1919)
    crossing = synthetic_crossing(noise_sigma=0.5 * MHZ / TRUTH["kappa_12"], seed=19, n_p1=41, p2_values=(10.0, 12.0))
    guess = auto_initial_guess(crossing)
    omega, clean = make_dip_trace(n=4001, span_fwhm=60.0)
    outcomes = set()
    for _ in range(50):
        initial = {name: value * (1.0 + 0.3 * rng.standard_normal()) for name, value in guess.items()}
        width = int(rng.integers(300, 1500))
        lo = 2000 - int(rng.integers(width // 4, 3 * width // 4))
        t = rng.uniform(0.5, 5.0) * clean + 0.002 * rng.standard_normal(clean.size)
        for fit in (lambda: fit_avoided_crossing(crossing, initial=initial),
                    lambda: fit_lorentzian_dip(omega, t, (lo, lo + width))):
            outcome = fit_outcome(fit, over="raise", invalid="raise", divide="raise")  # as cli.run does
            assert outcome == fit_outcome(fit, all="ignore")
            outcomes.add(outcome if isinstance(outcome, type) else "result")
    assert "result" in outcomes


def test_rank_deficient_dataset_reported():
    # constant p2 makes omega2_0 and alpha2 exactly degenerate
    data = synthetic_crossing(p2_values=(10.0,))
    with pytest.raises(FitError, match="rank-deficient"):
        fit_avoided_crossing(data)


def test_dataset_invariants():
    good = synthetic_crossing()
    with pytest.raises(ValueError, match="6 rows"):
        CrossingDataset(good.p1_mw[:5], good.p2_mw[:5], good.branch[:5], good.resonance_rad_s[:5])
    with pytest.raises(ValueError, match="^dataset columns must have equal length$"):
        CrossingDataset(good.p1_mw, good.p2_mw[:-1], good.branch, good.resonance_rad_s)
    with pytest.raises(ValueError, match="branch"):
        CrossingDataset(good.p1_mw, good.p2_mw, ("upper",) * good.p1_mw.size, good.resonance_rad_s)
    with pytest.raises(ValueError, match="distinct"):
        CrossingDataset(
            np.full(6, 10.0), good.p2_mw[:6], ("upper", "lower") * 3, good.resonance_rad_s[:6]
        )


def _nearest_by_loop(p1, p2, upper, lower):
    """Position in `lower` of the smallest squared distance d*d + e*e from
    each upper row, by a plain loop: the first one on a tie."""
    picks = []
    for i in upper:
        best, pick = math.inf, -1
        for k, j in enumerate(lower):
            d, e = p1[j] - p1[i], p2[j] - p2[i]
            if d * d + e * e < best:
                best, pick = d * d + e * e, k
        picks.append(pick)
    return np.array(picks)


def test_nearest_rows_take_the_first_smallest_distance(monkeypatch):
    rng = np.random.default_rng(17)
    # upper rows at odd and lower rows at even p1 of a coarse grid: an upper
    # row between two lower ones ties at equal distance (mirrored ties), and
    # lower rows repeat points (ties between rows at equal (p1, p2)); the
    # continuous rows seldom tie
    n_grid, n_smooth = 160, 60
    grid_upper = rng.random(n_grid) < 0.4
    grid_p1 = 2.0 * rng.integers(0, 6, n_grid) + grid_upper
    grid_p2 = rng.choice([8.0, 10.0, 12.0], n_grid)
    order = rng.permutation(n_grid + n_smooth)
    p1 = np.concatenate([grid_p1, rng.uniform(0.0, 12.0, n_smooth)])[order]
    p2 = np.concatenate([grid_p2, rng.uniform(7.0, 13.0, n_smooth)])[order]
    branch = np.concatenate([grid_upper, rng.random(n_smooth) < 0.5])[order].astype(int)
    # an upper row at (0, 0), then two lower rows at other points and the
    # same array distance from it: the first is the pick
    p1 = np.append(p1, [0.0, 1.0407826543186804, 1.475225152189749])
    p2 = np.append(p2, [0.0, 1.0801719615271275, 0.2714972381935621])
    branch = np.append(branch, [1, 0, 0])
    upper, lower = np.flatnonzero(branch == 1), np.flatnonzero(branch == 0)
    expected = _nearest_by_loop(p1, p2, upper, lower)

    dist = (p1[lower] - p1[upper, None]) ** 2 + (p2[lower] - p2[upper, None]) ** 2
    ties = dist == dist.min(axis=1, keepdims=True)
    points = list(zip(p1[lower], p2[lower]))
    tied = [{points[k] for k in np.flatnonzero(row)} for row in ties if row.sum() > 1]
    assert sum(len(at) == 1 for at in tied) >= 10  # rows at equal (p1, p2)
    assert sum(len(at) > 1 for at in tied) >= 10   # mirrored or equidistant points
    assert dist[-1, -2] == dist[-1, -1] and expected[-1] == lower.size - 2  # the first of the pair

    assert upper.size % 7 != 0
    for block_bytes in (fitters.GUESS_BLOCK_BYTES, 7 * 2 * 8 * lower.size, 1):  # 1 byte: one row a block
        monkeypatch.setattr(fitters, "GUESS_BLOCK_BYTES", block_bytes)
        assert np.array_equal(fitters._nearest_rows(p1, p2, upper, lower), expected), block_bytes


def test_auto_guess_coupling_from_nearest_pair():
    data = synthetic_crossing(noise_sigma=0.05, seed=4, n_p1=40)
    branch = np.array(data.branch)
    upper, lower = np.flatnonzero(branch == "upper"), np.flatnonzero(branch == "lower")
    p1, p2, res = data.p1_mw, data.p2_mw, data.resonance_rad_s
    nearest = lower[_nearest_by_loop(p1, p2, upper, lower)]
    seps = [abs(res[i] - res[j]) for i, j in zip(upper, nearest)]
    assert auto_initial_guess(data)["kappa_12"] == 0.5 * min(seps)


def test_unknown_fixed_parameter_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        fit_avoided_crossing(synthetic_crossing(), fixed={"bogus": 1.0})


def test_unknown_initial_parameter_rejected():
    with pytest.raises(ValueError, match="unknown parameter 'bogus'"):
        fit_avoided_crossing(synthetic_crossing(), initial={"bogus": 1.0})


# --- Lorentzian dip fit ---------------------------------------------------------------


def make_dip_trace(omega0=1.2066e15, t_min=0.2, fwhm=6.0 * MHZ, baseline=1.0,
                   n=801, span_fwhm=12.0, noise=0.0, seed=0, slope=0.0):
    """(omega, t) of one Lorentzian dip, as measured: noise is not clipped to [0, 1]."""
    omega = omega0 + np.linspace(-0.5, 0.5, n) * span_fwhm * fwhm
    depth = 1.0 - t_min
    t = baseline * (1.0 - depth / (1.0 + 4.0 * (omega - omega0) ** 2 / fwhm**2))
    t = t + slope * (omega - omega0) / (span_fwhm * fwhm)
    if noise > 0:
        t = t + noise * np.random.default_rng(seed).standard_normal(n)
    return omega, t


def loop_deep_minima(t):
    """_count_deep_minima one sample at a time."""
    lo, hi = min(t), max(t)
    if lo >= DIP_THRESHOLD * hi:
        return 0
    enter, leave = lo + 0.4 * (hi - lo), lo + 0.6 * (hi - lo)
    count, inside = 0, False
    for value in t:
        if not inside and value < enter:
            count, inside = count + 1, True
        elif inside and value > leave:
            inside = False
    return count


def test_count_deep_minima_matches_a_plain_loop_on_seeded_windows():
    rng = np.random.default_rng(1313)
    counts = set()
    for case in range(2000):
        n = int(rng.integers(1, 200))
        t = 1.0 - np.abs(np.cumsum(rng.normal(0.0, 0.05, n)))  # wanders through the band
        if case % 6 in (1, 2):
            t = 1.0 - 0.02 * rng.uniform(0.0, 1.0, n)  # shallow: min may sit above the dip threshold
        levels = (8, 50, 10**6)[case % 3]  # coarse levels make plateaus
        t = np.round(np.clip(t, 0.0, 1.0) * levels) / levels
        lo, hi = t.min(), t.max()
        free = np.setdiff1d(np.arange(n), [np.argmin(t), np.argmax(t)])
        if free.size:  # samples exactly at the entry and exit levels, min and max kept
            picks = rng.choice(free, size=min(free.size, int(rng.integers(0, 12))), replace=False)
            t[picks] = rng.choice([lo + 0.4 * (hi - lo), lo + 0.6 * (hi - lo)], size=picks.size)
        count = fitters._count_deep_minima(t)
        assert count == loop_deep_minima(t.tolist()), case
        counts.add(count)
    assert {0, 1, 2, 3} <= counts


def test_lorentzian_exact_round_trip():
    omega, t = make_dip_trace(t_min=0.2, fwhm=6.0 * MHZ, baseline=0.97)
    result = fit_lorentzian_dip(omega, t, (0, omega.size))
    assert list(result.params) == list(result.stderr) == ["omega0", "t_min", "fwhm", "baseline"]
    assert result.params["omega0"] == pytest.approx(1.2066e15, abs=1e-8 * 1.2066e15)
    assert result.params["t_min"] == pytest.approx(0.2, rel=1e-6)  # already baseline-normalized
    assert result.params["fwhm"] == pytest.approx(6.0 * MHZ, rel=1e-6)
    assert result.params["baseline"] == pytest.approx(0.97, rel=1e-8)
    assert not result.mismatch_warning


def test_lorentzian_fits_each_dip_of_a_noise_free_two_ring_trace(cfg):
    # near 1.2e15 rad/s omega0 is stored to 0.25 rad/s, which leaves a
    # gradient no step can remove: the stop test must allow for it
    for p1 in (15.0, 25.0, 40.0):
        omega = default_scan_grid(cfg, p1, 10.0, 10.0, 40001)
        trace = compute_trace(cfg, p1, 10.0, omega)
        spacing = omega[1] - omega[0]
        dips = find_dips(trace)
        assert len(dips) == 2
        for dip in dips:
            center = round((dip.omega_center - omega[0]) / spacing)
            half = round(4.0 * dip.fwhm / spacing)
            result = fit_lorentzian_dip(omega, trace.t_power, (center - half, center + half + 1))
            assert result.params["omega0"] == pytest.approx(dip.omega_center, abs=0.01 * dip.fwhm)
            assert result.params["t_min"] == pytest.approx(dip.t_min, abs=0.01)
            assert result.params["fwhm"] == pytest.approx(dip.fwhm, rel=0.02)
            assert result.params["baseline"] == pytest.approx(1.0, abs=0.01)


def test_lorentzian_noisy_tmin_within_002():
    for seed in range(100):
        omega, t = make_dip_trace(noise=0.01, seed=seed)
        result = fit_lorentzian_dip(omega, t, (0, omega.size))
        assert abs(result.params["t_min"] - 0.2) <= 0.02


def test_lorentzian_sloped_baseline_flags_mismatch():
    omega, t = make_dip_trace(slope=0.05)
    result = fit_lorentzian_dip(omega, t, (0, omega.size))
    assert result.mismatch_warning


def test_lorentzian_rejects_window_without_dip():
    omega = 1.2066e15 + np.linspace(0, 1e8, 200)
    with pytest.raises(FitError, match="no dip"):
        fit_lorentzian_dip(omega, np.full(200, 0.999), (0, 200))


def test_lorentzian_rejects_window_with_two_dips():
    omega = 1.2066e15 + np.linspace(-1e8, 1e8, 1001)
    dip = lambda c, w: 0.5 / (1.0 + 4.0 * (omega - c) ** 2 / w**2)
    t = 1.0 - dip(1.2066e15 - 4e7, 6e6) - dip(1.2066e15 + 4e7, 6e6)
    with pytest.raises(FitError, match="multiple dips"):
        fit_lorentzian_dip(omega, t, (0, omega.size))


# --- linear fit --------------------------------------------------------------------------


def test_linear_exact():
    x = np.arange(-4.0, 5.0)  # straddles zero, one point at x = 0
    fit = weighted_linear_fit(x, 2.0 * x)
    assert fit.slope == pytest.approx(2.0, rel=1e-14)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-14)


def test_linear_through_origin_exact():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    fit = weighted_linear_fit(x, 3.0 * x)
    assert fit.slope == pytest.approx(3.0, rel=1e-14)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-14)


def test_linear_noisy_slope_within_stderr():
    rng = np.random.default_rng(77)
    x = np.linspace(0.0, 10.0, 50)
    y = x + 0.3 * rng.standard_normal(50)
    fit = weighted_linear_fit(x, y)
    assert fit.r_squared < 1.0
    stderr = math.sqrt(np.sum((y - fit.slope * x) ** 2) / (x.size - 1) / np.sum(x * x))
    assert abs(fit.slope - 1.0) <= 3.0 * stderr


def test_linear_degenerate_x_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        weighted_linear_fit([0.0, -0.0, 0.0], [1.0, 2.0, 3.0])


def test_linear_two_points_and_equal_x_fit():
    fit = weighted_linear_fit([1.0, 2.0], [1.0, 2.5])
    assert fit.slope == pytest.approx(6.0 / 5.0, rel=1e-14)
    fit = weighted_linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert fit.slope == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError, match="at least 2"):
        weighted_linear_fit([1.0], [1.0])
