"""Avoided-crossing eigenproblem, branch fractions, effective rates."""

import dataclasses
import math

import numpy as np
import pytest

from ringlab import supermodes
from ringlab.devicemodel import ring_frequency
from ringlab.supermodes import (
    crossing_geometry,
    effective_rates,
    eta_c_vs_heater,
    solve_both,
    solve_branch,
)

MHZ = 2.0 * math.pi * 1e6
EPS = np.finfo(float).eps


def ring1_fractions(cfg, omega1, omega2, kappa_12):
    """(upper, lower) ring-1 fractions of solve_branch on `cfg` with its
    rings at omega1 and omega2 (zero heater power) and inter-ring coupling
    kappa_12."""
    device = dataclasses.replace(
        cfg,
        ring1=dataclasses.replace(cfg.ring1, omega0=omega1),
        ring2=dataclasses.replace(cfg.ring2, omega0=omega2),
        kappa_12=kappa_12,
    )
    return tuple(solve_branch(device, 0.0, 0.0, branch).frac1 for branch in ("upper", "lower"))


def random_draw(rng):
    omega0 = rng.uniform(1e12, 2e15)
    detuning = rng.uniform(-1e10, 1e10)
    kappa = 10.0 ** rng.uniform(5, 10)
    return omega0 + detuning, omega0 - detuning, kappa


# --- branch frequencies ---------------------------------------------------------


def test_symmetric_point_splitting():
    omega0, kappa = 1.2e15, 900.0 * MHZ
    mean, _, radius = crossing_geometry(omega0, omega0, kappa)
    plus, minus = mean + radius, mean - radius
    assert plus == pytest.approx(omega0 + kappa, rel=1e-15)
    assert minus == pytest.approx(omega0 - kappa, rel=1e-15)


def test_far_detuned_branches_approach_bare_rings():
    omega1, omega2, kappa = 1.2e15 + 5e11, 1.2e15, 1e8
    mean, _, radius = crossing_geometry(omega1, omega2, kappa)
    plus, minus = mean + radius, mean - radius
    bound = kappa**2 / abs(omega1 - omega2)
    assert abs(plus - omega1) <= 1.01 * bound
    assert abs(minus - omega2) <= 1.01 * bound


def test_detuning_equal_to_coupling():
    # delta = kappa makes the half-splitting exactly kappa*sqrt(2)
    omega0, delta = 1.0e15, 400.0 * MHZ
    mean, _, radius = crossing_geometry(omega0 + delta, omega0 - delta, delta)
    plus, minus = mean + radius, mean - radius
    assert plus == pytest.approx(omega0 + delta * math.sqrt(2.0), rel=1e-15)
    assert minus == pytest.approx(omega0 - delta * math.sqrt(2.0), rel=1e-15)


def test_trace_identity_property():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        omega1, omega2, kappa = random_draw(rng)
        mean, _, radius = crossing_geometry(omega1, omega2, kappa)
        plus, minus = mean + radius, mean - radius
        scale = abs(omega1) + abs(omega2)
        assert abs((plus + minus) - (omega1 + omega2)) <= 8.0 * EPS * scale


def test_splitting_bound_property():
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        omega1, omega2, kappa = random_draw(rng)
        mean, _, radius = crossing_geometry(omega1, omega2, kappa)
        plus, minus = mean + radius, mean - radius
        scale = abs(omega1) + abs(omega2)
        assert plus - minus >= 2.0 * kappa - 8.0 * EPS * scale
        # strictly above 2*kappa whenever the analytic excess clears fp noise
        excess = 2.0 * kappa * (math.hypot(1.0, 0.5 * (omega1 - omega2) / kappa) - 1.0)
        if excess > 64.0 * EPS * scale:
            assert plus - minus > 2.0 * kappa
    # equality only at zero detuning
    mean, _, radius = crossing_geometry(1.2e15, 1.2e15, 1e9)
    assert (mean + radius) - (mean - radius) == pytest.approx(2e9, rel=1e-12)


# --- branch fractions -----------------------------------------------------------


def test_fractions_symmetric_point(cfg):
    f1_up, f1_low = ring1_fractions(cfg, 1e15, 1e15, 1e9)
    assert f1_up == pytest.approx(0.5, abs=1e-15)
    assert f1_low == pytest.approx(0.5, abs=1e-15)


def test_fractions_decoupled_limits(cfg):
    kappa = 1e6
    # ring 1 far blue of ring 2: lower branch lives in ring 2
    _, f1_low = ring1_fractions(cfg, 1e15 + 1e12, 1e15, kappa)
    assert f1_low < 1e-9
    # ring 1 far red of ring 2: lower branch lives in ring 1
    _, f1_low = ring1_fractions(cfg, 1e15 - 1e12, 1e15, kappa)
    assert f1_low > 1.0 - 1e-9


def test_fractions_at_detuning_equal_to_two_kappa_halves(cfg):
    # omega1 - omega2 = 2*kappa: closed form gives (2-sqrt(2))/4 on the lower branch
    kappa = 1e9
    f1_up, f1_low = ring1_fractions(cfg, 1e15 + kappa, 1e15 - kappa, kappa)
    assert f1_low == pytest.approx(0.5 - math.sqrt(2.0) / 4.0, abs=1e-12)  # 0.146446...
    assert f1_up == pytest.approx(0.5 + math.sqrt(2.0) / 4.0, abs=1e-12)  # 0.853553...


def test_fractions_match_numerical_eigensolver(cfg):
    rng = np.random.default_rng(7)
    for _ in range(200):
        omega1, omega2, kappa = random_draw(rng)
        # work relative to the mean so eigh keeps full precision on the splitting
        mean = 0.5 * (omega1 + omega2)
        matrix = np.array([[omega1 - mean, kappa], [kappa, omega2 - mean]])
        values, vectors = np.linalg.eigh(matrix)  # ascending: [lower, upper]
        _, _, radius = crossing_geometry(omega1, omega2, kappa)
        plus, minus = mean + radius, mean - radius
        assert minus == pytest.approx(values[0] + mean, rel=1e-12)
        assert plus == pytest.approx(values[1] + mean, rel=1e-12)
        f1_up, f1_low = ring1_fractions(cfg, omega1, omega2, kappa)
        assert f1_low == pytest.approx(vectors[0, 0] ** 2, abs=1e-9)
        assert f1_up == pytest.approx(vectors[0, 1] ** 2, abs=1e-9)


def test_branch_fraction_orthogonality(cfg):
    rng = np.random.default_rng(8)
    for _ in range(1000):
        omega1, omega2, kappa = random_draw(rng)
        f1_up, f1_low = ring1_fractions(cfg, omega1, omega2, kappa)
        assert f1_up + f1_low == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= f1_up <= 1.0 and 0.0 <= f1_low <= 1.0


# --- effective rates ------------------------------------------------------------


def test_effective_rates_single_ring_limit():
    gamma, kappa_ext = 2.0 * MHZ, 5.0 * MHZ
    kappa_eff, gamma_eff, eta_c, tau_c = effective_rates(1.0, kappa_ext, gamma, gamma)
    assert kappa_eff == kappa_ext
    assert gamma_eff == pytest.approx(gamma)
    assert eta_c == pytest.approx(kappa_ext / (kappa_ext + gamma), rel=1e-15)
    assert tau_c == pytest.approx(1.0 / (kappa_ext + gamma), rel=1e-15)


def test_effective_rates_dark_supermode():
    kappa_eff, _, eta_c, _ = effective_rates(0.0, 5.0 * MHZ, 2.0 * MHZ, 2.0 * MHZ)
    assert kappa_eff == 0.0
    assert eta_c == 0.0


def test_effective_rates_half_fraction():
    gamma = 2.0 * MHZ
    _, _, eta_c, _ = effective_rates(0.5, 3.0 * gamma, gamma, gamma)
    assert eta_c == pytest.approx(0.6, rel=1e-15)


# --- heater sweep ---------------------------------------------------------------


@pytest.mark.parametrize("rates", [(0.0, 2.0, 2.0), (5.0, -2.0, 2.0), (5.0, 2.0, 0.0), (math.nan, 2.0, 2.0),
                                   (5.0, math.inf, 2.0), (5.0, 2.0, -math.inf)],
                         ids=["kappa_ext", "gamma1", "gamma2", "kappa_ext_nan", "gamma1_inf", "gamma2_minus_inf"])
def test_effective_rates_reject_a_non_positive_rate(rates):
    with pytest.raises(ValueError, match="^rates must be positive$"):
        effective_rates(0.5, *(rate * MHZ for rate in rates))


def test_solve_branch_rejects_an_unknown_branch(cfg):
    with pytest.raises(ValueError, match="^branch must be 'upper' or 'lower', got 'middle'$"):
        solve_branch(cfg, 25.0, 10.0, "middle")


def test_lower_branch_sweep_spans_observable_range(cfg):
    etas = eta_c_vs_heater(cfg, "lower", np.arange(0.0, 50.0 + 0.25, 0.5), 10.0).eta_c
    assert etas[0] == pytest.approx(0.082, abs=0.002)
    assert etas[-1] == pytest.approx(0.707, abs=0.002)
    assert np.all(np.diff(etas) > 0)


def test_sweep_eta_bounded_by_bus_coupling(cfg):
    bound = cfg.kappa_ext / (cfg.kappa_ext + min(cfg.ring1.gamma_i, cfg.ring2.gamma_i))
    for branch in ("lower", "upper"):
        assert np.all(eta_c_vs_heater(cfg, branch, np.linspace(0, 100, 41), 10.0).eta_c <= bound + 1e-12)


def test_strong_coupling_pins_eta(cfg):
    strong = dataclasses.replace(cfg, kappa_12=1e13)
    gamma_bar = 0.5 * (strong.ring1.gamma_i + strong.ring2.gamma_i)
    expected = 0.5 * strong.kappa_ext / (0.5 * strong.kappa_ext + gamma_bar)
    etas = eta_c_vs_heater(strong, "lower", np.linspace(0, 50, 11), 10.0).eta_c
    assert etas == pytest.approx(np.full(11, expected), abs=1e-4)


def test_symmetric_point_matches_half_fractions(cfg):
    sol = solve_branch(cfg, 25.0, 10.0, "lower")  # crossing of the calibrated device
    kappa_eff, gamma_eff, eta_c, tau_c = effective_rates(
        0.5, cfg.kappa_ext, cfg.ring1.gamma_i, cfg.ring2.gamma_i
    )
    assert sol.frac1 == pytest.approx(0.5, abs=1e-9)
    assert sol.eta_c == pytest.approx(eta_c, abs=1e-9)
    assert sol.tau_c == pytest.approx(tau_c, rel=1e-9)


def test_sweep_propagates_heater_range_error(cfg):
    with pytest.raises(ValueError):
        eta_c_vs_heater(cfg, "lower", [0.0, 200.0], 10.0)


def test_array_solution_matches_scalar_calls_bit_for_bit(cfg):
    # both tails and the crossing at p1 = 25 mW, with off-grid spacing
    grid = np.linspace(0.0, 100.0, 2001) + 0.0037
    grid[-1] = 100.0
    for branch in ("upper", "lower"):
        sol = solve_branch(cfg, grid, 10.0, branch)
        scalar = [solve_branch(cfg, float(p1), 10.0, branch) for p1 in grid]
        zero_d = [solve_branch(cfg, np.asarray(p1), 10.0, branch) for p1 in grid[::50]]
        for name in ("omega", "frac1", "kappa_eff", "gamma_eff", "eta_c", "tau_c"):
            column = getattr(sol, name)
            assert column.tolist() == [getattr(s, name) for s in scalar], f"{branch}.{name}"
            assert column[::50].tolist() == [float(getattr(s, name)) for s in zero_d], f"{branch}.{name}"
            assert type(getattr(scalar[0], name)) is float


def two_branch_path(cfg, p1, p2) -> dict:
    """Each branch's frequency and ring-1 fraction from one
    crossing_geometry, and its rates from effective_rates."""
    omega1, omega2 = ring_frequency(cfg.ring1, p1), ring_frequency(cfg.ring2, p2)
    kappa_12 = cfg.kappa_12
    mean, delta, radius = crossing_geometry(omega1, omega2, kappa_12)
    rates = (cfg.kappa_ext, cfg.ring1.gamma_i, cfg.ring2.gamma_i)
    path = {}
    for branch, omega in zip(("upper", "lower"), (mean + radius, mean - radius)):
        frac1 = supermodes._ring1_fraction(delta, radius, kappa_12, branch)
        path[branch] = (omega, frac1, *effective_rates(frac1, *rates))
    return path


def test_solves_match_the_two_branch_path_bit_for_bit(cfg):
    rng = np.random.default_rng(4242)
    scalars = rng.uniform(0.0, 100.0, 30)
    grids = [rng.uniform(0.0, 100.0, 400), np.linspace(0.0, 100.0, 1001) + rng.uniform(0.0, 0.1)]
    grids[1][-1] = 100.0
    names = ("omega", "frac1", "kappa_eff", "gamma_eff", "eta_c", "tau_c")
    for p2 in rng.uniform(0.0, 100.0, 3):
        for p1 in [*map(float, scalars), *map(np.asarray, scalars[:10]), *grids]:
            expected = two_branch_path(cfg, p1, p2)
            upper, lower = solve_both(cfg, p1, p2)
            for branch, paired in (("upper", upper), ("lower", lower)):
                sols = [solve_branch(cfg, p1, p2, branch), paired]
                if np.ndim(p1):
                    sols.append(eta_c_vs_heater(cfg, branch, p1, p2))
                for sol in sols:
                    for name, want in zip(names, expected[branch]):
                        got = getattr(sol, name)
                        assert type(got) is type(want), (branch, name)
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (branch, name)


def test_one_branch_solve_evaluates_the_geometry_once(cfg, count_calls):
    calls = count_calls(supermodes, "crossing_geometry", "effective_rates")
    solve_branch(cfg, np.linspace(0.0, 50.0, 101), 10.0, "lower")
    assert calls == {"crossing_geometry": 1, "effective_rates": 1}
    solve_both(cfg, 25.0, 10.0)
    assert calls == {"crossing_geometry": 3, "effective_rates": 3}


def test_array_heater_error_names_first_offending_power(cfg):
    grid = np.array([10.0, 40.0, 120.5, -3.0, 200.0])
    with pytest.raises(ValueError) as scalar_error:
        for p1 in grid:
            solve_branch(cfg, float(p1), 10.0, "lower")
    with pytest.raises(ValueError) as array_error:
        eta_c_vs_heater(cfg, "lower", grid, 10.0)
    assert str(array_error.value) == str(scalar_error.value) == "heater power 120.5 mW outside [0, 100.0] mW"


def test_solution_invariants(cfg):
    for p1 in (0.0, 12.5, 25.0, 40.0, 50.0):
        for branch in ("upper", "lower"):
            sol = solve_branch(cfg, p1, 10.0, branch)
            assert 0.0 < sol.eta_c < 1.0
            assert sol.tau_c > 0
            assert sol.eta_c == pytest.approx(sol.kappa_eff / (sol.kappa_eff + sol.gamma_eff), rel=1e-15)
    upper = solve_branch(cfg, 25.0, 10.0, "upper")
    lower = solve_branch(cfg, 25.0, 10.0, "lower")
    assert upper.omega > lower.omega
