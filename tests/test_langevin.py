"""Stochastic intensity-difference model, PSD estimation, shot-noise calibration."""

import math
import re
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from ringlab import langevin
from ringlab.fitters import weighted_linear_fit
from ringlab.langevin import (
    LangevinRun,
    NoiseSpectrum,
    analytic_psd,
    averaged_output_psd,
    integrate_difference_quadrature,
    output_psd,
    scan_block_length,
    shot_noise_calibration,
    simulate_difference_quadrature,
)

GAMMA = 4.4e7  # representative total decay rate, rad/s


def make_run(eta_c=0.5, n_trajectories=40, segments=46, seed=321, dt_factor=0.02):
    dt = dt_factor / GAMMA
    n_steps = (segments + 1) * 1024
    return LangevinRun(
        gamma_total=GAMMA,
        kappa_eff=eta_c * GAMMA,
        dt=dt,
        n_steps=n_steps,
        n_trajectories=n_trajectories,
        seed=seed,
    )


@pytest.fixture(scope="module")
def oracle_run():
    run = make_run(eta_c=0.7, n_trajectories=40, segments=46)
    simulated = averaged_output_psd(run, 46)
    analytic = analytic_psd(run.kappa_eff, run.gamma_total, simulated.freq_grid)
    return run, simulated, analytic


# --- run invariants --------------------------------------------------------------


def test_run_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_run(dt_factor=0.2)  # dt above the stability bound
    with pytest.raises(ValueError):
        LangevinRun(GAMMA, 0.5 * GAMMA, 0.01 / GAMMA, 1000, 1, 0)  # too short: 10/GAMMA
    with pytest.raises(ValueError):
        LangevinRun(GAMMA, 1.5 * GAMMA, 0.01 / GAMMA, 10000, 1, 0)  # kappa > gamma
    with pytest.raises(ValueError):
        LangevinRun(GAMMA, 0.5 * GAMMA, 0.01 / GAMMA, 10000, 0, 0)  # no trajectories


@pytest.mark.parametrize("n_steps", [0, -5, 194560.0, "194560", None])
def test_run_takes_a_positive_integer_step_count(n_steps):
    with pytest.raises(ValueError, match=f"^n_steps must be a positive integer, got {re.escape(repr(n_steps))}$"):
        LangevinRun(GAMMA, 0.5 * GAMMA, 0.01 / GAMMA, n_steps, 1, 0)


@pytest.mark.parametrize("n_trajectories", [0, -5, 2.5, 200.0, "200", None])
def test_run_takes_a_positive_integer_trajectory_count(n_trajectories):
    with pytest.raises(ValueError, match=f"^n_trajectories must be a positive integer, got "
                                         f"{re.escape(repr(n_trajectories))}$"):
        LangevinRun(GAMMA, 0.5 * GAMMA, 0.01 / GAMMA, 18432, n_trajectories, 0)
    assert LangevinRun(GAMMA, 0.5 * GAMMA, 0.01 / GAMMA, 18432, np.int64(2), 0).n_trajectories == 2


@pytest.mark.parametrize("gamma_total", [0.0, -GAMMA, -math.inf])
def test_run_takes_a_positive_decay_rate(gamma_total):
    with pytest.raises(ValueError, match=f"^gamma_total must be positive, got {re.escape(str(gamma_total))}$"):
        LangevinRun(gamma_total, 0.0, 0.01 / GAMMA, 10000, 1, 0)


def test_run_shorter_than_50_over_gamma_is_refused():
    dt = 0.01 / GAMMA
    assert LangevinRun(GAMMA, 0.5 * GAMMA, dt, np.int64(5000), 1, 0).n_steps == 5000  # 5000 * dt = 50/GAMMA
    with pytest.raises(ValueError, match=r"^n_steps \* dt must be at least 50/gamma_total, got "):
        LangevinRun(GAMMA, 0.5 * GAMMA, dt, 4999, 1, 0)


# --- trajectory generation --------------------------------------------------------


def test_same_seed_bit_identical():
    run = make_run(seed=99, n_trajectories=2, segments=20)
    x_a, out_a = simulate_difference_quadrature(run, 0)
    x_b, out_b = simulate_difference_quadrature(run, 0)
    assert np.array_equal(x_a, x_b) and np.array_equal(out_a, out_b)
    x_c, _ = simulate_difference_quadrature(run, 1)
    assert not np.array_equal(x_a, x_c)


def test_zero_external_coupling_outputs_pure_shot_noise():
    run = LangevinRun(GAMMA, 0.0, 0.02 / GAMMA, 100_000, 1, 7)
    rngs = np.random.SeedSequence(entropy=7, spawn_key=(0,)).spawn(2)
    rng_ext = np.random.default_rng(rngs[0])
    sigma0 = np.sqrt(1.0 / (2.0 - run.gamma_total * run.dt))
    _ = sigma0 * rng_ext.standard_normal()
    dw_expected = rng_ext.standard_normal(run.n_steps) * np.sqrt(run.dt)
    _, x_out = simulate_difference_quadrature(run, 0)
    assert np.array_equal(x_out, -dw_expected / run.dt)


def test_stationary_variance_is_one_half():
    run = make_run(eta_c=0.5, seed=1234, segments=97)  # ~2000/GAMMA duration
    x, _ = simulate_difference_quadrature(run, 0)
    t_total = run.n_steps * run.dt * run.gamma_total
    sigma_est = 0.5 * math.sqrt(2.0 / t_total)  # sample-variance std for an OU process
    assert abs(x.var() - 0.5) <= 3.0 * sigma_est


@pytest.mark.parametrize("trajectory", [-1, 2, 3])
def test_trajectory_index_outside_the_run_is_refused(trajectory):
    run = make_run(n_trajectories=2, segments=8)
    message = rf"^trajectory index {trajectory} outside \[0, 2\)$"
    with pytest.raises(ValueError, match=message):
        langevin.trajectory_output_psd(run, trajectory, 8)
    with pytest.raises(ValueError, match=message):
        simulate_difference_quadrature(run, trajectory)


# --- PSD estimator ----------------------------------------------------------------


def test_white_noise_psd_is_flat_at_unity():
    rng = np.random.default_rng(42)
    dt = 0.5
    n_segments = 64
    series = rng.standard_normal(65 * 256) / math.sqrt(dt)
    spectrum = output_psd(series, dt, n_segments)
    assert spectrum.n_segments == n_segments
    band = 4.0 / math.sqrt(n_segments)
    assert np.all(np.abs(spectrum.psd_normalized - 1.0) <= band)
    assert abs(spectrum.psd_normalized.mean() - 1.0) <= 0.02


def test_sinusoid_peaks_at_its_frequency():
    dt = 1.0
    n = 33 * 256
    t = np.arange(n) * dt
    f0 = 0.123
    rng = np.random.default_rng(6)
    series = 5.0 * np.sin(2 * np.pi * f0 * t) + rng.standard_normal(n)
    spectrum = output_psd(series, dt, 32)
    peak = spectrum.freq_grid[np.argmax(spectrum.psd_normalized)]
    assert peak == pytest.approx(f0, abs=2.0 / (256 * dt))


def test_zero_series_gives_zero_spectrum():
    spectrum = output_psd(np.zeros(4096), 1.0, 8)
    assert np.all(spectrum.psd_normalized == 0.0)


def test_output_psd_rejects_short_series():
    with pytest.raises(ValueError, match="too short"):
        output_psd(np.zeros(64), 1.0, 32)


@pytest.mark.parametrize("series, n_segments, message", [
    (np.zeros(4096), 0, r"^n_segments must be >= 1, got 0$"),
    (np.zeros(4096), -3, r"^n_segments must be >= 1, got -3$"),
    (np.zeros((2, 4096)), 8, r"^series must be 1-d$"),
    (np.float64(1.0), 1, r"^series must be 1-d$"),
])
def test_output_psd_rejects_bad_segment_counts_and_shapes(series, n_segments, message):
    with pytest.raises(ValueError, match=message):
        output_psd(series, 1.0, n_segments)


@pytest.mark.parametrize("freq, psd, message", [
    ([1.0, 2.0], [1.0], "matching non-empty 1-d arrays"),
    ([1.0], [1.0, 2.0], "matching non-empty 1-d arrays"),
    ([], [], "matching non-empty 1-d arrays"),
    ([[1.0, 2.0]], [[1.0, 2.0]], "matching non-empty 1-d arrays"),
    ([1.0, 2.0], [1.0, math.nan], "psd must be finite"),
    ([1.0, 2.0], [math.inf, 1.0], "psd must be finite"),
    ([1.0, 2.0], [1.0, -math.inf], "psd must be finite"),
])
def test_spectrum_refuses_mismatched_or_non_finite_arrays(freq, psd, message):
    with pytest.raises(ValueError, match=message):
        NoiseSpectrum(freq_grid=np.array(freq), psd_normalized=np.array(psd), n_segments=1)


def test_spectrum_type_invariants():
    with pytest.raises(ValueError):
        NoiseSpectrum(freq_grid=np.array([0.0, 1.0]), psd_normalized=np.array([1.0, 1.0]), n_segments=1)
    with pytest.raises(ValueError):
        NoiseSpectrum(freq_grid=np.array([1.0, 1.0]), psd_normalized=np.array([1.0, 1.0]), n_segments=1)
    source = np.array([1.0, 2.0])
    spectrum = NoiseSpectrum(freq_grid=source, psd_normalized=np.array([1.0, 0.5]), n_segments=1)
    source[0] = 0.5  # the spectrum holds its own copy
    assert spectrum.freq_grid[0] == 1.0
    with pytest.raises(ValueError):
        spectrum.freq_grid[0] = 3.0
    with pytest.raises(ValueError):
        spectrum.psd_normalized += 1.0


# --- the integrator's scan and the blocked Welch step, against plain forms -------------


def _integrate_reference(dw_ext, dw_int, kappa_eff, gamma_total, dt, x0):
    """The Euler chain one step at a time, x[k] = w[k-1] + a*x[k-1], in the
    order of operations of a direct-form recursive filter."""
    a = 1.0 - gamma_total * dt
    w = (np.sqrt(kappa_eff) * dw_ext + np.sqrt(gamma_total - kappa_eff) * dw_int).tolist()
    x = [x0]
    for k in range(1, len(w)):
        x.append(w[k - 1] + a * x[k - 1])
    x = np.array(x)
    return x, np.sqrt(kappa_eff) * x - dw_ext / dt


def _welch_reference(x, dt, n_segments):
    """Welch PSD in its original form: every segment at once, then mean(axis=0)."""
    m = 2 * (x.size // (n_segments + 1))
    windows = np.lib.stride_tricks.sliding_window_view(x, m)[:: m // 2]
    win = np.hanning(m)
    spectra = np.abs(np.fft.rfft(windows * win, axis=1)) ** 2 * (dt / (m * np.mean(win**2)))
    return spectra.mean(axis=0)[1:]


def test_scan_block_length_keeps_weights_within_e4():
    row = langevin.SCAN_ROW
    for gamma_dt in (0.5, 0.1, 0.05, 0.01, 0.005):
        width = scan_block_length(gamma_dt)
        step = row if width >= row else 1  # whole rows where the weights allow one
        assert width % step == 0
        assert (1 - gamma_dt) ** -width <= math.e**4 < (1 - gamma_dt) ** -(width + step)
    assert scan_block_length(0.01) == 384  # the CLI's default step, dt = 0.01/gamma_total
    assert scan_block_length(0.99) == 1
    assert scan_block_length(1e-4) == scan_block_length(1e-300) == langevin.SCAN_MAX_BLOCK


@pytest.mark.parametrize("gamma_dt", [0.0, -0.01, 1.0, 1.5, math.nan])
def test_integrator_rejects_a_step_outside_the_unit_interval(gamma_dt):
    with pytest.raises(ValueError, match=r"gamma_total\*dt must be in \(0, 1\)"):
        integrate_difference_quadrature(np.zeros(10), np.zeros(10), 0.5, 1.0, gamma_dt)


@pytest.mark.parametrize("kappa_eff", [-0.1, 1.5, math.nan])
def test_integrator_rejects_a_coupling_outside_zero_to_gamma(kappa_eff):
    with pytest.raises(ValueError, match=r"^kappa_eff must be in \[0, gamma_total\]$"):
        integrate_difference_quadrature(np.zeros(10), np.zeros(10), kappa_eff, 1.0, 0.01)


@pytest.mark.parametrize("eta_c, x0, n, gamma_dt", [
    (0.0, 0.3, 5000, 0.01),     # 4999 steps: 13 blocks of 384 and a tail of 7
    (0.37, -1.1, 5000, 0.01),
    (1.0, 0.0, 5000, 0.01),
    (0.5, 0.8, 100, 0.01),      # fewer steps than one block
    (0.5, -0.4, 1 + 3 * scan_block_length(0.01), 0.01),  # whole blocks, no tail
    (0.5, -0.4, 1 + 2 * scan_block_length(0.01) + 2 * langevin.SCAN_ROW, 0.01),  # a tail of whole rows
    (0.6, 0.5, 5000, 0.05),     # blocks of one row
    (0.6, 0.5, 5000, 0.3),      # blocks of 11 steps, shorter than a row
    (0.6, 0.5, 5000, 1e-4),     # blocks of SCAN_MAX_BLOCK
])
def test_integrator_matches_python_loop_within_16_eps(eta_c, x0, n, gamma_dt):
    rng = np.random.default_rng(2024)
    dw_ext = rng.standard_normal(n) * math.sqrt(gamma_dt)
    dw_int = rng.standard_normal(n) * math.sqrt(gamma_dt)
    kept = dw_ext.copy(), dw_int.copy()
    x, x_out = integrate_difference_quadrature(dw_ext, dw_int, eta_c, 1.0, gamma_dt, x0)
    x_ref, out_ref = _integrate_reference(dw_ext, dw_int, eta_c, 1.0, gamma_dt, x0)
    eps = np.finfo(float).eps
    assert x.shape == x_out.shape == (n,) and x[0] == x0
    assert np.max(np.abs(x - x_ref)) <= 16 * eps * np.max(np.abs(x_ref))
    assert np.max(np.abs(x_out - out_ref)) <= 16 * eps * np.max(np.abs(out_ref))
    assert np.array_equal(dw_ext, kept[0]) and np.array_equal(dw_int, kept[1])  # inputs untouched


@pytest.mark.parametrize("n_samples, n_segments, block_bytes", [
    (95 * 2048, 94, langevin.WELCH_BLOCK_BYTES),  # CLI default: 94 segments in blocks of 16
    (33 * 256, 32, 3 * 8 * 512),                  # blocks of 3 segments, remainder 2
    (4099, 7, 1),                                  # one segment per block, odd tail
    (1000, 1, langevin.WELCH_BLOCK_BYTES),
])
def test_blocked_welch_matches_mean_over_all_segments_bit_for_bit(monkeypatch, n_samples, n_segments, block_bytes):
    monkeypatch.setattr(langevin, "WELCH_BLOCK_BYTES", block_bytes)
    series = np.random.default_rng(n_samples).standard_normal(n_samples) * 3.0
    spectrum = output_psd(series, 0.25, n_segments)
    assert spectrum.psd_normalized.tobytes() == _welch_reference(series, 0.25, n_segments).tobytes()


# --- streamed trajectories against the whole-series functions ---------------------------


def _serial_average(run, n_segments):
    """The trajectories' whole-series spectra summed one after another in trajectory order."""
    acc = None
    for trajectory in range(run.n_trajectories):
        psd = output_psd(simulate_difference_quadrature(run, trajectory)[1], run.dt, n_segments).psd_normalized
        acc = psd if acc is None else acc + psd
    return acc / run.n_trajectories


BLOCK = scan_block_length(0.01)   # 384 steps, of 6 scan rows


@pytest.mark.parametrize("eta_c, n_steps, gamma_dt, chunk_steps, n_segments", [
    (0.0, 5000, 0.01, 2 * BLOCK, 8),        # 4999 steps: 6 chunks of 2 blocks, then a block and a tail of 7
    (0.37, 5000, 0.01, 2 * BLOCK, 8),
    (1.0, 5000, 0.01, 2 * BLOCK, 8),
    (0.5, 100, 0.01, 2 * BLOCK, 2),         # fewer steps than one block
    (0.5, 1 + 3 * BLOCK, 0.01, 2 * BLOCK, 4),                     # whole blocks, no tail
    (0.5, 1 + 2 * BLOCK + 2 * langevin.SCAN_ROW, 0.01, BLOCK, 4),  # a tail of whole rows
    (0.5, 1 + 4 * BLOCK, 0.01, 2 * BLOCK, 4),                     # a last chunk of one sample and no drive
    (0.6, 5000, 0.05, 200, 8),              # blocks of one row, 3 to a chunk
    (0.6, 5000, 0.3, 50, 8),                # blocks of 11 steps, shorter than a row, 4 to a chunk
    (0.6, 5000, 1e-4, 100, 8),              # blocks of SCAN_MAX_BLOCK: a chunk is at least one block
    (0.6, 95 * 2048, 0.01, langevin.CHUNK_STEPS, 94),  # CLI default: segments and FFT blocks across chunk edges
])
def test_streamed_average_equals_serial_sum_of_whole_series_bit_for_bit(
        monkeypatch, eta_c, n_steps, gamma_dt, chunk_steps, n_segments):
    # a run record without LangevinRun's physical bounds (dt, duration), so that
    # the kernels meet every edge case of the scan's blocks
    run = types.SimpleNamespace(gamma_total=1.0, kappa_eff=eta_c, dt=gamma_dt, n_steps=n_steps,
                                n_trajectories=2, seed=n_steps)
    monkeypatch.setattr(langevin, "CHUNK_STEPS", chunk_steps)
    streamed = averaged_output_psd(run, n_segments)
    segments = output_psd(np.zeros(n_steps), gamma_dt, n_segments).n_segments
    assert streamed.n_segments == 2 * segments
    assert streamed.psd_normalized.tobytes() == _serial_average(run, n_segments).tobytes()
    for trajectory in range(run.n_trajectories):
        whole = output_psd(simulate_difference_quadrature(run, trajectory)[1], gamma_dt, n_segments)
        one = langevin.trajectory_output_psd(run, trajectory, n_segments)
        assert one.psd_normalized.tobytes() == whole.psd_normalized.tobytes()
        assert one.freq_grid.tobytes() == whole.freq_grid.tobytes()


def _trajectory_reference(run, trajectory):
    """A trajectory's output samples from its own generator draws (initial
    state, then the external and internal increments), stepped one at a
    time by _integrate_reference."""
    children = np.random.SeedSequence(entropy=run.seed, spawn_key=(trajectory,)).spawn(2)
    rng_ext, rng_int = (np.random.default_rng(child) for child in children)
    x0 = math.sqrt(1.0 / (2.0 - run.gamma_total * run.dt)) * rng_ext.standard_normal()
    dw_ext = rng_ext.standard_normal(run.n_steps) * math.sqrt(run.dt)
    dw_int = rng_int.standard_normal(run.n_steps) * math.sqrt(run.dt)
    return _integrate_reference(dw_ext, dw_int, run.kappa_eff, run.gamma_total, run.dt, x0)[1]


def _welch_bound(series, dt, n_segments):
    """The most a bin of _welch_reference(series) can move between two
    computations whose samples agree to 16 eps of the largest sample M, the
    bound of test_integrator_matches_python_loop_within_16_eps.  Through
    the Hann window, whose sum is under m/2, that moves a segment's DFT by
    at most m/2 * 16 eps M.  Each of the two FFTs rounds by at most
    5 log2(m) eps times the 2-norm of its output, which is at most m M (the
    normwise FFT error bound with eps-accurate twiddle factors).  With
    |A| <= m/2 * M a segment's DFT and E the sum of these errors, a bin
    moves by at most scale * (2|A| + E) * E."""
    eps = np.finfo(float).eps
    m = 2 * (series.size // (n_segments + 1))
    big = np.max(np.abs(series))
    a = m / 2 * big
    e = m / 2 * 16 * eps * big + 2 * 5 * math.log2(m) * eps * m * big
    window = np.hanning(m)
    return dt / (m * np.mean(window**2)) * (2 * a + e) * e


@pytest.mark.parametrize("eta_c, n_steps, gamma_dt, chunk_steps, n_segments", [
    (0.37, 5000, 0.01, 2 * BLOCK, 8),       # 6 chunks of 2 blocks, then a block and a tail of 7
    (1.0, 1 + 4 * BLOCK, 0.01, 2 * BLOCK, 4),   # a last chunk of one sample and no drive
    (0.6, 5000, 0.3, 50, 8),                # blocks of 11 steps, 4 to a chunk
    (0.6, 95 * 2048, 0.01, langevin.CHUNK_STEPS, 94),  # CLI default
])
def test_streamed_trajectory_matches_a_step_by_step_reference(
        monkeypatch, eta_c, n_steps, gamma_dt, chunk_steps, n_segments):
    # the streamed path and integrate_difference_quadrature share the Euler
    # step, so this is the check of the streamed spectrum against code it
    # does not share: a Python loop over the same draws and an all-at-once Welch mean
    run = types.SimpleNamespace(gamma_total=1.0, kappa_eff=eta_c, dt=gamma_dt, n_steps=n_steps,
                                n_trajectories=2, seed=n_steps + 1)
    monkeypatch.setattr(langevin, "CHUNK_STEPS", chunk_steps)
    for trajectory in range(run.n_trajectories):
        series = _trajectory_reference(run, trajectory)
        reference = _welch_reference(series, gamma_dt, n_segments)
        streamed = langevin.trajectory_output_psd(run, trajectory, n_segments).psd_normalized
        bound = _welch_bound(series, gamma_dt, n_segments)
        assert bound <= 1e-6 * np.median(reference)   # far below the spectrum itself
        assert np.max(np.abs(streamed - reference)) <= bound


TRAJECTORY_PEAK_BYTES = 3_000_000   # one streamed trajectory at the CLI's step and segment length


@pytest.mark.parametrize("segments", [94, 940])
def test_trajectory_memory_does_not_grow_with_its_length(segments):
    # the CLI's run shape: segments of 4096 samples, dt = 0.01/G; a series of
    # 940 segments is 15.4 MB, five times the bound
    run = LangevinRun(GAMMA, 0.5 * GAMMA, 0.01 / GAMMA, (segments + 1) * 2048, 1, 5)
    langevin.trajectory_output_psd(run, 0, segments)  # imports and caches outside the window
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        langevin.trajectory_output_psd(run, 0, segments)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= TRAJECTORY_PEAK_BYTES


# --- trajectory thread pool -------------------------------------------------------


@pytest.mark.parametrize("max_workers", [1, 3])
def test_pooled_average_equals_serial_fixed_order_sum(monkeypatch, max_workers):
    run = make_run(eta_c=0.6, n_trajectories=5, segments=12, seed=77)
    expected = _serial_average(run, 12)

    workers = set()
    trajectory_psd = langevin.trajectory_output_psd

    def recording_trajectory_psd(*args):
        workers.add(threading.get_ident())
        return trajectory_psd(*args)

    monkeypatch.setattr(langevin, "LANGEVIN_MAX_WORKERS", max_workers)
    monkeypatch.setattr(langevin, "_usable_cpus", lambda: 8)  # more threads than this host may have cores
    monkeypatch.setattr(langevin, "trajectory_output_psd", recording_trajectory_psd)
    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as finely as the interpreter allows
    try:
        pooled = averaged_output_psd(run, 12)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads_before  # no pool thread outlives the call
    assert 1 <= len(workers) <= max_workers and threading.get_ident() not in workers
    assert pooled.psd_normalized.tobytes() == expected.tobytes()
    assert pooled.n_segments == 12 * run.n_trajectories


# --- analytic spectrum ------------------------------------------------------------


def test_analytic_psd_limits():
    f = GAMMA / (2 * np.pi)
    assert analytic_psd(GAMMA, GAMMA, [1e-12]).psd_normalized[0] == pytest.approx(0.0, abs=1e-12)
    # at W = gamma_total the dip is half its zero-frequency depth
    half = analytic_psd(0.6 * GAMMA, GAMMA, [f]).psd_normalized[0]
    assert half == pytest.approx(1.0 - 0.6 / 2.0, rel=1e-12)


@pytest.mark.parametrize("kappa_eff, gamma_total", [(1.5 * GAMMA, GAMMA), (-1.0, GAMMA), (0.0, 0.0)],
                         ids=["kappa-above-gamma", "negative-kappa", "zero-gamma"])
def test_analytic_psd_rejects_rates_outside_their_range(kappa_eff, gamma_total):
    with pytest.raises(ValueError, match=r"^rates must satisfy 0 <= kappa_eff <= gamma_total, gamma_total > 0$"):
        analytic_psd(kappa_eff, gamma_total, [1e6])


def test_analytic_psd_matches_deep_squeezing_point():
    omega = 0.425 * GAMMA
    s = analytic_psd(0.7 * GAMMA, GAMMA, [omega / (2 * np.pi)]).psd_normalized[0]
    assert s == pytest.approx(1.0 - 0.7 / (1.0 + 0.425**2), rel=1e-12)
    assert 10 * math.log10(s) == pytest.approx(-3.90, abs=5e-3)


# --- oracle equivalence ------------------------------------------------------------


def test_simulated_psd_tracks_analytic(oracle_run):
    run, simulated, analytic = oracle_run
    band = 2 * np.pi * simulated.freq_grid <= 3.0 * run.gamma_total
    diff_db = 10 * np.log10(simulated.psd_normalized[band] / analytic.psd_normalized[band])
    assert band.sum() >= 15
    assert np.max(np.abs(diff_db)) <= 0.3


def test_simulated_psd_respects_passivity_floor(oracle_run):
    run, simulated, _ = oracle_run
    sigma = math.sqrt(1.056 / simulated.n_segments)  # Welch estimator, Hann 50% overlap
    assert simulated.psd_normalized.min() >= 1.0 - run.eta_c - 3.0 * sigma


def test_averaged_psd_deterministic(oracle_run):
    run, simulated, _ = oracle_run
    small = LangevinRun(run.gamma_total, run.kappa_eff, run.dt, run.n_steps, 3, run.seed)
    again = averaged_output_psd(small, 46)
    once = averaged_output_psd(small, 46)
    assert np.array_equal(again.psd_normalized, once.psd_normalized)
    assert np.array_equal(again.freq_grid, once.freq_grid)


def test_halving_dt_changes_psd_below_estimator_sigma():
    # common Brownian paths at both resolutions isolate the integrator bias
    gamma, kappa = 1.0, 0.5
    dt = 0.02
    segments = 30
    n_coarse = (segments + 1) * 512
    rng = np.random.default_rng(88)
    acc_c, acc_f = None, None
    for _ in range(10):
        fine_ext = rng.standard_normal(2 * n_coarse) * math.sqrt(dt / 2)
        fine_int = rng.standard_normal(2 * n_coarse) * math.sqrt(dt / 2)
        coarse_ext = fine_ext.reshape(-1, 2).sum(axis=1)
        coarse_int = fine_int.reshape(-1, 2).sum(axis=1)
        x0 = rng.standard_normal() * math.sqrt(0.5)
        _, out_c = integrate_difference_quadrature(coarse_ext, coarse_int, kappa, gamma, dt, x0)
        _, out_f = integrate_difference_quadrature(fine_ext, fine_int, kappa, gamma, dt / 2, x0)
        psd_c = output_psd(out_c, dt, segments)
        psd_f = output_psd(out_f, dt / 2, segments)
        acc_c = psd_c.psd_normalized if acc_c is None else acc_c + psd_c.psd_normalized
        acc_f = psd_f.psd_normalized[: psd_c.psd_normalized.size] if acc_f is None else acc_f + psd_f.psd_normalized[: psd_c.psd_normalized.size]
    mean_c, mean_f = acc_c / 10, acc_f / 10
    analytic = analytic_psd(kappa, gamma, psd_c.freq_grid).psd_normalized
    sigma = analytic * math.sqrt(1.056 / (10 * segments))
    band = 2 * np.pi * psd_c.freq_grid <= 3.0 * gamma  # the measurement band
    assert band.sum() >= 8
    assert np.all(np.abs(mean_c - mean_f)[band] <= sigma[band])


# --- shot-noise calibration ---------------------------------------------------------


def test_shot_noise_zero_power_is_zero():
    levels = shot_noise_calibration([0.0], 16384, 1)
    assert levels == [(0.0, 0.0)]


def test_shot_noise_levels_scale_linearly():
    # the band-mean level estimator has sigma ~ 0.9% of the level
    levels = dict(shot_noise_calibration([1.0, 2.0, 4.0, 8.0], 16384, 2))
    for power, level in levels.items():
        assert level == pytest.approx(power, rel=0.04)
    assert levels[2.0] == pytest.approx(2 * levels[1.0], rel=0.05)


def test_shot_noise_line_through_origin():
    levels = shot_noise_calibration([1.0, 2.0, 4.0, 8.0], 16384, 3)
    fit = weighted_linear_fit([p for p, _ in levels], [v for _, v in levels])
    assert fit.r_squared > 0.999
    # each point consistent with the fitted line within 3 estimator sigmas
    for power, level in levels:
        assert abs(level - fit.slope * power) <= 3.0 * 0.009 * power


def _shot_cal_reference(powers, n_samples, seed):
    """Two whole draws per power, differenced, through output_psd and averaged."""
    levels = []
    for index, power in enumerate(map(float, powers)):
        if power == 0.0:
            levels.append((power, 0.0))
            continue
        children = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).spawn(2)
        rng1, rng2 = (np.random.default_rng(child) for child in children)
        scale = np.sqrt(0.5 * power)
        difference = rng1.standard_normal(n_samples) * scale - rng2.standard_normal(n_samples) * scale
        psd = output_psd(difference, 1.0, langevin.SHOT_CAL_SEGMENTS).psd_normalized
        levels.append((power, float(psd.mean())))
    return levels


@pytest.mark.parametrize("chunk_steps", [1, 333, langevin.CHUNK_STEPS])
def test_shot_noise_levels_equal_whole_series_reference_bit_for_bit(monkeypatch, chunk_steps):
    # 100 003 samples: 6 250-sample segments, so segments straddle chunk edges
    # and a last chunk is short at every chunk size
    monkeypatch.setattr(langevin, "CHUNK_STEPS", chunk_steps)
    powers = [1, 2, 0, 8]
    levels = shot_noise_calibration(powers, 100_003, 6)
    assert np.array(levels).tobytes() == np.array(_shot_cal_reference(powers, 100_003, 6)).tobytes()


SHOT_CAL_PEAK_BYTES = 6_000_000   # two powers; the whole streams of 10**6 samples are 16 MB


@pytest.mark.parametrize("n_samples", [16_384, 100_003, 1_000_000])
def test_shot_noise_memory_does_not_grow_with_its_sample_count(n_samples):
    # what stays is a chunk, the stage and the Welch block arrays, which hold
    # a few segments of n_samples/16 samples; 1.7, 2.3 and 4.8 MB measured
    shot_noise_calibration([1.0, 2.0], n_samples, 0)   # imports and caches outside the window
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        shot_noise_calibration([1.0, 2.0], n_samples, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= SHOT_CAL_PEAK_BYTES


@pytest.mark.parametrize("n_samples", [16384.0, 3, 0, langevin.SHOT_CAL_MIN_SAMPLES - 1, "16384", None])
def test_shot_noise_takes_an_integer_sample_count_that_fills_its_segments(monkeypatch, n_samples):
    levels = shot_noise_calibration([0.0, 1.0], np.int64(langevin.SHOT_CAL_MIN_SAMPLES), 0)
    assert levels[0] == (0.0, 0.0) and levels[1][1] > 0.0
    draws = []
    monkeypatch.setattr(langevin, "trajectory_generators", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=f"^n_samples must be an integer of at least "
                                         f"{langevin.SHOT_CAL_MIN_SAMPLES}, got {re.escape(repr(n_samples))}$"):
        shot_noise_calibration([1.0, 2.0], n_samples, 0)
    with pytest.raises(ValueError, match="^n_samples must be"):
        shot_noise_calibration([0.0, 0.0], n_samples, 0)
    assert draws == []   # refused before any draw


def test_shot_noise_rejects_negative_power():
    with pytest.raises(ValueError):
        shot_noise_calibration([-1.0], 16384, 0)


def test_pooled_average_raises_a_trajectory_error_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(langevin, "_usable_cpus", lambda: 3)
    run = make_run(n_trajectories=6, segments=8)
    threads_before = threading.active_count()
    with pytest.raises(ValueError, match="too short"):
        averaged_output_psd(run, 10 * run.n_steps)
    assert threading.active_count() == threads_before
