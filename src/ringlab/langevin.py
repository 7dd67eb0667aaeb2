"""Stochastic oracle for the intensity-difference squeezing spectrum.

Above threshold the pump is clamped at its threshold value, which gives the
twin beams a parametric gain of half the total decay rate G = kappa_eff +
gamma_eff.  The amplitude-difference quadrature X then relaxes at G (decay
G/2 plus gain-induced G/2) and obeys the Ito equation

    dX/dt = -G X + sqrt(kappa_eff) xi_ext(t) + sqrt(G - kappa_eff) xi_int(t)

driven by independent unit-PSD white noises (vacuum inputs through the bus
coupler and the loss channel).  The detectable output is

    X_out(t) = sqrt(kappa_eff) X(t) - xi_ext(t)

whose exact power spectral density, in shot-noise units, is
1 - (kappa_eff/G)/(1 + W^2/G^2): the squeezing spectrum with perfect
detection, eta_c = kappa_eff/G and tau_c = 1/G.  (Output PSD numerator:
(kappa_eff - G)^2 + W^2 + kappa_eff(G - kappa_eff) = G^2 - kappa_eff*G + W^2.)

Integration uses Euler-Maruyama; dt <= MAX_DT_FACTOR/G (0.05/G) keeps the
discretization bias well below the 0.2 dB verification tolerance.  The
chain's recursion is evaluated as a blocked prefix scan, which
reassociates its sums: it agrees with step-by-step evaluation to a few ulp
of the largest sample.  Each trajectory draws its two noise streams from
generators seeded as SeedSequence(entropy=run.seed,
spawn_key=(trajectory,)).spawn(2), so runs are reproducible and
trajectories independent regardless of execution order; the initial
condition is the first draw of the external stream, scaled to the
stationary standard deviation of the discrete chain.

Sample budgets are counts, never durations: a LangevinRun holds n_steps
samples per trajectory (n_steps*dt at least 50/G) and n_trajectories
trajectories, and shot_noise_calibration draws n_samples per power.

averaged_output_psd runs the trajectories of a run on a pool of at most
LANGEVIN_MAX_WORKERS threads (numpy's RNG fill, ufuncs, cumulative sums
and FFT release the GIL) and sums their spectra in trajectory order, so
the result does not depend on the thread count.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .devicemodel import readonly_array
from .squeezing import squeezing_level

MAX_DT_FACTOR = 0.05            # largest G*dt of a run: the Euler bias stays well below 0.2 dB
MIN_DURATION_FACTOR = 50        # shortest G*n_steps*dt of a run
MIN_SEGMENT_SAMPLES = 16
SHOT_CAL_SEGMENTS = 31          # Welch segments per power in shot_noise_calibration
SHOT_CAL_MIN_SAMPLES = (SHOT_CAL_SEGMENTS + 1) * (MIN_SEGMENT_SAMPLES // 2)  # the fewest that fill them
LANGEVIN_MAX_WORKERS = 4        # trajectory threads per run; each holds three n_steps-long series at most
WELCH_BLOCK_BYTES = 1 << 19     # windowed samples transformed at once by output_psd
SCAN_MAX_BLOCK = 1024           # longest block of the integrator's scan, so its weight rows stay small
SCAN_ROW = 64                   # steps per row of the scan's running sums (see integrate_difference_quadrature)


@dataclass(frozen=True)
class LangevinRun:
    """Parameters of one stochastic run.

    gamma_total is the total energy decay rate G = kappa_eff + gamma_eff
    (inverse photon lifetime); rates in rad/s, times in seconds.
    """

    gamma_total: float
    kappa_eff: float
    dt: float
    n_steps: int
    n_trajectories: int
    seed: int

    def __post_init__(self):
        if self.gamma_total <= 0:
            raise ValueError(f"gamma_total must be positive, got {self.gamma_total}")
        if not 0.0 <= self.kappa_eff <= self.gamma_total:
            raise ValueError(f"kappa_eff must be in [0, gamma_total], got {self.kappa_eff}")
        if not 0.0 < self.dt <= MAX_DT_FACTOR / self.gamma_total:
            raise ValueError(f"dt must be in (0, {MAX_DT_FACTOR}/gamma_total], got {self.dt}")
        if not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        # checked as G*n_steps*dt, with room for the rounding of dt = dt_factor/G: a run
        # whose n_steps*dt_factor reaches MIN_DURATION_FACTOR is never refused
        if self.n_steps * self.dt * self.gamma_total < MIN_DURATION_FACTOR * (1 - 1e-12):
            raise ValueError(f"n_steps * dt must be at least {MIN_DURATION_FACTOR}/gamma_total, "
                             f"got {self.n_steps * self.dt}")
        if not isinstance(self.n_trajectories, numbers.Integral) or self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be a positive integer, got {self.n_trajectories!r}")

    @property
    def eta_c(self) -> float:
        return self.kappa_eff / self.gamma_total


@dataclass(frozen=True)
class NoiseSpectrum:
    """One-sided frequency grid (Hz, DC bin excluded) with the PSD in
    shot-noise units (two-sided density convention, flat 1 for shot noise)."""

    freq_grid: np.ndarray
    psd_normalized: np.ndarray
    n_segments: int

    def __post_init__(self):
        f = readonly_array(self.freq_grid)
        p = readonly_array(self.psd_normalized)
        if f.shape != p.shape or f.ndim != 1 or f.size == 0:
            raise ValueError("spectrum requires matching non-empty 1-d arrays")
        if f[0] <= 0 or np.any(np.diff(f) <= 0):
            raise ValueError("frequency grid must be positive and increasing")
        if not np.all(np.isfinite(p)):
            raise ValueError("psd must be finite")
        object.__setattr__(self, "freq_grid", f)
        object.__setattr__(self, "psd_normalized", p)


def trajectory_generators(seed: int, trajectory: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent generators for stream `trajectory` of `seed`: one
    trajectory's (external, internal) noise, or one shot-cal power's two
    photocurrents."""
    children = np.random.SeedSequence(entropy=seed, spawn_key=(trajectory,)).spawn(2)
    return np.random.default_rng(children[0]), np.random.default_rng(children[1])


def scan_block_length(gamma_dt: float) -> int:
    """Steps per block of integrate_difference_quadrature's scan: the most
    for which its weights a^-(i+1), a = 1 - gamma_dt, stay within e^4, at
    most SCAN_MAX_BLOCK, and in whole rows of SCAN_ROW steps where that
    allows one."""
    most = int(min(SCAN_MAX_BLOCK, 4.0 / -math.log1p(-gamma_dt)))
    return most - most % SCAN_ROW if most >= SCAN_ROW else max(1, most)


@functools.lru_cache(maxsize=4)
def _scan_factors(gamma_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan's weights a^-j and decays a^j for j = 1 .. its block length,
    a = 1 - gamma_dt: read-only, shared by every trajectory of a run.  They
    are Python's float powers, not numpy's, whose AVX-512 kernel rounds
    unlike its others."""
    a = 1.0 - gamma_dt
    powers = range(1, scan_block_length(gamma_dt) + 1)
    return readonly_array([a ** -j for j in powers]), readonly_array([a ** j for j in powers])


def integrate_difference_quadrature(
    dw_ext: np.ndarray,
    dw_int: np.ndarray,
    kappa_eff: float,
    gamma_total: float,
    dt: float,
    x0: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama integration given explicit Wiener increments.

    Returns (x, x_out), both sampled at dt with x[0] = x0; x_out pairs
    x[k] with the same-step external increment (Ito: x[k] is independent
    of dw_ext[k]).  The inputs are not modified; each is released as soon
    as it is used, so a caller that passes arrays it keeps no name for
    holds at most three series of this length at once.
    """
    if not 0.0 <= kappa_eff <= gamma_total:
        raise ValueError("kappa_eff must be in [0, gamma_total]")
    if not 0.0 < gamma_total * dt < 1.0:
        raise ValueError(f"gamma_total*dt must be in (0, 1), got {gamma_total * dt}")
    # x[k] = a*x[k-1] + w[k-1], w = sqrt(kappa) dw_ext + sqrt(G - kappa) dw_int,
    # as a scan in blocks: from the state x[s] at a block start,
    # x[s+j] = a^j (x[s] + sum_{i<j} a^-(i+1) w[s+i]).  The drive, its
    # weighted running sums and the samples are formed in turn in x[1:].
    x = np.empty(len(dw_int))
    x[:1] = x0
    w = x[1:]   # w[k-1] drives x[k], so the last increments drive no sample
    # the internal term is formed first so that dw_int is released before the external one
    np.multiply(dw_int[:-1], np.sqrt(gamma_total - kappa_eff), out=w)
    del dw_int
    w += np.sqrt(kappa_eff) * dw_ext[:-1]
    weight, decay = _scan_factors(gamma_total * dt)
    full = w.size - w.size % weight.size
    state = float(x0)
    for block in (w[:full].reshape(-1, weight.size), w[full:].reshape(1, -1)):
        if block.size == 0:
            continue
        n_blocks, steps = block.shape
        block *= weight[:steps]
        # numpy's cumsum releases the GIL only when it runs over more than
        # 500 rows, so a block's running sums are taken in rows of SCAN_ROW
        # steps, and the sum before each row is added after
        rows = block.reshape(n_blocks, -1, SCAN_ROW if steps % SCAN_ROW == 0 else steps)
        np.cumsum(rows, axis=2, out=rows)
        ends = np.cumsum(rows[:, :, -1], axis=1)   # each block's running sum at its row ends
        # the state at each block start, carried over the block ends
        gain = float(decay[steps - 1])
        starts = []
        for total in ends[:, -1].tolist():
            starts.append(state)
            state = (state + total) * gain
        offsets = np.zeros_like(ends)
        offsets[:, 1:] = ends[:, :-1]
        offsets += np.array(starts)[:, None]
        rows += offsets[:, :, None]
        block *= decay[:steps]
    x_out = np.divide(dw_ext, dt)
    del dw_ext
    np.subtract(np.sqrt(kappa_eff) * x, x_out, out=x_out)
    return x, x_out


def simulate_difference_quadrature(run: LangevinRun, trajectory: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One trajectory of the intracavity and output difference quadratures.

    Deterministic for fixed (run.seed, trajectory).
    """
    if not 0 <= trajectory < run.n_trajectories:
        raise ValueError(f"trajectory index {trajectory} outside [0, {run.n_trajectories})")
    rng_ext, rng_int = trajectory_generators(run.seed, trajectory)
    n = run.n_steps
    sigma0 = np.sqrt(1.0 / (2.0 - run.gamma_total * run.dt))  # stationary std of the discrete chain
    x0 = sigma0 * rng_ext.standard_normal()
    sqrt_dt = np.sqrt(run.dt)
    # The increments are passed unnamed: the callee then holds their only
    # references and frees each one once it is used.
    return integrate_difference_quadrature(
        rng_ext.standard_normal(n) * sqrt_dt,
        rng_int.standard_normal(n) * sqrt_dt,
        run.kappa_eff, run.gamma_total, run.dt, x0,
    )


def output_psd(series: np.ndarray, dt: float, n_segments: int) -> NoiseSpectrum:
    """Welch-averaged PSD: Hann window, 50% overlap, two-sided density.

    Normalized so a unit-PSD white-noise input (samples N(0, 1/dt)) gives
    a flat spectrum at 1 up to estimator variance.  The segment length is
    derived from the series length and the requested segment count; the
    series must be long enough for segments of at least 16 samples.  The
    segment length plays the role of a spectrum analyzer's resolution
    bandwidth (bin width 1/(M*dt)) and the segment count that of the
    video averaging.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-d")
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    m = 2 * (x.size // (n_segments + 1))
    if m < MIN_SEGMENT_SAMPLES:
        raise ValueError(
            f"series too short: {x.size} samples for {n_segments} half-overlapping segments"
        )
    hop = m // 2
    windows = np.lib.stride_tricks.sliding_window_view(x, m)[::hop]
    n_rows = windows.shape[0]
    win = np.hanning(m)
    u = np.mean(win**2)
    scale = dt / (m * u)
    # Segments are transformed a block at a time and summed row by row,
    # which is the order of mean(axis=0) over all rows, so the blocking
    # does not change a bit.
    rows = max(1, WELCH_BLOCK_BYTES // (8 * m))
    acc = np.zeros(m // 2 + 1)
    for start in range(0, n_rows, rows):
        block = np.abs(np.fft.rfft(windows[start:start + rows] * win, axis=1))
        block **= 2
        block *= scale
        for row in block:
            acc += row
    psd = acc / n_rows
    freq = np.arange(1, m // 2 + 1) / (m * dt)
    return NoiseSpectrum(freq_grid=freq, psd_normalized=psd[1:], n_segments=n_rows)


def averaged_output_psd(run: LangevinRun, n_segments: int) -> NoiseSpectrum:
    """Output PSD averaged over all trajectories of the run.

    Trajectories run on a pool of min(usable CPUs, n_trajectories,
    LANGEVIN_MAX_WORKERS) threads; their spectra are summed in trajectory
    order, so the result depends only on (seed, parameters), not on the
    thread count or the order in which trajectories finish.  Each
    trajectory runs under the caller's numpy float-error settings, which
    pool threads do not inherit.
    """
    from concurrent.futures import ThreadPoolExecutor

    errors = np.geterr()

    def trajectory_psd(trajectory: int) -> NoiseSpectrum:
        with np.errstate(**errors):
            return output_psd(simulate_difference_quadrature(run, trajectory)[1], run.dt, n_segments)

    # Each trajectory allocates and frees a few n_steps-long arrays.
    # glibc hands a freed heap top back to the OS once it exceeds twice the
    # largest block it has unmapped so far, so unless some earlier large
    # block was freed, every trajectory page-faults that memory afresh
    # (~150 000 faults per default langevin-verify run).  Freeing one 30 MB
    # block first lifts that limit for every thread; with other allocators
    # it costs one allocation that is never touched.
    np.empty(30_000_000 // 8)
    workers = min(_usable_cpus(), run.n_trajectories, LANGEVIN_MAX_WORKERS)
    acc = None
    total_segments = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for spectrum in pool.map(trajectory_psd, range(run.n_trajectories)):
            total_segments += spectrum.n_segments
            acc = spectrum.psd_normalized if acc is None else acc + spectrum.psd_normalized
    return NoiseSpectrum(
        freq_grid=spectrum.freq_grid,
        psd_normalized=acc / run.n_trajectories,
        n_segments=total_segments,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def analytic_psd(kappa_eff: float, gamma_total: float, freq_grid) -> NoiseSpectrum:
    """Closed-form output PSD on the given frequency grid (Hz): the squeezing
    spectrum with eta_c = kappa_eff/G, tau_c = 1/G and eta_d = 1."""
    if gamma_total <= 0 or not 0.0 <= kappa_eff <= gamma_total:
        raise ValueError("rates must satisfy 0 <= kappa_eff <= gamma_total, gamma_total > 0")
    f = np.asarray(freq_grid, dtype=float)
    s = squeezing_level(kappa_eff / gamma_total, 1.0, 1.0 / gamma_total, 2.0 * np.pi * f)
    return NoiseSpectrum(freq_grid=f, psd_normalized=s, n_segments=0)


def shot_noise_calibration(power_grid, n_samples: int, seed: int) -> list[tuple[float, float]]:
    """Balanced-detection shot-noise levels versus optical power.

    Each power P produces two independent white photocurrent streams of
    PSD P/2 (a 50:50 split), n_samples long at unit spacing (at least
    SHOT_CAL_MIN_SAMPLES); the PSD of their difference, Welch-averaged
    over SHOT_CAL_SEGMENTS segments, averages to P.  Returns (power, mean PSD level) per grid point; the levels fall
    on a line through the origin up to estimator variance.
    """
    levels = []
    for index, power in enumerate(power_grid):
        power = float(power)
        if power < 0:
            raise ValueError(f"power must be non-negative, got {power}")
        if power == 0.0:
            levels.append((power, 0.0))
            continue
        rng1, rng2 = trajectory_generators(seed, index)
        scale = np.sqrt(0.5 * power)
        s1 = scale * rng1.standard_normal(n_samples)
        s2 = scale * rng2.standard_normal(n_samples)
        spectrum = output_psd(s1 - s2, 1.0, SHOT_CAL_SEGMENTS)
        levels.append((power, float(spectrum.psd_normalized.mean())))
    return levels
