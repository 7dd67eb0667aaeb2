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
the result does not depend on the thread count.  Each trajectory is
streamed CHUNK_STEPS steps at a time through the one Euler step
(_euler_chain) into the one chunk loop of its Welch sum
(_WelchSum.stream), in arrays its thread allocates once, so the memory of
a thread is a constant, whatever n_steps.  integrate_difference_quadrature
takes the same step once over a whole series, and the spectrum is that of
output_psd over simulate_difference_quadrature, bit for bit.
shot_noise_calibration streams its photocurrents through the same loop.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .devicemodel import readonly_array
from .squeezing import squeezing_level

MAX_DT_FACTOR = 0.05            # largest G*dt of a run: the Euler bias stays well below 0.2 dB
MIN_DURATION_FACTOR = 50        # shortest G*n_steps*dt of a run
MIN_SEGMENT_SAMPLES = 16
SHOT_CAL_SEGMENTS = 31          # Welch segments per power in shot_noise_calibration
SHOT_CAL_MIN_SAMPLES = (SHOT_CAL_SEGMENTS + 1) * (MIN_SEGMENT_SAMPLES // 2)  # the fewest that fill them
LANGEVIN_MAX_WORKERS = 4        # trajectory threads per run; each holds one fixed working set, whatever n_steps
# steps of a trajectory drawn, scanned and transformed at once, in whole scan blocks:
# over 500 rows of SCAN_ROW steps, so that the scan's cumsum releases the GIL
CHUNK_STEPS = 49152
WELCH_BLOCK_BYTES = 1 << 19     # windowed samples transformed at once by the Welch sum
SCAN_MAX_BLOCK = 1024           # longest block of the integrator's scan, so its weight rows stay small
SCAN_ROW = 64                   # steps per row of the scan's running sums (see _scan)


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


def _scan(w: np.ndarray, state: float, gamma_dt: float) -> float:
    """The Euler chain x[k+1] = a*x[k] + w[k], a = 1 - gamma_dt, from x[0] =
    state, in place: w[k] becomes x[k+1].  Returns the state after the last
    step.  The scan runs in blocks of scan_block_length(gamma_dt) steps,
    whole blocks first, so a drive cut at a block edge and continued from
    the returned state gives the samples of one call over the whole, bit
    for bit."""
    # from the state x[s] at a block start, x[s+j] = a^j (x[s] + sum_{i<j} a^-(i+1) w[s+i])
    weight, decay = _scan_factors(gamma_dt)
    full = w.size - w.size % weight.size
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
    return state


def _euler_chain(x: np.ndarray, dw_ext: np.ndarray, x_out: np.ndarray, state: float,
                 kappa_eff: float, gamma_total: float, dt: float) -> float:
    """The Euler step over one stretch of a trajectory, in place.

    On entry x[0] is the sample the stretch starts from, `state` its scan
    state, and x[1:] the internal increments.  x[k] = a*x[k-1] + w[k-1],
    w = sqrt(G - kappa) dw_int + sqrt(kappa) dw_ext: the drive is formed
    in x[1:] and scanned there into the next samples.  Then x_out =
    sqrt(kappa) x - dw_ext/dt over the first len(x_out) samples, and
    dw_ext holds dw_ext/dt.  Returns the scan's state after the stretch.
    """
    root_ext = np.sqrt(kappa_eff)
    w = x[1:]
    w *= np.sqrt(gamma_total - kappa_eff)
    np.multiply(dw_ext[:w.size], root_ext, out=x_out[:w.size])   # x_out lends its room to the drive
    w += x_out[:w.size]
    state = _scan(w, state, gamma_total * dt)
    dw_ext /= dt
    np.multiply(x[:x_out.size], root_ext, out=x_out)
    x_out -= dw_ext
    return state


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
    of dw_ext[k]).  The inputs are not modified.
    """
    if not 0.0 <= kappa_eff <= gamma_total:
        raise ValueError("kappa_eff must be in [0, gamma_total]")
    if not 0.0 < gamma_total * dt < 1.0:
        raise ValueError(f"gamma_total*dt must be in (0, 1), got {gamma_total * dt}")
    x = np.empty(len(dw_int))
    x[:1] = x0
    x[1:] = dw_int[:-1]   # the last increments drive no sample
    x_out = np.empty(len(x))
    _euler_chain(x, np.array(dw_ext, dtype=float), x_out, float(x0), kappa_eff, gamma_total, dt)
    return x, x_out


def simulate_difference_quadrature(run: LangevinRun, trajectory: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One trajectory of the intracavity and output difference quadratures.

    Deterministic for fixed (run.seed, trajectory).
    """
    rng_ext, rng_int, x0 = _trajectory_start(run, trajectory)
    n = run.n_steps
    sqrt_dt = np.sqrt(run.dt)
    return integrate_difference_quadrature(
        rng_ext.standard_normal(n) * sqrt_dt,
        rng_int.standard_normal(n) * sqrt_dt,
        run.kappa_eff, run.gamma_total, run.dt, x0,
    )


def _trajectory_start(run: LangevinRun, trajectory: int) -> tuple[np.random.Generator, np.random.Generator, float]:
    """A trajectory's (external, internal) generators and its initial state."""
    if not 0 <= trajectory < run.n_trajectories:
        raise ValueError(f"trajectory index {trajectory} outside [0, {run.n_trajectories})")
    rng_ext, rng_int = trajectory_generators(run.seed, trajectory)
    sigma0 = np.sqrt(1.0 / (2.0 - run.gamma_total * run.dt))  # stationary std of the discrete chain
    return rng_ext, rng_int, sigma0 * rng_ext.standard_normal()


class _WelchSum:
    """output_psd's estimator as a running sum over the half-overlapping
    Hann segments of one series of n_samples samples.

    Segment spectra are added to `total` row by row, in segment order, a
    block of rows transformed at a time in arrays allocated once.  add()
    takes whole segments of a series at hand; stream() takes a series a
    chunk at a time.  A chunk is CHUNK_STEPS samples in whole `block`s,
    at most the series; without a block nothing is streamed.
    """

    def __init__(self, n_samples: int, n_segments: int, dt: float, block: int = 0):
        if n_segments < 1:
            raise ValueError(f"n_segments must be >= 1, got {n_segments}")
        m = 2 * (n_samples // (n_segments + 1))
        if m < MIN_SEGMENT_SAMPLES:
            raise ValueError(
                f"series too short: {n_samples} samples for {n_segments} half-overlapping segments"
            )
        self.n_samples, self.m, self.hop, self.dt = n_samples, m, m // 2, dt
        self.n_rows = (n_samples - m) // self.hop + 1
        self.window = np.hanning(m)
        self.scale = dt / (m * np.mean(self.window**2))
        rows = max(1, WELCH_BLOCK_BYTES // (8 * m))
        self._windowed = np.empty((rows, m))
        self._spectra = np.empty((rows, m // 2 + 1), dtype=complex)
        self._sums = np.empty((rows + 1, m // 2 + 1))   # the running total, then a block's segment spectra
        self.total = np.zeros(m // 2 + 1)
        self.chunk = min(block * max(1, CHUNK_STEPS // block), n_samples) if block else 0
        self._stage = np.empty(m + self.chunk)
        self._stage_segments = np.lib.stride_tricks.sliding_window_view(self._stage, m)[::self.hop]

    def stream(self):
        """Sum a series streamed a chunk at a time, from zero.

        Yields (start, slot) for each chunk, in order; the caller writes
        the series' samples start .. start + len(slot) into slot.  The
        segments they complete are then added, and the unfinished rest,
        less than one segment, is carried to the front of the stage.
        spectrum() is the series' estimate once the loop has run out.
        """
        self.total[:] = 0.0
        kept = 0
        for start in range(0, self.n_samples, self.chunk):
            count = min(self.chunk, self.n_samples - start)
            yield start, self._stage[kept:kept + count]
            kept += count
            done = max(0, (kept - self.m) // self.hop + 1)   # segments complete in the stage
            if done:
                self.add(self._stage_segments[:done])
                used = done * self.hop
                kept -= used
                self._stage[:kept] = self._stage[used:used + kept]

    def add(self, segments: np.ndarray) -> None:
        """Add the spectra of `segments`, rows of m samples, in order."""
        block = len(self._windowed)
        for start in range(0, len(segments), block):
            rows = segments[start:start + block]
            windowed, spectra = self._windowed[:len(rows)], self._spectra[:len(rows)]
            sums = self._sums[:len(rows) + 1]
            np.multiply(rows, self.window, out=windowed)
            np.fft.rfft(windowed, axis=1, out=spectra)
            power = sums[1:]
            np.abs(spectra, out=power)
            power **= 2
            power *= self.scale
            sums[0] = self.total
            np.add.reduce(sums, axis=0, out=self.total)   # row after row, as the rows of mean(axis=0)

    def spectrum(self) -> NoiseSpectrum:
        psd = self.total / self.n_rows
        freq = np.arange(1, self.m // 2 + 1) / (self.m * self.dt)
        return NoiseSpectrum(freq_grid=freq, psd_normalized=psd[1:], n_segments=self.n_rows)


def output_psd(series: np.ndarray, dt: float, n_segments: int) -> NoiseSpectrum:
    """Welch-averaged PSD: Hann window, 50% overlap, two-sided density.

    Normalized so a unit-PSD white-noise input (samples N(0, 1/dt)) gives
    a flat spectrum at 1 up to estimator variance.  The segment length is
    derived from the series length and the requested segment count; the
    series must be long enough for segments of at least 16 samples.  The
    segment length plays the role of a spectrum analyzer's resolution
    bandwidth (bin width 1/(M*dt)) and the segment count that of the
    video averaging.  The segment spectra are summed row by row, which is
    the order of mean(axis=0) over all rows.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-d")
    welch = _WelchSum(x.size, n_segments, dt)
    welch.add(np.lib.stride_tricks.sliding_window_view(x, welch.m)[::welch.hop])
    return welch.spectrum()


class _TrajectoryWork:
    """One thread's arrays for the trajectories of a run, allocated once:
    the Welch sum, whose stage takes the output samples, and a chunk of
    the samples x and of the external increments."""

    def __init__(self, run: LangevinRun, n_segments: int):
        self.welch = _WelchSum(run.n_steps, n_segments, run.dt, scan_block_length(run.gamma_total * run.dt))
        self.x = np.empty(self.welch.chunk + 1)
        self.dw_ext = np.empty(self.welch.chunk)


def trajectory_output_psd(run: LangevinRun, trajectory: int, n_segments: int,
                          work: _TrajectoryWork | None = None) -> NoiseSpectrum:
    """output_psd(simulate_difference_quadrature(run, trajectory)[1], run.dt,
    n_segments), bit for bit, streamed: the trajectory is drawn and
    stepped into the Welch sum's stage a chunk of steps at a time, in the
    arrays of `work` (new ones if None), so its memory does not grow with
    run.n_steps.  A chunk is whole scan blocks, the partial block last,
    and carries the scan's state and its last sample to the next."""
    rng_ext, rng_int, x0 = _trajectory_start(run, trajectory)
    work = work or _TrajectoryWork(run, n_segments)
    x, sqrt_dt = work.x, np.sqrt(run.dt)
    x[0] = state = float(x0)
    for start, out in work.welch.stream():
        count = len(out)
        steps = min(count, run.n_steps - 1 - start)   # the last sample drives no step
        w, dw_ext = x[1:steps + 1], work.dw_ext[:count]
        rng_int.standard_normal(out=w)
        w *= sqrt_dt
        rng_ext.standard_normal(out=dw_ext)
        dw_ext *= sqrt_dt
        state = _euler_chain(x[:steps + 1], dw_ext, out, state, run.kappa_eff, run.gamma_total, run.dt)
        x[0] = x[count]   # the first sample of the next chunk
    return work.welch.spectrum()


def averaged_output_psd(run: LangevinRun, n_segments: int) -> NoiseSpectrum:
    """Output PSD averaged over all trajectories of the run.

    Trajectories run on a pool of min(usable CPUs, n_trajectories,
    LANGEVIN_MAX_WORKERS) threads, each streaming its trajectories
    through one set of arrays; their spectra are summed in trajectory
    order, so the result depends only on (seed, parameters), not on the
    thread count or the order in which trajectories finish.  Each
    trajectory runs under the caller's numpy float-error settings, which
    pool threads do not inherit.
    """
    from concurrent.futures import ThreadPoolExecutor

    errors = np.geterr()
    local = threading.local()

    def one_trajectory(trajectory: int) -> NoiseSpectrum:
        with np.errstate(**errors):
            work = getattr(local, "work", None)
            if work is None:
                work = local.work = _TrajectoryWork(run, n_segments)
            return trajectory_output_psd(run, trajectory, n_segments, work)

    workers = min(_usable_cpus(), run.n_trajectories, LANGEVIN_MAX_WORKERS)
    acc = None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for spectrum in pool.map(one_trajectory, range(run.n_trajectories)):
            acc = spectrum.psd_normalized if acc is None else acc + spectrum.psd_normalized
    return NoiseSpectrum(freq_grid=spectrum.freq_grid, psd_normalized=acc / run.n_trajectories,
                         n_segments=spectrum.n_segments * run.n_trajectories)


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

    Each power P produces two independent white photocurrent streams of PSD
    P/2 (a 50:50 split), n_samples long at unit spacing (an integer, at
    least SHOT_CAL_MIN_SAMPLES); the PSD of their difference, Welch-averaged
    over SHOT_CAL_SEGMENTS segments, averages to P.  The streams are drawn
    and differenced a chunk at a time.  Returns (power, mean PSD level) per
    grid point; the levels fall on a line through the origin up to estimator
    variance.
    """
    if not isinstance(n_samples, numbers.Integral) or n_samples < SHOT_CAL_MIN_SAMPLES:
        raise ValueError(f"n_samples must be an integer of at least {SHOT_CAL_MIN_SAMPLES}, got {n_samples!r}")
    levels = []
    welch = _WelchSum(n_samples, SHOT_CAL_SEGMENTS, 1.0, block=1)
    drawn = np.empty(welch.chunk)
    for index, power in enumerate(power_grid):
        power = float(power)
        if power < 0:
            raise ValueError(f"power must be non-negative, got {power}")
        if power == 0.0:
            levels.append((power, 0.0))
            continue
        rng1, rng2 = trajectory_generators(seed, index)
        scale = np.sqrt(0.5 * power)
        for _, s1 in welch.stream():
            s2 = drawn[:len(s1)]
            rng1.standard_normal(out=s1)
            s1 *= scale
            rng2.standard_normal(out=s2)
            s2 *= scale
            s1 -= s2
        levels.append((power, float(welch.spectrum().psd_normalized.mean())))
    return levels
