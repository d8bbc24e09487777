"""Time-continuous weak energy measurement of the resonator mode.

Implements the measurement-plus-drive update loop: at every timestep the
mode is weakly measured in the number basis (Gaussian measurement operator,
characteristic time t_m), displaced once by the step's gravitational-wave
drive increment plus its optional random displacement noise kick,
optionally kicked by a thermal jump, then renormalized. Trajectories are
stochastic; a quantum jump of the monitored populations signals a single
absorbed energy quantum.

The drive enters purely as interaction-picture displacement increments
d(beta) = -i g(s) e^{i omega s} ds, so free evolution never has to be
tracked; number-basis populations are invariant under it. `_drive` computes
a run's increments once, each step's by the quadrature of chi and beta, and
every batch of the run and the CLI's truncation guard read that one array.

A run carries only the state each stretch of it needs:

- ground stretch: the ground state with no displacement on the step. It is
  an exact fixed point of the measurement, so no state is carried and the
  readout is sqrt(t_m/dt) * xi;
- factor stretch: from the first displacing step of a reinit period (drive,
  displacement noise or thermal jumps) to its last one, each state is a
  factor A, rho = A A^dag, with its populations sum_r |A|^2 as
  renormalized, so that no recorded population exceeds 1. Each step
  applies its displacement D(z) = Q O e^{-i|z| Lambda} O^T Q^dag whole,
  through the real eigenbasis of `DisplacementCache`, with the
  measurement weights folded into the diagonal before its O^T;
- population stretch: after the last displacing step of a period M(r) is
  diagonal and nothing follows that reads the coherences, so the
  populations evolve on their own as p <- p w^2 / sum(p w^2), w the
  diagonal of M(r) (the number measurement of Jacobs & Steck,
  arXiv:quant-ph/0611067).

A reinit returns the run to a ground stretch.

Ensembles run in batches of trajectories in lockstep. A batch draws its
noise, computes its displacement phases and reduces its records a block at
a time: it keeps the sums over the batch of the records, each trajectory's
jump times and purity crossing, and the per-trajectory series only where
they are written (`run_trajectory`, `gravibar simulate`). A jump is a run
of JUMP_HOLD records with rho11 >= JUMP_THRESHOLD, counted across blocks.
Beyond the summed records, its memory does not grow with the length of the
run or with the trajectories' records, and `run_ensemble` runs the whole
ensemble as one batch, split into chunks only where the batch's estimated
arrays would pass a fixed cap of 128 MiB (`_CHUNK_BYTES`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import require
from .detector import DetectorSpec, mode_frequency
from .dynamics import _check_window, _quadrature, beta_prefactor, default_window
from .fock import (
    TRACE_UNDERFLOW,
    DisplacementCache,
    QuantumState,
    StateInvariantError,
    TraceUnderflowError,
)
from .waveform import StrainSignal


@dataclass(frozen=True)
class MeasurementConfig:
    """Parameters of a continuous-measurement run.

    Attributes
    ----------
    dt : float
        Timestep [s].
    t_m : float
        Characteristic measurement time [s]; per-step readout noise has
        standard deviation sqrt(t_m/dt) and the measurement operator's
        exponent is -dt (r - n)^2 / (4 t_m). With this definition the mean
        log-likelihood ratio between adjacent number states grows as
        t/(2 t_m); in the notation of Jacobs & Steck
        (arXiv:quant-ph/0611067) the measurement strength is
        k = 1/(8 t_m).
    t_meas : float
        Run duration before the detector is reinitialized to the ground
        state [s].
    dim : int
        Fock-space truncation.
    kappa : float
        Scale of the random displacement noise injected each step; both
        quadratures of the random displacement gamma are normal with
        variance kappa^2/dt. The kick shares the step's single
        displacement D(dbeta + gamma) with the drive increment dbeta.
    thermal_rate : float
        Optional Poisson rate [Hz] of thermal creation-operator jumps.
    seed : int
        Seed for the default generator of a run.
    record_stride : int
        Record every this many steps.
    """

    dt: float = 1e-3
    t_m: float = 2.0
    t_meas: float = 40.0
    dim: int = 30
    kappa: float = 0.0
    thermal_rate: float = 0.0
    seed: int = 0
    record_stride: int = 3

    def __post_init__(self) -> None:
        require(self, integer={"dim": 2, "seed": 0, "record_stride": 1},
                positive=("dt", "t_m"), nonnegative=("kappa", "thermal_rate"), finite=("t_meas",))
        if self.t_meas <= self.dt:
            raise ValueError("t_meas must exceed dt")

    @property
    def readout_sigma(self) -> float:
        return math.sqrt(self.t_m / self.dt)

    @property
    def gamma_sigma(self) -> float:
        """Per-quadrature standard deviation of the displacement noise."""
        return self.kappa / math.sqrt(self.dt)


@dataclass
class TrajectoryRecord:
    """Recorded time series of one measurement trajectory.

    events holds (time, kind) pairs with kind in
    {"jump_detected", "reinit", "gw_window_start", "gw_window_end"}.
    """

    times: np.ndarray
    readout: np.ndarray
    rho00: np.ndarray
    rho11: np.ndarray
    rho22: np.ndarray
    events: list[tuple[float, str]] = field(default_factory=list)


@dataclass
class EnsembleSummary:
    """Reduction of an ensemble of trajectories.

    detection_fraction counts trajectories with at least one detected jump.
    Population means are per recorded time across the ensemble;
    mean_populations holds the full diagonal (n_rec, dim). When a purity
    threshold was requested, purity_first_crossing holds the first recorded
    time each trajectory's largest population reached it (NaN if never).
    """

    n_traj: int
    n_detected: int
    detection_fraction: float
    times: np.ndarray
    mean_rho00: np.ndarray
    mean_rho11: np.ndarray
    mean_rho22: np.ndarray
    mean_populations: np.ndarray
    jump_times: list[list[float]]
    events: list[tuple[float, str]]
    purity_first_crossing: np.ndarray | None = None


def _populations(amps: np.ndarray) -> np.ndarray:
    """Number-basis populations (n, dim) of a factor stack, sum_r |A|^2."""
    parts = amps.view(float).reshape(*amps.shape[:2], -1)
    return np.vecdot(parts, parts)


def _check_traces(traces: np.ndarray, what: str, first: int) -> None:
    """Raise TraceUnderflowError at the first NaN or underflowed trace.

    A step weighs normalized populations p by e^{coef (r - n)^2}, with
    r = <n> + xi and coef = -dt/(2 t_m). As <n> and n lie in [0, dim - 1],
    the trace is at least e^{coef (|xi| + dim)^2}, half of it with roundoff
    to spare, and a unitary D(z) keeps it. So `_run_batch` checks per step
    only in a noise block where `_trace_floor_holds` fails and on the steps
    of a thermal jump, which leaves a zero factor out of the top level.
    """
    if not traces.min() > TRACE_UNDERFLOW:  # a NaN minimum fails too
        bad = int(np.argmin(traces))
        raise TraceUnderflowError(
            f"trajectory {first + bad}: {what} trace {traces[bad]:.3e} underflowed"
        )


def _trace_floor_holds(
    xis: np.ndarray, d: np.ndarray, gammas: np.ndarray | None, coef: float, dim: int
) -> bool:
    """Whether no step of a noise block (readout noise `xis`, drive `d`,
    displacement noise `gammas` or None) can underflow but by a thermal
    jump: e^{coef (max |xi| + dim)^2} > 2 TRACE_UNDERFLOW, the bound of
    `_check_traces`, and |z| dim is finite, so each D(z) has finite
    phases |z| Lambda (|Lambda| < dim). A NaN in the noise or drive fails it.
    """
    # Python floats: a product past the largest float is inf, not a warning
    size = float(np.abs(d).max()) + (0.0 if gammas is None else float(np.abs(gammas).max()))
    reach = float(np.abs(xis).max()) + dim
    return coef * reach * reach > math.log(2.0 * TRACE_UNDERFLOW) and math.isfinite(dim * size)


def _measure(
    pops: np.ndarray, xi: np.ndarray, levels: np.ndarray, coef: float, first: int,
    check: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian number measurement of a batch with populations `pops` (n, dim).

    `xi` is the readout noise scaled by sqrt(t_m/dt), `levels` the numbers
    0..dim-1 and `coef` = -dt/(2 t_m). Returns the readouts
    r = tr(N rho) + xi and the updated populations p w^2 / sum(p w^2),
    where w^2 = e^{coef (r - n)^2} is the squared diagonal of M(r) up to
    its normalization (which cancels). With `check`, underflow errors name
    trajectory `first` + stack index.
    """
    # a dot per row: a gemv's summation order would depend on the row count
    rs = np.vecdot(pops, levels) + xi
    w2 = np.exp(coef * (rs[:, None] - levels) ** 2)
    new = pops * w2
    traces = new.sum(axis=1)
    if check:
        _check_traces(traces, "measurement update", first)
    new /= traces[:, None]
    return rs, new


def _update(
    amps: np.ndarray,
    pops: np.ndarray,
    xi: np.ndarray,
    coef: float,
    cache: DisplacementCache,
    phases: tuple | None,
    jumped: np.ndarray | None,
    first: int = 0,
    check: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a (n, dim, rank) stack of factors A, rho = A A^dag, one step.

    In order: the Gaussian number measurement of the stack's populations
    `pops` (readout r = tr(N rho) + xi and weights
    w = e^{coef (r - n)^2 / 2}, the diagonal of M(r) up to its
    normalization, with `coef` = -dt/(2 t_m)); the displacement `phases`,
    one entry of `_phases`, which applies D(z) = Q O e^{-i|z| Lambda} O^T Q^dag
    with the weights folded into its inner diagonal; a thermal creation
    jump where `jumped`; then one renormalization, which divides A by
    sqrt(norm) and the populations sum_r |A|^2 by the norm. `phases` and
    `jumped` may be None. With `check` or `jumped`, an underflowed norm
    raises, naming trajectory `first` + stack index. Returns the updated
    stack, its populations and the readouts.
    """
    # a dot per row: a gemv's summation order would depend on the row count
    rs = np.vecdot(pops, cache.levels) + xi
    w = np.exp((0.5 * coef) * (rs[:, None] - cache.levels) ** 2)
    if phases is None:
        amps = amps * w[:, :, None]
    else:
        c, rot, q = phases
        amps = cache.rotate(w * c, rot, amps)
        amps *= q[..., None]
    if jumped is not None:  # b^dag: A[n + 1] = sqrt(n + 1) A[n], A[0] = 0
        amps[jumped, 1:] = np.sqrt(cache.levels[1:, None]) * amps[jumped, :-1]
        amps[jumped, 0] = 0.0

    # a thermal jump out of the top Fock level leaves a zero factor
    pops = _populations(amps)
    norms = pops.sum(axis=1)
    if check or jumped is not None:
        _check_traces(norms, "update", first)
    amps /= np.sqrt(norms)[:, None, None]
    pops /= norms[:, None]
    return amps, pops, rs


def _phases(
    cache: DisplacementCache, d: np.ndarray, gammas: np.ndarray | None
) -> list[tuple | None]:
    """The displacement of each step of a block, for `_update`.

    `d` (m,) holds the steps' drive increments, zero where there is none,
    and `gammas` (m, n) their noise displacements, or is None. A step's
    entry is None when it displaces nothing, else (c, rot, q) of its one
    displacement D(dbeta + gamma): the outer phases q = Q, c = Q^dag and
    the rot of `DisplacementCache.rotate`. Untruncated, D(gamma) D(dbeta)
    is D(dbeta + gamma) up to a global phase, which drops out of
    rho = A A^dag.
    """
    if gammas is None:
        displaced = (d != 0.0).tolist()
        if not any(displaced):
            return [None] * d.size
        q, rot = cache.phases(d)
    else:
        displaced = [True] * d.size
        q, rot = cache.phases(gammas + d[:, None])
    c = q.conj()
    return [(c[k], rot[k], q[k]) if hit else None for k, hit in enumerate(displaced)]


# one cache per dimension, shared by every run: nothing writes to its arrays
_cache = functools.cache(DisplacementCache)


def step(
    state: QuantumState,
    cfg: MeasurementConfig,
    dbeta: complex,
    rng: np.random.Generator,
) -> tuple[QuantumState, float]:
    """Advance one timestep: measure, then displace by the drive increment.

    Order per update rule: rho -> D(z) M(r) rho M(r)^dag D(z)^dag,
    normalized, where z = dbeta + gamma adds the optional noise displacement
    gamma to the drive increment, so the step applies one D(dbeta + gamma);
    then the optional thermal creation jump. Draws the readout normal, then
    (with kappa > 0) two noise normals, then (with a thermal rate) one
    uniform from `rng`. Returns the new state and the readout r. The
    displacements come from the `DisplacementCache` of cfg.dim that every
    run of that dimension shares.
    """
    if state.dim != cfg.dim:
        raise ValueError(f"state dim {state.dim} != config dim {cfg.dim}")
    cache = _cache(cfg.dim)
    xi = np.array([cfg.readout_sigma * rng.standard_normal()])
    xs = cfg.gamma_sigma * rng.standard_normal(2) if cfg.kappa > 0.0 else None
    u = rng.random() if cfg.thermal_rate > 0.0 else None
    amps = state.factor()[None]
    phases = _phases(
        cache, np.array([dbeta], dtype=complex),
        None if xs is None else np.array([[xs[0] + 1j * xs[1]]]),
    )[0]
    amps, _, rs = _update(
        amps, _populations(amps), xi, -cfg.dt / (2.0 * cfg.t_m), cache, phases,
        None if u is None else np.array([u < cfg.thermal_rate * cfg.dt]),
    )
    a = amps[0]
    return QuantumState(cfg.dim, a @ a.conj().T), float(rs[0])


def _drive(
    spec: DetectorSpec,
    signal: StrainSignal | None,
    cfg: MeasurementConfig,
    duration: float,
    gw_start: float,
    window: tuple[float, float] | None,
) -> tuple[np.ndarray, list[tuple[float, str]]]:
    """The drive increments of a run and its window events.

    Returns dbeta (n_steps,), step i's increment at index i - 1: the
    `dynamics._quadrature` segment of the step's part inside `window`. The
    segments come from one evaluation of the window's own accepted grid,
    each panel a step boundary cuts split by its interpolant, so the
    increments sum to `displacement_beta` at any dt (zero without a signal)
    and the steps add no strain evaluations, only O(1) work per step.
    Also returns the (time, kind) events of the window,
    clipped to the run and none when it covers no step. Step i covers
    [(i-1) dt, i dt] in run time; the signal clock is run time - gw_start.
    `window` (signal time) defaults to `default_window` over the run; a nan
    edge or a reversed window (`dynamics._check_window`), or a non-finite
    `duration` or `gw_start`, raises ValueError. An infinite edge is clipped.
    """
    require(locals(), finite=("duration", "gw_start"))
    n_steps = int(round(duration / cfg.dt))
    if n_steps < 1:
        raise ValueError("duration must cover at least one step")
    drive = np.zeros(n_steps, dtype=complex)
    if signal is None:
        return drive, []
    omega = mode_frequency(spec)
    if window is None:
        window = default_window(signal, omega, duration - gw_start)
    _check_window(window, finite=False)
    cuts = np.clip(np.arange(n_steps + 1) * cfg.dt - gw_start, *window)
    if cuts[-1] <= cuts[0]:
        return drive, []
    drive = -1j * beta_prefactor(spec) * _quadrature(signal, omega, cuts)[0]
    events = [
        (max(gw_start + window[0], 0.0), "gw_window_start"),
        (min(gw_start + window[1], duration), "gw_window_end"),
    ]
    return drive, events


# a jump is a run of JUMP_HOLD records of rho11 >= JUMP_THRESHOLD
JUMP_THRESHOLD = 0.9
JUMP_HOLD = 3


def _run_starts(flags: np.ndarray, run: np.ndarray, hold: int):
    """Jumps in a block `flags` (m, n) of records at or above the threshold,
    given each series' run `run` (n,) of such records before the block.

    A record's run is its distance to the last record below the threshold
    in the block or, where there is none, that plus the carried run. An
    excursion is found at the record whose run equals `hold`; its first
    record is hold - 1 earlier, possibly in an earlier block. Returns those
    records' rows and columns and the runs carried out. Only series with a
    flag in the block are worked on; an empty block carries the runs.
    """
    active = np.flatnonzero(flags.any(axis=0))
    if not active.size:
        return active, active, np.zeros_like(run) if len(flags) else run
    idx = np.arange(len(flags))[:, None]
    below = np.maximum.accumulate(np.where(flags[:, active], -1, idx), axis=0)
    runs = idx - below + np.where(below < 0, run[active], 0)
    rows, at = np.nonzero(runs == hold)
    run = np.zeros_like(run)
    run[active] = runs[-1]
    return rows, active[at], run


class _BatchResult:
    """Reductions of a batch's records, taken a block of records at a time.

    It keeps times (n_rec,), the populations summed over the batch as
    diag_sums (n_rec, dim), events, each trajectory's jump starts (by
    `detect_jump`'s rule, from the run (n,) each block carries to the next)
    and, with a purity threshold, each trajectory's first recorded time its
    largest population reached it. Only with `series` does it also keep the
    per-trajectory series: readouts (n_rec, n) and rho00..rho22 as pops
    (n_rec, 3, n), for `record`.

    `add` takes the readouts and populations of one record point in turn;
    they are held and reduced a block of records at a time.
    """

    block = 64

    def __init__(
        self, times: np.ndarray, n: int, dim: int, purity_threshold: float | None,
        events: list[tuple[float, str]], series: bool,
    ):
        self.times = times
        self.diag_sums = np.zeros((times.size, dim))
        self.events = list(events)
        self.run = np.zeros(n, dtype=np.intp)
        self.starts: list[list[int]] = [[] for _ in range(n)]
        self.purity_threshold = purity_threshold
        self.purity_crossing = None
        if purity_threshold is not None:
            self.purity_crossing = np.full(n, np.nan)
        self.readouts = self.pops = None
        if series:
            self.readouts = np.empty((times.size, n))
            self.pops = np.zeros((times.size, 3, n))
        # held as (m, dim, n), so that each reduction over the batch runs
        # along contiguous rows
        self._held = np.empty((min(self.block, times.size), dim, n))
        self._done = self._next = 0

    def add(self, rs: np.ndarray, populations: np.ndarray) -> None:
        if self.readouts is not None:
            self.readouts[self._next] = rs
        self._held[self._next - self._done] = populations.T
        self._next += 1
        if self._next - self._done == len(self._held):
            self.flush()

    def flush(self) -> None:
        lo, hi = self._done, self._next
        if hi == lo:
            return
        held = self._held[: hi - lo]
        self.diag_sums[lo:hi] = held.sum(axis=2)
        if self.pops is not None:
            self.pops[lo:hi, : min(3, held.shape[1])] = held[:, :3]
        rows, cols, self.run = _run_starts(held[:, 1] >= JUMP_THRESHOLD, self.run, JUMP_HOLD)
        for row, col in zip(rows.tolist(), cols.tolist()):
            self.starts[col].append(lo + 1 - JUMP_HOLD + row)
        if self.purity_crossing is not None:
            crossed = held.max(axis=1) >= self.purity_threshold
            fresh = crossed.any(axis=0) & np.isnan(self.purity_crossing)
            first = lo + crossed.argmax(axis=0)
            self.purity_crossing[fresh] = self.times[first[fresh]]
        self._done = hi

    @property
    def jump_times(self) -> list[list[float]]:
        return [self.times[starts].tolist() for starts in self.starts]

    def record(self, j: int) -> TrajectoryRecord:
        """The record of the batch's trajectory j; needs the series."""
        rho = self.pops[:, :, j].T
        return TrajectoryRecord(self.times, self.readouts[:, j], *rho, list(self.events))


# noise is drawn this many trajectory-steps at a time, and at least
# _NOISE_FLOOR steps, so that each generator call draws enough numbers to
# outweigh its overhead
_NOISE_BLOCK = 1 << 16
_NOISE_FLOOR = 256


def _draws(rngs: list[np.random.Generator], method: str, m: int) -> np.ndarray:
    """(n, m): the next m draws of `method` from each generator in turn."""
    out = np.empty((len(rngs), m))
    for row, g in zip(out, rngs):
        getattr(g, method)(out=row)
    return out


def _noise_blocks(rngs: list[np.random.Generator], cfg: MeasurementConfig, n_steps: int):
    """Yield (lo, xi, gammas, jumps): the noise of steps lo + 1, lo + 2, ...
    of a run, a block at a time.

    `xi` (m, n) is the readout noise, scaled by sqrt(t_m/dt); `gammas`
    (m, n) the displacement noise, scaled by gamma_sigma (None without
    kappa); `jumps` (m, n) flags the thermal jumps (None without a thermal
    rate). Each source of trajectory k has its own stream: the readout
    normals come from `rngs[k]` and, with kappa or a thermal rate on, the
    pairs of noise normals from child 0 and the uniforms from child 1 of
    `rngs[k].spawn(2)`, so no stream depends on which other source is on.
    Drawn a block at a time, each stream reproduces one big draw bit for bit.
    """
    n = len(rngs)
    block = max(_NOISE_FLOOR, _NOISE_BLOCK // n)
    if cfg.kappa > 0.0 or cfg.thermal_rate > 0.0:
        kappa, thermal = zip(*(g.spawn(2) for g in rngs))
    for lo in range(0, n_steps, block):
        m = min(block, n_steps - lo)
        # each step reads a row of a block: the (m, n) blocks are C-ordered
        xi = np.multiply(_draws(rngs, "standard_normal", m).T, cfg.readout_sigma, order="C")
        gammas = jumps = None
        if cfg.kappa > 0.0:  # pairs of normals are the parts of a complex
            parts = _draws(kappa, "standard_normal", 2 * m)
            parts *= cfg.gamma_sigma
            gammas = np.ascontiguousarray(parts.view(complex).T)
        if cfg.thermal_rate > 0.0:
            u = _draws(thermal, "random", m).T
            jumps = np.less(u, cfg.thermal_rate * cfg.dt, order="C")
        yield lo, xi, gammas, jumps


def _run_batch(
    cfg: MeasurementConfig,
    rngs: list[np.random.Generator],
    drive: np.ndarray,
    events: list[tuple[float, str]],
    starts: np.ndarray | None = None,
    purity_threshold: float | None = None,
    first: int = 0,
    series: bool = False,
) -> _BatchResult:
    """Run a batch of trajectories in lockstep, stretch by stretch.

    `drive` and `events` are a run's increments and window events from
    `_drive`; the run has one step per increment. The batch starts in the
    ground state, or from the factor stack `starts` of `_start_factors`
    (one factor per trajectory), and is reinitialized to the ground state
    every t_meas. A step displaces if kappa or the thermal rate is on or
    its increment is nonzero, and `last` holds each reinit period's last
    displacing step (0 if none). Each step is, by the state it finds (see
    the module docstring):

    - a ground step if none is carried (`pops` is None after a ground
      start or a reinit) and it does not displace: the readout is
      sqrt(t_m/dt) * xi and the record holds rho00 = 1;
    - else a factor step up to its period's `last`: `_update` on the
      (n, dim, rank) factor stack A, taken from the ground state if none
      is carried;
    - else a population step: the factors are dropped and `_measure`
      updates their (n, dim) populations until the reinit or the end.

    The stretches differ in what they carry; their numbers agree to
    roundoff. The noise (`_noise_blocks`) and the displacement phases
    (`_phases`) come a block of steps at a time, and `_BatchResult`
    reduces the records as they come (jumps by JUMP_THRESHOLD and
    JUMP_HOLD), keeping the per-trajectory series only with `series`: the
    batch holds blocks, not whole runs. Sums and matmuls run per
    trajectory, so a trajectory's bits do not depend on its batch.

    Each noise block is tested once by the trace bound
    e^{coef (|xi| + dim)^2} of `_check_traces` (`_trace_floor_holds`).
    Only the steps of a block that fails it, a NaN in its noise or drive
    included, and the steps with a thermal jump check their traces, so the
    errors and numbers are those of checking every step. As coef xi^2 =
    -x^2/2 for the standard normal x behind xi, a block at the usual
    configs fails only for |x| > ~36. Errors name trajectory `first` +
    index.
    """
    n = len(rngs)
    dim = cfg.dim
    n_steps = drive.size
    steps_per_reinit = int(round(cfg.t_meas / cfg.dt))

    n_rec = n_steps // cfg.record_stride
    times = cfg.dt * cfg.record_stride * np.arange(1, n_rec + 1)
    result = _BatchResult(times, n, dim, purity_threshold, events, series)
    events = result.events

    displacing = np.full(n_steps + 1, cfg.kappa > 0.0 or cfg.thermal_rate > 0.0)
    displacing[1:] |= drive != 0.0
    hits = 1 + np.flatnonzero(displacing[1:])
    last = np.zeros((n_steps - 1) // steps_per_reinit + 1, dtype=np.intp)
    np.maximum.at(last, (hits - 1) // steps_per_reinit, hits)
    displacing, last = displacing.tolist(), last.tolist()

    ground = np.zeros((n, dim))
    ground[:, 0] = 1.0
    amps = starts  # factors, None while in the ground state or carrying populations
    pops = None if starts is None else _populations(starts)
    coef = -cfg.dt / (2.0 * cfg.t_m)
    cache = _cache(dim)
    # phases of 1024 trajectory-steps at a time (256 steps of the 4
    # trajectories of `gravibar simulate`): a block's noise phases grow with n
    phase_block = max(1, 1024 // n)

    for lo, xis, gammas, jumps in _noise_blocks(rngs, cfg, n_steps):
        d = drive[lo : lo + len(xis)]
        check = not _trace_floor_holds(xis, d, gammas, coef, dim)
        phases = at = None  # the phases of the phase block from step lo + 1 + at on
        jump_steps = set() if jumps is None else set(np.flatnonzero(jumps.any(axis=1)).tolist())
        for k, xi in enumerate(xis):
            i = lo + 1 + k
            try:
                if pops is None and not displacing[i]:
                    rs = xi
                elif i <= last[(i - 1) // steps_per_reinit]:
                    if pops is None:
                        amps = ground[:, :, None].astype(complex)
                        pops = ground
                    if at != k - k % phase_block:
                        at = k - k % phase_block
                        phases = None  # one block of phases alive at a time
                        phases = _phases(
                            cache, d[at : at + phase_block],
                            None if gammas is None else gammas[at : at + phase_block],
                        )
                    amps, pops, rs = _update(
                        amps, pops, xi, coef, cache, phases[k - at],
                        jumps[k] if k in jump_steps else None,
                        first, check,
                    )
                else:
                    amps = None
                    rs, pops = _measure(pops, xi, cache.levels, coef, first, check)
            except TraceUnderflowError as exc:
                raise TraceUnderflowError(f"{exc} at t = {i * cfg.dt:.6g} s") from None

            if i % steps_per_reinit == 0 and i < n_steps:
                amps = pops = None
                events.append((i * cfg.dt, "reinit"))

            if i % cfg.record_stride == 0:
                result.add(rs, ground if pops is None else pops)

    result.flush()
    events.sort(key=lambda ev: ev[0])
    return result


def _start_factors(states: list[QuantumState], dim: int) -> np.ndarray:
    """Validate every start and stack their factors (n, dim, dim).

    Errors name the trajectory by its index in `states`.
    """
    factors = []
    for k, state in enumerate(states):
        if state.dim != dim:
            raise ValueError(
                f"trajectory {k}: initial state dim {state.dim} != config dim {dim}"
            )
        try:
            state.validate()
            factors.append(state.factor())
        except StateInvariantError as exc:
            raise StateInvariantError(f"trajectory {k}: {exc}") from None
    return np.stack(factors)


def run_trajectory(
    spec: DetectorSpec,
    signal: StrainSignal | None,
    cfg: MeasurementConfig,
    *,
    duration: float | None = None,
    gw_start: float = 0.0,
    window: tuple[float, float] | None = None,
    rng: np.random.Generator | None = None,
    initial_state: QuantumState | None = None,
) -> TrajectoryRecord:
    """Simulate one continuously-measured trajectory.

    The detector starts in the ground state (or `initial_state`), is
    reinitialized to the ground state every t_meas, and is driven by
    `signal` whose own clock starts at run time `gw_start` (restricted to
    `window` in signal time; defaults to the signal's natural window).
    With ``signal=None`` the run is measurement-only. Identical (cfg, rng
    seed) give identical records. The readout noise comes from `rng`
    (default: the generator of cfg.seed), left as after the run's n_steps
    normals, and the kappa and thermal noise from `rng.spawn(2)`.
    """
    if duration is None:
        duration = cfg.t_meas
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    starts = None if initial_state is None else _start_factors([initial_state], cfg.dim)
    drive, events = _drive(spec, signal, cfg, duration, gw_start, window)
    return _run_batch(cfg, [rng], drive, events, starts, series=True).record(0)


def detect_jump(record: TrajectoryRecord) -> list[tuple[float, str]]:
    """Detect sustained excitation of the first excited level.

    Emits one (time, "jump_detected") event per excursion during which
    rho11 stays at or above JUMP_THRESHOLD for at least JUMP_HOLD
    consecutive recorded points; the event time is the first point of the
    excursion. This is the rule of every ensemble: the run is counted as
    `_BatchResult` carries it, from zero.
    """
    flags = np.asarray(record.rho11)[:, None] >= JUMP_THRESHOLD
    rows = _run_starts(flags, np.zeros(1, dtype=np.intp), JUMP_HOLD)[0]
    return [(t, "jump_detected") for t in np.asarray(record.times)[rows + 1 - JUMP_HOLD].tolist()]


# a chunk covers the ensemble while its batch's arrays, as estimated by
# `_trajectory_bytes`, stay under this many bytes
_CHUNK_BYTES = 1 << 27


def _trajectory_bytes(cfg: MeasurementConfig, rank: int, n_rec: int, series: bool) -> int:
    """Rough bound on what a batch holds per trajectory: its share of a
    block of held records and of their reductions, its factors and their
    temporaries, two noise blocks of each stream at the floor size and,
    with `series`, its series. (Batches under _NOISE_BLOCK / _NOISE_FLOOR
    trajectories draw longer noise blocks, a few MB in all.)"""
    floats = 2 * _BatchResult.block * cfg.dim + 8 * cfg.dim * rank + 10 * _NOISE_FLOOR
    return 8 * (floats + (4 * n_rec if series else 0))


def _ensemble_chunks(
    cfg: MeasurementConfig, drive: np.ndarray, events: list[tuple[float, str]],
    n_traj: int, base_seed: int, starts: np.ndarray | None = None,
    purity_threshold: float | None = None, series: bool = False,
):
    """Yield (lo, batch): the `_BatchResult` of an ensemble's trajectories
    lo, lo + 1, ..., a chunk at a time, each driven by the `drive` and
    `events` of `_drive`. Trajectory k runs on the k-th generator spawned
    from `base_seed`, from `starts[k]` (ground state if `starts` is None),
    and errors name it by k.

    A chunk is the whole ensemble, or as many trajectories as
    `_CHUNK_BYTES` holds by `_trajectory_bytes`. The batches keep the
    per-trajectory series only with `series`.
    """
    rank = 1 if starts is None else starts.shape[2]
    per_traj = _trajectory_bytes(cfg, rank, drive.size // cfg.record_stride, series)
    size = max(1, min(n_traj, _CHUNK_BYTES // per_traj))
    children = np.random.SeedSequence(base_seed).spawn(n_traj)
    for lo in range(0, n_traj, size):
        hi = min(lo + size, n_traj)
        rngs = [np.random.default_rng(s) for s in children[lo:hi]]
        yield lo, _run_batch(
            cfg, rngs, drive, events, None if starts is None else starts[lo:hi],
            purity_threshold, lo, series,
        )


def _summarize(chunks, n_traj: int) -> EnsembleSummary:
    """Reduce the (lo, batch) chunks of `_ensemble_chunks`: population sums
    add up chunk by chunk, so the chunking moves them only at roundoff."""
    diag_sums = 0.0
    jump_times: list[list[float]] = []
    crossings: list[np.ndarray] = []
    for _, batch in chunks:
        diag_sums = diag_sums + batch.diag_sums
        if batch.purity_crossing is not None:
            crossings.append(batch.purity_crossing)
        jump_times += batch.jump_times

    n_detected = sum(1 for jumps in jump_times if jumps)
    means = diag_sums / n_traj
    rho = [means[:, k] if k < means.shape[1] else np.zeros(len(means)) for k in range(3)]
    return EnsembleSummary(
        n_traj=n_traj,
        n_detected=n_detected,
        detection_fraction=n_detected / n_traj,
        times=batch.times,
        mean_rho00=rho[0],
        mean_rho11=rho[1],
        mean_rho22=rho[2],
        mean_populations=means,
        jump_times=jump_times,
        events=list(batch.events),
        purity_first_crossing=np.concatenate(crossings) if crossings else None,
    )


def run_ensemble(
    spec: DetectorSpec,
    signal: StrainSignal | None,
    cfg: MeasurementConfig,
    n_traj: int,
    base_seed: int | None = None,
    *,
    duration: float | None = None,
    gw_start: float = 0.0,
    window: tuple[float, float] | None = None,
    initial_states: list[QuantumState] | None = None,
    purity_threshold: float | None = None,
) -> EnsembleSummary:
    """Run n_traj independent trajectories and reduce them.

    Per-trajectory generators are spawned from `base_seed` (default
    cfg.seed), each spawning its kappa and thermal streams, so the ensemble
    is reproducible and each trajectory, in any chunk, matches a single
    `run_trajectory` with the same generator. `initial_states` may supply
    one starting state per trajectory (ground state otherwise).

    The drive is computed once (`_drive`) for every trajectory. The whole
    ensemble runs as one chunk, split only where its batch would exceed a
    memory cap (`_CHUNK_BYTES`, 128 MiB). Each batch reduces its records
    as they come, jumps (by `detect_jump`'s rule) included,
    and keeps no per-trajectory series.
    """
    require(locals(), integer={"n_traj": 1})
    if purity_threshold is not None and not 0.0 < purity_threshold <= 1.0:
        raise ValueError(f"purity_threshold must be in (0, 1], got {purity_threshold}")
    if duration is None:
        duration = cfg.t_meas
    if base_seed is None:
        base_seed = cfg.seed
    starts = None
    if initial_states is not None:
        if len(initial_states) != n_traj:
            raise ValueError("need one initial state per trajectory")
        starts = _start_factors(initial_states, cfg.dim)  # fail before running
    drive, events = _drive(spec, signal, cfg, duration, gw_start, window)
    chunks = _ensemble_chunks(cfg, drive, events, n_traj, base_seed, starts, purity_threshold)
    return _summarize(chunks, n_traj)


__all__ = [
    "EnsembleSummary",
    "MeasurementConfig",
    "TrajectoryRecord",
    "detect_jump",
    "run_ensemble",
    "run_trajectory",
    "step",
]
