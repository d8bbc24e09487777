"""Time-continuous weak energy measurement of the resonator mode.

Implements the measurement-plus-drive update loop: at every timestep the
mode is weakly measured in the number basis (Gaussian measurement operator,
characteristic time t_m), displaced by the accumulated gravitational-wave
drive, optionally kicked by random displacement noise and thermal jumps,
then renormalized. Trajectories are stochastic; a quantum jump of the
monitored populations signals a single absorbed energy quantum.

The drive enters purely as interaction-picture displacement increments
d(beta) = -i g(s) e^{i omega s} ds, so free evolution never has to be
tracked; number-basis populations are invariant under it.

A run carries only the state each stretch of it needs:

- ground stretch: the ground state with no displacement on the step. It is
  an exact fixed point of the measurement, so no state is carried and the
  readout is sqrt(t_m/dt) * xi;
- factor stretch: from the first displacing step of a reinit period (drive,
  displacement noise or thermal jumps) to its last one, each state is a
  factor A with rho = A A^dag;
- population stretch: after the last displacing step of a period M(r) is
  diagonal and nothing follows that reads the coherences, so the
  populations evolve on their own as p <- p w^2 / sum(p w^2), w the
  diagonal of M(r) (the number measurement of Jacobs & Steck,
  arXiv:quant-ph/0611067).

A reinit returns the run to a ground stretch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detector import DetectorSpec, mode_frequency
from .dynamics import beta_prefactor, default_window
from .fock import (
    TRACE_UNDERFLOW,
    DisplacementCache,
    QuantumState,
    StateInvariantError,
    TraceUnderflowError,
    creation,
)
from .waveform import StrainSignal, strain_samples


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
        quadratures of the random displacement are normal with variance
        kappa^2/dt ("literal" scaling) or kappa^2*dt ("diffusive").
    kappa_scaling : str
        "literal" (default) or "diffusive"; see `kappa`.
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
    kappa_scaling: str = "literal"
    thermal_rate: float = 0.0
    seed: int = 0
    record_stride: int = 3

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_m <= 0.0:
            raise ValueError(f"t_m must be > 0, got {self.t_m}")
        if self.t_meas <= self.dt:
            raise ValueError("t_meas must exceed dt")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.kappa < 0.0 or self.thermal_rate < 0.0:
            raise ValueError("kappa and thermal_rate must be >= 0")
        if self.kappa_scaling not in ("literal", "diffusive"):
            raise ValueError(
                f"kappa_scaling must be 'literal' or 'diffusive', "
                f"got {self.kappa_scaling!r}"
            )
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def readout_sigma(self) -> float:
        return math.sqrt(self.t_m / self.dt)

    @property
    def gamma_sigma(self) -> float:
        """Per-quadrature standard deviation of the displacement noise."""
        if self.kappa_scaling == "literal":
            return self.kappa / math.sqrt(self.dt)
        return self.kappa * math.sqrt(self.dt)


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


def measurement_operator(r: float, dt: float, t_m: float, dim: int) -> np.ndarray:
    """Gaussian number-basis measurement operator for readout value r.

    Diagonal with entries (2 pi t_m/dt)^(-1/4) exp(-dt (r-n)^2/(4 t_m));
    the POVM integral of M^dag M over r is the identity.
    """
    if not np.isfinite(r):
        raise ValueError(f"readout must be finite, got {r}")
    ns = np.arange(dim, dtype=float)
    entries = (2.0 * math.pi * t_m / dt) ** (-0.25) * np.exp(
        -dt * (r - ns) ** 2 / (4.0 * t_m)
    )
    return np.diag(entries).astype(complex)


def sample_readout(
    state: QuantumState, dt: float, t_m: float, rng: np.random.Generator
) -> float:
    """Draw one readout r = tr(N rho) + sqrt(t_m/dt) * xi, xi standard normal."""
    mean = state.expect_number()
    return mean + math.sqrt(t_m / dt) * rng.standard_normal()


def _populations(amps: np.ndarray) -> np.ndarray:
    """Number-basis populations (n, dim) of a factor stack, sum_r |A|^2."""
    parts = amps.view(float).reshape(*amps.shape[:2], -1)
    return np.einsum("nij,nij->ni", parts, parts)


def _check_traces(traces: np.ndarray, what: str, first: int) -> None:
    """Raise TraceUnderflowError at the first NaN or underflowed trace."""
    if not traces.min() > TRACE_UNDERFLOW:  # a NaN minimum fails too
        bad = int(np.argmin(traces))
        raise TraceUnderflowError(
            f"trajectory {first + bad}: {what} trace {traces[bad]:.3e} underflowed"
        )


def _measure(
    pops: np.ndarray, cfg: MeasurementConfig, xi: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian number measurement of a batch with populations `pops` (n, dim).

    Returns the readouts r = tr(N rho) + sqrt(t_m/dt) * xi and the row
    scales w / sqrt(tr M rho M^dag), w the diagonal of M(r) (its
    normalization cancels): scaling the rows of a factor by them, or the
    populations by their squares, is the normalized update. Underflow
    errors name trajectory `first` + stack index.
    """
    nvec = np.arange(cfg.dim, dtype=float)
    # a dot per row: a gemv's summation order would depend on the row count
    rs = np.vecdot(pops, nvec) + cfg.readout_sigma * xi
    w = np.exp(-cfg.dt / (4.0 * cfg.t_m) * (rs[:, None] - nvec) ** 2)
    traces = (pops * w**2).sum(axis=1)
    _check_traces(traces, "measurement update", first)
    return rs, w / np.sqrt(traces)[:, None]


def _update(
    amps: np.ndarray,
    cfg: MeasurementConfig,
    cache: DisplacementCache,
    xi: np.ndarray,
    dbeta: complex,
    gamma_xi: np.ndarray | None,
    thermal_u: np.ndarray | None,
    first: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a (n, dim, rank) stack of factors A (rho = A A^dag) one step.

    In order: the Gaussian number measurement (`_measure`) with readouts
    r = tr(N rho) + sqrt(t_m/dt) * xi; the drive displacement D(dbeta),
    shared by the stack; per-state noise displacements
    D(gamma_sigma * (xi_0 + i xi_1)) from the (n, 2) normals `gamma_xi`; a
    thermal creation jump wherever `thermal_u` < thermal_rate * dt; then one
    renormalization. `gamma_xi` and `thermal_u` are None when their process
    is off. Underflow errors name trajectory `first` + stack index. Returns
    the updated stack and the readouts.
    """
    rs, scale = _measure(_populations(amps), cfg, xi, first)
    amps = amps * scale[:, :, None]

    if dbeta != 0.0:
        amps = cache.matrix(dbeta) @ amps
    if gamma_xi is not None:
        xs = cfg.gamma_sigma * gamma_xi
        amps = cache.apply(xs[:, 0] + 1j * xs[:, 1], amps)
    if thermal_u is not None:
        jumped = thermal_u < cfg.thermal_rate * cfg.dt
        if jumped.any():
            amps[jumped] = creation(cfg.dim) @ amps[jumped]

    # a thermal jump out of the top Fock level leaves a zero factor
    norms = _populations(amps).sum(axis=1)
    _check_traces(norms, "update", first)
    amps *= (1.0 / np.sqrt(norms))[:, None, None]
    return amps, rs


def step(
    state: QuantumState,
    cfg: MeasurementConfig,
    dbeta: complex,
    rng: np.random.Generator,
    *,
    cache: DisplacementCache | None = None,
) -> tuple[QuantumState, float]:
    """Advance one timestep: measure, then displace by the drive increment.

    Order per update rule: rho -> D(dbeta) M(r) rho M(r)^dag D(dbeta)^dag,
    normalized; then the optional noise displacement D(gamma) and thermal
    creation jump. Draws the readout normal, then (with kappa > 0) two
    noise normals, then (with a thermal rate) one uniform from `rng`.
    Returns the new state and the readout r.
    """
    if cache is None:
        cache = DisplacementCache(cfg.dim)
    xi = np.array([rng.standard_normal()])
    gamma_xi = rng.standard_normal(2)[None, :] if cfg.kappa > 0.0 else None
    thermal_u = np.array([rng.random()]) if cfg.thermal_rate > 0.0 else None
    amps, rs = _update(
        state.factor()[None], cfg, cache, xi, dbeta, gamma_xi, thermal_u
    )
    return QuantumState(cfg.dim, amps[0] @ amps[0].conj().T), float(rs[0])


def _drive_increments(
    spec: DetectorSpec,
    signal: StrainSignal,
    cfg: MeasurementConfig,
    n_steps: int,
    gw_start: float,
    window: tuple[float, float],
    omega: float,
) -> tuple[np.ndarray, int, int]:
    """Per-step drive increments dbeta_i over the run, midpoint-sampled.

    Returns (dbeta array over the active step range, first active step
    index, one-past-last active step index). Step i covers
    [(i-1) dt, i dt] in run time; the signal clock is run time - gw_start.
    """
    t0 = gw_start + window[0]
    t1 = gw_start + window[1]
    i_start = max(1, int(math.floor(t0 / cfg.dt)) + 1)
    i_stop = min(n_steps, int(math.ceil(t1 / cfg.dt)))
    if i_stop < i_start:
        return np.zeros(0, dtype=complex), 1, 1
    steps = np.arange(i_start, i_stop + 1)
    s_mid = (steps - 0.5) * cfg.dt - gw_start
    _, hddot, ok = strain_samples(signal, s_mid)
    inside = ok & (s_mid >= window[0]) & (s_mid <= window[1])
    pref = beta_prefactor(spec, omega)
    dbeta = np.where(
        inside, -1j * pref * hddot * np.exp(1j * omega * s_mid) * cfg.dt, 0.0
    )
    return dbeta.astype(complex), i_start, i_stop + 1


_GROUND, _FACTOR, _POPULATIONS = range(3)


def _stretch_kinds(
    displacing: np.ndarray, steps_per_reinit: int, ground_start: bool
) -> list[int]:
    """Stretch kind of each step 1..n_steps of a run (entry 0 is unused).

    `displacing` (n_steps + 1,) flags the steps that displace the state.
    Each reinit period runs ground steps (from a ground state) up to its
    first displacing step, factor steps up to its last one, then
    population steps; a non-ground start makes step 1 a factor step if
    its period displaces, else a population step.
    """
    n_steps = displacing.size - 1
    kinds = np.full(n_steps + 1, _POPULATIONS)
    for lo in range(1, n_steps + 1, steps_per_reinit):
        hi = min(lo + steps_per_reinit, n_steps + 1)
        hits = lo + np.flatnonzero(displacing[lo:hi])
        start = hi if hits.size == 0 else hits[0]
        if lo == 1 and not ground_start:
            start = lo
        kinds[lo:start] = _GROUND
        if hits.size:
            kinds[start : hits[-1] + 1] = _FACTOR
    return kinds.tolist()


class _BatchResult:
    """Records of a batch: times (n_rec,), readouts (n_rec, n), rho00..rho22
    as pops (n_rec, 3, n), populations summed over the batch as diag_sums
    (n_rec, dim), events and, with a purity threshold, each trajectory's
    first recorded time its largest population reached it.

    `add` takes the readouts and populations of one record point in turn;
    they are reduced a block of records at a time.
    """

    block = 64

    def __init__(
        self, times: np.ndarray, n: int, dim: int, purity_threshold: float | None
    ):
        self.times = times
        self.readouts = np.empty((times.size, n))
        self.pops = np.zeros((times.size, 3, n))
        self.diag_sums = np.zeros((times.size, dim))
        self.events: list[tuple[float, str]] = []
        self.purity_threshold = purity_threshold
        self.purity_crossing = None
        if purity_threshold is not None:
            self.purity_crossing = np.full(n, np.nan)
        self._held = np.empty((min(self.block, times.size), n, dim))
        self._done = self._next = 0

    def add(self, rs: np.ndarray, populations: np.ndarray) -> None:
        self.readouts[self._next] = rs
        self._held[self._next - self._done] = populations
        self._next += 1
        if self._next - self._done == len(self._held):
            self.flush()

    def flush(self) -> None:
        lo, hi = self._done, self._next
        if hi == lo:
            return
        held = self._held[: hi - lo]
        top = held[:, :, :3]
        self.pops[lo:hi, : top.shape[2]] = top.transpose(0, 2, 1)
        self.diag_sums[lo:hi] = held.sum(axis=1)
        if self.purity_crossing is not None:
            crossed = held.max(axis=2) >= self.purity_threshold
            fresh = crossed.any(axis=0) & np.isnan(self.purity_crossing)
            first = lo + crossed.argmax(axis=0)
            self.purity_crossing[fresh] = self.times[first[fresh]]
        self._done = hi

    def record(self, j: int) -> TrajectoryRecord:
        """The record of the batch's trajectory j."""
        rho = self.pops[:, :, j].T
        return TrajectoryRecord(self.times, self.readouts[:, j], *rho, list(self.events))


def _run_batch(
    spec: DetectorSpec,
    signal: StrainSignal | None,
    cfg: MeasurementConfig,
    rngs: list[np.random.Generator],
    duration: float,
    gw_start: float,
    window: tuple[float, float] | None,
    starts: np.ndarray | None = None,
    purity_threshold: float | None = None,
    first: int = 0,
) -> _BatchResult:
    """Run a batch of trajectories in lockstep, stretch by stretch.

    The batch starts in the ground state, or from the factor stack `starts`
    of `_start_factors` (one factor per trajectory), and is reinitialized
    to the ground state every t_meas. `_stretch_kinds` makes each step,
    from the config, the drive's nonzero increments, the reinit boundaries
    and the kind of start, one of (see the module docstring):

    - a ground step: no state is carried, the readout is
      sqrt(t_m/dt) * xi and the record holds rho00 = 1;
    - a factor step: `_update` on the (n, dim, rank) factor stack, from
      the first displacing step of a reinit period to its last;
    - a population step: after that, the stack collapses to its (n, dim)
      populations, which `_measure` updates until the reinit or the end.

    The kinds differ in what they carry; their numbers agree to
    roundoff. Noise per trajectory is pre-drawn from its own generator in
    a fixed order (readout normals, then displacement-noise normals, then
    thermal uniforms) and sums run per trajectory, so a trajectory's bits
    do not depend on its batch. Errors name trajectory `first` + index.
    """
    n = len(rngs)
    dim = cfg.dim
    n_steps = int(round(duration / cfg.dt))
    if n_steps < 1:
        raise ValueError("duration must cover at least one step")
    steps_per_reinit = int(round(cfg.t_meas / cfg.dt))

    readout_noise = np.column_stack([g.standard_normal(n_steps) for g in rngs])
    gamma_noise = None
    if cfg.kappa > 0.0:
        gamma_noise = np.stack(
            [g.standard_normal((n_steps, 2)) for g in rngs], axis=1
        )
    thermal_u = None
    if cfg.thermal_rate > 0.0:
        thermal_u = np.column_stack([g.random(n_steps) for g in rngs])

    n_rec = n_steps // cfg.record_stride
    times = cfg.dt * cfg.record_stride * np.arange(1, n_rec + 1)
    result = _BatchResult(times, n, dim, purity_threshold)
    events = result.events
    dbeta = np.zeros(0, dtype=complex)
    drive_lo = drive_hi = 1
    omega = mode_frequency(spec)
    if signal is not None:
        if window is None:
            window = default_window(signal, omega, duration - gw_start)
        dbeta, drive_lo, drive_hi = _drive_increments(
            spec, signal, cfg, n_steps, gw_start, window, omega
        )
        if dbeta.size:
            events.append((gw_start + window[0], "gw_window_start"))
            events.append((min(gw_start + window[1], duration), "gw_window_end"))

    displacing = np.full(n_steps + 1, cfg.kappa > 0.0 or cfg.thermal_rate > 0.0)
    displacing[drive_lo:drive_hi] |= dbeta != 0.0
    kinds = _stretch_kinds(displacing, steps_per_reinit, starts is None)

    ground = np.zeros((n, dim))
    ground[:, 0] = 1.0
    state = starts  # None while in the ground state
    cache = DisplacementCache(dim)

    for i in range(1, n_steps + 1):
        xi = readout_noise[i - 1]
        kind = kinds[i]
        try:
            if kind == _GROUND:
                rs = cfg.readout_sigma * xi
            elif kind == _FACTOR:
                if state is None:
                    state = np.zeros((n, dim, 1), dtype=complex)
                    state[:, 0, 0] = 1.0
                z = dbeta[i - drive_lo] if drive_lo <= i < drive_hi else 0.0
                state, rs = _update(
                    state, cfg, cache, xi, z,
                    None if gamma_noise is None else gamma_noise[i - 1],
                    None if thermal_u is None else thermal_u[i - 1],
                    first,
                )
            else:
                if state.ndim == 3:
                    state = _populations(state)
                rs, scale = _measure(state, cfg, xi, first)
                state = state * scale**2
        except TraceUnderflowError as exc:
            raise TraceUnderflowError(f"{exc} at t = {i * cfg.dt:.6g} s") from None

        if i % steps_per_reinit == 0 and i < n_steps:
            state = None
            events.append((i * cfg.dt, "reinit"))

        if i % cfg.record_stride == 0:
            if state is None:
                result.add(rs, ground)
            else:
                result.add(rs, state if state.ndim == 2 else _populations(state))

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
    seed) give identical records.
    """
    if duration is None:
        duration = cfg.t_meas
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    starts = None if initial_state is None else _start_factors([initial_state], cfg.dim)
    batch = _run_batch(spec, signal, cfg, [rng], duration, gw_start, window, starts)
    return batch.record(0)


def _jump_starts(
    times: np.ndarray, series: np.ndarray, threshold: float, hold: int
) -> list[list[float]]:
    """Per column of `series` (n_rec, n), the times where it first sustains
    >= threshold for `hold` points: one time per excursion, the first of it.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if hold < 1:
        raise ValueError(f"hold must be >= 1, got {hold}")
    n_rec, n = series.shape
    above = np.zeros((n, n_rec + 2), dtype=np.int8)
    above[:, 1:-1] = (series >= threshold).T
    edges = np.diff(above, axis=1)
    cols, lo = np.nonzero(edges == 1)
    _, hi = np.nonzero(edges == -1)  # excursion ends pair with starts
    keep = hi - lo >= hold
    counts = np.bincount(cols[keep], minlength=n)
    starts = np.split(np.asarray(times)[lo[keep]], np.cumsum(counts)[:-1])
    return [s.tolist() for s in starts]


def detect_jump(
    record: TrajectoryRecord, threshold: float = 0.9, hold: int = 3
) -> list[tuple[float, str]]:
    """Detect sustained excitation of the first excited level.

    Emits one (time, "jump_detected") event per excursion during which
    rho11 stays at or above `threshold` for at least `hold` consecutive
    recorded points; the event time is the first point of the excursion.
    """
    return [
        (t, "jump_detected")
        for t in _jump_starts(record.times, record.rho11[:, None], threshold, hold)[0]
    ]


def _ensemble_chunks(
    spec: DetectorSpec, signal: StrainSignal | None, cfg: MeasurementConfig,
    n_traj: int, base_seed: int, duration: float, gw_start: float,
    window: tuple[float, float] | None, chunk_size: int = 64,
    starts: np.ndarray | None = None, purity_threshold: float | None = None,
):
    """Yield (lo, batch): the `_BatchResult` of an ensemble's trajectories
    lo, lo + 1, ..., `chunk_size` at a time. Trajectory k runs on the k-th
    generator spawned from `base_seed`, from `starts[k]` (ground state if
    `starts` is None), and errors name it by k.
    """
    children = np.random.SeedSequence(base_seed).spawn(n_traj)
    for lo in range(0, n_traj, chunk_size):
        hi = min(lo + chunk_size, n_traj)
        rngs = [np.random.default_rng(s) for s in children[lo:hi]]
        yield lo, _run_batch(
            spec, signal, cfg, rngs, duration, gw_start, window,
            None if starts is None else starts[lo:hi], purity_threshold, first=lo,
        )


def _summarize(
    chunks, n_traj: int, threshold: float = 0.9, hold: int = 3
) -> EnsembleSummary:
    """Reduce the (lo, batch) chunks of `_ensemble_chunks`: jumps as by
    `detect_jump`; population sums add up chunk by chunk, so the chunking
    moves them only at roundoff.
    """
    sums = diag_sums = 0.0
    jump_times: list[list[float]] = []
    crossings: list[np.ndarray] = []
    for _, batch in chunks:
        sums = sums + batch.pops.sum(axis=2)
        diag_sums = diag_sums + batch.diag_sums
        if batch.purity_crossing is not None:
            crossings.append(batch.purity_crossing)
        jump_times += _jump_starts(batch.times, batch.pops[:, 1], threshold, hold)

    n_detected = sum(1 for jumps in jump_times if jumps)
    return EnsembleSummary(
        n_traj=n_traj,
        n_detected=n_detected,
        detection_fraction=n_detected / n_traj,
        times=batch.times,
        mean_rho00=sums[:, 0] / n_traj,
        mean_rho11=sums[:, 1] / n_traj,
        mean_rho22=sums[:, 2] / n_traj,
        mean_populations=diag_sums / n_traj,
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
    threshold: float = 0.9,
    hold: int = 3,
    chunk_size: int = 64,
    initial_states: list[QuantumState] | None = None,
    purity_threshold: float | None = None,
) -> EnsembleSummary:
    """Run n_traj independent trajectories and reduce them.

    Per-trajectory generators are spawned deterministically from
    `base_seed` (default cfg.seed), so the ensemble is reproducible and
    each trajectory, in any chunk of `chunk_size`, matches a single
    `run_trajectory` with the same spawned generator. `initial_states`
    may supply one starting state per trajectory (ground state otherwise).
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    _jump_starts(np.empty(0), np.empty((0, 0)), threshold, hold)  # fail before running
    if duration is None:
        duration = cfg.t_meas
    if base_seed is None:
        base_seed = cfg.seed
    starts = None
    if initial_states is not None:
        if len(initial_states) != n_traj:
            raise ValueError("need one initial state per trajectory")
        starts = _start_factors(initial_states, cfg.dim)  # fail before running
    chunks = _ensemble_chunks(
        spec, signal, cfg, n_traj, base_seed, duration, gw_start, window,
        chunk_size, starts, purity_threshold,
    )
    return _summarize(chunks, n_traj, threshold, hold)


__all__ = [
    "EnsembleSummary",
    "MeasurementConfig",
    "TrajectoryRecord",
    "detect_jump",
    "measurement_operator",
    "run_ensemble",
    "run_trajectory",
    "sample_readout",
    "step",
]
