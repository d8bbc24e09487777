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
    if not np.all(traces > TRACE_UNDERFLOW):
        bad = int(np.argmin(traces))
        raise TraceUnderflowError(
            f"trajectory {first + bad}: {what} trace {traces[bad]:.3e} underflowed"
        )


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

    In order: the Gaussian number measurement with readouts
    r = tr(N rho) + sqrt(t_m/dt) * xi, which scales the rows of A by the
    diagonal w of M(r) over sqrt(tr M rho M^dag); the drive displacement
    D(dbeta), shared by the stack; per-state noise displacements
    D(gamma_sigma * (xi_0 + i xi_1)) from the (n, 2) normals `gamma_xi`; a
    thermal creation jump wherever `thermal_u` < thermal_rate * dt; then one
    renormalization. `gamma_xi` and `thermal_u` are None when their process
    is off. Underflow errors name trajectory `first` + stack index. Returns
    the updated stack and the readouts.
    """
    nvec = np.arange(cfg.dim, dtype=float)
    pops = _populations(amps)
    rs = pops @ nvec + cfg.readout_sigma * xi
    # M(r) is diagonal; its normalization cancels against the trace
    w = np.exp(-cfg.dt / (4.0 * cfg.t_m) * (rs[:, None] - nvec) ** 2)
    traces = (pops * w**2).sum(axis=1)
    _check_traces(traces, "measurement update", first)
    amps = amps * (w / np.sqrt(traces)[:, None])[:, :, None]

    if dbeta != 0.0:
        amps = cache.matrix(dbeta) @ amps
    if gamma_xi is not None:
        xs = cfg.gamma_sigma * gamma_xi
        amps = cache.matrix(xs[:, 0] + 1j * xs[:, 1]) @ amps
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


@dataclass
class _BatchResult:
    times: np.ndarray
    readouts: np.ndarray
    pops: np.ndarray  # (n_rec, 3, n): rho00, rho11, rho22
    diag_sums: np.ndarray  # (n_rec, dim): populations summed over the batch
    events: list[tuple[float, str]]
    purity_crossing: np.ndarray | None


def _run_batch(
    spec: DetectorSpec,
    signal: StrainSignal | None,
    cfg: MeasurementConfig,
    rngs: list[np.random.Generator],
    duration: float,
    gw_start: float,
    window: tuple[float, float] | None,
    initials: list[QuantumState] | None = None,
    purity_threshold: float | None = None,
    first: int = 0,
) -> _BatchResult:
    """Run a batch of trajectories in lockstep over a stack of factors.

    Each state is carried as a factor A with rho = A A^dag: rank 1 for
    ground-state starts; with `initials` (one validated state each) rank
    dim, from each state's eigendecomposition. Noise per trajectory is
    pre-drawn from its own generator in a fixed order (readout normals,
    then displacement-noise normals, then thermal uniforms), so results do
    not depend on batch composition. Errors name a trajectory by `first`
    plus its index in the batch.
    """
    n = len(rngs)
    dim = cfg.dim
    n_steps = int(round(duration / cfg.dt))
    if n_steps < 1:
        raise ValueError("duration must cover at least one step")
    steps_per_reinit = int(round(cfg.t_meas / cfg.dt))

    if initials is None:
        amps = np.zeros((n, dim, 1), dtype=complex)
        amps[:, 0, 0] = 1.0
    else:
        for state in initials:
            if state.dim != dim:
                raise ValueError(f"initial state dim {state.dim} != config dim {dim}")
            state.validate()
        amps = np.stack([state.factor() for state in initials])

    readout_noise = np.column_stack([g.standard_normal(n_steps) for g in rngs])
    gamma_noise = None
    if cfg.kappa > 0.0:
        gamma_noise = np.stack(
            [g.standard_normal((n_steps, 2)) for g in rngs], axis=1
        )
    thermal_u = None
    if cfg.thermal_rate > 0.0:
        thermal_u = np.column_stack([g.random(n_steps) for g in rngs])

    events: list[tuple[float, str]] = []
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

    n_rec = n_steps // cfg.record_stride
    times = cfg.dt * cfg.record_stride * np.arange(1, n_rec + 1)
    readouts = np.empty((n_rec, n))
    pops = np.zeros((n_rec, 3, n))
    diag_sums = np.zeros((n_rec, dim))
    purity_crossing = None
    if purity_threshold is not None:
        purity_crossing = np.full(n, np.nan)

    cache = DisplacementCache(dim)
    rec = 0

    for i in range(1, n_steps + 1):
        z = dbeta[i - drive_lo] if drive_lo <= i < drive_hi else 0.0
        try:
            amps, rs = _update(
                amps, cfg, cache, readout_noise[i - 1], z,
                None if gamma_noise is None else gamma_noise[i - 1],
                None if thermal_u is None else thermal_u[i - 1],
                first,
            )
        except TraceUnderflowError as exc:
            raise TraceUnderflowError(f"{exc} at t = {i * cfg.dt:.6g} s") from None

        if i % steps_per_reinit == 0 and i < n_steps:
            amps[:] = 0.0
            amps[:, 0, 0] = 1.0
            events.append((i * cfg.dt, "reinit"))

        if i % cfg.record_stride == 0:
            readouts[rec] = rs
            d3 = _populations(amps)
            pops[rec, : min(dim, 3)] = d3[:, :3].T
            diag_sums[rec] = d3.sum(axis=0)
            if purity_crossing is not None:
                crossed = d3.max(axis=1) >= purity_threshold
                fresh = crossed & np.isnan(purity_crossing)
                purity_crossing[fresh] = times[rec]
            rec += 1

    events.sort(key=lambda ev: ev[0])
    return _BatchResult(
        times=times,
        readouts=readouts,
        pops=pops,
        diag_sums=diag_sums,
        events=events,
        purity_crossing=purity_crossing,
    )


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
    initials = [initial_state] if initial_state is not None else None
    batch = _run_batch(
        spec, signal, cfg, [rng], duration, gw_start, window, initials
    )
    return TrajectoryRecord(
        times=batch.times,
        readout=batch.readouts[:, 0],
        rho00=batch.pops[:, 0, 0],
        rho11=batch.pops[:, 1, 0],
        rho22=batch.pops[:, 2, 0],
        events=list(batch.events),
    )


def _jump_starts(
    times: np.ndarray, series: np.ndarray, threshold: float, hold: int
) -> list[float]:
    """Times where `series` first sustains >= threshold for `hold` points."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if hold < 1:
        raise ValueError(f"hold must be >= 1, got {hold}")
    above = series >= threshold
    out: list[float] = []
    run = 0
    emitted = False
    for idx, flag in enumerate(above):
        if flag:
            run += 1
            if run >= hold and not emitted:
                out.append(float(times[idx - run + 1]))
                emitted = True
        else:
            run = 0
            emitted = False
    return out


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
        for t in _jump_starts(record.times, record.rho11, threshold, hold)
    ]


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
    each trajectory matches a single `run_trajectory` with the same
    spawned generator. Trajectories are processed in chunks to bound
    memory; the reduction (population sums, jump detection, purity
    crossings) is order-independent. `initial_states` may supply one
    starting state per trajectory (ground state otherwise).
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    _jump_starts(np.empty(0), np.empty(0), threshold, hold)  # fail before running
    if duration is None:
        duration = cfg.t_meas
    if base_seed is None:
        base_seed = cfg.seed
    if initial_states is not None and len(initial_states) != n_traj:
        raise ValueError("need one initial state per trajectory")
    children = np.random.SeedSequence(base_seed).spawn(n_traj)

    sums = diag_sums = 0.0
    jump_times: list[list[float]] = []
    crossings: list[np.ndarray] = []
    for lo in range(0, n_traj, chunk_size):
        hi = min(lo + chunk_size, n_traj)
        rngs = [np.random.default_rng(s) for s in children[lo:hi]]
        initials = (
            initial_states[lo:hi] if initial_states is not None else None
        )
        batch = _run_batch(
            spec, signal, cfg, rngs, duration, gw_start, window,
            initials, purity_threshold, first=lo,
        )
        times, events = batch.times, batch.events
        sums = sums + batch.pops.sum(axis=2)
        diag_sums = diag_sums + batch.diag_sums
        if batch.purity_crossing is not None:
            crossings.append(batch.purity_crossing)
        jump_times += [
            _jump_starts(times, rho11, threshold, hold) for rho11 in batch.pops[:, 1].T
        ]

    n_detected = sum(1 for jumps in jump_times if jumps)
    return EnsembleSummary(
        n_traj=n_traj,
        n_detected=n_detected,
        detection_fraction=n_detected / n_traj,
        times=times,
        mean_rho00=sums[:, 0] / n_traj,
        mean_rho11=sums[:, 1] / n_traj,
        mean_rho22=sums[:, 2] / n_traj,
        mean_populations=diag_sums / n_traj,
        jump_times=jump_times,
        events=list(events),
        purity_first_crossing=(
            np.concatenate(crossings) if crossings else None
        ),
    )


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
