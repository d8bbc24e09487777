"""Semiclassical excitation dynamics of a driven resonator mode.

The central object is the resonant drive content

    chi(h, omega, t) = | integral of hddot(s) * exp(i*omega*s) ds |

evaluated by phase-panel Gauss-Kronrod quadrature or by closed forms
(monochromatic sinc, slow-chirp estimate, stationary phase). The coherent
displacement imparted to the mode is |beta| = (L/pi^2) sqrt(M/(omega*hbar))
* chi, and mode populations follow a Poisson distribution in |beta|^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, normal, require
from .detector import DetectorSpec, Material, mode_frequency
from .waveform import (
    ChirpDomainError,
    ChirpSource,
    MonochromaticWave,
    SampledStrain,
    StrainSignal,
    chirp_window,
    resonance_crossing_time,
    resonance_time,
    strain_samples,
)


class QuadratureConvergenceError(RuntimeError):
    """Oscillatory quadrature failed to converge; carries the last estimate."""

    def __init__(self, message: str, last_estimate: complex):
        super().__init__(message)
        self.last_estimate = last_estimate


@dataclass(frozen=True)
class ChiResult:
    """Resonant drive content chi with provenance.

    Attributes
    ----------
    value : float
        chi >= 0, in strain * (rad/s)^2.
    method : str
        One of "quadrature", "monochromatic_closed_form", "chirp_analytic",
        "stationary_phase".
    window : tuple or None
        Integration window (t_start, t_end) [s]; None for closed forms
        without an explicit window.
    nodes : int or None
        Quadrature only: the strain samples the quadrature used.
    error_estimate : float or None
        Quadrature only: the accepted grid's |Kronrod - Gauss| / |Kronrod|;
        None for sampled strain, whose trapezoid has no embedded estimate.
    """

    value: float
    method: str
    window: tuple[float, float] | None = None
    nodes: int | None = None
    error_estimate: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value < math.inf:
            raise ValueError(f"chi must be finite and >= 0, got {self.value}")


def _sinc(x):
    """Unnormalized sinc(x) = sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def _kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(2n+1)-point Gauss-Kronrod rule on [-1, 1] extending n-point Gauss-Legendre.

    Laurie's algorithm (Math. Comp. 66 (1997) 1133) turns the Legendre
    recurrence b_k = k^2/(4k^2 - 1), b_0 = 2 into the Jacobi matrix of the
    Kronrod rule; its eigenvalues are the nodes, and b_0 times the squared
    first components of its unit eigenvectors are the weights. The Legendre
    recurrence has a_k = 0, and by symmetry so has the Kronrod matrix, so
    the algorithm's a terms vanish and only its b and mixed moments s, t
    are computed.
    """
    k = np.arange(2 * n + 1)
    b = np.where(k > 0, k**2 / (4.0 * k**2 - 1.0), 2.0)
    b[(3 * n + 1) // 2 + 1:] = 0.0  # the Kronrod half still to be found
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)  # s[0] is s_{-1} = 0
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # The eigenvector with v_0 = 1/sqrt(b_0) follows the matrix's three-term
    # recurrence and gives the weight 1/|v|^2. eigh would give the same, but
    # its eigenvector code adds ~0.5 MB of resident LAPACK to every process.
    v_prev, v = 0.0, np.full_like(nodes, 1.0 / math.sqrt(b[0]))
    norm = v**2
    for k in range(2 * n):
        v_prev, v = v, (nodes * v - math.sqrt(b[k]) * v_prev) / off[k]
        norm += v**2
    return nodes, 1.0 / norm


def _inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a well-conditioned matrix by Gauss-Jordan elimination with
    partial pivoting; np.linalg.inv would add ~0.6 MB of resident LAPACK."""
    n = a.shape[0]
    work = np.hstack([a, np.eye(n)])
    for k in range(n):
        p = k + int(np.argmax(np.abs(work[k:, k])))
        work[[k, p]] = work[[p, k]]
        work[k] /= work[k, k]
        factors = work[:, k].copy()
        factors[k] = 0.0
        work -= factors[:, None] * work[k]
    return work[:, n:]


# 33-point Gauss-Kronrod rule on [-1, 1], applied on every panel. Its odd
# nodes are those of 16-point Gauss-Legendre, so one evaluation of a panel
# gives both sums: column 0 weighs the nodes by Kronrod, column 1 by Gauss.
_KR_NODES, _KR_WEIGHTS = _kronrod_rule(16)
_RULES = np.zeros((_KR_NODES.size, 2))
_RULES[:, 0] = _KR_WEIGHTS
_RULES[1::2, 1] = np.polynomial.legendre.leggauss(16)[1]
# Row k takes the values at the nodes to the T_k coefficient of the running
# integral from -1 of their degree-32 interpolant, so that one evaluation of a
# panel also splits it at any cut: T_k(cos t) = cos(k t) gives every term at
# once. T_k(1) = 1 and the Kronrod rule is interpolatory, so the rows sum to
# the Kronrod weights.
_RUNNING = np.polynomial.chebyshev.chebint(
    _inverse(np.polynomial.chebyshev.chebvander(_KR_NODES, _KR_NODES.size - 1)), lbnd=-1
)
_DEGREES = np.arange(_RUNNING.shape[0])
_PANEL_PHASE = 4.0 * math.pi  # two cycles per first-grid panel
_TOL = 1e-6  # |Kronrod - Gauss| relative to |Kronrod| at which a grid is accepted
_ROUNDOFF = 1e-12  # differences below this fraction of integral |hddot| ds are roundoff
_BLOCK_NODES = 16384  # nodes evaluated at once: under a MB at any grid size
_MAX_NODES = 2**23  # strain-evaluation budget of one integral
_ROUNDING = 64 * np.finfo(float).eps  # edges closer than this times |t| coincide


def _phase_map(signal: StrainSignal):
    """Phase of an analytic signal as a function of time, and its inverse."""
    if isinstance(signal, MonochromaticWave):
        return (lambda t: signal.nu * t), (lambda phi: phi / signal.nu)
    t_c = signal.coalescence
    phi_c = 3.0 / (5.0 * signal.k * signal.nu0 ** (5.0 / 3.0))  # phase at t_c
    # phi = phi_c * (1 - (1 - t/t_c)^(5/8)), inverted in closed form
    return (lambda t: phi_c * (1.0 - (1.0 - t / t_c) ** 0.625),
            lambda phi: t_c * (1.0 - (1.0 - phi / phi_c) ** 1.6))


def _panel_sum(
    signal: StrainSignal, omega: float, edges: np.ndarray, cuts: np.ndarray = np.empty(0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod and embedded Gauss integrals over each panel between `edges`,
    its Kronrod integral of |hddot|, and for each of the sorted inner `cuts`
    the integral from the start of its panel to the cut of the degree-32
    interpolant through that panel's nodes, from one evaluation of each node."""
    n = edges.size - 1
    kronrod, gauss, scale = np.empty(n, complex), np.empty(n, complex), np.empty(n)
    panel = np.searchsorted(edges, cuts, "right") - 1
    x = 2.0 * (cuts - edges[panel]) / (edges[panel + 1] - edges[panel]) - 1.0
    heads = np.empty(cuts.size, complex)
    per_block = _BLOCK_NODES // _KR_NODES.size
    for lo in range(0, n, per_block):
        block = edges[lo:lo + per_block + 1]
        half = 0.5 * np.diff(block)
        s = (block[:-1, None] + half[:, None] * (1.0 + _KR_NODES)).ravel()
        _, hddot = strain_samples(signal, s)
        # cos and sin cost less than a complex exp of omega*s; taken in place,
        # so a block holds no array beyond its nodes, hddot and parts
        s *= omega
        parts = np.empty((2, s.size))
        np.cos(s, out=parts[0])
        np.sin(s, out=parts[1])
        parts *= hddot
        parts = parts.reshape(2, -1, _KR_NODES.size)
        re, im = parts @ _RULES
        panels = slice(lo, lo + half.size)
        kronrod[panels], gauss[panels] = (half[:, None] * (re + 1j * im)).T
        scale[panels] = half * (np.abs(hddot).reshape(-1, _KR_NODES.size) @ _KR_WEIGHTS)
        # the cuts in the block, a block of them at a time: the running
        # integral's coefficients of the panels they fall in, summed at them
        a, b = np.searchsorted(panel, [lo, lo + half.size])
        for c in range(a, b, per_block):
            cut = slice(c, min(c + per_block, b))
            # panel[cut] is sorted: the first of each run, and each cut's row
            hit = panel[cut] - lo
            first = np.append(True, hit[1:] != hit[:-1])
            hit, rows = hit[first], np.cumsum(first) - 1
            re, im = parts[:, hit] @ _RUNNING.T
            terms = np.cos(np.multiply.outer(np.arccos(x[cut]), _DEGREES))
            heads[cut] = half[hit][rows] * np.einsum("ck,ck->c", terms, (re + 1j * im)[rows])
    return kronrod, gauss, scale, heads


def _sums(x: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Sum of x[first[i]:first[i + 1]] for each i, zero where that is empty,
    for a non-decreasing `first` that ends at x.size."""
    return np.add.reduceat(np.append(x, 0.0), first[:-1]) * (first[:-1] < first[1:])


def _merged(grid: np.ndarray) -> np.ndarray:
    """Sorted `grid` less each inner edge within rounding of the edge before
    it or of the last edge: the first and last edges stay exact."""
    edges = np.sort(grid)  # a repeat is within rounding of the edge before it
    tol = _ROUNDING * max(abs(edges[0]), abs(edges[-1]))
    keep = np.append(True, np.diff(edges) > tol) & (edges[-1] - edges > tol)
    keep[[0, -1]] = True
    return edges[keep]


def _check_window(window, finite: bool, error=ValueError) -> None:
    """The one rule for a window's edges, applied before any clip or difference:
    `error` naming an edge that is nan, or infinite where `finite` (nothing
    clips a monochromatic wave's or a chain's window, while a chirp's support,
    a sampled series and a run clip theirs), then an end below the start."""
    start, end = map(float, window)
    for edge, value in (("start", start), ("end", end)):
        if math.isnan(value) or finite and math.isinf(value):
            must = "be finite" if finite else "not be nan"
            raise error(f"window {edge} must {must}, got {value}")
    if end < start:
        raise error(f"window {(start, end)} is reversed: its end precedes its start")


def _quadrature(signal: StrainSignal, omega: float, cuts) -> tuple[np.ndarray, int, float | None]:
    """`oscillatory_integral` over each segment between the non-decreasing
    `cuts` (a window's two edges give one), the strain samples it took and
    the window's final |Kronrod - Gauss| / |Kronrod| (None if sampled).
    `_check_window` judges the window (cuts[0], cuts[-1]), whose edges must
    be finite for a monochromatic wave; the inner cuts are `_drive`'s steps.
    A chirp window that reaches its coalescence raises ChirpDomainError.

    The grid is accepted on the window alone, as for chi, and each segment
    is taken from the same evaluation of it: the Kronrod sums of the panels
    it covers, plus or minus the interpolant's integrals (`_panel_sum`) in
    the panels the inner cuts fall in. The cuts cost no strain evaluations.
    A repeated cut gives an empty segment and 0.
    """
    cuts = np.asarray(cuts, dtype=float)
    _check_window((cuts[0], cuts[-1]), isinstance(signal, MonochromaticWave))
    if isinstance(signal, SampledStrain):
        ts = signal.times
        keep = (ts >= cuts[0]) & (ts <= cuts[-1])
        ts = ts[keep]
        if ts.size < 2:
            return np.zeros(cuts.size - 1, dtype=complex), 0, None
        integrand = signal.hddot_samples[keep] * np.exp(1j * omega * ts)
        running = np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(ts))
        return np.diff(np.interp(cuts, ts, np.append(0.0, running))), int(ts.size), None
    if isinstance(signal, ChirpSource):
        t_c = signal.coalescence
        cuts = np.clip(cuts, 0.0, t_c)
        if cuts[0] < cuts[-1] == t_c:  # no grid can pass: fail before any node
            raise ChirpDomainError(
                f"window reaches the coalescence t_c = {t_c:.6g} s, where hddot diverges"
            )
    out = np.zeros(cuts.size - 1, dtype=complex)
    moved = np.diff(cuts) > 0.0
    if not moved.any():
        return out, 0, 0.0
    cuts = np.append(cuts[0], cuts[1:][moved])
    t0, t1 = cuts[0], cuts[-1]

    phase, time_at = _phase_map(signal)
    n_uniform = max(math.ceil(abs(omega) * (t1 - t0) / _PANEL_PHASE), 1)
    n_phase = math.ceil((phase(t1) - phase(t0)) / _PANEL_PHASE)
    n_panels = n_uniform + max(n_phase - 1, 0)  # bounds the grid's panels
    order, spent, edges = _KR_NODES.size, 0, None
    estimate = complex(math.nan, math.nan)
    if order <= _MAX_NODES < n_panels * order:
        spent, estimate = order, complex(_panel_sum(signal, omega, np.array([t0, t1]))[0][0])
    while True:
        spent += n_panels * order
        if spent > _MAX_NODES:
            raise QuadratureConvergenceError(
                f"oscillatory quadrature did not reach {_TOL:.1e} relative "
                f"within {_MAX_NODES} nodes",
                estimate,
            )
        if edges is None:
            phases = phase(t0) + _PANEL_PHASE * np.arange(1, n_phase)
            edges = _merged(np.concatenate([np.linspace(t0, t1, n_uniform + 1),
                                            np.clip(time_at(phases), t0, t1)]))
            spent += (edges.size - 1 - n_panels) * order  # the grid's true size
            n_panels = edges.size - 1
        else:
            edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
        panels = _panel_sum(signal, omega, edges, cuts[1:-1])
        kronrod, gauss, scale = (_sums(x, np.array([0, x.size]))[0] for x in panels[:3])
        estimate, error = complex(kronrod), abs(kronrod - gauss)
        if error <= max(_TOL * abs(kronrod), _ROUNDOFF * scale):
            break
        n_panels *= 2
    segments = _sums(panels[0], np.searchsorted(edges, cuts, "right") - 1)
    if cuts.size > 2:
        segments += np.diff(panels[3], prepend=0.0, append=0.0)
    out[moved] = segments
    return out, spent, error / abs(kronrod) if error else 0.0


def oscillatory_integral(
    signal: StrainSignal, omega: float, window: tuple[float, float]
) -> complex:
    """Complex integral of hddot(s)*exp(i*omega*s) over the window.

    Analytic signals use the 33-point Gauss-Kronrod rule on panels over the
    window clipped to the signal's support. The first panel edges are a
    uniform grid of at most two cycles of |omega| per panel joined with the
    instants at which the signal phase advances by two cycles, less edges
    that coincide with another up to rounding. Each pass evaluates every
    panel's 33 nodes once and gives the Kronrod sum and the embedded
    16-point Gauss-Legendre sum; the Kronrod sum is returned as soon as the
    two differ by at most 1e-6 of its modulus or by at most 1e-12 of
    integral |hddot| ds, a roundoff floor for integrals that cancel to
    nearly zero (a window ending on a sinc zero). Only when that test fails
    are all panels halved for another pass. Sampled strain is integrated on
    its own grid (trapezoid over the stored second differences).

    `measurement._drive` takes each step of a run from the same quadrature,
    on the grid accepted for the run's window alone, exactly as here, and
    from the same evaluation of its nodes. A panel that lies inside a step
    gives the step its Kronrod sum. A panel that a step boundary cuts gives
    each side the integral of the degree-32 interpolant through its 33
    nodes, up to the cut. The Kronrod rule is interpolatory, so the two
    sides sum to the panel's Kronrod value, and the step boundaries cost no
    strain evaluations.

    A budget of 2^23 strain evaluations (`_MAX_NODES`, read at each call)
    bounds the call, the drive's included, in blocks of at most 16 384
    nodes. QuadratureConvergenceError is raised before a grid that would
    pass it is built, carrying the last estimate: the one-panel value if the
    first panels alone would pass it, nan if not even one panel fits.
    """
    return complex(_quadrature(signal, omega, window)[0][0])


def _integral_and_chi(signal: StrainSignal, omega: float, window) -> tuple[complex, ChiResult]:
    """`oscillatory_integral` over the window and the chi it gives."""
    (integral,), nodes, error = _quadrature(signal, omega, window)
    window = (float(window[0]), float(window[1]))
    return complex(integral), ChiResult(float(abs(integral)), "quadrature", window, nodes, error)


def chi_quadrature(signal: StrainSignal, omega: float, window: tuple[float, float]) -> ChiResult:
    """chi by direct oscillatory quadrature over the window."""
    return _integral_and_chi(signal, omega, window)[1]


def chi_monochromatic(h0: float, nu: float, omega: float, t: float) -> ChiResult:
    """Rotating-wave closed form chi = h0*nu^2*(t/2)*|sinc(delta*t/2)|.

    delta = omega - nu; valid for |delta| << omega + nu (warns otherwise).
    The first zero sits at delta*t/2 = pi.
    """
    delta = omega - nu
    if abs(delta) > 0.1 * (omega + nu):
        warnings.warn(
            "rotating-wave form used outside its regime: "
            f"|omega-nu| = {abs(delta):.3g} vs omega+nu = {omega + nu:.3g}",
            stacklevel=2,
        )
    value = abs(h0 * nu**2 * (t / 2.0) * float(_sinc(delta * t / 2.0)))
    return ChiResult(value, "monochromatic_closed_form", (0.0, float(t)))


def chi_chirp_analytic(h0: float, k: float, omega: float) -> ChiResult:
    """Slow-chirp estimate chi = h0 * sqrt(2/k) * omega^(1/6).

    Equals h0*omega^2*tau/2 with tau the resonance crossing time. Warns when
    omega*tau is not large (fast sweep through resonance).
    """
    require(locals(), positive=("k", "omega"), nonnegative=("h0",))
    tau = resonance_crossing_time(k, omega)
    if omega * tau < 10.0:
        warnings.warn(
            f"slow-chirp estimate used with omega*tau = {omega * tau:.3g} "
            "(assumes omega*tau >> 1)",
            stacklevel=2,
        )
    value = h0 * math.sqrt(2.0 / k) * omega ** (1.0 / 6.0)
    return ChiResult(value, "chirp_analytic", None)


def crossing_in_window(
    chirp: ChirpSource, omega: float, window: tuple[float, float]
) -> float:
    """The instant s* the chirp frequency crosses omega; ChirpDomainError
    unless it lies inside `window` (or when there is none, omega < nu0).
    `_check_window` judges the window first."""
    _check_window(window, finite=False)
    s_star = resonance_time(chirp.nu0, chirp.k, omega)
    if not (window[0] <= s_star <= window[1]):
        raise ChirpDomainError(
            f"resonance crossing at s* = {s_star:.6g} s lies outside the "
            f"window {window}"
        )
    return s_star


def chi_stationary_phase(
    chirp: ChirpSource,
    omega: float,
    window: tuple[float, float] | None = None,
) -> ChiResult:
    """Stationary-phase estimate of chi for a chirp sweeping through omega.

    Keeps the rotating-wave term of hddot*exp(i*omega*s) and expands its
    phase to second order about the instant s* where the chirp frequency
    crosses omega, leaving a Gaussian integral:

        chi ~ (A(s*) * omega^2 / 2) * sqrt(2*pi / (k * omega^(11/3))).

    Raises ChirpDomainError when there is no resonance crossing inside the
    window (or at all, for omega < nu0).
    """
    k = chirp.k
    if window is None:
        window = default_window(chirp, omega)
    s_star = crossing_in_window(chirp, omega, window)
    tau = resonance_crossing_time(k, omega)
    if omega * tau < 10.0:
        warnings.warn(
            f"stationary phase used with omega*tau = {omega * tau:.3g} "
            "(assumes omega*tau >> 1)",
            stacklevel=2,
        )
    amplitude = float(chirp.amplitude(s_star))
    phase_curvature = k * omega ** (11.0 / 3.0)  # |d nu/dt| at the crossing
    value = 0.5 * amplitude * omega**2 * math.sqrt(2.0 * math.pi / phase_curvature)
    return ChiResult(
        value, "stationary_phase", (float(window[0]), float(window[1]))
    )


def beta_prefactor(spec: DetectorSpec) -> float:
    """Coupling prefactor (L/pi^2) * sqrt(M/(omega*hbar)) mapping chi to |beta|."""
    omega = mode_frequency(spec)
    return spec.length / math.pi**2 * math.sqrt(spec.mass / (omega * HBAR))


@dataclass(frozen=True)
class BetaAmplitude:
    """Coherent displacement imparted to the mode by a drive.

    Attributes
    ----------
    value : complex
        beta = -i * prefactor * integral of hddot(s) e^{i omega s} ds.
    chi : ChiResult
        The chi from which |beta| derives (same quadrature nodes).
    """

    value: complex
    chi: ChiResult

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def default_window(
    signal: StrainSignal, omega: float, span: float | None = None
) -> tuple[float, float]:
    """Integration window (signal time) of a signal at drive frequency omega.

    The one rule by which every caller defaults a window:

    - chirp: the resonance-crossing window `chirp_window`;
    - sampled strain: its support (t0, t_end);
    - monochromatic wave: (0, span), where `span` is how long the wave
      drives the detector (a run's duration - gw_start); a monochromatic
      wave has no natural end, so it raises ValueError without a span.
    """
    require(locals(), finite=("span",))
    if isinstance(signal, ChirpSource):
        return chirp_window(signal, omega)
    if isinstance(signal, SampledStrain):
        return (signal.t0, signal.t_end)
    if span is None:
        raise ValueError(
            "a monochromatic wave has no natural window; pass a window or a span"
        )
    return (0.0, span)


def displacement_beta(
    spec: DetectorSpec,
    signal: StrainSignal,
    window: tuple[float, float] | None = None,
) -> BetaAmplitude:
    """Complex coherent amplitude beta accumulated over the window.

    |beta| = (L/pi^2) sqrt(M/(omega hbar)) * chi with chi evaluated from the
    identical quadrature, so the two are consistent to machine precision.
    """
    omega = mode_frequency(spec)
    if window is None:
        window = default_window(signal, omega)
    integral, chi = _integral_and_chi(signal, omega, window)
    return BetaAmplitude(value=-1j * beta_prefactor(spec) * integral, chi=chi)


def excitation_probability(beta: complex, n: int) -> float:
    """Probability of finding the mode in Fock state n after displacement beta.

    P_n = exp(-|beta|^2) |beta|^(2n) / n!  (Poisson in |beta|^2), taken in
    logs, so a |beta| whose square overflows gives 0. The single excitation
    probability peaks at |beta| = 1 with value 1/e.
    """
    require(locals(), integer={"n": 0}, finite=("beta",))
    b = float(abs(beta))
    if b == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-b * b + 2 * n * math.log(b) - math.lgamma(n + 1))


def optimal_mass(material: Material, chi, omega: float) -> float:
    """Detector mass maximizing the single-excitation probability.

    M = pi^2 * hbar * omega^3 / (v_s^2 * chi^2); feeding this mass back into
    `displacement_beta` with the same chi gives |beta| = 1. `chi` may be a
    float or a ChiResult.
    """
    chi = chi.value if isinstance(chi, ChiResult) else float(chi)
    require(locals(), positive=("chi", "omega"))
    omega = float(omega)
    den = material.sound_speed**2 * (chi * chi)  # 0 where chi^2 underflows
    return normal(math.pi**2 * HBAR * omega**3 / den if den else math.inf,
                  "optimal mass", "chi", chi)


def optimal_mass_chirp(
    material: Material, h0: float, chirp_mass: float, omega: float
) -> float:
    """Optimal mass for a slow binary chirp, using the analytic chi.

    Equals pi^2*hbar*k*omega^(8/3) / (2*v_s^2*h0^2); scales as omega^(8/3)
    and inversely with h0^2.
    """
    from .waveform import chirp_rate_k

    chi = chi_chirp_analytic(h0, chirp_rate_k(chirp_mass), omega)
    return optimal_mass(material, chi, omega)


def threshold_probability(
    spec: DetectorSpec, h0: float, nu: float, t: float
) -> float:
    """Excitation probability of a monochromatic drive in the rotating wave.

    P ~ (L^2/(4 pi^4)) (M/(omega hbar)) h0^2 nu^4 t^2 sinc^2((omega-nu) t/2).
    Exhibits the threshold behavior: negligible for nu well below the mode
    frequency at long times.
    """
    require(locals(), nonnegative=("h0", "nu", "t"))
    h0, nu, t = float(h0), float(nu), float(t)
    omega = mode_frequency(spec)
    env = float(_sinc((omega - nu) * t / 2.0))
    p = (spec.length**2 / (4.0 * math.pi**4) * spec.mass / (omega * HBAR)
         * (nu * nu) * (nu * nu) * (t * t) * (env * env))
    # no drive or no time is 0 whatever h0
    return normal(h0 * (h0 * p), "excitation probability", "h0", h0) if nu and t else 0.0


__all__ = [
    "BetaAmplitude",
    "ChiResult",
    "QuadratureConvergenceError",
    "beta_prefactor",
    "chi_chirp_analytic",
    "chi_monochromatic",
    "chi_quadrature",
    "chi_stationary_phase",
    "crossing_in_window",
    "default_window",
    "displacement_beta",
    "excitation_probability",
    "optimal_mass",
    "optimal_mass_chirp",
    "oscillatory_integral",
    "threshold_probability",
]
