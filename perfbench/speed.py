"""Samples the speed of the CPU while a pass runs.

On a shared host the speed of a CPU changes within seconds, by a third or
more, with the load that other tenants put on it. Wall times alone then
spread too widely between runs to show a regression of a few percent. So
while a pass runs, a timer signal every INTERVAL_S runs a fixed
calibration kernel in the same thread, on the same CPU, and records its
time. A pass's wall time divided by the median kernel time during that pass
is its time in calibration units ("cal"), which tracks the work done and
not the load of the moment.

Load slows cache-hungry code more than interpreter-bound code, so each
workload has its own kernel, shaped like its hot loop at the seed commit:
batched density-matrix updates of its size, a one-trajectory loop with
CSV formatting, or large-array oscillatory sums. The kernels use no
gravibar code, so a change to gravibar moves the pass time and leaves the
kernel time alone.

numpy is imported inside the kernel builders: the set-up probe starts
before the worker imports numpy, whose import is part of the set-up time.
"""

from __future__ import annotations

import marshal
import signal
import statistics
import time

INTERVAL_S = 0.1
SETUP_INTERVAL_S = 0.02

# Time of one set-up kernel run at the reference speed: that of a shared
# 2-vCPU Intel Xeon VM in its less loaded phases.
SETUP_REF_S = 1.2e-3

# A synthetic module body: defining functions and classes is what importing
# spends its interpreter time on.
_MODULE = marshal.dumps(compile("\n".join(
    [f"def f{i}(a, b=1, *c, **d):\n    return a + b + len(c) + len(d) + {i}\n"
     for i in range(40)]
    + [f"class C{i}:\n    x = {i}\n    def m(self):\n        return self.x\n"
       for i in range(10)]
    + ["TABLE = {f'k{i}': (i, i * 0.5) for i in range(300)}\n"]
), "<setup-kernel>", "exec"))


def _setup_kernel():
    for _ in range(4):
        exec(marshal.loads(_MODULE), {"__name__": "setup_kernel"})


def _ensemble_kernel(n: int, dim: int, steps: int, *, drive: bool, per_traj: bool,
                     record: bool):
    """Steps of a batched measurement update on n stacked dim x dim states."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    rho0 = a @ np.conj(np.swapaxes(a, 1, 2))
    rho0 /= np.einsum("nii->n", rho0).real[:, None, None]
    d = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    nvec = np.arange(dim, dtype=float)

    def run():
        rhos = rho0.copy()
        for _ in range(steps):
            rs = np.einsum("nii->ni", rhos).real @ nvec
            w = np.exp(-1e-4 * (rs[:, None] - nvec) ** 2)
            rhos *= w[:, :, None]
            rhos *= w[:, None, :]
            rhos /= np.einsum("nii->n", rhos).real[:, None, None]
            if drive:
                rhos = d @ rhos @ d.conj().T
                rhos /= np.einsum("nii->n", rhos).real[:, None, None]
            if per_traj:
                for j in range(n):
                    rhos[j] = d @ rhos[j] @ d.conj().T
                    rhos[j] /= rhos[j].diagonal().real.sum()
            if record:
                rhos = 0.5 * (rhos + np.conj(np.swapaxes(rhos, 1, 2)))
                np.einsum("nii->ni", rhos).real.max(axis=1)
        if per_traj:
            ",".join(repr(float(v)) for v in rhos[0].diagonal().real)

    return run


def _analytic_kernel():
    """Oscillatory sums over arrays of the size of a quadrature block.

    Its times tracked the analytic pass times more closely than those of a
    loop like lattice-verify's chain integrator, or of a mix of the two.
    """
    import numpy as np

    s = np.linspace(0.0, 1.0, 20_000)

    def run():
        for _ in range(2):
            hddot = -np.sin(300.0 * s**1.3) * (1.0 + s)
            np.dot(hddot, np.exp(1j * 250.0 * s))

    return run


KERNELS = {
    "fig3-ensemble": lambda: _ensemble_kernel(16, 30, 4, drive=True, per_traj=False,
                                              record=False),
    "qnd-mixed": lambda: _ensemble_kernel(64, 10, 16, drive=False, per_traj=False,
                                          record=True),
    "cli-simulate": lambda: _ensemble_kernel(1, 12, 24, drive=True, per_traj=True,
                                             record=True),
    "analytic": _analytic_kernel,
}


class SpeedProbe:
    """Context manager sampling a kernel's time during the `with` block.

    After the block, `samples` holds the kernel times and `spent` the total
    time the probe took from the block, to be subtracted from its wall time.
    """

    def __init__(self, kernel, interval: float = INTERVAL_S):
        self._kernel = kernel
        self._interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    @classmethod
    def for_workload(cls, workload: str) -> "SpeedProbe":
        return cls(KERNELS[workload]())

    @classmethod
    def for_setup(cls) -> "SpeedProbe":
        """Probe for the set-up, which is import-bound unlike the passes:
        its kernel loads and runs a module body, every SETUP_INTERVAL_S."""
        return cls(_setup_kernel, SETUP_INTERVAL_S)

    def _sample(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(self._sample())

    @property
    def kernel_s(self) -> float:
        return statistics.median(self.samples)
