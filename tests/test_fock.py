import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gravibar.dynamics import excitation_probability
from gravibar.fock import (
    DisplacementCache,
    QuantumState,
    StateInvariantError,
    TraceUnderflowError,
    annihilation,
    apply_normalized,
    coherent_state,
    creation,
    displacement_operator,
    number_operator,
)
from gravibar.measurement import measurement_operator


class TestNumberOperator:
    def test_small_dimension(self):
        n = number_operator(3)
        np.testing.assert_allclose(n, np.diag([0.0, 1.0, 2.0]))

    def test_eigenvalues_on_basis(self):
        n = number_operator(8)
        for j in range(8):
            basis = np.zeros(8)
            basis[j] = 1.0
            assert basis @ n @ basis == pytest.approx(j)

    def test_self_commutator(self):
        n = number_operator(6)
        assert np.abs(n @ n - n @ n).max() == 0.0

    def test_requires_dim_two(self):
        with pytest.raises(ValueError):
            number_operator(1)

    def test_ladder_algebra(self):
        dim = 12
        b = annihilation(dim)
        np.testing.assert_allclose(b.conj().T @ b, number_operator(dim), atol=1e-14)
        comm = b @ creation(dim) - creation(dim) @ b
        # canonical commutator holds below the truncation edge
        np.testing.assert_allclose(
            comm[: dim - 1, : dim - 1], np.eye(dim - 1), atol=1e-13
        )


class TestDisplacementOperator:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(
            displacement_operator(0.0, 10), np.eye(10), atol=1e-15
        )

    def test_mean_occupation(self):
        d = displacement_operator(1.0, 30)
        psi = d[:, 0]
        mean_n = float(np.arange(30) @ (np.abs(psi) ** 2))
        assert mean_n == pytest.approx(1.0, abs=1e-6)

    def test_inverse_property(self):
        d = displacement_operator(0.7 + 0.2j, 30)
        dinv = displacement_operator(-(0.7 + 0.2j), 30)
        np.testing.assert_allclose(d @ dinv, np.eye(30), atol=1e-8)

    def test_unitarity(self):
        d = displacement_operator(1.0, 30)
        assert np.abs(d.conj().T @ d - np.eye(30)).max() <= 1e-8

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="truncation"):
            displacement_operator(4.0, 10)

    def test_spectral_cache_matches_expm(self):
        cache = DisplacementCache(24)
        for z in (0.5, -0.3 + 0.8j, 1e-3 * np.exp(1j * 2.2), 0.0):
            np.testing.assert_allclose(
                cache.matrix(z), displacement_operator(z, 24), atol=5e-13
            )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 30),
        zs=st.lists(st.complex_numbers(max_magnitude=1.5), min_size=1, max_size=5),
    )
    def test_cache_matches_expm_and_stacks(self, dim, zs):
        cache = DisplacementCache(dim)
        b = annihilation(dim)
        stack = cache.matrix(np.array(zs))
        assert stack.shape == (len(zs), dim, dim)
        for z, d in zip(zs, stack):
            single = cache.matrix(z)
            expm = scipy.linalg.expm(z * b.conj().T - np.conj(z) * b)
            np.testing.assert_allclose(single, expm, atol=1e-12)
            np.testing.assert_allclose(d, single, atol=1e-14)


class TestCoherentState:
    def test_vacuum(self):
        state = coherent_state(0.0, 10)
        expected = np.zeros((10, 10), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(state.rho, expected, atol=1e-15)

    def test_unit_displacement_single_quantum_population(self):
        state = coherent_state(1.0, 30)
        assert state.populations()[1] == pytest.approx(1.0 / math.e, abs=1e-6)

    def test_populations_are_poissonian(self):
        beta = 0.8 + 0.4j
        state = coherent_state(beta, 30)
        pops = state.populations()
        for n in range(6):
            assert pops[n] == pytest.approx(
                excitation_probability(beta, n), abs=1e-8
            )

    def test_purity(self):
        state = coherent_state(1.2, 30)
        assert state.purity() == pytest.approx(1.0, abs=1e-8)

    def test_truncation_adequacy(self):
        # raising the cutoff does not move the low populations
        lo = coherent_state(1.5, 30).populations()[:5]
        hi = coherent_state(1.5, 40).populations()[:5]
        np.testing.assert_allclose(lo, hi, atol=1e-6)


class TestApplyNormalized:
    def test_identity_kraus(self):
        state = coherent_state(0.9, 20)
        out = apply_normalized(state, np.eye(20))
        np.testing.assert_allclose(out.rho, state.rho, atol=1e-14)

    def test_projector_collapse(self):
        state = coherent_state(1.0, 20)
        proj = np.zeros((20, 20), dtype=complex)
        proj[1, 1] = 1.0
        out = apply_normalized(state, proj)
        expected = np.zeros((20, 20), dtype=complex)
        expected[1, 1] = 1.0
        np.testing.assert_allclose(out.rho, expected, atol=1e-12)

    def test_gaussian_product_rule(self):
        # two successive measurement operators with readouts r1, r2 pool to
        # one with doubled integration time at the mean readout
        dt, t_m, dim = 1e-3, 2.0, 12
        state = coherent_state(1.1, dim)
        r1, r2 = 1.4, 0.2
        two_step = apply_normalized(
            apply_normalized(state, measurement_operator(r1, dt, t_m, dim)),
            measurement_operator(r2, dt, t_m, dim),
        )
        pooled = apply_normalized(
            state, measurement_operator((r1 + r2) / 2.0, 2 * dt, t_m, dim)
        )
        np.testing.assert_allclose(two_step.rho, pooled.rho, atol=1e-10)

    def test_impossible_outcome_guard(self):
        state = QuantumState.ground(8)
        proj = np.zeros((8, 8), dtype=complex)
        proj[5, 5] = 1.0
        with pytest.raises(TraceUnderflowError):
            apply_normalized(state, proj)

    def test_trace_renormalized_exactly(self):
        state = coherent_state(0.5, 16)
        out = apply_normalized(state, measurement_operator(0.3, 1e-3, 2.0, 16))
        assert out.trace() == pytest.approx(1.0, abs=1e-15)


class TestStateInvariants:
    def test_validate_passes_for_physical_state(self):
        coherent_state(1.0, 20).validate()

    def test_broken_hermiticity(self):
        rho = np.eye(4, dtype=complex)
        rho /= 4.0
        rho[0, 1] = 0.5
        with pytest.raises(StateInvariantError, match="Hermiticity"):
            QuantumState(4, rho).validate()

    def test_broken_trace(self):
        rho = np.eye(4, dtype=complex) / 2.0
        with pytest.raises(StateInvariantError, match="trace"):
            QuantumState(4, rho).validate()

    def test_broken_positivity(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateInvariantError, match="eigenvalue"):
            QuantumState(4, rho).validate()

    def test_enforce_positivity_clips(self):
        rho = np.diag([1.0 + 1e-12, -1e-12, 0.0, 0.0]).astype(complex)
        f = QuantumState(4, rho).factor()
        assert np.all(f[:, 0] == 0.0)
        np.testing.assert_allclose(f @ f.conj().T, np.diag([1.0 + 1e-12, 0, 0, 0]))

    def test_enforce_positivity_strict(self):
        rho = np.diag([1.0 + 1e-8, -1e-8, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateInvariantError, match="eigenvalue"):
            QuantumState(4, rho).factor()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dim=st.integers(2, 24),
        rank=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factor_reconstructs_state(self, dim, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, dim)
        a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = a @ a.conj().T
        state = QuantumState(dim, rho / np.trace(rho).real)
        f = state.factor()
        assert f.shape == (dim, dim)
        np.testing.assert_allclose(f @ f.conj().T, state.rho, rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_factor_clips_roundoff_and_rejects_negative(self, dim, seed):
        u, _ = np.linalg.qr(
            np.random.default_rng(seed).standard_normal((dim, dim))
        )
        lam = np.full(dim, 1.0 / (dim - 1))
        for neg, clipped in ((-1e-12, True), (-1e-6, False)):
            lam[0] = neg
            state = QuantumState(dim, (u * lam) @ u.T)
            if clipped:
                f = state.factor()
                assert np.all(f[:, 0] == 0.0)  # the negative direction is dropped
                np.testing.assert_allclose(
                    f @ f.conj().T, state.rho, rtol=0, atol=1e-11
                )
            else:
                with pytest.raises(StateInvariantError, match="eigenvalue"):
                    state.factor()

    def test_diagonal_constructor(self):
        state = QuantumState.from_diagonal([0.25, 0.25, 0.5])
        assert state.dim == 3
        assert state.expect_number() == pytest.approx(1.25)
