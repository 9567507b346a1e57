"""Quantum-core checks.

Verification strategy:
- numeric examples are recomputed with independent numpy oracles
  (eigvalsh, explicit matrix products, einsum partial traces);
- literature values (pentagon correlator sum, Werner spectra) are frozen
  as literals and checked at tight tolerance;
- structural invariants (context completeness, commutation patterns,
  tensor associativity, Haar unitarity) run over randomised inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from contextuality.quantum import (
    ID2,
    KCBS_NONCONTEXTUAL_BOUND,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_state,
    born_prob,
    dm,
    eigen_projector,
    expectation,
    is_hermitian,
    is_projector,
    kcbs_construction,
    kcbs_vectors,
    ket,
    matrix_from_json,
    matrix_to_json,
    max_entangled,
    peres_mermin_square,
    projective_context,
    pvm_from_observable,
    random_density,
    singlet,
    sup_norm,
    tensor,
    validate_density,
    werner_state,
)
from oracles import is_unitary, partial_trace, random_unitary

RNG = np.random.default_rng(20240817)


class TestPredicates:
    def test_paulis_are_hermitian_unitary_not_projectors(self):
        for s in (PAULI_X, PAULI_Y, PAULI_Z):
            assert is_hermitian(s)
            assert is_unitary(s)
            assert not is_projector(s)

    def test_rank_one_projector(self):
        v = np.array([1, 1j]) / np.sqrt(2)
        p = np.outer(v, v.conj())
        assert is_projector(p)
        assert not is_unitary(p)

    def test_nonsquare_rejected_by_all(self):
        m = np.ones((2, 3))
        assert not is_hermitian(m)
        assert not is_unitary(m)
        assert not is_projector(m)


class TestBornRule:
    def test_matches_trace_oracle(self):
        rho = random_density(4, RNG)
        e = np.diag([1.0, 0.5, 0.25, 0.0]).astype(complex)
        expected = float(np.trace(rho @ e).real)
        assert abs(born_prob(rho, e) - expected) < 1e-12

    def test_clamps_tiny_negative(self):
        rho = dm([1, 0])
        p = np.outer([0, 1], [0, 1]).astype(complex)
        assert born_prob(rho, p) == 0.0

    def test_rejects_non_hermitian_effect(self):
        with pytest.raises(ValueError, match="effect is not Hermitian"):
            born_prob(dm([1, 0]), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_spectrum_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"outside \[0,1\]"):
            born_prob(dm([1, 0]), 2 * np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"state \(2, 2\) vs effect \(3, 3\)"):
            born_prob(dm([1, 0]), np.eye(3))

    def test_expectation_allows_negative_spectrum(self):
        assert abs(expectation(dm([0, 1]), PAULI_Z) + 1.0) < 1e-12


class TestDensityValidation:
    def test_accepts_random_density(self):
        validate_density(random_density(3, RNG))

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace must be 1"):
            validate_density(2 * dm([1, 0]))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(m)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="dimension 32 exceeds the supported 16"):
            validate_density(np.eye(32) / 32)


class TestPartialTrace:
    def test_product_state_factors(self):
        a = random_density(2, RNG)
        b = random_density(3, RNG)
        rho = tensor(a, b)
        np.testing.assert_allclose(partial_trace(rho, (2, 3), 0), a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, (2, 3), 1), b, atol=1e-12)

    def test_singlet_reduces_to_maximally_mixed(self):
        for keep in (0, 1):
            np.testing.assert_allclose(
                partial_trace(singlet(), (2, 2), keep), ID2.real / 2, atol=1e-12)

    def test_shape_guard(self):
        with pytest.raises(ValueError, match="does not match dims"):
            partial_trace(np.eye(4) / 4, (2, 3), 0)


class TestTensor:
    def test_associativity(self):
        a, b, c = (RNG.normal(size=(2, 2)) for _ in range(3))
        np.testing.assert_allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)),
                                   atol=1e-15)

    def test_dimensions(self):
        assert tensor(np.eye(2), np.eye(3)).shape == (6, 6)


class TestProjectiveContext:
    def test_z_basis_context(self):
        ctx = projective_context("Z", [np.diag([1.0, 0]), np.diag([0, 1.0])], (+1, -1))
        assert ctx.outcomes == (1, -1)
        assert len(ctx.projectors) == 2

    def test_rejects_non_orthogonal(self):
        v = np.array([1, 1]) / np.sqrt(2)
        p = np.outer(v, v)
        with pytest.raises(ValueError, match="not orthogonal"):
            projective_context("bad", [np.diag([1.0, 0]), p])

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="do not resolve the identity"):
            projective_context("bad", [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])])

    def test_born_probabilities_sum_to_one(self):
        ctx = pvm_from_observable(PAULI_X, "X")
        rho = random_density(2, RNG)
        total = sum(born_prob(rho, p) for p in ctx.projectors)
        assert abs(total - 1.0) < 1e-10


class TestPvmFromObservable:
    def test_pauli_z_eigenprojectors(self):
        ctx = pvm_from_observable(PAULI_Z, "Z")
        assert ctx.outcomes == (-1, 1)
        np.testing.assert_allclose(ctx.projectors[0], np.diag([0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(ctx.projectors[1], np.diag([1.0, 0]), atol=1e-12)

    def test_degenerate_spectrum_groups(self):
        obs = tensor(PAULI_Z, ID2)
        ctx = pvm_from_observable(obs, "Z1")
        assert ctx.outcomes == (-1, 1)
        for p, val in zip(ctx.projectors, ctx.outcomes):
            np.testing.assert_allclose(obs @ p, val * p, atol=1e-12)

    def test_reconstructs_observable(self):
        obs = RNG.normal(size=(4, 4))
        obs = obs + obs.T
        ctx = pvm_from_observable(obs, "rand")
        rebuilt = sum(val * p for val, p in zip(ctx.outcomes, ctx.projectors))
        np.testing.assert_allclose(rebuilt, obs, atol=1e-8)


class TestPentagon:
    def test_vectors_unit_and_cyclically_orthogonal(self):
        vs = kcbs_vectors()
        for v in vs:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        for j in range(5):
            assert abs(np.vdot(vs[j], vs[(j + 1) % 5])) < 1e-10

    def test_correlator_sum_frozen_value(self):
        _, _, total = kcbs_construction()
        assert abs(total - (5 - 4 * np.sqrt(5))) < 1e-9
        assert abs(total - (-3.944271909999159)) < 1e-9
        assert total < KCBS_NONCONTEXTUAL_BOUND

    def test_each_term_equals_closed_form(self):
        psi, obs, _ = kcbs_construction()
        rho = psi @ psi.conj().T
        term = 1 - 4 / np.sqrt(5)
        for j in range(5):
            assert abs(expectation(rho, obs[j] @ obs[(j + 1) % 5]) - term) < 1e-9

    def test_commutation_pattern(self):
        _, obs, _ = kcbs_construction()
        for j in range(5):
            adj = obs[j] @ obs[(j + 1) % 5] - obs[(j + 1) % 5] @ obs[j]
            assert sup_norm(adj) <= 1e-10
            skip = obs[j] @ obs[(j + 2) % 5] - obs[(j + 2) % 5] @ obs[j]
            assert sup_norm(skip) >= 0.1

    def test_observables_are_dichotomic(self):
        _, obs, _ = kcbs_construction()
        for a in obs:
            assert is_hermitian(a, 1e-12)
            np.testing.assert_allclose(a @ a, np.eye(3), atol=1e-12)


class TestMagicSquare:
    def test_row_and_column_products(self):
        grid = peres_mermin_square()
        eye = np.eye(4)
        for r in range(3):
            prod = grid[r][0] @ grid[r][1] @ grid[r][2]
            np.testing.assert_allclose(prod, eye, atol=1e-12)
        for c in range(2):
            prod = grid[0][c] @ grid[1][c] @ grid[2][c]
            np.testing.assert_allclose(prod, eye, atol=1e-12)
        prod = grid[0][2] @ grid[1][2] @ grid[2][2]
        np.testing.assert_allclose(prod, -eye, atol=1e-12)

    def test_rows_and_columns_commute_internally(self):
        grid = peres_mermin_square()
        for line in list(grid) + [[grid[r][c] for r in range(3)] for c in range(3)]:
            for i in range(3):
                for j in range(i + 1, 3):
                    assert sup_norm(line[i] @ line[j] - line[j] @ line[i]) <= 1e-12

    def test_entries_are_dichotomic(self):
        for row in peres_mermin_square():
            for a in row:
                assert is_hermitian(a)
                np.testing.assert_allclose(a @ a, np.eye(4), atol=1e-12)


class TestWerner:
    def test_eigenvalues_at_alpha_04(self):
        eigs = sorted(np.linalg.eigvalsh(werner_state(0.4)))
        np.testing.assert_allclose(eigs, [0.15, 0.15, 0.15, 0.55], atol=1e-12)

    def test_twirl_invariance(self):
        w = werner_state(0.7)
        for _ in range(20):
            u = random_unitary(2, RNG)
            uu = tensor(u, u)
            assert sup_norm(uu @ w @ uu.conj().T - w) <= 1e-10

    def test_reduced_states_maximally_mixed(self):
        w = werner_state(0.9)
        for keep in (0, 1):
            np.testing.assert_allclose(partial_trace(w, (2, 2), keep), ID2 / 2, atol=1e-12)

    @pytest.mark.parametrize("alpha", [-0.34, 1.0001, 2.0])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            werner_state(alpha)

    def test_is_valid_density_across_range(self):
        for alpha in (-1 / 3, 0.0, 0.5, 1.0):
            validate_density(werner_state(alpha))


class TestMaxEntangled:
    def test_norm_and_schmidt(self):
        for d in (2, 3):
            psi = max_entangled(d)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
            rho = psi @ psi.conj().T
            np.testing.assert_allclose(partial_trace(rho, (d, d), 0),
                                       np.eye(d) / d, atol=1e-12)

    def test_transpose_trick(self):
        # <Psi| A (x) B |Psi> = Tr(A B^T) / d for the uniform entangled vector.
        d = 3
        psi = max_entangled(d)
        a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        b = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        lhs = (psi.conj().T @ tensor(a, b) @ psi)[0, 0]
        assert abs(lhs - np.trace(a @ b.T) / d) < 1e-10


class TestEigenProjector:
    def test_projects_on_named_eigenspace(self):
        p = eigen_projector(tensor(PAULI_Z, ID2), +1)
        np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0, 0]), atol=1e-12)

    def test_unknown_eigenvalue(self):
        with pytest.raises(ValueError, match="is not in the spectrum"):
            eigen_projector(PAULI_Z, 0.5)


class TestBlochState:
    def test_pure_on_sphere_surface(self):
        rho = bloch_state(np.array([0, 0, 1.0]))
        np.testing.assert_allclose(rho, np.diag([1.0, 0]), atol=1e-12)

    def test_mixed_inside(self):
        rho = bloch_state(np.array([0.3, 0, 0]))
        validate_density(rho)
        assert np.linalg.eigvalsh(rho).min() > 0

    def test_rejects_long_vector(self):
        with pytest.raises(ValueError, match="Bloch vector must be a 3-vector"):
            bloch_state(np.array([1.0, 1.0, 0]))


class TestMatrixJson:
    def test_round_trip(self):
        m = RNG.normal(size=(3, 2)) + 1j * RNG.normal(size=(3, 2))
        np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m, atol=0)

    def test_im_defaults_to_zero(self):
        d = {"rows": 2, "cols": 2, "re": [1, 0, 0, 1]}
        np.testing.assert_array_equal(matrix_from_json(d), np.eye(2))


class TestRandomHelpers:
    def test_random_unitary_is_unitary(self):
        for dim in (2, 3, 4):
            assert is_unitary(random_unitary(dim, RNG), 1e-10)

    def test_random_density_is_density(self):
        validate_density(random_density(4, RNG))

    def test_ket_and_dm(self):
        rho = dm([3, 4])
        assert abs(np.trace(rho).real - 1) < 1e-12
        assert abs(rho[0, 0].real - 9 / 25) < 1e-12
        assert ket([1, 0]).shape == (2, 1)
