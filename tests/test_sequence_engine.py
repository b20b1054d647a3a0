import numpy as np
import pytest
from dataclasses import replace

from entseq.gate_algebra import is_unitary, pauli_product, trace_fidelity, unembed
from entseq.noise_model import (
    ALL_CHANNELS,
    Ensemble,
    NoiseConfig,
    ONE_OVER_F,
    QUASISTATIC,
    make_ensemble,
)
from entseq.sequence_engine import (
    SequenceParams,
    ensemble_gates,
    ensemble_gates_vjp,
    ensemble_slices,
    evaluate_solution,
    gate_error,
    target_gate,
    uncorrected_errors,
    zz_phase_slice,
)

from oracles import chain_angle_gradient, random_unitary, sequence_gate_expm

QS = NoiseConfig(seed=5)


def zero_params(N):
    return SequenceParams(N, np.zeros(6 * N))


def single_channel_realization(N, x):
    """A one-member record: delta_33 = x on the (Z, Z) channel only, constant
    across segments."""
    return Ensemble(np.full((1, N, 1), x), np.zeros((1, N, 6)), ((3, 3),))


def test_params_validation():
    with pytest.raises(ValueError):
        SequenceParams(2, np.zeros(10))
    with pytest.raises(ValueError):
        SequenceParams(0, np.zeros(0))
    with pytest.raises(ValueError):
        SequenceParams(1, np.full(6, np.nan))
    # N is an integer: not a bool, not a float
    for N in (True, 1.0):
        with pytest.raises(ValueError, match="integer"):
            SequenceParams(N, np.zeros(6))


def test_params_tiling():
    p = SequenceParams(2, np.arange(12.0))
    t = p.tiled(2)
    assert t.N == 4
    assert np.array_equal(t.angles[:12], p.angles)
    assert np.array_equal(t.angles[12:], p.angles)


def test_slice_is_nth_root_of_identity():
    for N in (1, 2, 3, 8):
        Z = zz_phase_slice(N)
        assert is_unitary(Z)
        ZN = np.linalg.matrix_power(Z, N)
        assert np.allclose(ZN, np.eye(4), atol=1e-12)


def test_target_identity_slicing():
    # with identity rotations the slices telescope back to the identity
    for N in (1, 2, 5, 16):
        O = target_gate(zero_params(N))
        assert np.allclose(O, np.eye(4), atol=1e-12)


def test_evolve_zero_noise_equals_target():
    rng = np.random.default_rng(1)
    for N in (1, 3, 6):
        params = SequenceParams(N, rng.uniform(-np.pi, np.pi, 6 * N))
        U, _ = ensemble_gates(params.angles, *ensemble_slices(single_channel_realization(N, 0.0)))
        assert np.allclose(U[0], target_gate(params), atol=1e-12)


def test_evolve_single_zz_channel_n1():
    x = 0.37
    U = ensemble_gates(zero_params(1).angles,
                       *ensemble_slices(single_channel_realization(1, x)))[0][0]
    # Z_1 = identity slice, so U = exp(-i x ZZ): diagonal phases -+x
    expected = np.diag(np.exp(-1j * x * np.array([1.0, -1.0, -1.0, 1.0])))
    assert np.allclose(U, expected, atol=1e-12)
    eps = gate_error(U, target_gate(zero_params(1)))
    assert eps == pytest.approx(np.sin(x) ** 2, abs=1e-12)


def test_sin_squared_law_all_N():
    # commuting ZZ slices recombine: eps = sin^2(x) independent of N
    x = 0.21
    for N in (1, 2, 4, 7, 16):
        U = ensemble_gates(zero_params(N).angles,
                           *ensemble_slices(single_channel_realization(N, x)))[0][0]
        eps = gate_error(U, target_gate(zero_params(N)))
        assert eps == pytest.approx(np.sin(x) ** 2, abs=1e-11)


def test_evolve_is_unitary():
    rng = np.random.default_rng(2)
    cfg = replace(QS, sigma_local=0.02)
    for N in (2, 5):
        params = SequenceParams(N, rng.uniform(-np.pi, np.pi, 6 * N))
        U = ensemble_gates(params.angles, *ensemble_slices(make_ensemble(cfg, N, 4)))[0]
        assert all(is_unitary(Um) for Um in U)


def test_evolve_rejects_segment_mismatch():
    # 6 * 2 angles for a layout of 3 segments
    with pytest.raises(ValueError):
        ensemble_gates(zero_params(2).angles, *ensemble_slices(make_ensemble(QS, 3, 1)))


@pytest.mark.parametrize("kind", [QUASISTATIC, ONE_OVER_F])
def test_kernel_matches_independent_product(kind):
    # U against a per-segment product of scipy expm slices and kron'd ZYZ
    # factors; O is the kernel's noise-free member, equal to target_gate
    cfg = NoiseConfig(kind=kind, sigma_nonlocal=0.2, sigma_local=0.02,
                      channels=ALL_CHANNELS, seed=11)
    rng = np.random.default_rng(12)
    for N in (1, 2, 5):
        params = SequenceParams(N, rng.uniform(-np.pi, np.pi, 6 * N))
        ensemble = make_ensemble(cfg, N, 6)
        U, O = ensemble_gates(params.angles, *ensemble_slices(ensemble))
        for Um, r in zip(U, ensemble):
            ref = sequence_gate_expm(params.angles, r.delta, r.channels, r.delta_eta)
            assert np.abs(Um - ref).max() <= 1e-12
        assert np.array_equal(O, target_gate(params))


@pytest.mark.parametrize("kind", [QUASISTATIC, ONE_OVER_F])
def test_vjp_matches_central_differences(kind):
    # the pullback against central differences of
    # sum_m Re tr(G_U[m] U_m) + Re tr(G_O O); with G_U = 0 only the target's
    # term is left, which the gradient of J cannot separate.  N = 1 is the
    # one-product chain P = [U], N = 2 the shortest with more than one
    cfg = NoiseConfig(kind=kind, sigma_nonlocal=0.2, sigma_local=0.02,
                      channels=ALL_CHANNELS, seed=13)
    M = 5
    rng = np.random.default_rng(14)
    for N in (1, 2, 3):
        x = rng.uniform(-np.pi, np.pi, 6 * N)
        layout = ensemble_slices(make_ensemble(cfg, N, M))
        U, O, pullback = ensemble_gates_vjp(x, *layout)
        U_ref, O_ref = ensemble_gates(x, *layout)
        assert np.array_equal(U, U_ref) and np.array_equal(O, O_ref)
        G_O = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        G_U = rng.normal(size=(M, 4, 4)) + 1j * rng.normal(size=(M, 4, 4))
        for G_U in (G_U, np.zeros_like(G_U)):
            def f(y):
                U, O = ensemble_gates(y, *layout)
                return np.einsum("mij,mji->", G_U, U).real + np.einsum("ij,ji->", G_O, O).real

            h = 1e-6
            fd = np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(6 * N)])
            assert np.abs(pullback(G_U, G_O) - fd).max() <= 1e-7 * np.abs(fd).max(), N


@pytest.mark.parametrize("kind", [QUASISTATIC, ONE_OVER_F])
@pytest.mark.parametrize("sigma_local", [0.0, 0.02])
@pytest.mark.parametrize("N", [1, 2, 5, 16])
def test_vjp_matches_partial_trace_reference(kind, sigma_local, N):
    # the angle-weighted Pauli traces against the partial traces of the Euler
    # factors' derivatives over stored prefix and suffix products
    cfg = NoiseConfig(kind=kind, sigma_nonlocal=0.2, sigma_local=sigma_local,
                      channels=ALL_CHANNELS, seed=15)
    M = 7
    rng = np.random.default_rng(16)
    x = rng.uniform(-np.pi, np.pi, 6 * N)
    factors, delta_eta = ensemble_slices(make_ensemble(cfg, N, M))
    pullback = ensemble_gates_vjp(x, factors, delta_eta)[2]
    G = rng.normal(size=(M + 1, 4, 4)) + 1j * rng.normal(size=(M + 1, 4, 4))
    ref = chain_angle_gradient(x, unembed(factors), delta_eta, G)
    assert np.abs(pullback(G[:-1], G[-1]) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("kind", [QUASISTATIC, ONE_OVER_F])
def test_layout_without_angle_noise_has_one_row(kind):
    # with sigma_local = 0 the layout keeps one zero delta_eta row, which the
    # kernel broadcasts; spelled out as M + 1 zero rows it gives the same
    # gates and pullback
    M, N = 6, 3
    cfg = NoiseConfig(kind=kind, sigma_nonlocal=0.2, channels=ALL_CHANNELS, seed=17)
    assert ensemble_slices(make_ensemble(replace(cfg, sigma_local=0.02), N, M))[1].shape \
        == (M + 1, N, 6)
    factors, delta_eta = ensemble_slices(make_ensemble(cfg, N, M))
    assert factors.shape == (M + 1, N, 8, 8) and delta_eta.shape == (1, N, 6)
    assert not delta_eta.any()
    rng = np.random.default_rng(18)
    x = rng.uniform(-np.pi, np.pi, 6 * N)
    G = rng.normal(size=(M + 1, 4, 4)) + 1j * rng.normal(size=(M + 1, 4, 4))
    U, O, pullback = ensemble_gates_vjp(x, factors, delta_eta)
    U_rows, O_rows, pullback_rows = ensemble_gates_vjp(x, factors, np.zeros((M + 1, N, 6)))
    for a, b in ((U, U_rows), (O, O_rows), (pullback(G[:-1], G[-1]), pullback_rows(G[:-1], G[-1]))):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


def test_ensemble_slices_of_concatenated_records():
    # the layout reads the coefficients, not the noise kind: two records of
    # either kind, concatenated as the contour concatenates its grid points,
    # lay out as each does alone
    def rows(layout):
        # the complex factors, and a one-row delta_eta spelled out per member
        return unembed(layout[0]), np.broadcast_to(layout[1], layout[0].shape[:2] + (6,))

    a = make_ensemble(QS, 2, 2)
    b = make_ensemble(replace(QS, kind=ONE_OVER_F), 2, 1)
    factors, delta_eta = rows(ensemble_slices(Ensemble(np.concatenate([a.delta, b.delta]),
                                                       np.concatenate([a.delta_eta, b.delta_eta]),
                                                       QS.channels)))
    for lo, hi, part in ((0, 2, a), (2, 3, b)):
        alone = rows(ensemble_slices(part))
        assert np.allclose(factors[lo:hi], alone[0][:-1], rtol=0, atol=1e-14)
        assert np.array_equal(delta_eta[lo:hi], alone[1][:-1])


def test_gate_error_trivials():
    rng = np.random.default_rng(3)
    U = random_unitary(4, rng)
    assert gate_error(U, U) == pytest.approx(0.0, abs=1e-12)
    assert gate_error(np.eye(4), pauli_product((3, 0))) == pytest.approx(1.0)


def test_error_quadratic_onset():
    # trace fidelity error should scale as sigma^2 for small amplitudes
    epss = []
    for sigma in (0.01, 0.02):
        cfg = replace(QS, sigma_nonlocal=sigma, seed=77)
        epss.append(np.mean(uncorrected_errors(make_ensemble(cfg, 4, 400))))
    ratio = epss[1] / epss[0]
    assert 3.6 <= ratio <= 4.4


def test_evaluate_solution_zero_noise():
    cfg = replace(QS, sigma_nonlocal=0.0, sigma_local=0.0)
    params = SequenceParams(2, np.random.default_rng(4).uniform(-1, 1, 12))
    metrics = evaluate_solution(params, make_ensemble(cfg, 2, 5))
    assert metrics.epsilon == pytest.approx(0.0, abs=1e-12)
    assert len(metrics.per_realization) == 5


def test_evaluate_solution_mean_consistency_and_permutation():
    cfg = replace(QS, sigma_local=0.01)
    params = SequenceParams(3, np.random.default_rng(5).uniform(-2, 2, 18))
    ensemble = make_ensemble(cfg, 3, 64)
    m1 = evaluate_solution(params, ensemble)
    per = np.array(m1.per_realization)
    assert m1.epsilon == pytest.approx(per[:, 0].mean(), abs=1e-15)
    rng = np.random.default_rng(6)
    order = rng.permutation(64)
    m2 = evaluate_solution(params, replace(ensemble, delta=ensemble.delta[order],
                                           delta_eta=ensemble.delta_eta[order]))
    assert abs(m1.epsilon - m2.epsilon) <= 1e-15 * 64
    assert abs(m1.epsilon_pe - m2.epsilon_pe) <= 1e-15 * 64


def test_uncorrected_error_level():
    # default two-local channel set at sigma = 0.13: about 8% uncorrected
    eps = np.mean(uncorrected_errors(make_ensemble(replace(QS, seed=9), 4, 500)))
    assert 0.06 <= eps <= 0.10
