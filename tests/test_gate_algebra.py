import numpy as np
import pytest

from entseq.gate_algebra import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    embed,
    expm_hermitian,
    is_unitary,
    local_rotation,
    pauli_product,
    trace_fidelity,
    unembed,
)

from oracles import local_rotation_grad, random_local, random_unitary


def test_pauli_product_identity():
    assert np.array_equal(pauli_product((0, 0)), np.eye(4))


def test_pauli_product_zz():
    assert np.allclose(pauli_product((3, 3)), np.diag([1, -1, -1, 1]))


def test_pauli_product_xy():
    expected = np.kron(SIGMA_X, SIGMA_Y)
    assert np.allclose(pauli_product((1, 2)), expected)
    # antidiagonal block structure with entries -i, i
    assert np.allclose(np.abs(expected[0]), [0, 0, 0, 1])


def test_pauli_product_hermitian_involution():
    for pair in [(0, 1), (2, 3), (1, 1), (3, 0)]:
        P = pauli_product(pair)
        assert np.allclose(P, P.conj().T)
        assert np.allclose(P @ P, np.eye(4))


def test_pauli_product_rejects_bad_index():
    with pytest.raises(ValueError):
        pauli_product((4, 0))


def test_expm_zero_generator():
    assert np.allclose(expm_hermitian(np.zeros((4, 4)), 3.7), np.eye(4))


def test_expm_zz_pi_is_minus_identity():
    U = expm_hermitian(pauli_product((3, 3)), np.pi)
    assert np.allclose(U, -np.eye(4), atol=1e-13)


def test_expm_x_half_pi():
    X1 = pauli_product((1, 0))
    U = expm_hermitian(X1, np.pi / 2)
    assert np.allclose(U, -1j * X1, atol=1e-13)


def test_expm_rejects_non_hermitian():
    H = np.zeros((4, 4), dtype=complex)
    H[0, 1] = 1.0
    with pytest.raises(ValueError):
        expm_hermitian(H, 1.0)


def test_expm_group_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = (Z + Z.conj().T) / 2
        a, b = rng.normal(size=2)
        left = expm_hermitian(H, a) @ expm_hermitian(H, b)
        assert np.allclose(left, expm_hermitian(H, a + b), atol=1e-10)


def test_embed_is_a_ring_homomorphism():
    # the kernel's real form: products and adjoints carry over, and the
    # complex matrices come back exactly
    rng = np.random.default_rng(13)
    A, B = rng.normal(size=(2, 7, 3, 4, 4)) + 1j * rng.normal(size=(2, 7, 3, 4, 4))
    assert embed(A).shape == (7, 3, 8, 8) and embed(A).dtype == float
    assert np.abs(embed(A @ B) - embed(A) @ embed(B)).max() <= 1e-14 * np.abs(A @ B).max()
    assert np.array_equal(embed(np.swapaxes(A.conj(), -1, -2)), np.swapaxes(embed(A), -1, -2))
    assert np.array_equal(unembed(embed(A)), A)
    assert np.array_equal(unembed(embed(A[0, 0])), A[0, 0])


def test_local_rotation_trivials():
    assert np.allclose(unembed(local_rotation(np.zeros(6))), np.eye(4))
    gamma1_pi = unembed(local_rotation([np.pi, 0, 0, 0, 0, 0]))
    assert np.allclose(gamma1_pi, np.kron(1j * SIGMA_Z, np.eye(2)), atol=1e-13)
    beta2_pi = unembed(local_rotation([0, 0, 0, 0, np.pi, 0]))
    assert np.allclose(beta2_pi, np.kron(np.eye(2), 1j * SIGMA_Y), atol=1e-13)


def test_local_rotation_rejects_other_angle_counts():
    with pytest.raises(ValueError, match="6 Euler angles"):
        local_rotation(np.zeros((2, 5)))


def test_local_rotation_tensor_structure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ang = rng.uniform(-10, 10, 6)
        R = unembed(local_rotation(ang))
        assert is_unitary(R)
        u1 = unembed(local_rotation(np.r_[ang[:3], 0, 0, 0]))[[0, 2]][:, [0, 2]]
        u2 = unembed(local_rotation(np.r_[0, 0, 0, ang[3:]]))[:2, :2]
        assert np.allclose(R, np.kron(u1, u2), atol=1e-12)


def test_local_rotation_matches_exponentials():
    from scipy.linalg import expm

    rng = np.random.default_rng(6)
    for _ in range(10):
        g1, b1, a1, g2, b2, a2 = rng.uniform(-12, 12, 6)
        u1 = expm(0.5j * g1 * SIGMA_Z) @ expm(0.5j * b1 * SIGMA_Y) @ expm(0.5j * a1 * SIGMA_Z)
        u2 = expm(0.5j * g2 * SIGMA_Z) @ expm(0.5j * b2 * SIGMA_Y) @ expm(0.5j * a2 * SIGMA_Z)
        R = unembed(local_rotation([g1, b1, a1, g2, b2, a2]))
        assert np.allclose(R, np.kron(u1, u2), atol=1e-12)


def test_trace_fidelity_trivials():
    rng = np.random.default_rng(7)
    U = random_unitary(4, rng)
    assert trace_fidelity(U, U) == pytest.approx(1.0, abs=1e-12)
    assert trace_fidelity(np.eye(4), pauli_product((3, 0))) == pytest.approx(0.0, abs=1e-14)
    phase = np.exp(0.73j)
    assert trace_fidelity(np.eye(4), phase * np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_trace_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(8)
    U = np.stack([random_unitary(4, rng) for _ in range(10_000)])
    O = np.stack([random_unitary(4, rng) for _ in range(10_000)])
    f_uo = trace_fidelity(U, O)
    f_ou = trace_fidelity(O, U)
    assert np.allclose(f_uo, f_ou, atol=1e-12)
    assert f_uo.min() >= 0.0 and f_uo.max() <= 1.0


def test_random_local_is_su2_tensor():
    rng = np.random.default_rng(9)
    k = random_local(rng)
    assert is_unitary(k)
    assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-10)


def test_local_rotation_grad_matches_central_differences():
    rng = np.random.default_rng(12)
    angles = rng.uniform(-4 * np.pi, 4 * np.pi, (3, 5, 6))
    W = rng.normal(size=(3, 5, 4, 4)) + 1j * rng.normal(size=(3, 5, 4, 4))
    g = local_rotation_grad(angles, W)
    assert g.shape == (3, 5, 6)
    h = 1e-6
    for s in range(6):
        step = np.zeros(6)
        step[s] = h
        dR = unembed(local_rotation(angles + step) - local_rotation(angles - step)) / (2 * h)
        fd = np.einsum("...ij,...ji->...", W, dR).real
        assert np.allclose(g[..., s], fd, rtol=1e-7, atol=1e-8)
