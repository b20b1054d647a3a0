import numpy as np
import pytest

from entseq.gate_algebra import expm_hermitian, local_rotation, unembed
from entseq.sequence_engine import SequenceParams, target_gate
from entseq.weyl_geometry import (
    canonical_gate,
    cartan_decompose,
    cubic_roots,
    makhlin_invariants,
    makhlin_invariants_many,
    pe_distance_d,
    pe_fidelity,
    pe_fidelity_many,
    pe_functional_D,
    pe_functional_many,
    pe_functional_value_and_grad,
    su2_pauli_vector,
    w1_indicator_s,
    weyl_coordinates,
    weyl_coordinates_many,
)

from oracles import (
    CNOT,
    SQRT_SWAP,
    SWAP,
    canonical_gate_expm,
    invariants_det_form,
    invariants_from_weyl,
    pe_fidelity_three_faces,
    random_local,
    random_unitary,
)

COS2_PI_8 = np.cos(np.pi / 8) ** 2
B_GATE = canonical_gate(np.pi / 2, np.pi / 4, 0.0)

# invariants/coordinates frozen from the det-form oracle; g2(sqrt-SWAP) is
# -1/4 in this package's conventions (only g2**2 enters any derived quantity)
GATE_TABLE = [
    ("identity", np.eye(4, dtype=complex), (1, 0, 3), (0, 0, 0), 2.0, np.pi, 2.0, COS2_PI_8),
    ("cnot", CNOT, (0, 0, 1), (np.pi / 2, 0, 0), 0.0, 0.0, 0.0, 1.0),
    ("swap", SWAP, (-1, 0, -3), (np.pi / 2, np.pi / 2, np.pi / 2), -2.0, -np.pi, 2.0, COS2_PI_8),
    ("sqrt_swap", SQRT_SWAP, (0, -0.25, 0), (np.pi / 4, np.pi / 4, np.pi / 4), 0.0, 0.0, 0.0, 1.0),
    ("b_gate", B_GATE, (0, 0, 0), (np.pi / 2, np.pi / 4, 0), 0.0, 0.0, 0.0, 1.0),
]


@pytest.mark.parametrize("name,U,g,c,d,s,D,fpe", GATE_TABLE, ids=[r[0] for r in GATE_TABLE])
def test_named_gate_table(name, U, g, c, d, s, D, fpe):
    g_got = makhlin_invariants(U)
    assert np.allclose(g_got, g, atol=1e-9)
    assert np.allclose(g_got, invariants_det_form(U), atol=1e-9)
    assert np.allclose(weyl_coordinates(U), c, atol=1e-9)
    assert pe_distance_d(g_got) == pytest.approx(d, abs=1e-9)
    assert w1_indicator_s(g_got) == pytest.approx(s, abs=1e-9)
    assert pe_functional_D(U) == pytest.approx(D, abs=1e-9)
    assert pe_fidelity(U) == pytest.approx(fpe, abs=1e-9)


def test_cubic_root_factorizations():
    # identity: (z-1)^3; swap: (z+1)^3; cnot: (z-1)^2 (z+1)
    assert np.allclose(cubic_roots((1.0, 0.0, 3.0)), [1, 1, 1], atol=1e-7)
    assert np.allclose(cubic_roots((-1.0, 0.0, -3.0)), [-1, -1, -1], atol=1e-7)
    assert np.allclose(cubic_roots((0.0, 0.0, 1.0)), [1, 1, -1], atol=1e-8)


def test_cubic_roots_satisfy_polynomial():
    rng = np.random.default_rng(3)
    for _ in range(100):
        U = random_unitary(4, rng)
        g1, g2, g3 = makhlin_invariants(U)
        r = np.hypot(g1, g2)
        z = cubic_roots((g1, g2, g3))
        resid = z**3 - g3 * z**2 + (4 * r - 1) * z + (g3 - 4 * g1)
        assert np.abs(resid).max() < 1e-6


def test_canonical_gate_matches_expm():
    rng = np.random.default_rng(4)
    for _ in range(25):
        c = rng.uniform(0, np.pi / 2, 3)
        assert np.allclose(canonical_gate(*c), canonical_gate_expm(*c), atol=1e-12)


def test_weyl_coordinates_round_trip_canonical():
    rng = np.random.default_rng(5)
    for _ in range(200):
        c1 = rng.uniform(0, np.pi)
        c2 = rng.uniform(0, np.pi / 2)
        c3 = rng.uniform(0, np.pi / 2)
        if not (c2 <= min(c1, np.pi - c1) and c3 <= c2):
            continue
        got = weyl_coordinates(canonical_gate(c1, c2, c3))
        assert np.allclose(got, [c1, c2, c3], atol=1e-8)


def test_local_invariance():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        U = random_unitary(4, rng)
        dressed = random_local(rng) @ U @ random_local(rng)
        assert np.allclose(
            makhlin_invariants(dressed), makhlin_invariants(U), atol=1e-9
        )
    for _ in range(100):
        U = random_unitary(4, rng)
        dressed = random_local(rng) @ U @ random_local(rng)
        assert np.allclose(weyl_coordinates(dressed), weyl_coordinates(U), atol=1e-8)


def _reference_D(U):
    """D with the side picked by the cubic-root selector s."""
    g = makhlin_invariants_many(U)
    d = pe_distance_d(g)
    s = w1_indicator_s(g)
    return np.where((d > 0) & (s > 0), d, np.where((d < 0) & (s < 0), -d, 0.0))


def _dressed(c, rng):
    """Canonical gates A(c) between random local rotations."""
    A = np.stack([canonical_gate(*ci) for ci in c])
    k1, k2 = unembed(local_rotation(rng.uniform(-np.pi, np.pi, size=(2, len(c), 6))))
    return k1 @ A @ k2


def _near_face_gates(rng, n=5000):
    """Gates at log-uniform distances from the three faces of the PE
    polyhedron (both sides) and from I and SWAP, keyed by set name."""
    half_pi = 0.5 * np.pi
    u, v = rng.uniform(size=(2, n))
    a = half_pi * (0.5 + 0.5 * u)      # in [pi/4, pi/2]
    b = half_pi - a                     # in [0, pi/4]
    # points on each face inside the Weyl chamber, and the face normal
    faces = {
        "c1+c2": ((a, b, b * v), (1.0, 1.0, 0.0)),
        "c1-c2": ((half_pi + b, b, b * v), (1.0, -1.0, 0.0)),
        "c2+c3": ((a + (np.pi - 2 * a) * v, a, b), (0.0, 1.0, 1.0)),
    }
    sets = {}
    for name, (on_face, normal) in faces.items():
        on_face = np.stack(on_face, axis=-1)
        normal = np.asarray(normal) / np.linalg.norm(normal)
        for side in (1.0, -1.0):
            delta = 10.0 ** rng.uniform(-12, -3, size=(n, 1))
            sets[f"{name} {side:+.0f}"] = _dressed(on_face + side * delta * normal, rng)
    for name, corner in (("I", np.zeros(3)), ("SWAP", np.full(3, half_pi))):
        step = rng.normal(size=(n, 3))
        step *= 10.0 ** rng.uniform(-10, -1, size=(n, 1)) / np.linalg.norm(step, axis=1, keepdims=True)
        sets[name] = _dressed(corner + step, rng)
    return sets


def test_spin_flip_gram_matches_magic_basis_oracle():
    # the package reads the invariants and the Weyl point from the spin-flipped
    # Gram matrix in the computational basis; the oracle changes to the magic
    # basis and divides by the determinant, and the closed form starts from
    # the folded coordinates
    rng = np.random.default_rng(21)
    sets = {"haar": np.stack([random_unitary(4, rng) for _ in range(1000)]),
            **_near_face_gates(np.random.default_rng(12))}
    for name, U in sets.items():
        g = np.stack(makhlin_invariants_many(U))
        ref = np.array([invariants_det_form(u) for u in U]).T
        assert np.abs(g - ref).max() <= 1e-12, name
        closed = np.stack(invariants_from_weyl(*weyl_coordinates_many(U).T))
        assert np.abs(closed - np.stack([g[0], np.abs(g[1]), g[2]])).max() <= 1e-9, name


def test_pe_consistency_random_gates():
    # two-way implication: each indicator is an exact constant inside the
    # polyhedron, so the other side must match within tolerance there
    rng = np.random.default_rng(7)
    U = np.stack([random_unitary(4, rng) for _ in range(10_000)])
    D = pe_functional_many(U)
    F = pe_fidelity_many(U)
    assert D.min() >= 0.0
    assert np.array_equal(D, _reference_D(U))
    assert np.all(F[D == 0.0] >= 1.0 - 1e-9)
    assert np.all(D[F == 1.0] <= 1e-9)


def test_pe_functional_near_faces_matches_cubic_root_selector():
    # where the optimizer ends up, the closed-form side test and the
    # cubic-root selector may differ at rounding level only
    for name, U in _near_face_gates(np.random.default_rng(12)).items():
        D = pe_functional_many(U)
        assert D.min() >= 0.0, name
        assert np.abs(D - _reference_D(U)).max() <= 1e-10, name


def test_pe_fidelity_widest_gap_matches_three_face_formula():
    # the widest Gram gap and the folded coordinates give the same F_PE:
    # equal to rounding on Haar gates, bit for bit near the polyhedron faces,
    # and F == 1 on the same gates
    rng = np.random.default_rng(8)
    sets = {"haar": np.stack([random_unitary(4, rng) for _ in range(10_000)]),
            **_near_face_gates(np.random.default_rng(12))}
    for name, U in sets.items():
        F = pe_fidelity_many(U)
        ref = pe_fidelity_three_faces(weyl_coordinates_many(U))
        assert np.array_equal(F == 1.0, ref == 1.0), name
        # near I and SWAP the four eigenphases nearly coincide: the widest gap
        # is the wrap-around 2 pi + theta_0 - theta_3, which rounds apart from
        # the fold's c1 + c2 by up to 2.2e-16
        if name in ("haar", "I", "SWAP"):
            assert np.abs(F - ref).max() <= 2.3e-16, name
        else:
            assert np.array_equal(F, ref), name


def test_pe_functional_monotone_to_cnot():
    ts = np.linspace(0.0, 1.0, 100)
    gates = np.stack([canonical_gate(t * np.pi / 2, 0, 0) for t in ts])
    D = pe_functional_many(gates)
    assert np.all(np.diff(D) <= 1e-12)
    assert D[-1] == pytest.approx(0.0, abs=1e-12)
    assert D[0] == pytest.approx(2.0, abs=1e-12)


def test_cartan_decompose_canonical_and_cnot():
    k1, c, k2 = cartan_decompose(canonical_gate(0.3, 0.2, 0.1))
    assert np.allclose(c, [0.3, 0.2, 0.1], atol=1e-10)
    assert np.allclose(np.abs(k1), np.eye(4), atol=1e-8)
    assert np.allclose(np.abs(k2), np.eye(4), atol=1e-8)
    _, c_cnot, _ = cartan_decompose(CNOT)
    assert np.allclose(c_cnot, [np.pi / 2, 0, 0], atol=1e-10)


def _reconstruction_residual(U):
    from entseq.weyl_geometry import canonical_gate as A, to_su4

    k1, c, k2 = cartan_decompose(U)
    rec = k1 @ A(*c) @ k2
    Us = to_su4(U)
    tr = np.trace(rec.conj().T @ Us)
    return np.linalg.norm(rec * (tr / abs(tr)) - Us)


def test_cartan_decompose_haar_round_trip():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        worst = max(worst, _reconstruction_residual(random_unitary(4, rng)))
    assert worst < 1e-8


def test_cartan_decompose_near_degenerate():
    from scipy.linalg import expm

    rng = np.random.default_rng(9)
    for base in (np.eye(4, dtype=complex), SWAP):
        for _ in range(100):
            Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            H = (Z + Z.conj().T) / 2
            U = expm(1e-6j * H) @ base
            assert _reconstruction_residual(U) < 1e-8


def test_cartan_decompose_recovers_dressed_coordinates():
    rng = np.random.default_rng(10)
    count = 0
    while count < 100:
        c_in = np.array(
            [rng.uniform(0, np.pi), rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi / 2)]
        )
        if not (c_in[1] <= min(c_in[0], np.pi - c_in[0]) and c_in[2] <= c_in[1]):
            continue
        count += 1
        U = random_local(rng) @ canonical_gate(*c_in) @ random_local(rng)
        _, c_out, _ = cartan_decompose(U)
        assert np.allclose(c_out, c_in, atol=1e-8)


def test_weyl_fold_at_c3_zero_picks_one_point():
    # at c3 = 0, c1 and pi - c1 name one gate class, and an N = 2 sequence
    # always has c3 = 0: rounding noise in c3, of either sign, must not choose
    # between the two points
    rng = np.random.default_rng(14)
    n2 = target_gate(SequenceParams(2, rng.uniform(-np.pi, np.pi, 12)))
    for A in (canonical_gate(2.0, 0.6, 1e-17), canonical_gate(2.0, 0.6, -1e-17), n2):
        points = []
        for _ in range(20):
            U = random_local(rng) @ A @ random_local(rng)
            points += [weyl_coordinates(U), cartan_decompose(U)[1]]
            assert _reconstruction_residual(U) < 1e-8
        points = np.array(points)
        assert np.all(points[:, 0] <= np.pi / 2) and np.all(points[:, 2] == 0.0)
        assert np.abs(points - points[0]).max() <= 1e-9
        if A is not n2:
            assert np.allclose(points[0], [np.pi - 2.0, 0.6, 0.0], rtol=0, atol=1e-9)


def test_cartan_decompose_error_reports_residual():
    # a tolerance below the reconstruction residual refuses the decomposition
    U = random_unitary(4, np.random.default_rng(12))
    residual = _reconstruction_residual(U)
    assert residual > 0.0
    with pytest.raises(RuntimeError, match=f"residual {residual:.3e} above tolerance"):
        cartan_decompose(U, tol=residual / 2)


def test_su2_pauli_vector_of_identity_is_zero():
    assert np.array_equal(su2_pauli_vector(np.eye(2)), np.zeros(3))


def test_non_unitary_inputs_rejected():
    bad = np.eye(4) * 1.5
    for fn in (makhlin_invariants, weyl_coordinates, pe_functional_D, pe_fidelity, cartan_decompose):
        with pytest.raises(ValueError):
            fn(bad)


def test_batched_weyl_matches_scalar():
    rng = np.random.default_rng(11)
    U = np.stack([random_unitary(4, rng) for _ in range(32)])
    many = weyl_coordinates_many(U)
    for i in range(32):
        assert np.allclose(many[i], weyl_coordinates(U[i]), atol=1e-12)


def test_pe_functional_grad_matches_central_differences():
    # Haar gates hit both sides of the PE test; the derivative of D along
    # U -> exp(-i t H) U is Re tr(G (-i H U))
    rng = np.random.default_rng(13)
    U = np.stack([random_unitary(4, rng) for _ in range(300)])
    D, G = pe_functional_value_and_grad(U)
    assert np.array_equal(D, pe_functional_many(U))
    assert 0 < np.count_nonzero(D) < D.size
    assert np.array_equal(np.abs(G).max(axis=(-2, -1)) > 0, D > 0)
    h = 1e-6
    for _ in range(3):
        H = rng.normal(size=(300, 4, 4)) + 1j * rng.normal(size=(300, 4, 4))
        H = H + np.conj(np.swapaxes(H, -1, -2))
        fd = (pe_functional_many(expm_hermitian(H, h) @ U)
              - pe_functional_many(expm_hermitian(H, -h) @ U)) / (2 * h)
        exact = np.einsum("mij,mji->m", G, -1j * H @ U).real
        assert np.allclose(exact, fd, rtol=1e-6, atol=1e-8)


def test_pe_cotangent_is_zero_inside_and_rowwise_outside():
    # the cotangent is computed on the rows outside the polyhedron only: the
    # rows inside are zero, and each outside row is bit-equal whether it is
    # computed with the rest of the batch, among the outside rows alone or
    # under leading axes
    rng = np.random.default_rng(17)
    U = np.stack([random_unitary(4, rng) for _ in range(300)])
    D, G = pe_functional_value_and_grad(U)
    outside = D > 0
    assert 0 < outside.sum() < len(U)
    assert not G[~outside].any()
    D_out, G_out = pe_functional_value_and_grad(U[outside])
    assert np.array_equal(D_out, D[outside]) and np.array_equal(G_out, G[outside])
    i = np.flatnonzero(outside)[0]
    assert np.array_equal(pe_functional_value_and_grad(U[i:i + 1])[1][0], G[i])
    assert np.array_equal(pe_functional_value_and_grad(U.reshape(3, 100, 4, 4))[1],
                          G.reshape(3, 100, 4, 4))
