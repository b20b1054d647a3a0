import numpy as np
import pytest

from entseq.gate_algebra import local_rotation, random_local, random_unitary
from entseq.weyl_geometry import (
    CartanDecompositionError,
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
    w1_indicator_s,
    weyl_coordinates,
    weyl_coordinates_many,
)

from oracles import CNOT, SQRT_SWAP, SWAP, canonical_gate_expm, invariants_det_form

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
    k1, k2 = local_rotation(rng.uniform(-np.pi, np.pi, size=(2, len(c), 6)))
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


def test_cartan_decompose_error_reports_residual():
    err = CartanDecompositionError(0.5, 1e-8)
    assert err.residual == 0.5
    assert "0.5" in str(err) or "5.000e-01" in str(err)


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
