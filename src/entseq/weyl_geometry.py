"""Two-qubit gate geometry: local invariants, Weyl-chamber coordinates,
perfect-entangler measures, and the Cartan (KAK) decomposition.

Magic (Bell) basis convention, fixed for the whole package: columns of ``MAGIC``
are ``(|00>+|11>, -i|00>+i|11>, |01>-|10>, -i|01>-i|10>) / sqrt(2)``.  The local
invariants do not depend on this choice but the Cartan factors k1, k2 do.

The canonical nonlocal gate is ``A(c) = exp[-i/2 (c1 XX + c2 YY + c3 ZZ)]``
and Weyl coordinates are reported in radians, folded into the canonical cell
``c2 <= min(c1, pi - c1)``, ``0 <= c3 <= c2``, ``c1 in [0, pi]``.  The
perfect-entangler fidelity needs no fold: it reads the Gram spectrum's widest gap.

Note on ``g2``: its sign flips under complex conjugation of the gate and
differs between published tables depending on which square root / transpose
convention is used.  Every quantity derived here (``d``, the ``s`` cubic, the
perfect-entangler measures) depends only on ``g2**2``.
"""

import numpy as np

from .gate_algebra import embed, is_unitary, unembed

MAGIC = np.array(
    [
        [1, -1j, 0, 0],
        [0, 0, 1, -1j],
        [0, 0, -1, -1j],
        [1, 1j, 0, 0],
    ],
    dtype=complex,
) / np.sqrt(2)
_MAGIC_DAG = MAGIC.conj().T


def _unitary(U, name):
    """``U`` as a complex array; a ValueError naming ``name`` unless it is unitary."""
    U = np.asarray(U, dtype=complex)
    if not is_unitary(U, 1e-9):
        raise ValueError(f"{name} requires a unitary input")
    return U


def to_su4(U):
    """Divide by the principal fourth root of the determinant."""
    U = np.asarray(U, dtype=complex)
    det = np.linalg.det(U)
    return U / det[..., None, None] ** 0.25 if U.ndim > 2 else U / det ** 0.25


# the basis change and the transpose in the real form of gate_algebra.embed:
# embed(V^T) is embed(V)^T with its off-diagonal blocks negated
_MAGIC_DAG_REAL = embed(_MAGIC_DAG)
_MAGIC_REAL = embed(MAGIC)
_TRANSPOSE_SIGNS = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((4, 4)))


def _magic_gram(U):
    """The SU(4)-normalized gate in the magic basis and its Gram matrix.

    Returns ``(V, m, c)``: ``c = det(U)^(1/4)`` (principal root, shape
    ``(..., 1, 1)``), ``V = MAGIC^dag (U / c) MAGIC`` and ``m = V^T V``, both
    multiplied out in real form.
    """
    U = np.asarray(U, dtype=complex)
    c = np.sqrt(np.sqrt(np.linalg.det(U)))[..., None, None]
    V = _MAGIC_DAG_REAL @ embed(U / c) @ _MAGIC_REAL
    m = (np.swapaxes(V, -1, -2) * _TRANSPOSE_SIGNS) @ V
    return unembed(V), unembed(m), c


def _gram_invariants(m):
    """(g1, g2, g3) of a magic-basis Gram matrix, with ``tr m`` and ``tr m^2``."""
    tr = np.einsum("...ii->...", m)
    tr_m2 = np.einsum("...ij,...ji->...", m, m)
    tr2 = tr * tr
    g12 = tr2 / 16.0
    g3 = (tr2 - tr_m2) / 4.0
    return (g12.real, g12.imag, g3.real), tr, tr_m2


def makhlin_invariants_many(U):
    """(g1, g2, g3) arrays for a batch of unitaries, shape ``(..., 4, 4)``."""
    return _gram_invariants(_magic_gram(U)[1])[0]


def makhlin_invariants(U):
    """Makhlin local invariants (g1, g2, g3) of a single two-qubit unitary."""
    U = _unitary(U, "makhlin_invariants")
    g1, g2, g3 = makhlin_invariants_many(U[None])
    return float(g1[0]), float(g2[0]), float(g3[0])


def weyl_coordinates_many(U):
    """Weyl-chamber coordinates, batched; returns shape ``(..., 3)`` in radians.

    Eigenphases of the magic-basis Gram matrix, phase-sorted and folded into
    the canonical cell.  The fold keeps the total phase constraint
    (sum of eigenphases = 0 mod 2*pi) intact, so degenerate eigenvalues are
    harmless: only the sorted phase multiset enters.
    """
    ev = np.linalg.eigvals(_magic_gram(U)[1])
    # A(c) has magic-basis Gram eigenphases -(c1-c2+c3), -(-c1+c2+c3),
    # (c1+c2+c3), -(c1+c2-c3): recover c from the negated half-phases.
    two_s = -np.angle(ev) / np.pi
    two_s = np.where(two_s <= -0.5, two_s + 2.0, two_s)
    s = -np.sort(-two_s / 2.0, axis=-1)
    n = np.rint(s.sum(axis=-1)).astype(int)
    idx = np.arange(4)
    s = s - (idx < n[..., None])
    s = np.take_along_axis(s, (idx + n[..., None]) % 4, axis=-1)
    c1 = s[..., 0] + s[..., 1]
    c2 = s[..., 0] + s[..., 2]
    c3 = s[..., 1] + s[..., 2]
    flip = c3 < 0
    c1 = np.where(flip, 1.0 - c1, c1)
    c3 = np.where(flip, -c3, c3)
    return np.stack([c1, c2, c3], axis=-1) * np.pi


def weyl_coordinates(U):
    """Canonical Weyl-chamber coordinates (c1, c2, c3) of a single gate, radians."""
    U = _unitary(U, "weyl_coordinates")
    return weyl_coordinates_many(U[None])[0]


def pe_distance_d(g):
    """Signed distance ``d = g3 * sqrt(g1^2 + g2^2) - g1`` from the invariants."""
    g1, g2, g3 = g
    return g3 * np.hypot(g1, g2) - g1


def cubic_roots(g):
    """Real parts of the roots of ``z^3 - g3 z^2 + (4r - 1) z + (g3 - 4 g1)``,
    ``r = sqrt(g1^2+g2^2)``, sorted descending and clamped to [-1, 1].

    Solved via 3x3 companion-matrix eigenvalues; the closed-form solution is
    branch-unstable near the triple roots at identity and SWAP.  Eigenvalues
    of a companion matrix are only ~sqrt(eps)-accurate at multiple roots, and
    ``acos`` amplifies that near +-1, so multiple roots are re-derived exactly
    from the cubic's critical points: a k-fold root (k >= 2) is also a root of
    the derivative, whose quadratic roots are stable, and the remaining root
    follows from the root sum.

    Not on the objective path: :func:`pe_functional_many` decides its side
    from the invariants directly.  This and :func:`w1_indicator_s` are the
    reference that the tests check that closed form against.
    """
    g1, g2, g3 = (np.asarray(v, dtype=float) for v in g)
    r = np.hypot(g1, g2)
    b = 4.0 * r - 1.0
    c = g3 - 4.0 * g1
    comp = np.zeros(np.broadcast(g1, g2, g3).shape + (3, 3))
    comp[..., 0, 0] = g3
    comp[..., 0, 1] = -b
    comp[..., 0, 2] = -c
    comp[..., 1, 0] = 1.0
    comp[..., 2, 1] = 1.0
    z = np.linalg.eigvals(comp).real
    z = -np.sort(-z, axis=-1)

    # critical points of p: 3 q^2 - 2 g3 q + b = 0; a slightly negative
    # discriminant still identifies the inflection point of a near-triple root
    disc = g3 * g3 - 3.0 * b
    sq = np.sqrt(np.maximum(disc, 0.0))
    has_crit = disc >= -1e-9

    def p_of(q):
        return ((q - g3) * q + b) * q + c

    q_plus = (g3 + sq) / 3.0
    q_minus = (g3 - sq) / 3.0
    resid_plus = np.abs(p_of(q_plus))
    resid_minus = np.abs(p_of(q_minus))
    take_plus = resid_plus < resid_minus
    best_q = np.where(take_plus, q_plus, q_minus)
    best_resid = np.where(take_plus, resid_plus, resid_minus)
    # both critical points on the curve <=> (near-)triple root at g3/3, where
    # the inflection point is the accurate estimate
    triple = has_crit & (resid_plus < 1e-9) & (resid_minus < 1e-9)
    best_q = np.where(triple, g3 / 3.0, best_q)
    multiple = has_crit & (best_resid < 1e-9)
    if np.any(multiple):
        third = np.where(triple, best_q, g3 - 2.0 * best_q)
        rebuilt = -np.sort(
            -np.stack([best_q, best_q, third], axis=-1), axis=-1
        )
        z = np.where(multiple[..., None], rebuilt, z)
    # acos has a square-root singularity at +-1: snap near-boundary roots so
    # that eps-level invariant noise cannot leak ~1e-8 into the angles
    z = np.where(np.abs(z - 1.0) < 1e-6, 1.0, z)
    z = np.where(np.abs(z + 1.0) < 1e-6, -1.0, z)
    return np.clip(z, -1.0, 1.0)


def w1_indicator_s(g):
    """``s = pi - acos(z1) - acos(z3)`` from the ordered cubic roots.

    The reference side selector of ``D``; the tests check
    :func:`pe_functional_many`'s closed-form side test against it.
    """
    z = cubic_roots(g)
    return np.pi - np.arccos(z[..., 0]) - np.arccos(z[..., 2])


def _pe_side(g):
    """D of :func:`pe_functional_many`, ``d`` and the side test: True where
    ``D = |d|``, False where D = 0."""
    g1, g2, g3 = g
    d = pe_distance_d(g)
    outside = (g3 * g3 + 4.0 * np.hypot(g1, g2) > 1.0) & (g3 * d > 0)
    return np.where(outside, np.abs(d), 0.0), d, outside


def pe_functional_many(U):
    """Perfect-entangler distance functional, batched; >= 0, zero iff PE.

    ``D = d`` where ``d > 0 and s > 0``, ``-d`` where ``d < 0 and s < 0``,
    else 0, with the side decided in closed form from the invariants.  With
    ``z1 >= z2 >= z3`` the roots of the :func:`cubic_roots` cubic,
    ``4d = (z1+z2)(z1+z3)(z2+z3)``, and ``s > 0`` exactly when
    ``z1 + z3 > 0`` (acos is decreasing).  So ``D != 0`` exactly when the
    three pair sums ``z_i + z_j`` share a sign.  They are the roots of a
    real-rooted cubic with elementary symmetric functions ``2 g3``,
    ``g3^2 + 4r - 1`` and ``4d`` (``r = hypot(g1, g2)``); by Descartes'
    rule all three share a sign exactly when ``g3^2 + 4r > 1`` and
    ``g3 d > 0``.
    """
    return _pe_side(makhlin_invariants_many(U))[0]


def pe_functional_value_and_grad(U):
    """:func:`pe_functional_many` and its cotangent from one pass over the
    Gram matrices, batched: ``(D, G)`` with ``G`` ``(..., 4, 4)`` such that
    ``dD = Re tr(G dU)`` for unitary ``U``; G is zero where D is.  D is
    bit-equal to :func:`pe_functional_many`'s.

    With ``m`` the magic-basis Gram matrix of the normalized gate (so
    ``det = 1``), ``a = tr(m)^2`` and ``b = tr(m^2)``: ``g1 + i g2 = a/16``,
    ``g3 = Re(a - b)/4`` and ``r = |a|/16``.  Their differentials are
    ``da = tr(A dU)`` and ``db = tr(B dU)`` with
    ``A = (4 tr m / c) MAGIC V^T MAGIC^dag - a U^dag`` and
    ``B = (4 / c) MAGIC m V^T MAGIC^dag - b U^dag`` (``V``, ``c`` as in
    ``_magic_gram``), and ``dd = Re[alpha da - beta db]`` with
    ``alpha = r/4 + g3 conj(g1 + i g2)/(16 r) - 1/16`` and ``beta = r/4``.
    ``D = |d|`` where the same side test as in :func:`pe_functional_many`
    holds, so ``G = sign(d) (alpha A - beta B)`` there, computed on those
    rows only.  r > 0 wherever it holds: r = 0 means g1 = g2 = 0, so d = 0.
    """
    V, m, c = _magic_gram(U)
    g, tr, tr_m2 = _gram_invariants(m)
    D, d, outside = _pe_side(g)
    G = np.zeros(np.shape(U), dtype=complex)
    if not outside.any():
        return D, G
    U, V, m, c, tr, tr_m2, d, g1, g2, g3 = (
        a[outside] for a in (np.asarray(U), V, m, c, tr, tr_m2, d) + g)
    r = np.hypot(g1, g2)
    alpha = r / 4.0 + g3 * (g1 - 1j * g2) / (16.0 * r) - 1.0 / 16.0
    beta = r / 4.0
    # alpha A - beta B = (4/c) MAGIC (alpha tr(m) - beta m) V^T MAGIC^dag
    #                    - (alpha a - beta b) U^dag
    core = (alpha * tr)[..., None, None] * np.eye(4) - beta[..., None, None] * m
    G_out = (4.0 / c) * (MAGIC @ core @ np.swapaxes(V, -1, -2) @ _MAGIC_DAG)
    G_out -= (alpha * tr * tr - beta * tr_m2)[..., None, None] * np.conj(np.swapaxes(U, -1, -2))
    G[outside] = np.sign(d)[..., None, None] * G_out
    return D, G


def pe_functional_D(U):
    """Distance-to-perfect-entangler functional for a single gate.

    ``d`` where ``d > 0 and s > 0``; ``-d`` where ``d < 0 and s < 0``; else 0.
    """
    U = _unitary(U, "pe_functional_D")
    return float(pe_functional_many(U[None])[0])


def pe_fidelity_many(U):
    """Fidelity to the closest perfect entangler, batched: ``cos^2(max(w - pi, 0) / 8)``,
    ``w`` the widest gap of the Gram eigenphases.  A gate is a perfect entangler
    exactly when ``w <= pi`` (Zhang, Vala, Sastry and Whaley, PRA 67, 042313); outside,
    ``w - pi`` is twice the excess over the face it lies beyond (``pi/2 - c1 - c2``,
    ``c2 + c3 - pi/2`` or ``c1 - c2 - pi/2``).  Gaps ignore the global phase.
    """
    theta = np.sort(np.angle(np.linalg.eigvals(_magic_gram(U)[1])), axis=-1)
    gaps = np.diff(theta, axis=-1, append=theta[..., :1] + 2.0 * np.pi)
    return np.cos(np.maximum(gaps.max(axis=-1) - np.pi, 0.0) / 8.0) ** 2


def pe_fidelity(U):
    """F_PE(U) in [0, 1]; equals 1 iff the gate lies in the PE polyhedron."""
    U = _unitary(U, "pe_fidelity")
    return float(pe_fidelity_many(U[None])[0])


def canonical_gate(c1, c2, c3):
    """``A(c) = exp[-i/2 (c1 XX + c2 YY + c3 ZZ)]``.

    XX, YY, ZZ are simultaneously diagonal in the magic basis, so the
    exponential is assembled diagonally there (exact, no eigensolve).
    """
    # magic-basis diagonals of XX, YY, ZZ for this MAGIC convention
    dxx = np.array([1.0, -1.0, -1.0, 1.0])
    dyy = np.array([-1.0, 1.0, -1.0, 1.0])
    dzz = np.array([1.0, 1.0, -1.0, -1.0])
    phases = np.exp(-0.5j * (c1 * dxx + c2 * dyy + c3 * dzz))
    return MAGIC @ (phases[:, None] * _MAGIC_DAG)


def _diagonalize_symmetric_unitary(m, rng, tol=1e-11):
    """Real orthogonal P with ``P.T m P`` diagonal, for complex-symmetric unitary m.

    Diagonalizes a random real combination of Re(m) and Im(m); they commute,
    so a generic combination splits every degeneracy.  Retries make failure
    probability vanish while keeping the routine deterministic via ``rng``.
    """
    for _ in range(40):
        a, b = rng.normal(size=2)
        _, P = np.linalg.eigh(a * m.real + b * m.imag)
        d = P.T @ m @ P
        if np.abs(d - np.diag(np.diagonal(d))).max() < tol:
            return P
    raise RuntimeError("failed to diagonalize the magic-basis Gram matrix")


def _kron_factor(k):
    """Split a (near) tensor-product 4x4 into 2x2 factors via the rank-1 SVD.

    Returns (a, b, residual) with ``k ~ a (x) b``; residual is the second
    singular value of the rearranged matrix (0 for an exact product).
    """
    W = np.asarray(k).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vt = np.linalg.svd(W)
    a = (np.sqrt(s[0]) * u[:, 0]).reshape(2, 2)
    b = (np.sqrt(s[0]) * vt[0]).reshape(2, 2)
    return a, b, s[1]


def su2_pauli_vector(u):
    """Write ``u in SU(2)`` as ``exp(-i n . sigma)`` and return ``n`` (3 reals)."""
    u = np.asarray(u, dtype=complex)
    u = u / np.linalg.det(u) ** 0.5
    # u = cos(theta) I - i sin(theta) n_hat . sigma
    cos_t = np.clip(u.trace().real / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    vec = np.array(
        [
            u[0, 1].imag + u[1, 0].imag,
            u[1, 0].real - u[0, 1].real,
            u[0, 0].imag - u[1, 1].imag,
        ]
    ) / -2.0
    norm = np.linalg.norm(vec)
    if norm < 1e-14:
        return np.zeros(3)
    return theta * vec / norm


def cartan_decompose(U, tol=1e-8):
    """Cartan (KAK) decomposition ``U ~ k1 A(c) k2`` up to global phase.

    Returns ``(k1, c, k2)`` with ``k1, k2 in SU(2) (x) SU(2)`` and ``c`` the
    canonical Weyl coordinates.  Raises a RuntimeError if the reconstruction
    residual exceeds ``tol``.
    """
    U = _unitary(U, "cartan_decompose")
    Us = to_su4(U)
    c = weyl_coordinates_many(Us[None])[0]
    A = canonical_gate(*c)
    D = _MAGIC_DAG @ A @ MAGIC               # diagonal to rounding
    d_target = np.diagonal(D).copy()
    lam_target = d_target**2

    rng = np.random.default_rng(2020)
    V = _MAGIC_DAG @ Us @ MAGIC
    order = np.empty(4, dtype=int)
    # the principal fourth root may be off the branch the fold picked;
    # multiplying V by i shifts every Gram eigenphase by pi, and m(i^k V) =
    # (-1)^k m(V), so only these two branches differ
    for _branch in range(2):
        m = V.T @ V
        P = _diagonalize_symmetric_unitary(m, rng)
        lam = np.diagonal(P.T @ m @ P).copy()
        used = np.zeros(4, dtype=bool)
        matched = True
        for j in range(4):
            diffs = np.abs(lam - lam_target[j])
            diffs[used] = np.inf
            k = int(np.argmin(diffs))
            if diffs[k] > 1e-6:
                matched = False
                break
            order[j] = k
            used[k] = True
        if matched:
            break
        V = 1j * V
    else:
        raise RuntimeError("could not match Gram eigenvalues to the canonical gate")

    P = P[:, order]
    if np.linalg.det(P) < 0:
        P[:, -1] = -P[:, -1]
    O2 = P.T
    O1 = (V @ P) * np.conj(d_target)[None, :]  # V P D^dag, D diagonal
    w, _, vt = np.linalg.svd(O1.real)          # re-orthonormalize
    O1 = w @ vt
    k1 = MAGIC @ O1 @ _MAGIC_DAG
    k2 = MAGIC @ O2 @ _MAGIC_DAG

    recon = k1 @ A @ k2
    tr = np.trace(recon.conj().T @ Us)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    residual = np.linalg.norm(recon * phase - Us)
    if residual > tol:
        raise RuntimeError(
            f"Cartan reconstruction residual {residual:.3e} above tolerance {tol:.1e}"
        )
    return k1, c, k2
