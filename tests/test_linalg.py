import math

import numpy as np
import pytest

from chromlc import linalg
from chromlc.errors import DimensionMismatch, NotHermitian, NotUnitary

from helpers import charpoly_max_abs_root, haar_unitary, random_hermitian


def test_eig_already_diagonal():
    w, v = linalg.hermitian_eig(np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0])
    assert np.allclose(v, np.eye(2))


def test_eig_pauli_x_spectrum():
    w, _ = linalg.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 5, 8, 16):
        for _ in range(20):
            m = random_hermitian(dim, rng)
            w, v = linalg.hermitian_eig(m)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-12 * dim
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12
            assert abs(np.sum(w) - np.trace(m).real) < 1e-11 * dim


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eig(np.zeros((2, 3), dtype=complex))


def test_eig_stacked_matches_per_matrix():
    rng = np.random.default_rng(41)
    stack = np.stack([random_hermitian(4, rng) for _ in range(12)])
    w, v = linalg.hermitian_eig(stack)
    assert w.shape == (12, 4) and v.shape == (12, 4, 4)
    for m, wi, vi in zip(stack, w, v):
        w1, v1 = linalg.hermitian_eig(m)
        assert np.max(np.abs(wi - w1)) < 1e-12
        # eigenvectors agree up to a phase per column (the spectra are simple)
        overlaps = np.abs(np.einsum("ij,ij->j", vi.conj(), v1))
        assert np.max(np.abs(overlaps - 1.0)) < 1e-12
        assert np.max(np.abs((vi * wi) @ vi.conj().T - m)) < 1e-12 * 4


def test_eig_stacked_rejects_one_non_hermitian_member():
    rng = np.random.default_rng(43)
    stack = np.stack([random_hermitian(4, rng) for _ in range(5)])
    stack[3, 0, 1] += 1e-3
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(stack)
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eig(np.zeros((3, 2, 4), dtype=complex))


def test_is_unitary_on_stacks():
    rng = np.random.default_rng(47)
    stack = np.stack([haar_unitary(4, rng) for _ in range(6)])
    assert linalg.is_unitary(stack)
    assert linalg.is_unitary(stack.reshape(2, 3, 4, 4))
    off = stack.copy()
    off[4] *= 1.0 + 1e-10  # the Gram entries of member 4 grow by about 2e-10
    assert not linalg.is_unitary(off, 1e-10)
    assert linalg.is_unitary(off, 1e-9)
    nan = stack.copy()
    nan[2, 1, 3] = np.nan
    assert not linalg.is_unitary(nan)
    assert linalg.is_unitary(np.zeros((0, 4, 4)))
    assert not linalg.is_unitary(np.zeros((3, 4, 2)))
    assert not linalg.is_unitary(np.zeros(4))
    for u in stack:
        assert linalg.is_unitary(u)
        assert not linalg.is_unitary(u * (1.0 + 1e-10))
    assert not linalg.is_unitary(np.ones((4, 4)))
    assert not linalg.is_unitary(np.eye(4)[:, :3])


def test_operator_norm_trivials():
    assert linalg.operator_norm(np.zeros((3, 3))) == 0.0
    zz = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
    assert abs(linalg.operator_norm(zz) - 1.0) < 1e-12


def test_operator_norm_matches_charpoly_roots():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_hermitian(4, rng)
        assert abs(linalg.operator_norm(m) - charpoly_max_abs_root(m)) < 1e-9


def test_operator_norm_subadditive_and_homogeneous():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        na, nb = linalg.operator_norm(a), linalg.operator_norm(b)
        assert linalg.operator_norm(a + b) <= na + nb + 1e-10
        lam = float(rng.uniform(-5.0, 5.0))
        assert abs(linalg.operator_norm(lam * a) - abs(lam) * na) < 1e-10


def test_expm_at_zero_is_identity():
    rng = np.random.default_rng(17)
    h = random_hermitian(4, rng)
    assert np.max(np.abs(linalg.expm_i(h, 0.0) - np.eye(4))) < 1e-14


def test_expm_pauli_z_pi():
    z = np.diag([1.0, -1.0]).astype(complex)
    u = linalg.expm_i(z, math.pi)
    assert np.max(np.abs(u + np.eye(2))) < 1e-12


def test_expm_group_law_and_unitarity():
    rng = np.random.default_rng(19)
    for _ in range(30):
        h = random_hermitian(4, rng, norm=float(rng.uniform(0.2, 2.0)))
        s, t = rng.uniform(-3, 3, size=2)
        lhs = linalg.expm_i(h, s) @ linalg.expm_i(h, t)
        rhs = linalg.expm_i(h, s + t)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        assert linalg.is_unitary(linalg.expm_i(h, 50.0), 1e-10)


def test_unitary_angle_trivials():
    assert linalg.unitary_angle(np.eye(4)) == 0.0
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    assert abs(linalg.unitary_angle(cz) - math.pi) < 1e-12


def test_unitary_angle_from_known_generator():
    rng = np.random.default_rng(23)
    h = random_hermitian(4, rng, norm=0.3)
    assert abs(linalg.unitary_angle(linalg.expm_i(h, 1.0)) - 0.3) < 1e-10


def test_angle_bounded_by_generator_norm():
    rng = np.random.default_rng(29)
    for _ in range(40):
        norm = float(rng.uniform(0.1, 6.0))
        h = random_hermitian(4, rng, norm=norm)
        angle = linalg.unitary_angle(linalg.expm_i(h, -1.0))
        assert angle <= norm + 1e-9
        if norm <= math.pi:
            assert abs(angle - norm) < 1e-9


def test_unitary_angle_of_a_stack_is_the_angle_of_each_member():
    rng = np.random.default_rng(37)
    stack = np.array([haar_unitary(4, rng) for _ in range(12)]).reshape(3, 4, 4, 4)
    angles = linalg.unitary_angle(stack)
    assert angles.shape == (3, 4)
    assert np.array_equal(angles, [[linalg.unitary_angle(u) for u in row] for row in stack])
    stack[1, 2, 0, 0] += 0.1
    with pytest.raises(NotUnitary):
        linalg.unitary_angle(stack)


def test_unitary_log_trivials():
    assert np.max(np.abs(linalg.unitary_log(np.eye(3)))) < 1e-12
    lg = linalg.unitary_log(np.diag([1j, -1j]))
    assert np.allclose(lg, np.diag([math.pi / 2, -math.pi / 2]), atol=1e-12)


def test_unitary_log_roundtrip_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        u = haar_unitary(4, rng)
        h = linalg.unitary_log(u)
        assert linalg.is_hermitian(h, 1e-12)
        assert np.max(np.abs(linalg.expm_i(h, -1.0) - u)) < 1e-9
        assert abs(linalg.operator_norm(h) - linalg.unitary_angle(u)) < 1e-9


@pytest.mark.parametrize("center", [math.pi / 2, -math.pi / 2, math.pi, -math.pi])
def test_unitary_angle_and_log_resolve_near_degenerate_clusters(center):
    # a cluster of 2..dim eigenphases spaced 0 or 1e-16..1e-9 apart; the one
    # near -pi starts 1e-8 above it, clear of the snap to +pi, and the one
    # near +pi runs down from pi, where a computed -pi snaps back
    rng = np.random.default_rng(53)
    for dim in range(2, 9):
        for spacing in [0.0] + [10.0**e for e in range(-16, -8)]:
            size = int(rng.integers(2, dim + 1))
            offsets = spacing * np.arange(size)
            if center == math.pi:
                cluster = center - offsets
            elif center == -math.pi:
                cluster = center + 1e-8 + offsets
            else:
                cluster = center + offsets - offsets.mean()
            phases = np.concatenate([cluster, rng.uniform(-2.5, 2.5, size=dim - size)])
            v = haar_unitary(dim, rng)
            u = (v * np.exp(1j * phases)) @ v.conj().T
            assert abs(linalg.unitary_angle(u) - np.max(np.abs(phases))) < 1e-12
            h = linalg.unitary_log(u)
            assert np.max(np.abs(h - (v * phases) @ v.conj().T)) < 1e-12


def test_unitary_log_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        linalg.unitary_log(np.ones((2, 2)))


def test_phase_pi_maps_to_plus_pi():
    h = linalg.unitary_log(-np.eye(2))
    assert np.allclose(np.diag(h).real, [math.pi, math.pi], atol=1e-12)


def test_spectral_distance():
    m = np.diag([1.0, 2.0]).astype(complex)
    assert linalg.spectral_distance(m, m) == 0.0
    assert abs(linalg.spectral_distance(np.eye(4), -np.eye(4)) - 2.0) < 1e-12
    with pytest.raises(DimensionMismatch):
        linalg.spectral_distance(np.eye(2), np.eye(3))


def test_spectral_distance_of_a_small_anti_hermitian_difference():
    # 1 - exp(-i*s*H) is anti-Hermitian to first order in s; at s = 1e-11 its
    # entries are too small for an absolute test to tell it from a Hermitian one
    u = linalg.expm_i(np.diag([1.0, 0.5, -0.2, -1.0]), 1e-11)
    assert abs(linalg.spectral_distance(np.eye(4), u) - 1e-11) < 1e-20
    rng = np.random.default_rng(59)
    for _ in range(10):
        u = linalg.expm_i(random_hermitian(4, rng, norm=1.0), 1e-11)
        assert abs(linalg.spectral_distance(np.eye(4), u) - 1e-11) < 1e-15


def test_spectral_distance_triangle_inequality():
    rng = np.random.default_rng(37)
    for _ in range(25):
        a, b, c = (random_hermitian(4, rng) for _ in range(3))
        ab = linalg.spectral_distance(a, b)
        bc = linalg.spectral_distance(b, c)
        ac = linalg.spectral_distance(a, c)
        assert ac <= ab + bc + 1e-10
