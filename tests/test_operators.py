import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvbs import fock, operators
from pvbs.lattice import build_box, edges
from pvbs.model import Params

P_CHAIN = Params(("2",), ("1/2",))


def test_edge_block_is_rank5_projector():
    h = operators.edge_projection_block(2.0, 0.5)
    assert np.max(np.abs(h @ h - h)) < 1e-14
    assert np.trace(h) == pytest.approx(5.0, abs=1e-13)
    assert np.max(np.abs(h - h.T)) < 1e-15


@given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
@settings(max_examples=100, deadline=None)
def test_edge_block_kernel(lam_a, lam_b):
    h = operators.edge_projection_block(lam_a, lam_b)
    assert np.max(np.abs(h @ h - h)) < 1e-13
    assert np.trace(h) == pytest.approx(5.0, abs=1e-12)
    kv = operators.edge_kernel_vectors(lam_a, lam_b)
    assert np.max(np.abs(h @ kv.T)) < 1e-13
    # kernel vectors are orthonormal, so kernel dimension is exactly 4
    assert np.max(np.abs(kv @ kv.T - np.eye(4))) < 1e-13


def test_sector_hamiltonian_two_sites():
    v = build_box((2,))
    b = fock.enumerate_sector(v, 1, 0)
    h = operators.assemble_sector_hamiltonian(v, P_CHAIN, b).toarray()
    # basis sorted by code: |a,0> (code 1) before |0,a> (code 3)
    want = np.array([[0.8, -0.4], [-0.4, 0.2]])
    assert np.max(np.abs(h - want)) < 1e-14


def test_sector_hamiltonian_matches_full_tensor_build():
    # reference: kron-assemble the full 3^n Hamiltonian and slice the sector;
    # the 2D boxes take different weights per direction
    for dims, lam_a, lam_b in [((3,), ("2",), ("1/2",)),
                               ((2, 2), ("2", "3"), ("1/2", "1/3")),
                               ((2, 3), ("5/2", "1/3"), ("2/3", "7"))]:
        v = build_box(dims)
        p = Params(lam_a, lam_b)
        n = len(v)
        la, lb = p.floats("a"), p.floats("b")
        full = sum(_expand_pair(
            operators.edge_projection_block(la[e.direction], lb[e.direction]),
            n, v.sites.index(e.base), v.sites.index(e.head)) for e in edges(v))
        for na in range(n + 1):
            for nb in range(n + 1 - na):
                b = fock.enumerate_sector(v, na, nb)
                h = operators.assemble_sector_hamiltonian(v, p, b).toarray()
                ref = full[np.ix_(b.states, b.states)]
                assert np.max(np.abs(h - ref)) < 1e-13, (dims, na, nb)


def _expand_pair(block, n, left, right):
    """Embed a 9x9 pair operator acting on sites (left, right) of an
    n-site volume, in base-3 little-endian index convention."""
    dim = 3 ** n
    out = np.zeros((dim, dim))
    for col in range(dim):
        digits = fock.decode(col, n)
        pair = 3 * digits[left] + digits[right]
        for q in range(9):
            val = block[q, pair]
            if val == 0.0:
                continue
            qx, qy = divmod(q, 3)
            new = list(digits)
            new[left], new[right] = qx, qy
            out[fock.encode(new), col] += val
    return out


def test_hamiltonian_symmetric_psd():
    v = build_box((2, 2))
    p = Params(("2", "3"), ("1/2", "1/3"))
    b = fock.enumerate_sector(v, 1, 1)
    h = operators.assemble_sector_hamiltonian(v, p, b).toarray()
    assert np.max(np.abs(h - h.T)) < 1e-13
    assert np.linalg.eigvalsh(h).min() > -1e-12


def test_ground_projector_matches_dense():
    inner = build_box((2,))
    ambient = build_box((3,))
    act = operators.ground_projector_action(inner, P_CHAIN, ambient)
    g = operators.materialize(act)
    # projector algebra
    assert np.max(np.abs(g @ g - g)) < 1e-12
    assert np.max(np.abs(g - g.T)) < 1e-12
    # rank = 4 * 3 (four ground states per exterior configuration)
    assert np.trace(g) == pytest.approx(12.0, abs=1e-10)


def test_ground_projector_full_volume():
    v = build_box((3,))
    act = operators.ground_projector_action(v, P_CHAIN, v)
    g = operators.materialize(act)
    assert np.trace(g) == pytest.approx(4.0, abs=1e-10)
    # G annihilates H rowspace: H G = 0 for the frustration-free model
    full = sum(_expand_pair(operators.edge_projection_block(2.0, 0.5), 3,
                            l, l + 1) for l in range(2))
    assert np.max(np.abs(full @ g)) < 1e-12


def test_en_projector_is_projector_and_nested():
    inner = build_box((3,))
    outer = build_box((4,))
    e = operators.materialize(
        operators.en_projector_action(inner, outer, P_CHAIN))
    assert np.max(np.abs(e @ e - e)) < 1e-11
    # E_n kills the outer ground space
    g_out = operators.materialize(
        operators.ground_projector_action(outer, P_CHAIN, outer))
    assert np.max(np.abs(e @ g_out)) < 1e-11


def test_operator_norm_matches_dense_svd():
    inner = build_box((2,))
    outer = build_box((4,))
    mid = build_box((3,)).translate((1,))
    g = operators.ground_projector_action(mid, P_CHAIN, outer)
    e = operators.en_projector_action(inner, outer, P_CHAIN)
    got = operators.operator_norm_of_product(g, e)
    ref = np.linalg.norm(
        operators.materialize(g) @ operators.materialize(e), 2)
    assert got == pytest.approx(ref, rel=1e-10)


def test_operator_norm_zero_product():
    outer = build_box((3,))
    g = operators.ground_projector_action(outer, P_CHAIN, outer)
    e = operators.en_projector_action(outer, outer, P_CHAIN)  # identically 0
    assert operators.operator_norm_of_product(g, e) == 0.0


def test_action_cap():
    inner = build_box((2,))
    big = build_box((9,))
    with pytest.raises(operators.OperatorError):
        operators.ground_projector_action(inner, P_CHAIN, big, cap=3 ** 8)


def test_disconnected_inner_rejected():
    from pvbs.lattice import Volume
    bad = Volume(1, ((0,), (2,)))
    with pytest.raises(operators.OperatorError):
        operators.ground_projector_action(bad, P_CHAIN, build_box((3,)))
