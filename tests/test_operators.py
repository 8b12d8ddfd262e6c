import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import projector_oracle
from pvbs import fock, martingale, operators
from pvbs.lattice import Volume, build_box, edges, is_connected
from pvbs.model import GapClass, Params, classify_zd, select_tilt

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
    g = projector_oracle.ground_projector(inner, ambient, P_CHAIN).toarray()
    # projector algebra
    assert np.max(np.abs(g @ g - g)) < 1e-12
    assert np.max(np.abs(g - g.T)) < 1e-12
    # rank = 4 * 3 (four ground states per exterior configuration)
    assert np.trace(g) == pytest.approx(12.0, abs=1e-10)


def test_ground_projector_full_volume():
    v = build_box((3,))
    g = projector_oracle.ground_projector(v, v, P_CHAIN).toarray()
    assert np.trace(g) == pytest.approx(4.0, abs=1e-10)
    # G annihilates H rowspace: H G = 0 for the frustration-free model
    full = sum(_expand_pair(operators.edge_projection_block(2.0, 0.5), 3,
                            l, l + 1) for l in range(2))
    assert np.max(np.abs(full @ g)) < 1e-12


def test_en_projector_is_projector_and_nested():
    inner = build_box((3,))
    outer = build_box((4,))
    g_out = projector_oracle.ground_projector(outer, outer, P_CHAIN).toarray()
    e = projector_oracle.ground_projector(inner, outer, P_CHAIN).toarray() \
        - g_out
    assert np.max(np.abs(e @ e - e)) < 1e-11
    # E_n kills the outer ground space
    assert np.max(np.abs(e @ g_out)) < 1e-11


def test_operator_norm_matches_dense_svd():
    inner = build_box((2,))
    outer = build_box((4,))
    mid = build_box((3,)).translate((1,))
    got = operators.projection_product_norm(mid, inner, P_CHAIN)
    g = projector_oracle.ground_projector(mid, outer, P_CHAIN)
    e = projector_oracle.ground_projector(inner, outer, P_CHAIN) \
        - projector_oracle.ground_projector(outer, outer, P_CHAIN)
    ref = np.linalg.norm((g @ e).toarray(), 2)
    assert got == pytest.approx(ref, rel=1e-10)


def test_operator_norm_zero_product():
    outer = build_box((3,))
    # inner = ambient: E_n is identically 0
    assert operators.projection_product_norm(outer, outer, P_CHAIN) == 0.0


def test_ambient_site_limit():
    ambient = build_box((40,))
    slab = ambient.difference(build_box((30,)))
    with pytest.raises(fock.FockError, match="at most 39 sites"):
        operators.projection_product_norm(slab, build_box((39,)), P_CHAIN)


def test_disconnected_inner_rejected():
    bad = Volume(1, ((0,), (2,)))
    slab = build_box((2,)).translate((1,))
    with pytest.raises(operators.OperatorError, match="connected"):
        operators.projection_product_norm(slab, bad, P_CHAIN)


LAMBDAS = ("1/10", "1/8", "1/5", "1/3", "1/2", "1", "2", "3", "5", "8", "10")


@st.composite
def sweep_volumes(draw):
    """(slab, inner, ambient, params) of a small sweep family in d = 1 or
    2, either direction, at most 9 ambient sites."""
    d = draw(st.sampled_from((1, 2)))
    p = Params(tuple(draw(st.sampled_from(LAMBDAS)) for _ in range(d)),
               tuple(draw(st.sampled_from(LAMBDAS)) for _ in range(d)))
    assume(classify_zd(p) is GapClass.GAPPED)
    t = select_tilt(p)
    j = draw(st.integers(0, d - 1))
    ell = draw(st.integers(2, 7))
    n = draw(st.integers(ell, 8))
    lead = draw(st.integers(1, 2))
    family = martingale.sweep_family(t, j, ell, lead, upper=ell)
    ambient, inner = family.member(n + 1), family.member(n)
    slab = ambient.difference(family.member(n + 1 - ell))
    assume(len(ambient) <= 9)
    assume(all(len(v) >= 2 and is_connected(v) for v in (slab, inner)))
    return slab, inner, ambient, martingale.permuted_params(p, t)


@given(sweep_volumes())
@settings(max_examples=60, deadline=None)
def test_sector_norm_matches_full_space_oracle(case):
    slab, inner, ambient, p = case
    got = operators.projection_product_norm(slab, inner, p)
    ref = projector_oracle.projection_norm(slab, inner, ambient, p)
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-15)
