import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import projector_oracle
import strategies
from pvbs import ComputeError, InputError, fock, martingale, operators
from pvbs.lattice import Volume, build_box
from pvbs.model import Params, classify_zd, select_tilt

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
    # diagonal plus one exchange of the end digits: the only off-diagonal
    # entries pair 0a with a0, 0b with b0 and ab with ba
    pair = np.arange(9)
    exchange = np.zeros((9, 9), dtype=bool)
    exchange[3 * (pair % 3) + pair // 3, pair] = True
    assert not h[~(exchange | np.eye(9, dtype=bool))].any()
    kv = oracles.edge_kernel_vectors(lam_a, lam_b)
    assert np.max(np.abs(h @ kv.T)) < 1e-13
    # kernel vectors are orthonormal, so kernel dimension is exactly 4
    assert np.max(np.abs(kv @ kv.T - np.eye(4))) < 1e-13


def test_sector_hamiltonian_two_sites():
    v = build_box((2,))
    b = fock.enumerate_sector(v, 1, 0)
    h = operators.assemble_sector_hamiltonian(
        operators.sector_pattern(b), operators.edge_weights(P_CHAIN)).toarray()
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
        full = _full_hamiltonian(v, p)
        weights = operators.edge_weights(p)
        for na in range(n + 1):
            for nb in range(n + 1 - na):
                b = fock.enumerate_sector(v, na, nb)
                h = operators.assemble_sector_hamiltonian(
                    operators.sector_pattern(b), weights).toarray()
                ref = full[np.ix_(b.states, b.states)]
                assert np.max(np.abs(h - ref)) < 1e-13, (dims, na, nb)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sector_pattern_reused_across_parameters(data):
    # a pattern filled for p1 and then for p2 gives the bits of a fresh
    # assembly at p2, and the full-tensor Hamiltonian at p2
    v = data.draw(strategies.connected_volumes())
    p1 = data.draw(strategies.params(v.dim))
    p2 = data.draw(strategies.params(v.dim))
    w1, w2 = operators.edge_weights(p1), operators.edge_weights(p2)
    full = _full_hamiltonian(v, p2)
    n = len(v)
    for na in range(n + 1):
        for nb in range(n + 1 - na):
            b = fock.enumerate_sector(v, na, nb)
            pattern = operators.sector_pattern(b)
            operators.assemble_sector_hamiltonian(pattern, w1)
            h = operators.assemble_sector_hamiltonian(pattern, w2)
            fresh = operators.assemble_sector_hamiltonian(
                operators.sector_pattern(b), w2)
            for part in ("vals", "cols", "nnz", "norm"):
                assert np.array_equal(getattr(h, part), getattr(fresh, part))
            ref = full[np.ix_(b.states, b.states)]
            assert np.max(np.abs(h.toarray() - ref)) <= 1e-14 * max(
                1.0, np.abs(ref).max())


@given(strategies.volumes_and_params())
@settings(max_examples=40, deadline=None)
def test_sector_pattern_is_laid_out_edge_by_edge(vp):
    # slot 1 + e of row s is edge e's exchange: the state with the end
    # digits swapped, or s itself (padding) when they are equal
    v, p = vp
    n = len(v)
    vol_edges = v.links
    weights = operators.edge_weights(p)
    for na in range(n + 1):
        for nb in range(n + 1 - na):
            b = fock.enumerate_sector(v, na, nb)
            pattern = operators.sector_pattern(b)
            assert pattern.cols.shape == (1 + len(vol_edges), b.dim)
            row_of = {int(code): s for s, code in enumerate(b.states)}
            for e, (i, k, _) in enumerate(vol_edges):
                for s, code in enumerate(b.states):
                    digits = list(oracles.decode(int(code), n))
                    digits[i], digits[k] = digits[k], digits[i]
                    assert pattern.cols[1 + e, s] == \
                        row_of[oracles.encode(digits)]
            # nnz, the count the benchmark reads, leaves out the padding
            h = operators.assemble_sector_hamiltonian(pattern, weights)
            off = h.toarray()
            np.fill_diagonal(off, 0.0)
            assert h.nnz == b.dim + np.count_nonzero(off)


def _full_hamiltonian(v, p):
    """H^v on all 3^n states, one embedded edge block per edge."""
    la, lb = p.floats("a"), p.floats("b")
    return sum(_expand_pair(operators.edge_projection_block(la[j], lb[j]),
                            len(v), i, k)
               for i, k, j in v.links)


def _expand_pair(block, n, left, right):
    """Embed a 9x9 pair operator acting on sites (left, right) of an
    n-site volume, in base-3 little-endian index convention."""
    dim = 3 ** n
    out = np.zeros((dim, dim))
    for col in range(dim):
        digits = oracles.decode(col, n)
        pair = 3 * digits[left] + digits[right]
        for q in range(9):
            val = block[q, pair]
            if val == 0.0:
                continue
            qx, qy = divmod(q, 3)
            new = list(digits)
            new[left], new[right] = qx, qy
            out[oracles.encode(new), col] += val
    return out


def test_hamiltonian_symmetric_psd():
    v = build_box((2, 2))
    p = Params(("2", "3"), ("1/2", "1/3"))
    b = fock.enumerate_sector(v, 1, 1)
    h = operators.assemble_sector_hamiltonian(
        operators.sector_pattern(b), operators.edge_weights(p)).toarray()
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
    mid = oracles.translate(build_box((3,)), (1,))
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
    with pytest.raises(InputError, match="at most 39 sites"):
        operators.projection_product_norm(slab, build_box((39,)), P_CHAIN)


def test_disconnected_inner_rejected():
    bad = Volume(1, ((0,), (2,)))
    slab = oracles.translate(build_box((2,)), (1,))
    with pytest.raises(ComputeError, match="connected"):
        operators.projection_product_norm(slab, bad, P_CHAIN)


LAMBDAS = ("1/10", "1/8", "1/5", "1/3", "1/2", "1", "2", "3", "5", "8", "10")


@st.composite
def sweep_volumes(draw):
    """(slab, inner, ambient, params) of a small sweep family in d = 1 or
    2, either direction, at most 9 ambient sites."""
    d = draw(st.sampled_from((1, 2)))
    p = Params(tuple(draw(st.sampled_from(LAMBDAS)) for _ in range(d)),
               tuple(draw(st.sampled_from(LAMBDAS)) for _ in range(d)))
    assume(classify_zd(p) == "gapped")
    t = select_tilt(p)
    j = draw(st.integers(0, d - 1))
    ell = draw(st.integers(2, 7))
    n = draw(st.integers(ell, 8))
    lead = draw(st.integers(1, 2))
    family = martingale.sweep_family(t, j, ell, lead)
    ambient, inner = family.member(n + 1), family.member(n)
    slab = ambient.difference(family.member(n + 1 - ell))
    assume(len(ambient) <= 9)
    assume(all(len(v) >= 2 and v.connected for v in (slab, inner)))
    return slab, inner, ambient, t.params


@given(sweep_volumes())
@settings(max_examples=60, deadline=None)
def test_sector_norm_matches_full_space_oracle(case):
    slab, inner, ambient, p = case
    got = operators.projection_product_norm(slab, inner, p)
    ref = projector_oracle.projection_norm(slab, inner, ambient, p)
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-15)
