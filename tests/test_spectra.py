import functools
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from pvbs import analytic, fock, operators, spectra
from pvbs.lattice import Volume, build_box, build_tilted_case1
from pvbs.model import Params

P_CHAIN = Params(("2",), ("1/2",))


def test_dense_eigenvalues_sorted():
    v = build_box((3,))
    b = fock.enumerate_sector(v, 1, 0)
    h = operators.assemble_sector_hamiltonian(v, P_CHAIN, b)
    vals = spectra.lowest_eigenvalues(h, k=h.shape[0])
    assert list(vals) == sorted(vals)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_lowest_eigenvalues_dense_vs_lanczos():
    # one sector just below DENSE_CAP (dense by default) and one just
    # above it (Lanczos by default), each solved by both branches
    assert 168 <= spectra.DENSE_CAP < 210
    for n, n_a, n_b, dim in ((8, 1, 2, 168), (7, 2, 2, 210)):
        v = build_box((n,))
        b = fock.enumerate_sector(v, n_a, n_b)
        h = operators.assemble_sector_hamiltonian(v, P_CHAIN, b)
        assert h.shape[0] == dim
        dense = spectra.lowest_eigenvalues(h, k=3, dense_cap=dim)
        lanczos = spectra.lowest_eigenvalues(h, k=3, dense_cap=0)
        default = spectra.lowest_eigenvalues(h, k=3)
        assert np.allclose(lanczos, dense, rtol=1e-10, atol=0)
        assert list(default) == list(
            dense if dim <= spectra.DENSE_CAP else lanczos)


def test_lanczos_residual_check(perturbed_eigsh):
    v = build_box((7,))
    b = fock.enumerate_sector(v, 2, 2)
    h = operators.assemble_sector_hamiltonian(v, P_CHAIN, b)
    b1 = fock.enumerate_sector(v, 1, 0)
    h1 = operators.assemble_sector_hamiltonian(v, P_CHAIN, b1)
    psi = analytic.ground_state_vector(v, P_CHAIN, "a", b1)
    with pytest.raises(spectra.SpectraError, match="residual"):
        spectra.lowest_eigenvalues(h, k=2, dense_cap=0)
    # the residual is taken against the deflated operator
    with pytest.raises(spectra.SpectraError, match="residual"):
        spectra.lowest_eigenvalues(h1, k=1, deflate=psi[:, None], dense_cap=0)


def test_total_gap_lanczos_matches_dense(monkeypatch):
    """Every sector solved by Lanczos (deflated where it bears a ground
    state) matches the default run, whose sectors here are all dense."""
    p2 = Params(("2", "3"), ("1/2", "1/3"))
    cases = ((build_box((6,)), P_CHAIN), (build_box((2, 3)), p2),
             (build_tilted_case1((1,), (3, 2)), p2))
    real = spla.eigsh
    deflated = []

    def eigsh(a, *args, **kwargs):
        deflated.append(isinstance(a, spla.LinearOperator))
        return real(a, *args, **kwargs)

    for v, p in cases:
        default = spectra.total_gap(v, p)
        deflated.clear()
        with monkeypatch.context() as m:
            m.setattr(spla, "eigsh", eigsh)
            m.setattr(spectra, "lowest_eigenvalues", functools.partial(
                spectra.lowest_eigenvalues, dense_cap=0))
            lanczos = spectra.total_gap(v, p)
        # the ground sectors (1,0), (0,1) and (1,1) of 6 sites went to
        # Lanczos on the matrix-free deflated operator
        assert sum(deflated) == 3
        assert lanczos.kernel_total == default.kernel_total == 4
        for s, t in zip(default.sectors, lanczos.sectors):
            assert (s.n_a, s.n_b, s.kernel) == (t.n_a, t.n_b, t.kernel)
            if s.lowest_excited is None:
                assert t.lowest_excited is None
            else:
                assert t.lowest_excited == pytest.approx(s.lowest_excited,
                                                         rel=1e-10)


def test_deflation_removes_ground_vector():
    v = build_box((5,))
    b = fock.enumerate_sector(v, 1, 0)
    h = operators.assemble_sector_hamiltonian(v, P_CHAIN, b)
    psi = analytic.ground_state_vector(v, P_CHAIN, "a", b)
    plain = spectra.lowest_eigenvalues(h, k=2)
    deflated = spectra.lowest_eigenvalues(h, k=1, deflate=psi[:, None])
    assert plain[0] == pytest.approx(0.0, abs=1e-12)
    assert deflated[0] == pytest.approx(plain[1], abs=1e-9)


def test_kernel_dimension():
    v = build_box((4,))
    total = 0
    for na in range(5):
        for nb in range(5 - na):
            b = fock.enumerate_sector(v, na, nb)
            h = operators.assemble_sector_hamiltonian(v, P_CHAIN, b)
            total += spectra.kernel_dimension(h)
    assert total == 4


def test_total_gap_chain_frozen():
    rep = spectra.total_gap(build_box((4,)), P_CHAIN)
    assert rep.kernel_total == 4
    assert not rep.partial
    assert rep.gap == pytest.approx(0.43431457505076165, rel=1e-10)


def test_total_gap_matches_bruteforce():
    # oracle: full 3^n dense spectrum, gap = smallest nonzero eigenvalue
    v = build_box((2, 2))
    p = Params(("2", "3"), ("1/2", "1/3"))
    full = np.zeros((81, 81))
    for na in range(5):
        for nb in range(5 - na):
            b = fock.enumerate_sector(v, na, nb)
            h = operators.assemble_sector_hamiltonian(v, p, b).toarray()
            full[np.ix_(b.states, b.states)] = h
    vals = np.linalg.eigvalsh(full)
    kernel = int(np.count_nonzero(vals < 1e-8))
    oracle_gap = vals[kernel]
    rep = spectra.total_gap(v, p)
    assert kernel == 4 == rep.kernel_total
    assert rep.gap == pytest.approx(oracle_gap, rel=1e-9)


def test_total_gap_tilted_volume():
    v = build_tilted_case1((1,), (3, 2))
    p = Params(("2", "3"), ("1/2", "1/3"))
    rep = spectra.total_gap(v, p)
    assert rep.kernel_total == 4
    assert rep.gap > 0


def test_total_gap_sector_cap_marks_partial():
    rep = spectra.total_gap(build_box((6,)), P_CHAIN, sector_cap=50)
    assert rep.partial
    assert any(s.skipped for s in rep.sectors)


def test_total_gap_rejects_disconnected():
    from pvbs.lattice import LatticeError, Volume
    with pytest.raises(LatticeError):
        spectra.total_gap(Volume(1, ((0,), (2,))), P_CHAIN)


def test_gapless_scaling_flat_species():
    p = Params(("1",), ("2",))
    pts = spectra.gapless_scaling(p, [2, 3, 4], numeric_cap=6)
    assert [pt.trial_energy for pt in pts] == [0.5, 1 / 3, 0.25]
    assert all(pt.numeric_gap is not None for pt in pts)


def test_gapless_scaling_needs_flat_species():
    from pvbs.model import ModelError
    with pytest.raises(ModelError):
        spectra.gapless_scaling(P_CHAIN, [2, 3])


@st.composite
def volumes_and_params(draw):
    """A connected volume of 2 to 6 sites grown one neighbour at a time,
    with rational parameters in [1/5, 5]."""
    d = draw(st.integers(1, 2))
    sites = [(0,) * d]
    for _ in range(draw(st.integers(1, 5))):
        free = sorted({s[:j] + (s[j] + step,) + s[j + 1:]
                       for s in sites for j in range(d)
                       for step in (1, -1)} - set(sites))
        sites.append(draw(st.sampled_from(free)))
    lam = st.lists(st.fractions(Fraction(1, 5), 5, max_denominator=5),
                   min_size=d, max_size=d).map(tuple)
    return Volume(d, tuple(sites)), Params(draw(lam), draw(lam))


@given(volumes_and_params())
@settings(max_examples=40, deadline=None)
def test_norm_bound_and_kernel_on_random_volumes(case):
    v, p = case
    n = len(v)
    for na in range(n + 1):
        for nb in range(n + 1 - na):
            b = fock.enumerate_sector(v, na, nb)
            h = operators.assemble_sector_hamiltonian(v, p, b)
            top = np.linalg.eigvalsh(h.toarray())[-1]
            # slack for the rounding of the dense eigensolve
            assert top <= spectra.hamiltonian_norm(h) * (1 + 1e-12)
    assert spectra.total_gap(v, p).kernel_total == 4
