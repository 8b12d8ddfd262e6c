import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pvbs import InputError, cli, fock
from pvbs.lattice import build_box


def test_sector_dimension():
    assert fock.sector_dimension(6, 0, 0) == 1
    assert fock.sector_dimension(6, 1, 0) == 6
    assert fock.sector_dimension(6, 1, 1) == 30
    assert fock.sector_dimension(6, 2, 2) == 90
    assert sum(fock.sector_dimension(4, na, nb)
               for na in range(5) for nb in range(5 - na)) == 3 ** 4


def test_encode_decode():
    assert oracles.encode((0, 1, 2)) == 1 * 3 + 2 * 9
    assert oracles.decode(oracles.encode((2, 0, 1, 1)), 4) == (2, 0, 1, 1)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_encode_roundtrip(symbols):
    assert oracles.decode(oracles.encode(symbols),
                          len(symbols)) == tuple(symbols)


def test_enumerate_sector():
    v = build_box((3,))
    b = fock.enumerate_sector(v, 1, 1)
    assert b.dim == 6 == fock.sector_dimension(3, 1, 1)
    # states sorted and all in the right sector
    assert list(b.states) == sorted(b.states)
    for code in b.states:
        digits = oracles.decode(code, 3)
        assert digits.count(1) == 1 and digits.count(2) == 1
    # index lookup is the inverse of enumeration
    for i, code in enumerate(b.states):
        assert b.positions(code) == i


def test_index_of_rejects_wrong_sector():
    v = build_box((3,))
    b = fock.enumerate_sector(v, 1, 0)
    with pytest.raises(InputError):
        b.positions(oracles.encode((2, 0, 0)))
    # past the last state, where a sorted search runs off the end
    with pytest.raises(InputError):
        b.positions(b.states[-1] + 1)
    with pytest.raises(InputError):
        b.positions([b.states[0], 3 ** 3])


def test_enumerate_sector_matches_brute_force_filter():
    v = build_box((3, 3))
    by_counts = {}
    for code in range(3 ** 9):
        digits = oracles.decode(code, 9)
        by_counts.setdefault((digits.count(1), digits.count(2)), []).append(code)
    for na in range(10):
        for nb in range(10 - na):
            b = fock.enumerate_sector(v, na, nb)
            assert b.states.dtype == np.int64
            assert not b.states.flags.writeable
            assert b.states.tolist() == by_counts[(na, nb)], (na, nb)


def test_digit_kernel_matches_scalar_reference():
    codes = np.array([0, 5, 3 ** 7 - 1,
                      oracles.encode((2, 0, 1, 1, 0, 2, 1))])
    cols = list(fock.digits(codes, range(7)))
    for i, code in enumerate(codes):
        assert tuple(int(c[i]) for c in cols) == oracles.decode(int(code), 7)
    assert fock.place(cols, range(7)).tolist() == codes.tolist()


def test_code_overflow_limit():
    # 39 sites is the largest volume whose codes fit in int64
    b = fock.enumerate_sector(build_box((39,)), 0, 39)
    assert b.states.tolist() == [3 ** 39 - 1]
    with pytest.raises(InputError):
        fock.enumerate_sector(build_box((40,)), 0, 0)
    assert cli.main(["gap", "--volume", "box:40", "--lambda-a", "2",
                     "--lambda-b", "0.5"]) == 2


def test_sector_cap(monkeypatch):
    v = build_box((3, 3))
    monkeypatch.setattr(fock, "DEFAULT_SECTOR_CAP", 100)
    with pytest.raises(InputError, match="cap 100"):
        fock.enumerate_sector(v, 3, 3)


def test_invalid_counts():
    v = build_box((2,))
    with pytest.raises(InputError):
        fock.enumerate_sector(v, 2, 1)
