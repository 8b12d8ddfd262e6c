import numpy as np
import pytest
import scipy.sparse.linalg as spla


@pytest.fixture
def perturbed_eigsh(monkeypatch):
    """Patch eigsh to return its last Ritz vector slightly rotated, so
    that it is no longer an eigenvector of the operator solved."""
    real = spla.eigsh

    def eigsh(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        vecs[:2, -1] += 1e-4
        return vals, vecs / np.linalg.norm(vecs, axis=0)

    monkeypatch.setattr(spla, "eigsh", eigsh)
