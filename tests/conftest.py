import numpy as np
import pytest

from pvbs import spectra


@pytest.fixture
def perturbed_lanczos(monkeypatch):
    """Patch the Lanczos solver to return its last Ritz vector slightly
    rotated, so that it is no longer an eigenvector of the operator
    solved."""
    real = spectra._lanczos

    def lanczos(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        vecs = vecs.copy()
        vecs[:2, -1] += 1e-4
        return vals, vecs / np.linalg.norm(vecs, axis=0)

    monkeypatch.setattr(spectra, "_lanczos", lanczos)
