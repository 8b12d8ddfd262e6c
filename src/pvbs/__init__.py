"""Two-species PVBS spin models on finite lattice volumes: exact
diagonalization, spectral gaps, and martingale-method gap certificates."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Exit 2: the input has no answer (gapless, invalid or out of range)."""


class ComputeError(RuntimeError):
    """Exit 3: no certificate at these settings, or a solve or check failed."""


from .model import Params, classify_zd  # noqa: E402, F401
