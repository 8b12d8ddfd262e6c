"""Reference ||G_slab E_n|| on all 3^N ambient states, for tests.

Every projector is a sparse 3^N x 3^N matrix built from the analytic
ground vectors, with one column block per configuration of the sites
outside the projected volume; nothing here uses particle-number sectors
beyond those of the ground vectors themselves. The norm is the dense SVD
of the nonzero rows and columns of G_slab (G_inner x 1 - G_ambient).
Keep ambient volumes small: the matrices have 3^N rows.
"""

import numpy as np
import scipy.sparse as sp

from pvbs import analytic, fock


def ground_projector(part, ambient, p) -> sp.csr_matrix:
    """G_part x 1 on H^ambient, in ambient base-3 codes."""
    at = {s: i for i, s in enumerate(ambient.sites)}
    part_pos = [at[s] for s in part.sites]
    rest_pos = [at[s] for s in ambient.sites if s not in part]
    rest = fock.place(fock.digits(np.arange(3 ** len(rest_pos)),
                                  range(len(rest_pos))), rest_pos)
    rest = np.atleast_1d(rest)  # a single empty configuration
    blocks = []
    for (n_a, n_b), which in analytic.GROUND_SECTORS.items():
        own = fock.enumerate_sector(part, n_a, n_b)
        psi = analytic.ground_state_vector(part, p, which, own)
        codes = np.add.outer(
            fock.place(fock.digits(own.states, range(len(part))), part_pos),
            rest)
        cols = np.broadcast_to(np.arange(len(rest)), codes.shape)
        vals = np.broadcast_to(psi[:, None], codes.shape)
        blocks.append(sp.csc_matrix((vals.ravel(), (codes.ravel(),
                                                     cols.ravel())),
                                    shape=(3 ** len(ambient), len(rest))))
    v = sp.hstack(blocks).tocsr()
    return (v @ v.T).tocsr()


def projection_norm(slab, inner, ambient, p) -> float:
    """||G_slab (G_inner x 1 - G_ambient)|| by dense SVD."""
    e_n = ground_projector(inner, ambient, p) \
        - ground_projector(ambient, ambient, p)
    prod = (ground_projector(slab, ambient, p) @ e_n).tocoo()
    rows, cols = np.unique(prod.row), np.unique(prod.col)
    if not len(rows):
        return 0.0
    block = prod.tocsr()[rows][:, cols].toarray()
    return float(np.linalg.norm(block, 2))
