"""Synthetic workload generators (paper sections 6.3-6.4, Figure 17).

All generators are deterministic given a seed.  Three vector families
drive the Figure 13 study:

* ``urandom`` — uniformly random placement at a target nnz;
* ``runs``    — pairs of vectors where one has long stretches of
  nonzeros between the nonzeros of the other (Figure 17 top);
* ``blocks``  — vectors with dense blocks of nonzeros placed throughout
  (Figure 17 bottom).

Matrices: uniformly random at a sparsity, and the ExTensor study's
constant-nnz/varying-dimension matrices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


def urandom_vector(size: int, nnz: int, seed: int = 0) -> np.ndarray:
    """Uniformly random sparse vector with exactly *nnz* nonzeros."""
    rng = np.random.default_rng(seed)
    if nnz > size:
        raise ValueError(f"nnz={nnz} exceeds size={size}")
    vec = np.zeros(size)
    positions = rng.choice(size, size=nnz, replace=False)
    vec[positions] = rng.uniform(0.1, 1.0, size=nnz)
    return vec


def runs_vectors(
    size: int, nnz: int, run_length: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Vector pair where each vector has runs of *run_length* nonzeros
    interleaved with the other's runs (Figure 17 top).

    The pair alternates ownership of consecutive length-``run_length``
    windows, so intersections are empty but coiteration must stream both
    — the best case for coordinate skipping.
    """
    rng = np.random.default_rng(seed)
    b = np.zeros(size)
    c = np.zeros(size)
    owner_is_b = True
    pos = 0
    placed_b = placed_c = 0
    while pos < size and (placed_b < nnz or placed_c < nnz):
        window = min(run_length, size - pos)
        target = b if owner_is_b else c
        placed = placed_b if owner_is_b else placed_c
        take = min(window, nnz - placed)
        if take > 0:
            target[pos : pos + take] = rng.uniform(0.1, 1.0, size=take)
        if owner_is_b:
            placed_b += take
        else:
            placed_c += take
        pos += window
        owner_is_b = not owner_is_b
    return b, c


def blocks_vectors(
    size: int, nnz: int, block_size: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Vector pair with aligned dense blocks (Figure 17 bottom).

    Both vectors place dense blocks of *block_size* nonzeros at the same
    starting offsets, spread evenly — intersections are dense inside the
    blocks and empty between them.
    """
    rng = np.random.default_rng(seed)
    num_blocks = max(1, nnz // block_size)
    stride = size // num_blocks
    if stride < block_size:
        raise ValueError("blocks would overlap; reduce nnz or block size")
    b = np.zeros(size)
    c = np.zeros(size)
    for index in range(num_blocks):
        start = index * stride
        b[start : start + block_size] = rng.uniform(0.1, 1.0, size=block_size)
        c[start : start + block_size] = rng.uniform(0.1, 1.0, size=block_size)
    return b, c


def random_sparse_matrix(
    rows: int, cols: int, density: float, seed: int = 0
) -> np.ndarray:
    """Uniformly random dense-represented sparse matrix at *density*."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < density
    return mask * rng.uniform(0.1, 1.0, size=(rows, cols))


def extensor_matrix(dimension: int, nnz: int, seed: int = 0) -> sparse.csr_matrix:
    """Square matrix with a constant number of nonzeros (section 6.4).

    The ExTensor study sweeps the dimension while holding nnz fixed, so
    density falls as the dimension grows.
    """
    from scipy import sparse

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, dimension, size=nnz)
    cols = rng.integers(0, dimension, size=nnz)
    vals = rng.uniform(0.1, 1.0, size=nnz)
    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(dimension, dimension)
    )
    matrix.sum_duplicates()
    return matrix


def frostt_like_tensor(
    shape: Tuple[int, ...], nnz: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthetic higher-order sparse tensor in COO form (FROSTT stand-in).

    FROSTT tensors are unavailable offline; this generates seeded sparse
    tensors with the hallmark FROSTT property of clustered mode usage:
    coordinates are drawn from a Zipf-biased distribution per mode so a
    few slices are dense and most are near-empty.

    Returns ``(coords, values)`` with coords of shape (nnz, order).
    """
    rng = np.random.default_rng(seed)
    order = len(shape)
    coords = np.empty((nnz, order), dtype=np.int64)
    for mode, dim in enumerate(shape):
        # Zipf-biased slice popularity, clipped to the dimension.
        raw = rng.zipf(1.4, size=nnz) - 1
        coords[:, mode] = np.minimum(raw, dim - 1)
        rng.shuffle(coords[:, mode])
    values = rng.uniform(0.1, 1.0, size=nnz)
    return coords, values
