"""Synthetic instance generation: mixed Ising grids and random test models.

All sampling uses numpy's PCG64 generator seeded explicitly, so instances
are bit-reproducible from (spec, seed) alone.  Sampling order is fixed:
edge couplings first (grid row-major, right edge before down edge), then
node potentials in node order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .model import PairwiseMRF, _integers


@dataclass(frozen=True)
class IsingSpec:
    rows: int
    cols: int
    beta: float
    node_potential_bound: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _integers((self.rows, self.cols, self.seed), ("rows", "cols", "seed").__getitem__)
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if not 0 < self.beta < np.inf:
            raise ValueError("beta must be finite and > 0")
        if not np.isfinite(self.node_potential_bound) or np.signbit(self.node_potential_bound):
            raise ValueError(f"node_potential_bound must be finite and >= 0, got {self.node_potential_bound}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def gen_ising_grid(spec: IsingSpec) -> PairwiseMRF:
    """Binary 4-neighbor grid with mixed couplings.

    Per edge, d ~ U[-beta, beta] gives the table [[d, -d], [-d, d]]; per
    node, u ~ U[-bound, bound] gives the unary (+u, -u).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.rows * spec.cols

    def node(r: int, c: int) -> int:
        return r * spec.cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            if c + 1 < spec.cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < spec.rows:
                edges.append((node(r, c), node(r + 1, c)))
    # one draw per edge, then one per node; a sign flip is exact, so d * -1.0 is -d
    tables = rng.uniform(-spec.beta, spec.beta, size=(len(edges), 1, 1)) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    tables.flags.writeable = False  # the model keeps this stack
    b = spec.node_potential_bound
    unaries = rng.uniform(-b, b, size=(n, 1)) * np.array([1.0, -1.0])
    return PairwiseMRF((2,) * n, tuple(edges), tuple(tables), dict(enumerate(unaries)))


def gen_random_mrf(
    n: int,
    k: int,
    density: float = 0.5,
    potential_scale: float = 1.0,
    seed: int = 0,
) -> PairwiseMRF:
    """Connected random model: a random spanning tree plus extra edges kept
    with probability `density`; table entries ~ U[0, potential_scale]."""
    _integers((n, k, seed), ("n", "k", "seed").__getitem__)
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 and k >= 2")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if not np.isfinite(potential_scale) or np.signbit(potential_scale):  # uniform(0.0, -0.0) fails too
        raise ValueError(f"potential_scale must be finite and >= 0, got {potential_scale}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    edges: List[Tuple[int, int]] = []
    tree = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        tree.add((u, v))
        edges.append((u, v))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in tree and rng.random() < density:
                edges.append((i, j))
    tables = rng.uniform(0.0, potential_scale, size=(len(edges), k, k))  # the per-edge draws, in order
    tables.flags.writeable = False  # the model keeps this stack
    return PairwiseMRF((k,) * n, tuple(edges), tuple(tables))
