"""Clustering stability analysis.

The paper argues correlation-based clustering "groups sensors in a more
consistent manner" than Euclidean clustering; this module quantifies
that claim.  Clusterings computed on different subsets of training days
are compared with the Adjusted Rand Index (implemented from scratch):
a stable method should produce nearly the same partition no matter
which days it sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import rng as rng_mod
from repro.cluster.spectral import cluster_sensors
from repro.data.dataset import AuditoriumDataset
from repro.data.modes import Mode, OCCUPIED
from repro.errors import ClusteringError

__all__ = [
    "adjusted_rand_index",
    "StabilityResult",
    "bootstrap_stability",
]


def adjusted_rand_index(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Adjusted Rand Index between two partitions of the same items.

    1 = identical partitions, ~0 = random agreement; can be negative.
    """
    # Local import: scipy.special costs ~0.1 s and this module is on every process's import path.
    from scipy.special import comb

    a = np.asarray(labels_a, dtype=int)
    b = np.asarray(labels_b, dtype=int)
    if a.shape != b.shape or a.ndim != 1:
        raise ClusteringError("label vectors must be 1-D and aligned")
    n = a.size
    if n < 2:
        raise ClusteringError("need at least two items")
    classes_a = np.unique(a)
    classes_b = np.unique(b)
    contingency = np.zeros((classes_a.size, classes_b.size), dtype=int)
    for i, ca in enumerate(classes_a):
        for j, cb in enumerate(classes_b):
            contingency[i, j] = int(np.sum((a == ca) & (b == cb)))
    sum_comb_cells = comb(contingency, 2).sum()
    sum_comb_a = comb(contingency.sum(axis=1), 2).sum()
    sum_comb_b = comb(contingency.sum(axis=0), 2).sum()
    total_pairs = comb(n, 2)
    expected = sum_comb_a * sum_comb_b / total_pairs
    maximum = 0.5 * (sum_comb_a + sum_comb_b)
    if maximum == expected:
        return 1.0
    return float((sum_comb_cells - expected) / (maximum - expected))


@dataclass
class StabilityResult:
    """Bootstrap stability of one clustering method."""

    method: str
    #: Pairwise ARI between every pair of bootstrap clusterings.
    pairwise_ari: np.ndarray
    #: The bootstrap clusterings' labels (n_bootstrap, n_sensors).
    labels: np.ndarray

    @property
    def mean_ari(self) -> float:
        return float(self.pairwise_ari.mean()) if self.pairwise_ari.size else 1.0

    @property
    def min_ari(self) -> float:
        return float(self.pairwise_ari.min()) if self.pairwise_ari.size else 1.0


def bootstrap_stability(
    dataset: AuditoriumDataset,
    method: str,
    k: Optional[int] = None,
    n_bootstrap: int = 8,
    day_fraction: float = 0.7,
    mode: Mode = OCCUPIED,
    seed: rng_mod.SeedLike = None,
    min_coverage: float = 0.7,
) -> StabilityResult:
    """Cluster on random day subsets and measure partition agreement.

    Each bootstrap round keeps a random ``day_fraction`` of the usable
    days, clusters the sensors on that subset, and the pairwise ARI
    across rounds summarizes how reproducible the method's partition is.
    """
    if not 0.0 < day_fraction <= 1.0:
        raise ClusteringError("day_fraction must be in (0, 1]")
    if n_bootstrap < 2:
        raise ClusteringError("need at least two bootstrap rounds")
    usable = dataset.usable_days(mode, min_coverage=min_coverage)
    keep = max(2, int(round(day_fraction * len(usable))))
    if len(usable) < 3:
        raise ClusteringError(f"only {len(usable)} usable days; cannot bootstrap")
    gen = rng_mod.derive(seed, "cluster-stability")

    all_labels: List[np.ndarray] = []
    for _ in range(n_bootstrap):
        chosen = gen.choice(len(usable), size=min(keep, len(usable)), replace=False)
        days = [usable[int(i)] for i in chosen]
        subset = dataset.restrict_days(days, mode=mode)
        clustering = cluster_sensors(subset, method=method, k=k, seed=int(gen.integers(2**31)))
        all_labels.append(clustering.labels)
    labels = np.vstack(all_labels)
    scores = []
    for i in range(n_bootstrap):
        for j in range(i + 1, n_bootstrap):
            scores.append(adjusted_rand_index(labels[i], labels[j]))
    return StabilityResult(
        method=method, pairwise_ari=np.asarray(scores), labels=labels
    )
