"""``stratified_kfold`` as it was before its per-sample loop moved to
Python floats, kept as an oracle: ``pick_fold`` works on length-k numpy
arrays of demand and capacity.

``test_splits.py`` requires the library's splitter to return the same
``fold_of`` as this one for every input and seed.
"""

from __future__ import annotations

import numpy as np

from canopy.data import LabelMatrix, make_rng
from canopy.splits import FoldAssignment


def stratified_kfold(truth: LabelMatrix, k: int, seed: int) -> FoldAssignment:
    """Iterative stratification; deterministic for a fixed seed.

    Processing order: the label with the fewest remaining positives first;
    each of its unassigned samples goes to the fold with the greatest
    remaining demand for that label, ties broken by the greatest overall
    remaining capacity and then by a PRNG draw.
    """
    n = truth.n_samples
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of samples ({n})")
    rng = make_rng(seed)
    y = truth.as_bool()
    # a label above 50% prevalence is easier to balance through its rare
    # complement (rare labels are processed first and spread near-exactly),
    # so stratify those complements as extra virtual labels
    dense = np.nonzero(y.mean(axis=0) > 0.5)[0]
    if dense.size:
        y = np.concatenate([y, ~y[:, dense]], axis=1)
    n_labels = y.shape[1]

    fold_of = np.full(n, -1, dtype=np.int64)
    # demand[l][f]: how many positives of label l fold f still wants
    demand = np.tile(y.sum(axis=0, dtype=np.float64)[:, None] / k, (1, k))
    capacity = np.full(k, n / k)
    unassigned = np.ones(n, dtype=bool)

    def pick_fold(label: int | None) -> int:
        # folds at their size quota stop receiving until every fold is full,
        # keeping sizes within one sample so label proportions track counts
        cand = np.arange(k)
        open_folds = cand[capacity[cand] > 0]
        if open_folds.size:
            cand = open_folds
        if label is not None:
            d = demand[label]
            cand = cand[d[cand] == d[cand].max()]
        if len(cand) > 1:
            c = capacity[cand]
            cand = cand[c == c.max()]
        if len(cand) > 1:
            cand = cand[[rng.integers(len(cand))]]
        return int(cand[0])

    labels_per_sample = y.sum(axis=1)
    while True:
        remaining_pos = (y & unassigned[:, None]).sum(axis=0)
        active = np.nonzero(remaining_pos > 0)[0]
        if active.size == 0:
            break
        label = int(active[np.argmin(remaining_pos[active])])
        members = np.nonzero(y[:, label] & unassigned)[0]
        # most-constrained samples first: their many demand counters are
        # still informative early in the sweep
        members = members[np.argsort(-labels_per_sample[members], kind="stable")]
        for i in members:
            f = pick_fold(label)
            fold_of[i] = f
            unassigned[i] = False
            demand[y[i], f] -= 1.0
            capacity[f] -= 1.0

    for i in np.nonzero(unassigned)[0]:  # samples with no positive labels
        f = pick_fold(None)
        fold_of[i] = f
        capacity[f] -= 1.0

    return FoldAssignment(fold_of=fold_of, k=k)
