"""Seeded generator of a w8a-shaped LIBSVM dataset.

The real w8a set (n=49,749, d=300, binary features, about 11.7 nonzeros per
row, about 3% positive labels) is not bundled with the package, so the
scale workload runs on a synthetic set of the same shape:

* every feature value is 1, and feature j is present in a row with
  probability p_j, where the p_j follow a Zipf-like law over a seeded
  random ranking of the features (a few features are in most rows, most
  features are rare) and sum to the target mean row length;
* labels are +1 for the rows whose score under a hidden weight vector plus
  noise is in the top POSITIVE_SHARE, so the labels depend on the
  features and the logistic problem is not trivial;
* indices are 1-based and strictly increasing within a row.

The same arguments give the same bytes.
"""

from __future__ import annotations

import numpy as np

N_ROWS = 49_749
N_FEATURES = 300
MEAN_ROW_NNZ = 11.7
POSITIVE_SHARE = 0.03
ZIPF_EXPONENT = 1.1
MAX_FEATURE_PROBABILITY = 0.9
CHUNK_ROWS = 4096


def feature_probabilities(rng):
    """Per-feature inclusion probabilities summing to MEAN_ROW_NNZ."""
    ranks = rng.permutation(N_FEATURES)
    weights = 1.0 / (ranks + 8.0) ** ZIPF_EXPONENT
    p = weights * (MEAN_ROW_NNZ / weights.sum())
    # cap the most frequent features and hand their excess to the others
    for _ in range(50):
        over = p > MAX_FEATURE_PROBABILITY
        if not over.any():
            break
        excess = float((p[over] - MAX_FEATURE_PROBABILITY).sum())
        p[over] = MAX_FEATURE_PROBABILITY
        free = ~over
        p[free] += excess * p[free] / p[free].sum()
    return p


def generate_rows(seed):
    """(labels, rows): labels (n,) of +-1, rows a list of 0-based index arrays."""
    n, d = N_ROWS, N_FEATURES
    rng = np.random.default_rng(seed)
    p = feature_probabilities(rng)
    hidden = rng.standard_normal(d)
    rows = []
    scores = np.empty(n)
    for start in range(0, n, CHUNK_ROWS):
        stop = min(n, start + CHUNK_ROWS)
        present = rng.random((stop - start, d)) < p
        scores[start:stop] = present @ hidden
        rows.extend(np.flatnonzero(row) for row in present)
    scores += rng.standard_normal(n) * scores.std()
    n_positive = int(round(POSITIVE_SHARE * n))
    labels = -np.ones(n)
    labels[np.argsort(-scores, kind="stable")[:n_positive]] = 1.0
    return labels, rows


def render(labels, rows) -> str:
    """LIBSVM text: one `<+1|-1> <index>:1 ...` line per row, 1-based."""
    lines = []
    for label, row in zip(labels, rows):
        head = "+1" if label > 0 else "-1"
        feats = " ".join(f"{j + 1}:1" for j in row.tolist())
        lines.append(f"{head} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def write_dataset(path, seed):
    """Generate the dataset for `seed` and write it to `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(*generate_rows(seed)))

