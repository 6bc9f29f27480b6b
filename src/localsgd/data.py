"""Sparse labeled datasets in LIBSVM text format.

Lines look like ``<label> <index>:<value> ...`` with 1-based, strictly
increasing feature indices and labels in {-1, +1}.  Text after ``#`` is a
comment.  Internally features are stored 0-based in a CSR matrix so that
full-batch operations are single sparse matvecs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isfinite

import numpy as np
import scipy.sparse as sp


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass
class Dataset:
    """Immutable binary classification dataset.

    labels: (n,) array of +-1.0
    features: (n, d) CSR matrix, 0-based column indices
    """

    labels: np.ndarray
    features: sp.csr_matrix

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("label count does not match feature rows")
        if self.n == 0:
            raise ValueError("dataset must contain at least one example")
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be +-1")
        self.labels.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def row_norms_sq(self) -> np.ndarray:
        """Squared Euclidean norm of every feature row."""
        return np.asarray(self.features.multiply(self.features).sum(axis=1)).ravel()


def parse_libsvm(lines, declared_dimension=None) -> Dataset:
    """Parse LIBSVM-format text into a Dataset.

    `lines` is any iterable of strings (an open file works).  The feature
    dimension is `declared_dimension` when given, otherwise the largest
    index seen.  Raises LibsvmFormatError with the offending line number
    for malformed tokens, non-finite values, labels outside {+-1},
    non-increasing indices, or indices above the declared dimension.
    """
    # typed buffers hold 8 bytes per entry, a list ~4x that in float objects
    labels = array("d")
    indptr = array("q", [0])
    col_indices = array("q")
    values = array("d")
    max_index = 0

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmFormatError(f"malformed label {tokens[0]!r}", lineno)
        if label not in (1.0, -1.0):
            raise LibsvmFormatError(f"label must be +-1, got {tokens[0]!r}", lineno)

        prev_index = 0
        for token in tokens[1:]:
            idx_str, sep, val_str = token.partition(":")
            if not sep:
                raise LibsvmFormatError(f"malformed token {token!r}", lineno)
            try:
                index = int(idx_str)
                value = float(val_str)
            except ValueError:
                raise LibsvmFormatError(f"malformed token {token!r}", lineno)
            if not isfinite(value):
                raise LibsvmFormatError(f"non-finite value in token {token!r}", lineno)
            if index < 1:
                raise LibsvmFormatError(f"index {index} must be >= 1", lineno)
            if index <= prev_index:
                raise LibsvmFormatError(
                    f"non-increasing index {index} after {prev_index}", lineno
                )
            if declared_dimension is not None and index > declared_dimension:
                raise LibsvmFormatError(
                    f"index {index} exceeds declared dimension {declared_dimension}",
                    lineno,
                )
            prev_index = index
            col_indices.append(index - 1)
            values.append(value)
        max_index = max(max_index, prev_index)
        labels.append(label)
        indptr.append(len(col_indices))

    if not labels:
        raise LibsvmFormatError("no examples found in input")

    d = declared_dimension if declared_dimension is not None else max_index
    features = sp.csr_matrix(
        (np.frombuffer(values, dtype=np.float64),
         np.frombuffer(col_indices, dtype=np.int64),
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(labels), d),
    )
    return Dataset(labels=np.frombuffer(labels, dtype=np.float64), features=features)

