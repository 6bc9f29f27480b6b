import hashlib
import io

import numpy as np
import pytest
import scipy.sparse as sp

from localsgd import Dataset, LibsvmFormatError, LogisticObjective, parse_libsvm
from oracles import example, serialize_libsvm, sparse_dot


def test_parse_basic_line():
    ds = parse_libsvm(["+1 3:1 11:0.5"])
    assert ds.n == 1
    assert ds.d == 11
    label, pairs = example(ds, 0)
    assert label == 1.0
    assert pairs == [(3, 1.0), (11, 0.5)]


def test_labels_accept_plus_minus_one_spellings():
    ds = parse_libsvm(["1 1:2", "-1 1:3", "+1 2:4"])
    assert list(ds.labels) == [1.0, -1.0, 1.0]


def test_comments_blank_lines_and_crlf():
    text = "+1 1:1 # trailing comment\r\n\r\n# full comment line\n-1 2:1\r\n"
    ds = parse_libsvm(io.StringIO(text))
    assert ds.n == 2
    assert ds.d == 2


def test_declared_dimension_wins():
    ds = parse_libsvm(["+1 3:1"], declared_dimension=7)
    assert ds.d == 7


def test_non_increasing_index_reports_line():
    with pytest.raises(LibsvmFormatError, match="line 1.*non-increasing"):
        parse_libsvm(["-1 5:2 5:3"])
    with pytest.raises(LibsvmFormatError, match="line 2"):
        parse_libsvm(["+1 1:1", "-1 4:1 2:1"])


def test_malformed_tokens_report_line():
    with pytest.raises(LibsvmFormatError, match="line 1.*malformed"):
        parse_libsvm(["+1 3:abc"])
    with pytest.raises(LibsvmFormatError, match="line 1.*malformed"):
        parse_libsvm(["+1 3"])
    with pytest.raises(LibsvmFormatError, match="label"):
        parse_libsvm(["2 1:1"])
    with pytest.raises(LibsvmFormatError, match="label"):
        parse_libsvm(["spam 1:1"])
    with pytest.raises(LibsvmFormatError, match="^line 1: index 0 must be >= 1$"):
        parse_libsvm(["+1 0:1"])


def test_dataset_checks_its_arrays():
    features = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^label count does not match feature rows$"):
        Dataset(np.array([1.0]), features)
    with pytest.raises(ValueError, match="^dataset must contain at least one example$"):
        Dataset(np.zeros(0), sp.csr_matrix((0, 3)))
    with pytest.raises(ValueError, match=r"^labels must be \+-1$"):
        Dataset(np.array([1.0, 0.5]), features)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_values_report_line(token):
    with pytest.raises(LibsvmFormatError, match=f"line 1: non-finite value in token '1:{token}'"):
        parse_libsvm([f"1 1:{token}"])
    with pytest.raises(LibsvmFormatError, match="line 2: non-finite"):
        parse_libsvm(["-1 2:0.5", f"+1 1:1 3:{token}"])


def test_index_above_declared_dimension():
    with pytest.raises(LibsvmFormatError, match="line 1.*exceeds"):
        parse_libsvm(["+1 9:1"], declared_dimension=5)


def test_empty_input_rejected():
    with pytest.raises(LibsvmFormatError, match="no examples"):
        parse_libsvm(["", "   ", "# only comments"])


def test_parsed_synth50_arrays_are_pinned(synth50):
    # the parser's buffers must give the same CSR arrays and labels, byte
    # for byte and dtype for dtype, as every fixture was computed from
    features = synth50.features
    expected = {
        "data": ("float64", "25d235e3adc4aaa30688cf51ec33d95650d5ad60d1a2e6b052169cd5c030f10e"),
        "indices": ("int32", "d9e5b2d6339069ee5fc4e24c2145d051d2b8edfb8dd035b5bbd9182c537c726d"),
        "indptr": ("int32", "340b37ffe2ff2bc68cac10b40ec588e3e1ab94b8ceb4ddf429dcb8666594a20d"),
        "labels": ("float64", "84c152386ebd5c4a5fef508ef795e46fa3586ae5143ec416f6ffef8247011b20"),
    }
    arrays = {"data": features.data, "indices": features.indices,
              "indptr": features.indptr, "labels": synth50.labels}
    for name, array in arrays.items():
        assert (str(array.dtype), hashlib.sha256(array.tobytes()).hexdigest()) == \
            expected[name], name
    assert features.shape == (50, 10) and not synth50.labels.flags.writeable


def test_default_regularization_is_one_over_n(synth50):
    assert LogisticObjective(synth50).lam == 1.0 / synth50.n


def test_round_trip(synth50):
    text = serialize_libsvm(synth50)
    again = parse_libsvm(io.StringIO(text), declared_dimension=synth50.d)
    assert again.n == synth50.n
    assert again.d == synth50.d
    assert np.array_equal(again.labels, synth50.labels)
    assert (again.features != synth50.features).nnz == 0


def test_sparse_dot_trivial_cases():
    x = np.array([3.0, -1.0, 2.0])
    assert sparse_dot([], x) == 0.0
    assert sparse_dot([(1, 2.0)], x) == 6.0


def test_sparse_dot_against_densified_oracle():
    rng = np.random.default_rng(3)
    d = 200
    x = rng.standard_normal(d)
    idx = np.sort(rng.choice(d, size=50, replace=False))
    vals = rng.standard_normal(50)
    pairs = [(int(i) + 1, float(v)) for i, v in zip(idx, vals)]

    dense = np.zeros(d)
    dense[idx] = vals
    expected = float(dense @ x)

    got = sparse_dot(pairs, x)
    assert abs(got - expected) <= 1e-14 * max(1.0, abs(expected))


def test_sparse_dot_out_of_range():
    with pytest.raises(IndexError):
        sparse_dot([(4, 1.0)], np.zeros(3))
    with pytest.raises(IndexError):
        sparse_dot([(0, 1.0)], np.zeros(3))


def test_w8a_shape(w8a_dataset):
    assert w8a_dataset.n == 49749
    assert w8a_dataset.d == 300
