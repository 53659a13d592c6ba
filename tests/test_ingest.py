import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odac import (
    Dataset,
    LabeledDataset,
    NonFiniteValue,
    ParseError,
    RaggedRows,
    ScoreReport,
    SyntheticSpec,
    TooFewPoints,
    generate,
    preprocess,
    read_csv,
    read_species_table,
    write_csv,
    write_scores,
)

IRIS_SNIPPET = """5.1,3.5,1.4,0.2,Iris-setosa
4.9,3.0,1.4,0.2,Iris-setosa
7.0,3.2,4.7,1.4,Iris-versicolor
6.4,3.2,4.5,1.5,Iris-versicolor
6.3,3.3,6.0,2.5,Iris-virginica
"""


def test_preprocess_column_example():
    data = Dataset(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
    out = preprocess(data, normalize=True, scale=300.0)
    assert out.points[:, 0].tolist() == [0.0, 150.0, 300.0]
    assert out.points[:, 1].tolist() == [0.0, 0.0, 0.0]  # constant column


def test_preprocess_identity_on_unit_range():
    column = np.array([0.0, 0.25, 1.0])
    data = Dataset(np.column_stack([column, column[::-1]]))
    out = preprocess(data, normalize=True, scale=1.0)
    assert np.array_equal(out.points, data.points)


def test_preprocess_idempotent_at_scale_one():
    rng = np.random.default_rng(31)
    once = preprocess(Dataset(rng.uniform(-5, 5, (20, 4))), normalize=True, scale=1.0)
    twice = preprocess(once, normalize=True, scale=1.0)
    assert np.array_equal(once.points, twice.points)


def test_preprocess_spec_rejects_bad_scale():
    data = Dataset(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
    with pytest.raises(ValueError, match="scale must be > 0, got 0.0"):
        preprocess(data, scale=0.0)


def test_read_unlabeled_csv():
    data = read_csv(io.StringIO("1,2\n3,4\n5,6\n"))
    assert isinstance(data, Dataset)
    assert data.points.tolist() == [[1, 2], [3, 4], [5, 6]]


def test_read_labeled_csv_with_header():
    text = "a,b,class\n1,2,0\n3,4,1\n5,6,0\n"
    labeled = read_csv(io.StringIO(text), has_header=True, label_column="class")
    assert isinstance(labeled, LabeledDataset)
    assert labeled.data.n == 2
    assert labeled.is_outlier.tolist() == [False, True, False]


def test_read_labeled_csv_by_negative_index():
    labeled = read_csv(io.StringIO("1,2,1\n3,4,0\n5,6,0\n"), label_column=-1)
    assert labeled.outlier_count == 1


def test_read_byte_stream():
    data = read_csv(io.BytesIO(b"1,2\n3,4\n5,6\n"))
    assert data.q == 3


def test_read_leaves_byte_stream_open():
    source = io.BytesIO(b"1,2\n3,4\n5,6\n")
    read_csv(source)
    assert not source.closed
    assert source.getvalue() == b"1,2\n3,4\n5,6\n"


def test_empty_file_rejected():
    with pytest.raises(ParseError):
        read_csv(io.StringIO(""))


def test_ragged_row_located():
    with pytest.raises(RaggedRows) as err:
        read_csv(io.StringIO("1,2,3\n1,2,3\n1,2\n1,2,3\n"))
    assert err.value.line == 3


def test_bad_cell_located():
    with pytest.raises(ParseError) as err:
        read_csv(io.StringIO("1,2\n3,oops\n5,6\n"))
    assert (err.value.line, err.value.column) == (2, 2)


def test_nan_text_caught_by_validation():
    with pytest.raises(NonFiniteValue):
        read_csv(io.StringIO("1,2\n3,nan\n5,6\n"))


def test_bad_label_value_rejected():
    with pytest.raises(ParseError):
        read_csv(io.StringIO("1,2,2\n3,4,0\n5,6,1\n"), label_column=-1)


def test_too_small_csv_rejected():
    with pytest.raises(TooFewPoints):
        read_csv(io.StringIO("1,2\n3,4\n"))


def test_species_table_groups_rows():
    groups = read_species_table(io.StringIO(IRIS_SNIPPET), label_column=-1)
    assert sorted(groups) == ["Iris-setosa", "Iris-versicolor", "Iris-virginica"]
    assert groups["Iris-setosa"].shape == (2, 4)
    assert groups["Iris-virginica"][0].tolist() == [6.3, 3.3, 6.0, 2.5]


@pytest.mark.parametrize(
    "text, kwargs, error, line, field",
    [
        ("5.1,3.5,a\n4.9,3.0,1.4,b\n", {}, RaggedRows, 2, None),
        ("5.1,3.5,a\n4.9,x,b\n", {}, ParseError, 2, 2),
        ("f1,f2,species\n", {"has_header": True}, ParseError, 0, 0),
        ("5.1,3.5,a\n4.9,3.0,b\n", {"label_column": 3}, ParseError, 1, 0),
        ("5.1,3.5,a\n4.9,3.0,b\n", {"label_column": -4}, ParseError, 1, 0),
        (
            "\n\nf1,f2,species\n5.1,3.5,a\n",
            {"has_header": True, "label_column": "kind"},
            ParseError, 3, 0,
        ),
    ],
    ids=[
        "ragged", "bad-cell", "header-only", "label-past-end", "label-before-start",
        "label-name-missing",
    ],
)
def test_species_table_errors_located(text, kwargs, error, line, field):
    with pytest.raises(error) as err:
        read_species_table(io.StringIO(text), **kwargs)
    assert err.value.line == line
    assert getattr(err.value, "column", None) == field


def test_write_scores_format():
    report = ScoreReport(np.array([0.31, 0.12, 0.25]))
    sink = io.StringIO()
    write_scores(report, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "index,score,rank"
    assert len(lines) == 4
    ranks = [int(line.split(",")[2]) for line in lines[1:]]
    assert ranks == [1, 2, 3]
    indices = [int(line.split(",")[0]) for line in lines[1:]]
    assert indices == [1, 2, 0]


def test_write_scores_leaves_byte_stream_open():
    report = ScoreReport(np.array([0.5, 0.25]))
    sink = io.BytesIO()
    write_scores(report, sink)
    assert not sink.closed
    assert sink.getvalue() == b"index,score,rank\n1,0.25,1\n0,0.5,2\n"


def test_write_csv_leaves_byte_stream_open():
    data = Dataset(np.array([[1.0, 2.5], [3.0, 4.0], [-5.0, 6.0]]))
    sink = io.BytesIO()
    write_csv(data, sink)
    assert not sink.closed
    assert sink.getvalue() == b"x1,x2\n1.0,2.5\n3.0,4.0\n-5.0,6.0\n"


def test_write_scores_roundtrip_preserves_ranking():
    rng = np.random.default_rng(32)
    scores = rng.uniform(0.0, 5.0, 25)
    report = ScoreReport(scores)
    sink = io.StringIO()
    write_scores(report, sink)
    rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == report.ranking.tolist()


def test_dataset_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(33)
    data = Dataset(rng.standard_normal((40, 5)) * 1e3)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    back = read_csv(path, has_header=True)
    assert np.array_equal(back.points, data.points)


def test_labeled_roundtrip_through_generator(tmp_path):
    labeled = generate(SyntheticSpec(dim=3, normal_count=25, anomaly_count=4, seed=2))
    path = tmp_path / "scene.csv"
    write_csv(labeled, path)
    back = read_csv(path, has_header=True, label_column="label")
    assert np.array_equal(back.data.points, labeled.data.points)
    assert np.array_equal(back.is_outlier, labeled.is_outlier)


@given(
    st.lists(
        st.lists(st.floats(-1e12, 1e12), min_size=3, max_size=3),
        min_size=3,
        max_size=12,
    )
)
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(rows):
    data = Dataset(np.asarray(rows))
    sink = io.StringIO()
    write_csv(data, sink)
    back = read_csv(io.StringIO(sink.getvalue()), has_header=True)
    assert np.array_equal(back.points, data.points)


def _source(kind, text, tmp_path):
    """The same UTF-8 text as a path, a byte stream or a text stream."""
    if kind == "path":
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        return path
    if kind == "bytes":
        return io.BytesIO(text.encode("utf-8"))
    return io.StringIO(text)


@pytest.mark.parametrize("kind", ["path", "bytes", "text"])
def test_leading_byte_order_mark_is_ignored(kind, tmp_path):
    plain = read_csv(_source(kind, "\ufeff0,0\n1,0\n0,2\n5,5\n", tmp_path))
    assert plain.points.tolist() == [[0, 0], [1, 0], [0, 2], [5, 5]]

    header = read_csv(
        _source(kind, "\ufeffx,y\n0,0\n1,0\n0,2\n", tmp_path), has_header=True
    )
    assert header.points.tolist() == [[0, 0], [1, 0], [0, 2]]

    text = "\ufefflabel,x,y\n0,0,0\n0,1,0\n1,9,9\n"
    labeled = read_csv(
        _source(kind, text, tmp_path), has_header=True, label_column="label"
    )
    assert labeled.data.points.tolist() == [[0, 0], [1, 0], [9, 9]]
    assert labeled.is_outlier.tolist() == [False, False, True]
