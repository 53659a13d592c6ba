import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odac import (
    Dataset,
    LabeledDataset,
    NonFiniteValue,
    Params,
    ParseError,
    RaggedRows,
    ScoreReport,
    SyntheticSpec,
    TooFewPoints,
    generate,
    preprocess,
    read_csv,
    read_species_table,
    score_all_fast,
    write_csv,
    write_scores,
)
from odac import ingest

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


BIG = np.finfo(float).max


@given(
    q=st.integers(3, 30),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 300.0, 1e150]),
)
@settings(max_examples=150, deadline=None)
def test_preprocess_overflowing_span(q, n, seed, scale):
    # Column 0 runs from below -2^1023 to above 2^1023, so max - min
    # overflows; the other columns mix ordinary and such wide spans. No
    # value is subnormal, so halving the data is exact.
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1e6, 1e6, size=(q, n))
    wide = np.arange(n) == 0
    wide[1:] = rng.integers(0, 2, size=n - 1).astype(bool)
    signs = rng.choice([-1.0, 1.0], size=(q, n))
    huge = signs * BIG * rng.uniform(2.0**-30, 1.0, size=(q, n))
    huge[rng.uniform(size=(q, n)) < 0.2] = 0.0
    points[:, wide] = huge[:, wide]
    points[0, wide] = -BIG * rng.uniform(0.5, 1.0, size=wide.sum())
    points[1, wide] = BIG * rng.uniform(0.5, 1.0, size=wide.sum())
    out = preprocess(Dataset(points), normalize=True, scale=scale).points
    assert np.all((out >= 0) & (out <= scale))
    assert out[:, 0].min() == 0 and out[:, 0].max() == scale
    # Halving every column changes no bit; a column keeps its bits whatever
    # its neighbours hold.
    assert np.array_equal(preprocess(Dataset(points * 0.5), scale=scale).points, out)
    for j in np.flatnonzero(~wide):
        alone = np.column_stack([points[:, j], points[:, j]])
        assert np.array_equal(preprocess(Dataset(alone), scale=scale).points[:, 0], out[:, j])
    s_n = min(3, q - 1)
    scores = score_all_fast(Dataset(out), Params(n_d=scale / 4, s_n=s_n)).scores
    assert np.all(np.isfinite(scores) & (scores > 0) & (scores <= s_n))


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


@pytest.mark.parametrize("kind", ["bytes", "path", "str"])
def test_species_table_reads_every_source(kind, tmp_path):
    expected = read_species_table(io.StringIO(IRIS_SNIPPET))
    path = tmp_path / "iris.data"
    path.write_text(IRIS_SNIPPET)
    source = {"bytes": io.BytesIO(IRIS_SNIPPET.encode()), "path": path, "str": str(path)}[kind]
    groups = read_species_table(source)
    assert list(groups) == list(expected)
    for name, rows in expected.items():
        assert groups[name].tolist() == rows.tolist()


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
        (
            "f1,f2,species\n5.1,3.5\n4.9,3.0\n",
            {"has_header": True, "label_column": "species"},
            ParseError, 1, 0,
        ),
    ],
    ids=[
        "ragged", "bad-cell", "header-only", "label-past-end", "label-before-start",
        "label-name-missing", "label-name-past-row-end",
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


# 201 lines are written in chunks of 7 (the last one short) or in one.
@pytest.mark.parametrize("chunk", [7, 201])
@pytest.mark.parametrize("sink", ["path", "text"])
def test_write_scores_matches_csv_writer(tmp_path, monkeypatch, sink, chunk):
    # Tied scores, ranked by index, and magnitudes that `.12g` writes in
    # exponent form.
    monkeypatch.setattr(ingest, "_WRITE_LINES", chunk)
    scores = np.random.default_rng(34).uniform(0.0, 5.0, 200)
    scores[::7] = 1.25
    scores[:3] = [3e-20, 2.5e17, 3e-20]
    report = ScoreReport(scores)
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(["index", "score", "rank"])
    writer.writerows(
        [int(point), format(report.scores[point], ".12g"), rank]
        for rank, point in enumerate(report.ranking, start=1)
    )
    if sink == "path":
        write_scores(report, tmp_path / "scores.csv")
        written = (tmp_path / "scores.csv").read_bytes()
    else:
        stream = io.StringIO()
        write_scores(report, stream)
        written = stream.getvalue().encode()
    assert written == reference.getvalue().encode()


# 61 lines are written in chunks of 7 (the last one short), in one
# chunk that fills the limit, or in one short chunk.
@pytest.mark.parametrize("chunk", [7, 61, 4096])
@pytest.mark.parametrize("sink", ["path", "text"])
def test_write_csv_matches_csv_writer(tmp_path, monkeypatch, sink, chunk):
    # A labeled dataset with negative zero, integers and magnitudes that
    # repr writes in exponent form.
    monkeypatch.setattr(ingest, "_WRITE_LINES", chunk)
    points = np.random.default_rng(35).standard_normal((60, 4))
    points[:4, 0] = [-0.0, 3.0, 1e-300, -2.5e17]
    flags = np.arange(60) % 9 == 0
    data = LabeledDataset(Dataset(points), flags)
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(["x1", "x2", "x3", "x4", "label"])
    writer.writerows([*map(repr, map(float, p)), int(f)] for p, f in zip(points, flags))
    if sink == "path":
        write_csv(data, tmp_path / "data.csv")
        written = (tmp_path / "data.csv").read_bytes()
    else:
        stream = io.StringIO()
        write_csv(data, stream)
        written = stream.getvalue().encode()
    assert written == reference.getvalue().encode()


def test_write_csv_leaves_byte_stream_open():
    data = Dataset(np.array([[1.0, 2.5], [3.0, 4.0], [-5.0, 6.0]]))
    sink = io.BytesIO()
    write_csv(data, sink)
    assert not sink.closed
    assert sink.getvalue() == b"x1,x2\n1.0,2.5\n3.0,4.0\n-5.0,6.0\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(FINITE)
@settings(max_examples=500)
def test_percent_format_matches_format_spec(x):
    # write_scores formats a score with "%.12g" %, as format(x, ".12g") does.
    assert "%.12g" % x == format(x, ".12g")


@given(
    rows=st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=3, max_size=20),
    flags=st.lists(st.booleans(), min_size=20, max_size=20),
    chunk=st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_writers_match_per_cell_formatting(rows, flags, chunk):
    """The writers format Python floats from `tolist` a chunk at a time.

    They must write the bytes of formatting each numpy value on its own:
    `repr(float(v))` per coordinate, `format(s, ".12g")` per score.
    """
    points = np.asarray(rows)
    labeled = LabeledDataset(Dataset(points), np.asarray(flags[: len(rows)]))
    scores = ScoreReport(points[:, 0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_WRITE_LINES", chunk)
        for data in (labeled.data, labeled):
            sink = io.StringIO()
            write_csv(data, sink)
            label = data is labeled
            expected = ["x1,x2" + (",label" if label else "")] + [
                ",".join([repr(float(v)) for v in p] + (["1" if f else "0"] if label else []))
                for p, f in zip(points, labeled.is_outlier)
            ]
            assert sink.getvalue() == "\n".join(expected) + "\n"
        sink = io.StringIO()
        write_scores(scores, sink)
    expected = ["index,score,rank"] + [
        f"{point},{format(scores.scores[point], '.12g')},{rank}"
        for rank, point in enumerate(scores.ranking, start=1)
    ]
    assert sink.getvalue() == "\n".join(expected) + "\n"


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


@pytest.mark.parametrize(
    "text, error, line, field",
    [
        ('"1\n",2\n3,4\n5,x\n', ParseError, 4, 2),
        ('1,2\n"3\nx",4\n5,6\n', ParseError, 2, 1),
        ('1,"2\n"\n\n3\n', RaggedRows, 4, None),
    ],
    ids=["after-quoted-newline", "in-quoted-newline", "ragged-after-blank"],
)
def test_error_names_the_line_its_record_starts_on(text, error, line, field, tmp_path):
    for kind in ("path", "bytes", "text"):
        with pytest.raises(error) as err:
            read_csv(_source(kind, text, tmp_path))
        assert err.value.line == line
        assert getattr(err.value, "column", None) == field


@pytest.mark.parametrize(
    "text, line",
    [("x" * 140_000 + ",y\n1,2\n3,4\n", 1), ('x,y\n1,2\n"' + "3" * 140_000 + '",4\n', 3)],
    ids=["header", "quoted-cell"],
)
def test_cell_past_the_csv_field_limit_is_a_parse_error(text, line, tmp_path):
    # csv.reader refuses a field of more than 131,072 characters.
    for kind in ("path", "bytes", "text"):
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            read_csv(_source(kind, text, tmp_path), has_header=True)
        assert (err.value.line, err.value.column) == (line, 0)


@pytest.mark.parametrize("kind", ["path", "bytes", "text"])
def test_named_label_past_row_end_rejected(kind, tmp_path):
    # The header names two columns; the rows hold one.
    with pytest.raises(ParseError, match="label column 'label' out of range") as err:
        read_csv(_source(kind, "x,label\n0.5\n1\n2\n", tmp_path), True, "label")
    assert (err.value.line, err.value.column) == (1, 0)


def _outcome(read):
    """What a reader call gives: exact array bits, or the error it raises."""
    try:
        points, flags = read()
    except Exception as err:  # compared by type, position and message
        return (type(err), getattr(err, "line", None), getattr(err, "column", None), str(err))
    return (points.shape, points.tobytes(), None if flags is None else flags.tobytes())


def _handle(data):
    """The text handle `_read_table` opens on a byte stream."""
    return io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline=""
    )


_WHITESPACE = st.sampled_from(
    ["", "", "", " ", "\t", "\xa0", "\x0c", "\x1c", "\x85", "\u2003", "\u2028", "\u3000"]
)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.3e}"),
)
_ODD_CELL = st.sampled_from([
    "nan", "-nan", "NaN", "inf", "-Infinity", "+inf", "1_0", "١٢", "１",
    "#", "#1", "", " ", '"1"', '"1\n2"', '"3,4"', "1e5", "+.5", ".5e-3", "-0",
    "0x10", "1,", "\ufeff1", "1 2", "1\x00", "2", "0", "1", "\r",
])
_LABEL = st.sampled_from(["0", "1", "0", "1", "0.0", "1e0", " 1 ", "-0", "2", "nan", "", "x"])
_NEWLINE = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def _csv_texts(draw):
    """CSV text with the edge cases both readers must agree on."""
    width = draw(st.integers(1, 4))
    label_at = draw(st.none() | st.integers(0, width - 1))
    odd = draw(st.sampled_from([0.0, 0.03, 0.3]))  # the share of odd cells
    lines = []
    if draw(st.booleans()):
        names = [
            draw(st.sampled_from(["x", "y", " z ", '"q"', "", '"p,q"', 'a"b', '"', '"r""s"']))
            for _ in range(width)
        ]
        if label_at is not None:
            names[label_at] = draw(st.sampled_from(["label", '"label"', ' "label"']))
        lines.append(",".join(names))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "spaces", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " , ", ",", "\xa0"])))
        else:
            n = width if kind == "row" else draw(st.integers(1, width + 2))
            cells = []
            for c in range(n):
                if c == label_at:
                    cell = draw(_LABEL)
                elif draw(st.floats(0, 1)) < odd:
                    cell = draw(_ODD_CELL)
                else:
                    cell = draw(_NUMBER)
                cells.append(draw(_WHITESPACE) + cell + draw(_WHITESPACE))
            lines.append(",".join(cells))
    text = "".join(line + draw(_NEWLINE) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    label = None if label_at is None else draw(st.sampled_from(["label", label_at, label_at - width]))
    return text, label


@given(_csv_texts(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_fast_reader_matches_row_loop(case, has_header):
    text, label = case
    data = text.encode("utf-8")
    loop = _outcome(lambda: ingest._read_rows(_handle(data), has_header, label, False))
    fast = ingest._read_fast(_handle(data), 0, has_header, label)
    if fast is not None:  # when the fast path answers, it is the loop's answer
        assert _outcome(lambda: fast) == loop
    assert _outcome(lambda: ingest._read_table(io.BytesIO(data), has_header, label)) == loop


def test_fast_reader_takes_clean_files(tmp_path, monkeypatch):
    def no_loop(*args):
        raise AssertionError("the row loop ran")

    rows = "1.5,0,-2e3\r\n\r\n3, 1 ,4\r\n5,0,nan\r\n"
    headers = ["\ufeffx,label,y\r\n", '\ufeff"x","label" ,"y,z"\r\n']  # plain, quoted
    monkeypatch.setattr(ingest, "_read_rows", no_loop)
    for kind, header in itertools.product(("path", "bytes"), headers):
        points, flags = ingest._read_table(_source(kind, header + rows, tmp_path), True, "label")
        assert points.tolist()[:2] == [[1.5, -2000.0], [3.0, 4.0]]
        assert np.isnan(points[2, 1])
        assert flags.tolist() == [False, True, False]


@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_fast_reader_declines_to_the_loop(kind, tmp_path):
    # Python's float reads '1_0' and Arabic-Indic digits; numpy does not.
    text = "x,y\n1_0,2\n٣,4\n5,6\n"
    data = read_csv(_source(kind, text, tmp_path), has_header=True)
    assert data.points.tolist() == [[10.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


@pytest.mark.parametrize("data", [b"x,y\n1,2\n\xff,3\n4,5\n", b"\xff,y\n1,2\n3,3\n4,5\n"])
def test_undecodable_bytes_raise_as_in_the_loop(data):
    line = data[: data.index(b"\xff")].count(b"\n") + 1
    loop = _outcome(lambda: ingest._read_rows(_handle(data), True, None, False))
    assert loop == (ParseError, line, 0, f"line {line}, field 0: byte 0xff is not UTF-8")
    assert _outcome(lambda: ingest._read_table(io.BytesIO(data), True, None)) == loop


@pytest.mark.parametrize("kind", ["path", "bytes"])
def test_undecodable_byte_names_its_physical_line(kind, tmp_path):
    # Far past numpy's and the decoder's first chunks; "\r" and "\r\n" end
    # lines too, and a quoted cell spans two lines before the bad byte.
    head = "x,y\r\n" + "1,2\n" * 50_000 + '"3\n",4\r5,'
    data = head.encode() + b"\xe96\n7,8\xff\n"
    if kind == "path":
        source = tmp_path / "latin1.csv"
        source.write_bytes(data)
    else:
        source = io.BytesIO(data)
    with pytest.raises(ParseError) as err:
        read_csv(source, has_header=True)
    assert (err.value.line, err.value.column) == (50_004, 0)
    assert str(err.value) == "line 50004, field 0: byte 0xe9 is not UTF-8"
    if kind == "bytes":
        source.seek(0)
    with pytest.raises(ParseError, match="line 50004, field 0: byte 0xe9"):
        read_species_table(source, has_header=True)
