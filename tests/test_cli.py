import pytest

from odac import ingest
from odac.cli import main

GEN_FLAGS = [
    "generate", "--dim", "3", "--normal", "40", "--anomalies", "5",
    "--shell-min", "1.5", "--seed", "9",
]


def run_generate(tmp_path, name="scene.csv", extra=()):
    out = tmp_path / name
    assert main(GEN_FLAGS + ["--out", str(out)] + list(extra)) == 0
    return out


def test_generate_writes_labeled_csv(tmp_path):
    out = run_generate(tmp_path)
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,label"
    assert len(lines) == 46
    assert sum(line.endswith(",1") for line in lines[1:]) == 5


def test_generate_deterministic(tmp_path):
    a = run_generate(tmp_path, "a.csv")
    b = run_generate(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_bad_shell(tmp_path, capsys):
    code = main(
        ["generate", "--dim", "3", "--normal", "10", "--anomalies", "2",
         "--shell-min", "1.0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "shell_min" in capsys.readouterr().err


def test_score_writes_ranking(tmp_path):
    scene = run_generate(tmp_path)
    out = tmp_path / "scores.csv"
    code = main(
        ["score", "--in", str(scene), "--header", "--label-col", "label",
         "--nd", "5", "--sn", "8", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,score,rank"
    assert len(lines) == 46
    assert [int(line.split(",")[2]) for line in lines[1:]] == list(range(1, 46))


def test_score_to_stdout(tmp_path, capsys):
    scene = run_generate(tmp_path)
    code = main(
        ["score", "--in", str(scene), "--header", "--label-col", "label",
         "--nd", "5", "--sn", "8"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("index,score,rank")


def test_scorers_agree_on_ranking(tmp_path):
    scene = run_generate(tmp_path)
    outs = {}
    for scorer in ("fast", "naive"):
        out = tmp_path / f"{scorer}.csv"
        assert main(
            ["score", "--in", str(scene), "--header", "--label-col", "label",
             "--nd", "5", "--sn", "8", "--scorer", scorer, "--out", str(out)]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        outs[scorer] = [(r[0], r[2]) for r in rows]
    assert outs["fast"] == outs["naive"]


def test_scorers_agree_at_tiny_n_d(tmp_path):
    scene = tmp_path / "dup.csv"
    scene.write_text("0,0\n0,0\n1,0\n0,2\n")
    outs = {}
    for scorer in ("fast", "naive"):
        out = tmp_path / f"{scorer}.csv"
        assert main(["score", "--in", str(scene), "--nd", "1e-170", "--sn", "2",
                     "--scorer", scorer, "--out", str(out)]) == 0
        outs[scorer] = out.read_text()
    assert outs["fast"] == outs["naive"]
    assert [line.split(",")[0] for line in outs["fast"].splitlines()[1:]] == [
        "3", "2", "0", "1"
    ]


def test_subnormal_similarities_exit_1_from_both_scorers(tmp_path, capsys):
    scene = tmp_path / "points.csv"
    scene.write_text("0,0\n0,0\n1,0\n0,2\n")
    out = tmp_path / "ranking.csv"
    errors = []
    for scorer in ("fast", "naive"):
        code = main(["score", "--in", str(scene), "--nd", "1e-320", "--sn", "2",
                     "--scorer", scorer, "--out", str(out)])
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "smallest normal double" in errors[0]
    assert not out.exists()


def test_neighbour_distance_past_the_largest_double_is_scored(tmp_path, capsys):
    # Four corners of the unit 6-cube scaled to 1e308: each point's third
    # neighbour is sqrt(6) * 1e308 away, past the largest double, but its
    # similarity at n_d = 1e308 is an ordinary 0.378.
    data = tmp_path / "corners.csv"
    data.write_text("a,b,c,d,e,f\n0,0,0,0,0,0\n1,1,1,1,1,1\n1,0,1,0,1,0\n0,1,0,1,0,1\n")
    outs = {}
    for scorer in ("fast", "naive"):
        code = main(["score", "--in", str(data), "--header", "--normalize", "--scale", "1e308",
                     "--nd", "1e308", "--sn", "3", "--scorer", scorer])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        outs[scorer] = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert outs["fast"] == outs["naive"]
    assert {score for _, score, _ in outs["fast"]} == {"1.37796447301"}


def test_score_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["score", "--in", str(missing), "--nd", "5", "--sn", "8"])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_score_rejects_zero_sn(tmp_path, capsys):
    scene = run_generate(tmp_path)
    code = main(["score", "--in", str(scene), "--header", "--label-col",
                 "label", "--sn", "0"])
    assert code == 2


def test_score_rejects_oversized_sn(tmp_path):
    scene = run_generate(tmp_path)
    code = main(["score", "--in", str(scene), "--header", "--label-col",
                 "label", "--nd", "5", "--sn", "100"])
    assert code == 1  # depends on the data, so a data error


@pytest.mark.parametrize(
    "scale, message",
    [
        ("inf", "odac score: scale must be finite, got inf\n"),
        ("1e308", "odac score: scale = 1e+308 takes a point past the largest double\n"),
    ],
)
def test_score_rejects_overflowing_scale(tmp_path, capsys, scale, message):
    # Finite cells of magnitude 4: the flag is at fault, not a cell.
    data = tmp_path / "small.csv"
    data.write_text("1,2\n3,4\n-4,0\n")
    code = main(["score", "--in", str(data), "--scale", scale, "--sn", "1"])
    assert code == 2
    assert capsys.readouterr().err == message


def test_score_normalizes_an_overflowing_span(tmp_path, capsys):
    # max - min of column a overflows; its cells are all finite.
    data = tmp_path / "wide.csv"
    data.write_text("a,b\n-1e308,1\n1e308,2\n0,3\n5e-324,4\n")
    code = main(["score", "--in", str(data), "--header", "--normalize", "--sn", "1"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_score_normalize_defaults_to_scale_300(tmp_path):
    scene = run_generate(tmp_path)
    outputs = []
    for extra in ([], ["--scale", "300"]):
        out = tmp_path / f"scores{len(extra)}.csv"
        args = ["score", "--in", str(scene), "--header", "--normalize", "--out", str(out)]
        assert main(args + ["--sn", "8"] + extra) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_score_reads_a_quoted_header_as_the_plain_one(tmp_path, monkeypatch):
    # Quoted names do not send the file to the row loop, and rank alike.
    scene = run_generate(tmp_path)
    header, rows = scene.read_text().split("\n", 1)
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(",".join(f'"{name}"' for name in header.split(",")) + "\n" + rows)
    monkeypatch.setattr(ingest, "_read_rows", None)
    outputs = []
    for data in (scene, quoted):
        out = tmp_path / f"{data.stem}-scores.csv"
        args = ["score", "--in", str(data), "--header", "--label-col", "label"]
        assert main(args + ["--sn", "8", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_score_undecodable_input_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"x,y\n1,2\n\xe9,3\n4,5\n")  # 0xE9 is not UTF-8 here
    code = main(["score", "--in", str(data), "--header", "--nd", "5", "--sn", "1"])
    assert code == 1
    assert capsys.readouterr().err == "odac score: line 3, field 0: byte 0xe9 is not UTF-8\n"


def test_scorers_word_oversized_sn_alike(tmp_path, capsys):
    data = tmp_path / "three.csv"
    data.write_text("0,0\n1,0\n3,0\n")
    errors = []
    for scorer in ("fast", "naive"):
        code = main(["score", "--in", str(data), "--sn", "5", "--scorer", scorer])
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["odac score: s_n = 5 but only 2 other points exist\n"] * 2


def test_eval_percentile_mode(tmp_path, capsys):
    scene = run_generate(tmp_path)
    code = main(
        ["eval", "--in", str(scene), "--header", "--label-col", "label",
         "--nd", "5", "--sn", "8", "--buckets", "10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    assert "100.0%" in out


def test_eval_text_skips_empty_buckets(tmp_path, capsys):
    # With q = 4 most 1% bands hold no rank; the text lists only the others.
    scene = tmp_path / "four.csv"
    scene.write_text("x1,x2,label\n0,0,0\n1,0,0\n0,2,1\n5,5,1\n")
    flags = ["eval", "--in", str(scene), "--header", "--label-col", "label", "--sn", "2"]
    assert main(flags) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[1:3] for row in rows] == [["1-1", "1"], ["2-2", "1"]]
    assert rows[-1].endswith("100.0%")
    # The CSV keeps every bucket, empty ones included.
    assert main(flags + ["--out", str(tmp_path / "p.csv")]) == 0
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert len(lines) == 101
    assert lines[1] == "0,1,0,0,0,0,0.000000"


def test_eval_trials_mode(tmp_path, capsys):
    code = main(
        ["eval", "--dim", "3", "--normal", "40", "--anomalies", "5",
         "--shell-min", "1.5", "--seed", "9", "--trials", "5",
         "--nd", "5", "--sn", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trials        5" in out
    assert "accuracy" in out


def test_eval_rejects_zero_buckets(tmp_path, capsys):
    scene = run_generate(tmp_path)
    code = main(
        ["eval", "--in", str(scene), "--header", "--label-col", "label",
         "--buckets", "0", "--nd", "5", "--sn", "8"]
    )
    assert code == 2


def test_eval_requires_labels(tmp_path, capsys):
    scene = run_generate(tmp_path)
    code = main(["eval", "--in", str(scene), "--header", "--nd", "5",
                 "--sn", "8"])
    assert code == 2
    assert "--label-col" in capsys.readouterr().err


def test_sweep_writes_curve(tmp_path):
    scene = run_generate(tmp_path)
    out = tmp_path / "curve.csv"
    code = main(
        ["sweep", "--in", str(scene), "--header", "--label-col", "label",
         "--nd", "5", "--sn", "8", "--vary", "nd",
         "--values", "2,5,10", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_d,worst_outlier_rank"
    assert len(lines) == 4
    ranks = [int(line.split(",")[1]) for line in lines[1:]]
    assert all(5 <= r <= 45 for r in ranks)


def test_sweep_sn_variant(tmp_path, capsys):
    scene = run_generate(tmp_path)
    code = main(
        ["sweep", "--in", str(scene), "--header", "--label-col", "label",
         "--nd", "5", "--sn", "8", "--vary", "sn", "--values", "1,4"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("s_n,worst_outlier_rank")


@pytest.mark.parametrize(
    "vary, values, message",
    [("sn", "1,x", "could not parse 'x' as an integer"),
     ("nd", "1, abc", "could not parse 'abc' as a number")],
)
def test_sweep_names_an_unparsed_value(tmp_path, capsys, vary, values, message):
    scene = run_generate(tmp_path)
    code = main(
        ["sweep", "--in", str(scene), "--header", "--label-col", "label",
         "--nd", "5", "--sn", "8", "--vary", vary, "--values", values]
    )
    assert code == 2
    assert capsys.readouterr().err == f"odac sweep: --values: {message}\n"


def test_sweep_rejects_empty_values(tmp_path, capsys):
    scene = run_generate(tmp_path)
    code = main(
        ["sweep", "--in", str(scene), "--header", "--label-col", "label",
         "--nd", "5", "--sn", "8", "--vary", "nd", "--values", ","]
    )
    assert code == 2
