
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


def test_sweep_rejects_empty_values(tmp_path, capsys):
    scene = run_generate(tmp_path)
    code = main(
        ["sweep", "--in", str(scene), "--header", "--label-col", "label",
         "--nd", "5", "--sn", "8", "--vary", "nd", "--values", ","]
    )
    assert code == 2
