"""End-to-end CLI runs: annotate, calibrate, train, predict, evaluate,
learning-curve, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prosolab
from prosolab.cli import main
from prosolab.corpus_io import parse_dataset
from prosolab.taggers.majority import MajorityModel
from prosolab.taggers.serialize import load_model

from conftest import DATASET_SENTENCE, make_word_fixture, pcm16_wav_bytes

ANNOTATE_CFG = "n_scales=8\n"


def write_lab(path, utt, trailing_punct=None):
    lines = [f"{tok.start_s:.6f}\t{tok.end_s:.6f}\t{tok.text}"
             for tok in utt.tokens]
    if trailing_punct is not None:
        end = utt.tokens[-1].end_s
        lines.append(f"{end:.6f}\t{end:.6f}\t{trailing_punct}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def annotate_tree(tmp_path, utterances):
    """Lay out audio/ and align/ dirs plus a config file; return run args."""
    audio_dir = tmp_path / "audio"
    align_dir = tmp_path / "align"
    audio_dir.mkdir()
    align_dir.mkdir()
    for stem, saliences, punct in utterances:
        audio, utt = make_word_fixture(saliences)
        (audio_dir / f"{stem}.wav").write_bytes(
            pcm16_wav_bytes(audio.samples, audio.sample_rate))
        write_lab(align_dir / f"{stem}.lab", utt, trailing_punct=punct)
    cfg = tmp_path / "annotate.cfg"
    cfg.write_text(ANNOTATE_CFG, encoding="utf-8")
    return audio_dir, align_dir, cfg


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def test_annotate_two_utterances(tmp_path, capsys):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u1", [0.2, 0.8, 0.5], "."),
        ("u2", [0.7, 0.3, 0.4], None),
    ])
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg]) == 0
    assert "2 ok, 0 failed" in capsys.readouterr().out

    sentences = parse_dataset(out)
    assert len(sentences) == 2
    assert [r.token for r in sentences[0]] == ["w0", "w1", "w2", "."]
    assert sentences[0][3].discrete is None
    assert all(r.discrete in (0, 1, 2) for r in sentences[0][:3])
    assert all(r.continuous >= 0 for r in sentences[1])

    manifest = (tmp_path / "data.tsv.manifest").read_text()
    assert "utt\tu1\tok" in manifest
    assert "utt\tu2\tok" in manifest
    assert "summary\t2 ok, 0 failed" in manifest
    assert "config.n_scales=8" in manifest


def test_annotate_isolates_corrupt_wav(tmp_path, capsys):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("bad", [0.5, 0.5], None),
        ("good", [0.2, 0.8, 0.5], None),
    ])
    (audio_dir / "bad.wav").write_bytes(b"this is not a RIFF file")
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg]) == 0
    assert "1 ok, 1 failed" in capsys.readouterr().out
    assert len(parse_dataset(out)) == 1
    manifest = (tmp_path / "data.tsv.manifest").read_text()
    assert "utt\tbad\tfailed: malformed or unsupported WAV" in manifest
    assert "utt\tgood\tok" in manifest


def test_annotate_reports_missing_audio(tmp_path, capsys):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("present", [0.3, 0.6, 0.2], None),
    ])
    _, orphan = make_word_fixture([0.4, 0.4, 0.4])
    write_lab(align_dir / "orphan.lab", orphan)
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg]) == 0
    assert "1 ok, 1 failed" in capsys.readouterr().out
    assert ("utt\torphan\tfailed: missing audio"
            in (tmp_path / "data.tsv.manifest").read_text())


def test_annotate_deterministic_except_timestamp(tmp_path, capsys):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u1", [0.2, 0.8, 0.5], "."),
    ])
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    assert run(["annotate", audio_dir, align_dir, out_a,
                "--config", cfg]) == 0
    assert run(["annotate", audio_dir, align_dir, out_b,
                "--config", cfg]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines_a = (tmp_path / "a.tsv.manifest").read_text().splitlines()
    lines_b = (tmp_path / "b.tsv.manifest").read_text().splitlines()
    assert lines_a[0].startswith("# generated ")
    assert lines_a[1:] == lines_b[1:]


def test_annotate_parallel_matches_serial(tmp_path, capsys):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u1", [0.2, 0.8, 0.5], None),
        ("u2", [0.7, 0.3, 0.4], "."),
    ])
    serial = tmp_path / "serial.tsv"
    parallel = tmp_path / "parallel.tsv"
    assert run(["annotate", audio_dir, align_dir, serial,
                "--config", cfg]) == 0
    assert run(["annotate", audio_dir, align_dir, parallel,
                "--config", cfg, "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


GOLDEN_UTTERANCES = [
    ("g1", [0.2, 0.8, 0.5], "."),
    ("g2", [0.7, 0.3, 0.4, 0.9], None),
    ("g3", [0.5, 0.5], None),
    ("g4", [0.9, 0.1, 0.6], ","),
    ("g5", [0.0], None),
]
GOLDEN_DATASETS = {
    2: ("w0\t0\t0.000\nw1\t1\t21.024\nw2\t1\t5.260\n.\tNA\tNA\n\n"
        "w0\t1\t11.446\nw1\t0\t0.000\nw2\t0\t2.352\nw3\t1\t14.582\n\n"
        "w0\t1\t3.950\nw1\t1\t3.634\n\n"
        "w0\t1\t21.301\nw1\t0\t0.000\nw2\t1\t13.815\n,\tNA\tNA\n\n"
        "w0\t1\t4.249\n"),
    3: ("w0\t0\t0.000\nw1\t2\t21.024\nw2\t1\t5.260\n.\tNA\tNA\n\n"
        "w0\t1\t11.446\nw1\t0\t0.000\nw2\t0\t2.352\nw3\t2\t14.582\n\n"
        "w0\t1\t3.950\nw1\t1\t3.634\n\n"
        "w0\t2\t21.301\nw1\t0\t0.000\nw2\t2\t13.815\n,\tNA\tNA\n\n"
        "w0\t1\t4.249\n"),
}


@pytest.mark.parametrize("classes", [2, 3])
def test_annotate_golden_bytes(tmp_path, capsys, classes):
    """Fixed utterances annotate to the bytes recorded in GOLDEN_DATASETS.

    theta1=3 and theta2=12 put words in every class; g6 is shorter than one
    pitch window, so its failure text comes from the front end's framing.
    """
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, GOLDEN_UTTERANCES)
    cfg.write_text("n_scales=8\ntheta1=3.0\ntheta2=12.0\n", encoding="utf-8")
    (audio_dir / "g6.wav").write_bytes(pcm16_wav_bytes(np.zeros(300)))
    (align_dir / "g6.lab").write_text("0.000000\t0.015000\tw0\n",
                                      encoding="utf-8")
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg,
                "--classes", classes]) == 0
    assert out.read_bytes() == GOLDEN_DATASETS[classes].encode("utf-8")
    manifest = (tmp_path / "data.tsv.manifest").read_text().splitlines()
    assert [line for line in manifest if line.startswith("utt\t")] == [
        "utt\tg1\tok", "utt\tg2\tok", "utt\tg3\tok", "utt\tg4\tok",
        "utt\tg5\tok",
        "utt\tg6\tfailed: utterance 'g6': stage extract_f0: audio shorter "
        "than one window (300 samples < 640)",
    ]


def test_annotate_empty_align_dir(tmp_path, capsys):
    (tmp_path / "audio").mkdir()
    (tmp_path / "align").mkdir()
    code = run(["annotate", tmp_path / "audio", tmp_path / "align",
                tmp_path / "out.tsv"])
    assert code == 1
    assert "empty input set" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_binary_prints_threshold(tmp_path, capsys):
    values = tmp_path / "values.txt"
    reference = tmp_path / "reference.txt"
    values.write_text("0.1\n0.2\n0.8\n0.9\n")
    reference.write_text("0\n0\n1\n1\n")
    assert run(["calibrate", values, reference]) == 0
    assert capsys.readouterr().out == "theta1=0.5\n"


def test_calibrate_split_mode(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("0.2\n0.6\n0.7\n0.8\n0.9\n0.1\n")
    assert run(["calibrate", values, "--mode", "split",
                "--theta1", "0.5"]) == 0
    assert capsys.readouterr().out == "theta1=0.5\ntheta2=0.75\n"


def test_calibrate_split_reads_config_theta(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("0.6\n0.9\n1.4\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("theta1=0.5\n")
    assert run(["calibrate", values, "--mode", "split",
                "--config", cfg]) == 0
    assert "theta2=0.9" in capsys.readouterr().out


def test_calibrate_split_without_theta_is_usage_error(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("0.6\n0.9\n")
    assert run(["calibrate", values, "--mode", "split"]) == 2
    assert "split mode needs --theta1" in capsys.readouterr().err


def test_calibrate_binary_without_reference_is_usage_error(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("0.6\n0.9\n")
    assert run(["calibrate", values]) == 2
    assert "binary mode needs a reference file" in capsys.readouterr().err


def test_calibrate_bad_number_is_data_error(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("0.6\nnope\n")
    reference = tmp_path / "reference.txt"
    reference.write_text("0\n1\n")
    assert run(["calibrate", values, reference]) == 1
    assert "not a number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / predict / evaluate
# ---------------------------------------------------------------------------

@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text(DATASET_SENTENCE, encoding="utf-8")
    return path


def test_train_majority_counts_word_entries(tmp_path, dataset_file, capsys):
    out_model = tmp_path / "majority.model"
    assert run(["train", dataset_file, out_model,
                "--model", "majority"]) == 0
    assert capsys.readouterr().out == "entries=8\n"
    model = load_model(out_model.read_bytes())
    assert isinstance(model, MajorityModel)
    assert len(model.per_word) == 8


def test_train_is_byte_identical(tmp_path, dataset_file, capsys):
    a = tmp_path / "a.model"
    b = tmp_path / "b.model"
    for kind in ("majority", "crf"):
        assert run(["train", dataset_file, a, "--model", kind]) == 0
        assert run(["train", dataset_file, b, "--model", kind]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_train_embed_needs_table_config(tmp_path, dataset_file, capsys):
    assert run(["train", dataset_file, tmp_path / "m", "--model",
                "embed"]) == 2
    assert "embeddings=<path>" in capsys.readouterr().err


def write_training_config(tmp_path, extra=""):
    """Config with a 2-d embedding table for the dataset_file words."""
    emb = tmp_path / "vectors.txt"
    rows = ["tell 1 0", "me 0 1", "you 0.5 0.5", "rascal 0 0.25",
            "where 1 1", "is 0.25 0", "the 0 0", "pig 0.75 0.25"]
    emb.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"embeddings={emb}\nembedding_dim=2\n{extra}")
    return cfg


def test_train_embed_with_table(tmp_path, dataset_file, capsys):
    cfg = write_training_config(tmp_path)
    out_model = tmp_path / "embed.model"
    assert run(["train", dataset_file, out_model, "--model", "embed",
                "--config", cfg]) == 0
    assert "dimension=2" in capsys.readouterr().out
    assert out_model.stat().st_size > 0


def test_predict_then_evaluate_matches_direct(tmp_path, dataset_file,
                                              capsys):
    model_path = tmp_path / "majority.model"
    run(["train", dataset_file, model_path, "--model", "majority"])

    preds = tmp_path / "preds.tsv"
    assert run(["predict", model_path, dataset_file, preds]) == 0
    text = preds.read_text()
    assert "Tell\t2" in text and ",\tNA" in text

    direct = tmp_path / "direct"
    via_file = tmp_path / "via_file"
    assert run(["evaluate", model_path, dataset_file, "--out", direct]) == 0
    assert run(["evaluate", preds, dataset_file, "--out", via_file]) == 0

    acc_direct = (tmp_path / "direct.report.tsv").read_text().splitlines()
    acc_via = (tmp_path / "via_file.report.tsv").read_text().splitlines()
    assert acc_direct[0] == "model\ttask\tfraction\taccuracy"
    # same accuracy either way; the model column differs by design
    assert acc_direct[1].split("\t")[3] == acc_via[1].split("\t")[3] == \
        "1.000000"


def test_evaluate_writes_confusion_and_summary(tmp_path, dataset_file,
                                               capsys):
    model_path = tmp_path / "majority.model"
    run(["train", dataset_file, model_path, "--model", "majority"])
    capsys.readouterr()
    out = tmp_path / "eval"
    assert run(["evaluate", model_path, dataset_file, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "Model" in stdout and "3-way" in stdout and "100.0" in stdout
    confusion = (tmp_path / "eval.confusion.tsv").read_text().splitlines()
    assert confusion[0] == "\t0\t1\t2"
    assert len(confusion) == 4


def test_evaluate_two_way_merges_labels(tmp_path, dataset_file, capsys):
    model_path = tmp_path / "majority.model"
    run(["train", dataset_file, model_path, "--model", "majority"])
    out = tmp_path / "two"
    assert run(["evaluate", model_path, dataset_file, "--out", out,
                "--classes", "2"]) == 0
    confusion = (tmp_path / "two.confusion.tsv").read_text().splitlines()
    assert confusion[0] == "\t0\t1"


def test_predict_two_way_labels(tmp_path, dataset_file, capsys):
    model_path = tmp_path / "majority.model"
    run(["train", dataset_file, model_path, "--model", "majority"])
    preds = tmp_path / "preds2.tsv"
    assert run(["predict", model_path, dataset_file, preds,
                "--classes", "2"]) == 0
    labels = {line.split("\t")[1] for line in
              preds.read_text().splitlines() if line}
    assert labels <= {"0", "1", "NA"}


# ---------------------------------------------------------------------------
# learning-curve
# ---------------------------------------------------------------------------

def test_learning_curve_tsv(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_text("\n".join([DATASET_SENTENCE.rstrip("\n")] * 5) + "\n")
    out = tmp_path / "curve.tsv"
    assert run(["learning-curve", train, train, out,
                "--model", "majority", "--fractions", "5,100"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "model\ttask\tfraction\taccuracy"
    assert lines[1].startswith("majority\t3-way\t0.05\t")
    assert lines[2].startswith("majority\t3-way\t1\t")
    stdout = capsys.readouterr().out
    assert "fraction 0.05" in stdout and "fraction 1:" in stdout


def test_learning_curve_rejects_unknown_fraction(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_text(DATASET_SENTENCE, encoding="utf-8")
    assert run(["learning-curve", train, train, tmp_path / "c.tsv",
                "--model", "majority", "--fractions", "37"]) == 2
    assert "not supported" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["majority", "crf", "embed"])
def test_learning_curve_fits_what_train_fits(tmp_path, dataset_file, kind,
                                             capsys):
    # a strong penalty makes a dropped config key change the accuracy
    cfg = write_training_config(tmp_path, "l2_lambda=1000\n")
    model = tmp_path / "m.model"
    assert run(["train", dataset_file, model, "--model", kind,
                "--config", cfg]) == 0
    assert run(["evaluate", model, dataset_file,
                "--out", tmp_path / "eval"]) == 0
    curve = tmp_path / "curve.tsv"
    assert run(["learning-curve", dataset_file, dataset_file, curve,
                "--model", kind, "--config", cfg, "--fractions", "100"]) == 0
    evaluated = (tmp_path / "eval.report.tsv").read_text().splitlines()[1]
    curve_row = curve.read_text().splitlines()[1]
    assert curve_row.split("\t")[3] == evaluated.split("\t")[3]


@pytest.mark.parametrize("argv", [
    ["annotate", "audio", "align", "out.tsv"],
    ["calibrate", "values.txt"],
    ["train", "train.tsv", "m.model", "--model", "majority"],
    ["predict", "m.model", "in.tsv", "out.tsv"],
    ["evaluate", "m.model", "test.tsv"],
], ids=lambda argv: argv[0])
def test_seed_is_a_usage_error_outside_learning_curve(tmp_path, monkeypatch,
                                                      argv, capsys):
    # none of the inputs exist, so a command that took --seed would exit 1
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--seed", "1"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_learning_curve_accepts_seed(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_text("\n".join([DATASET_SENTENCE.rstrip("\n")] * 5) + "\n")
    out = tmp_path / "curve.tsv"
    assert run(["learning-curve", train, train, out, "--model", "majority",
                "--fractions", "5,100", "--seed", "3"]) == 0
    assert len(out.read_text().splitlines()) == 3


# ---------------------------------------------------------------------------
# exit codes and environment
# ---------------------------------------------------------------------------

def test_exit_code_2_for_unknown_model(tmp_path, dataset_file, capsys):
    code = run(["train", dataset_file, tmp_path / "m", "--model", "bogus"])
    assert code == 2


def test_exit_code_1_for_missing_input(tmp_path, capsys):
    code = run(["train", tmp_path / "absent.tsv", tmp_path / "m",
                "--model", "majority"])
    assert code == 1


def test_exit_code_2_for_bad_config(tmp_path, dataset_file, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this line has no equals sign\n")
    code = run(["train", dataset_file, tmp_path / "m",
                "--model", "majority", "--config", cfg])
    assert code == 2
    assert "expected key=value" in capsys.readouterr().err


def test_exit_code_1_for_malformed_dataset(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-one-column\n")
    code = run(["train", bad, tmp_path / "m", "--model", "majority"])
    assert code == 1
    assert "expected 3 tab-separated columns" in capsys.readouterr().err


def test_log_level_env_controls_verbosity(tmp_path):
    train = tmp_path / "train.tsv"
    train.write_text(DATASET_SENTENCE, encoding="utf-8")
    script = ("import sys; from prosolab.cli import main; "
              "sys.exit(main(sys.argv[1:]))")

    # The child must import the same prosolab as this process, whether it
    # is installed or found through PYTHONPATH; the subprocess is needed
    # because basicConfig is a no-op once pytest has set up log capture.
    package_root = str(Path(prosolab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in [package_root, os.environ.get("PYTHONPATH")] if p)

    def run_proc(level):
        env = {**os.environ, "PYTHONPATH": pythonpath, "PROSOLAB_LOG": level}
        return subprocess.run(
            [sys.executable, "-c", script, "train", str(train),
             str(tmp_path / "m.model"), "--model", "majority"],
            capture_output=True, text=True, env=env)

    loud = run_proc("INFO")
    assert loud.returncode == 0, loud.stderr
    assert "training majority on 1 sentences" in loud.stderr

    quiet = run_proc("WARNING")
    assert quiet.returncode == 0, quiet.stderr
    assert "training majority" not in quiet.stderr
