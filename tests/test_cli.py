"""End-to-end CLI runs: annotate, calibrate, train, predict, evaluate,
learning-curve, exit codes."""

import codecs
import hashlib
import importlib
import importlib.util
import inspect
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prosolab
from prosolab import cli, corpus_io
from prosolab.cli import main
from prosolab.corpus_io import Columns, CorpusFormatError, parse_dataset
from prosolab.taggers import crf_train, train_embed_classifier
from prosolab.taggers.majority import MajorityModel
from prosolab.taggers.serialize import load_model

from conftest import (DATASET_SENTENCE, by_sentence, labels_of, make_columns,
                      make_word_fixture, pcm16_wav_bytes, tokens_of)

ANNOTATE_CFG = "n_scales=8\n"


def write_lab(path, utt, trailing_punct=None):
    lines = [f"{tok.start_s:.6f}\t{tok.end_s:.6f}\t{tok.text}"
             for tok in utt.tokens]
    if trailing_punct is not None:
        end = utt.tokens[-1].end_s
        lines.append(f"{end:.6f}\t{end:.6f}\t{trailing_punct}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_textgrid(path, utt):
    """`utt` as a long-form TextGrid with one IntervalTier, words."""
    intervals = "".join(
        f'intervals [{k}]:\nxmin = {tok.start_s!r}\nxmax = {tok.end_s!r}\n'
        f'text = "{tok.text}"\n' for k, tok in enumerate(utt.tokens, start=1))
    path.write_text(
        'File type = "ooTextFile"\nObject class = "TextGrid"\n\nitem []:\n'
        'item [1]:\nclass = "IntervalTier"\nname = "words"\n' + intervals,
        encoding="utf-8")


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

    data = parse_dataset(out)
    assert len(data.lengths) == 2
    tokens, labels, continuous = (by_sentence(data, flat) for flat in (
        tokens_of(data), labels_of(data.labels), data.continuous.tolist()))
    assert tokens[0] == ["w0", "w1", "w2", "."]
    assert labels[0][3] is None
    assert all(lab in (0, 1, 2) for lab in labels[0][:3])
    assert all(c >= 0 for c in continuous[1])

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
    assert len(parse_dataset(out).lengths) == 1
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


def test_annotate_fails_a_stem_with_two_alignments(tmp_path, capsys):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u", [0.3, 0.6, 0.2], None), ("v", [0.2, 0.8, 0.5], None),
    ])
    (align_dir / "u.TextGrid").write_text(
        NON_FINITE_TEXTGRID.replace("{v}", "0"), encoding="utf-8")
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg]) == 0
    assert "1 ok, 1 failed" in capsys.readouterr().out
    assert len(parse_dataset(out).lengths) == 1
    manifest = (tmp_path / "data.tsv.manifest").read_text().splitlines()
    assert [line for line in manifest if line.startswith("utt\t")] == [
        "utt\tu\tfailed: more than one alignment: u.TextGrid, u.lab",
        "utt\tv\tok"]


def test_annotate_names_why_an_empty_wav_failed(tmp_path, capsys):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u", [0.3, 0.6, 0.2], None)])
    (audio_dir / "u.wav").write_bytes(b"")
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg]) == 0
    assert ("utt\tu\tfailed: truncated WAV: the file ends inside its header "
            "(file length 0)") in (tmp_path / "data.tsv.manifest").read_text()


@pytest.mark.parametrize("write", [write_lab, write_textgrid],
                         ids=["lab", "textgrid"])
def test_annotate_fails_an_utterance_with_a_token_that_holds_a_tab(
        tmp_path, capsys, write):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u1", [0.2, 0.8, 0.5], None), ("u2", [0.7, 0.3, 0.4], None)])
    _, utt = make_word_fixture([0.2, 0.8, 0.5])
    utt.tokens[1].text = "w1\tx"
    (align_dir / "u1.lab").unlink()
    write(align_dir / ("u1.lab" if write is write_lab else "u1.TextGrid"),
          utt)
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg]) == 0
    assert "1 ok, 1 failed" in capsys.readouterr().out
    manifest = (tmp_path / "data.tsv.manifest").read_text().split("\n")
    assert [line for line in manifest if line.startswith("utt\t")] == [
        "utt\tu1\tfailed: utterance 'u1': stage input: token 'w1\\tx' holds "
        "a tab, which a dataset line cannot hold", "utt\tu2\tok"]
    data = parse_dataset(out)
    assert data.lengths.tolist() == [3]
    assert tokens_of(data) == ["w0", "w1", "w2"]


# config line -> the error annotate stops with, before it reads a file
OUT_OF_RANGE_CONFIG = {
    "frame_shift_s=0": "frame_shift_s must be positive, got 0.0",
    "frame_shift_s=-0.005": "frame_shift_s must be positive, got -0.005",
    "smooth_sigma_s=-0.02": "smooth_sigma_s must be non-negative, got -0.02",
    "dur_smooth_sigma_s=-1":
        "dur_smooth_sigma_s must be non-negative, got -1.0",
}


@pytest.mark.parametrize("line", list(OUT_OF_RANGE_CONFIG))
def test_annotate_config_out_of_range_names_the_key(tmp_path, monkeypatch,
                                                    capsys, line):
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(line + "\n", encoding="utf-8")
    assert run(["annotate", "audio", "align", "out.tsv",
                "--config", "c.cfg"]) == 1
    assert capsys.readouterr().err == f"error: {OUT_OF_RANGE_CONFIG[line]}\n"


def test_annotate_fails_a_frame_shift_below_one_sample(tmp_path, capsys):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u", [0.3, 0.6, 0.2], None)])
    cfg.write_text(ANNOTATE_CFG + "frame_shift_s=0.00001\n", encoding="utf-8")
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg]) == 0
    assert ("utt\tu\tfailed: utterance 'u': stage extract_f0: frame shift "
            "1e-05 s is less than one sample at 16000 Hz"
            ) in (tmp_path / "data.tsv.manifest").read_text()


def test_annotate_writes_one_manifest_line_per_entry(tmp_path, capsys):
    """A stem or a status holding a tab or a line break is escaped, so
    that every manifest line keeps its column count: stems a<TAB>b and
    c<LF>d without audio, and a TextGrid whose only tier is a<TAB>b."""
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u", [0.3, 0.6, 0.2], None), ("v", [0.2, 0.8, 0.5], None)])
    _, utt = make_word_fixture([0.4, 0.4, 0.4])
    write_lab(align_dir / "a\tb.lab", utt)
    write_lab(align_dir / "c\nd.lab", utt)
    (align_dir / "u.lab").unlink()
    write_textgrid(align_dir / "u.TextGrid", utt)
    grid = (align_dir / "u.TextGrid").read_text(encoding="utf-8")
    (align_dir / "u.TextGrid").write_text(
        grid.replace('name = "words"', 'name = "a\tb"'), encoding="utf-8")
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg]) == 0
    assert "1 ok, 3 failed" in capsys.readouterr().out
    text = Path(f"{out}.manifest").read_bytes().decode("utf-8")
    lines = text.split("\n")[:-1]
    assert text.splitlines() == lines
    columns = {"utt": 3, "summary": 2}
    for line in lines:
        if not line.startswith("#"):
            fields = line.split("\t")
            assert len(fields) == columns.get(fields[0], 1), line
    assert [line for line in lines if line.startswith("utt\t")] == [
        "utt\ta\\x09b\tfailed: missing audio",
        "utt\tc\\x0ad\tfailed: missing audio",
        "utt\tu\tfailed: no IntervalTier named 'words'; available tiers: "
        "a\\x09b",
        "utt\tv\tok"]


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
    # the timestamp and the workers' busy time are the only comment lines
    assert lines_a[0].startswith("# generated ")
    assert lines_a[1].startswith("# workers 1, busy ")
    assert lines_a[1].endswith(" s")
    assert ([line for line in lines_a if not line.startswith("#")]
            == [line for line in lines_b if not line.startswith("#")]
            == lines_a[2:])


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_annotate_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("u1", [0.2, 0.8, 0.5], None)])
    out = tmp_path / "data.tsv"
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg,
                "--jobs", jobs]) == 2
    assert (f"error: --jobs must be at least 1, got {jobs}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks while the test runs."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    """Every pid in `pids` has exited and been waited for."""
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("jobs, n_utterances, pools", [
    ("64", 2, [1]), ("2", 3, [1]), ("8", 1, []), ("1", 2, [])])
def test_annotate_starts_no_more_workers_than_utterances(
        tmp_path, capsys, forks, jobs, n_utterances, pools):
    """min(--jobs, utterances) workers, this process one of them, so each
    command that forks forks one child fewer; `pools` lists what each such
    command forks.  One worker forks nothing."""
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        (f"u{i}", [0.2, 0.8, 0.5], None) for i in range(n_utterances)])
    serial, pooled = tmp_path / "serial.tsv", tmp_path / "pooled.tsv"
    forked = []
    for out, flags in ((serial, []), (pooled, ["--jobs", jobs])):
        before = len(forks)
        assert run(["annotate", audio_dir, align_dir, out, "--config", cfg,
                    *flags]) == 0
        forked.append(len(forks) - before)
    assert [n for n in forked if n] == pools
    assert_reaped(forks)
    assert serial.read_bytes() == pooled.read_bytes()


def test_annotate_output_does_not_depend_on_the_order_of_work(
        tmp_path, monkeypatch, capsys):
    """Utterances go out largest WAV first, which is not stem order here;
    the dataset and every deterministic manifest line are the same at any
    --jobs."""
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        ("a", [0.5, 0.2], None), ("b", [0.3, 0.9, 0.1, 0.6, 0.4, 0.8], "."),
        ("c", [0.7, 0.2, 0.5], None), ("d", [0.1, 0.6, 0.3, 0.9, 0.5], ","),
        ("e", [0.4, 0.8, 0.2, 0.6], None)])
    (audio_dir / "f.wav").write_bytes(b"this is not a RIFF file")
    write_lab(align_dir / "f.lab", make_word_fixture([0.5])[1])
    sizes = [(audio_dir / f"{stem}.wav").stat().st_size for stem in "abcdef"]
    longest_first = sorted(range(6), key=lambda i: -sizes[i])
    assert longest_first == [1, 3, 4, 2, 0, 5]
    orders, claims = [], cli._claims
    monkeypatch.setattr(cli, "_claims", lambda order, counter: (
        orders.append(order) or claims(order, counter)))
    outputs = {}
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}.tsv"
        assert run(["annotate", audio_dir, align_dir, out, "--config", cfg,
                    "--jobs", jobs]) == 0
        manifest = Path(f"{out}.manifest").read_text().splitlines()
        busy = r"\d+\.\d{3} s"
        assert re.fullmatch(rf"# workers {jobs}, busy {busy}(, {busy})*",
                            manifest[1])
        assert manifest[1].count(" s") == jobs
        outputs[jobs] = (out.read_bytes(), [
            line for line in manifest if not line.startswith("#")])
        # one worker takes the jobs in stem order, without a counter
        assert orders == ([longest_first] if jobs > 1 else [])
        orders.clear()
    assert any(line.startswith("utt\tf\tfailed: malformed or unsupported")
               for line in outputs[1][1])
    assert outputs[1] == outputs[2] == outputs[3]


def test_workers_claim_each_job_once():
    """Four processes, more than the cores, drain one shared counter: every
    entry of the order is claimed exactly once, each worker's claims in
    that order."""
    ctx = multiprocessing.get_context("fork")
    order = list(range(20000, 0, -1))
    claims = cli._claims(order, ctx.Value("q", 0))
    procs, conns = [], []
    for _ in range(3):
        recv, send = ctx.Pipe(duplex=False)
        procs.append(ctx.Process(target=lambda conn: conn.send(list(claims)),
                                 args=(send,)))
        procs[-1].start()
        send.close()
        conns.append(recv)
    shares = [list(claims), *(conn.recv() for conn in conns)]
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0
    assert sorted(i for share in shares for i in share) == sorted(order)
    assert all(share == sorted(share, reverse=True) for share in shares)


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_annotate_names_a_worker_that_dies(tmp_path, monkeypatch, capsys,
                                           forks, jobs):
    """A child that exits mid-run fails the command: exit 1, an error that
    names the worker and its status, no dataset, and every child joined.
    A child still working is stopped, not waited for."""
    parent, annotate_one = os.getpid(), cli._annotate_one

    def dies_in_a_child(job):
        if os.getpid() == parent:
            time.sleep(0.2)  # leave the children time to claim a job each
            return annotate_one(job)
        if not forks:  # the first child: nothing was forked before it
            os._exit(3)
        time.sleep(60)

    monkeypatch.setattr(cli, "_annotate_one", dies_in_a_child)
    audio_dir, align_dir, cfg = annotate_tree(tmp_path, [
        (f"u{i}", [0.2, 0.8, 0.5], None) for i in range(4)])
    out = tmp_path / "data.tsv"
    t0 = time.monotonic()
    assert run(["annotate", audio_dir, align_dir, out, "--config", cfg,
                "--jobs", jobs]) == 1
    assert time.monotonic() - t0 < 30
    assert len(forks) == int(jobs) - 1
    assert (f"error: annotate worker 2 (pid {forks[0]}) exited with status 3"
            in capsys.readouterr().err)
    assert not out.exists()
    assert not Path(f"{out}.manifest").exists()
    assert_reaped(forks)


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
# every annotation setting, in table order; n_classes comes from --classes
GOLDEN_CONFIG_LINES = [
    "config.f0_min=60.0", "config.f0_max=400.0",
    "config.voicing_threshold=0.45", "config.window_s=0.04",
    "config.frame_shift_s=0.005", "config.smooth_sigma_s=0.02",
    "config.dur_smooth_sigma_s=0.0", "config.w_f0=1.0", "config.w_energy=0.5",
    "config.w_dur=1.0", "config.composite_mode=product", "config.n_scales=8",
    "config.min_period_s=0.1", "config.scales_per_octave=2",
    "config.theta1=3.0", "config.theta2=12.0",
]


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
    assert [line for line in manifest if line.startswith("config.")] == [
        *GOLDEN_CONFIG_LINES, f"config.n_classes={classes}"]
    assert [line for line in manifest if line.startswith("utt\t")] == [
        "utt\tg1\tok", "utt\tg2\tok", "utt\tg3\tok", "utt\tg4\tok",
        "utt\tg5\tok",
        "utt\tg6\tfailed: utterance 'g6': stage extract_f0: audio shorter "
        "than one window (300 samples < 640)",
    ]


@pytest.mark.parametrize("argv,key", [
    (["annotate", "audio", "align", "out.tsv"], "f0min"),
    # window_s frames both pitch and energy; there is no energy window
    (["annotate", "audio", "align", "out.tsv"], "energy_window_s"),
    (["annotate", "audio", "align", "out.tsv"], "l2_lambda"),
    (["calibrate", "values.txt", "--mode", "split"], "max_iterations"),
    (["train", "train.tsv", "m.model", "--model", "majority"], "n_scales"),
    (["learning-curve", "train.tsv", "test.tsv", "c.tsv", "--model", "crf"],
     "theta1"),
    # each tagger reads only its own training keys
    (["train", "train.tsv", "m.model", "--model", "majority"], "l2_lambda"),
    (["train", "train.tsv", "m.model", "--model", "crf"], "embeddings"),
    (["train", "train.tsv", "m.model", "--model", "embed"], "tolerance"),
    (["learning-curve", "train.tsv", "test.tsv", "c.tsv",
      "--model", "majority-global"], "max_iterations"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unread_config_key_is_usage_error(tmp_path, monkeypatch, argv, key,
                                          capsys):
    # none of the inputs exist, so a command that read the config and went
    # on would exit 1
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text(f"# a comment\n{key}=200\n", encoding="utf-8")
    assert run(argv + ["--config", "c.cfg"]) == 2
    assert f"config line 2: unknown key {key!r}" in capsys.readouterr().err


def test_a_command_that_reads_no_config_keys_says_so(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text("max_iterations=5\n", encoding="utf-8")
    assert run(["train", "train.tsv", "m.model", "--model", "majority",
                "--config", "c.cfg"]) == 2
    assert ("unknown key 'max_iterations'; this command reads no config keys"
            in capsys.readouterr().err)


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


def test_calibrate_binary_reads_a_float_spelling_of_a_label(tmp_path,
                                                          capsys):
    values = tmp_path / "values.txt"
    reference = tmp_path / "reference.txt"
    values.write_text("0.1\n0.4\n0.6\n0.9\n")
    reference.write_text("0\n0.0\n1.0\n1\n")
    assert run(["calibrate", values, reference]) == 0
    assert capsys.readouterr().out == "theta1=0.5\n"


@pytest.mark.parametrize("label", ["0.7", "nan", "2"])
def test_calibrate_binary_rejects_a_reference_label_not_0_or_1(
        tmp_path, capsys, label):
    values = tmp_path / "values.txt"
    reference = tmp_path / "reference.txt"
    values.write_text("0.1\n0.4\n0.6\n0.9\n")
    reference.write_text(f"0\n{label}\n1\n1\n")
    assert run(["calibrate", values, reference]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    reason = "not a finite number" if label == "nan" else "label must be 0 or 1"
    assert f"{reference} line 2: {reason}: {label!r}" in err


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
    # the annotate config file: every annotation key is accepted
    cfg.write_text("n_scales=8\ntextgrid_tier=words\ntheta1=0.5\n"
                   "theta2=1.0\n")
    assert run(["calibrate", values, "--mode", "split",
                "--config", cfg]) == 0
    assert "theta2=0.9" in capsys.readouterr().out


def test_duplicate_config_key_is_a_usage_error(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("0.6\n0.9\n1.4\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("theta1=0.5\n# later edit\ntheta1=0.7\n")
    assert run(["calibrate", values, "--mode", "split",
                "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config line 3: duplicate key 'theta1', first set on line 1" in err


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


@pytest.mark.parametrize("argv, message", [
    (["--theta1", "0.3"], "binary mode does not read --theta1 (0.3)"),
    (["--config", "c.cfg"], "binary mode does not read --config (c.cfg)"),
    (["--mode", "split", "--theta1", "0.3"],
     "split mode does not read the reference file (reference.txt)"),
], ids=["binary-theta1", "binary-config", "split-reference"])
def test_calibrate_input_the_mode_does_not_read_is_usage_error(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("values.txt").write_text("0.1\n0.2\n0.8\n0.9\n")
    Path("reference.txt").write_text("0\n0\n1\n1\n")
    Path("c.cfg").write_text("theta1=0.3\n")
    assert run(["calibrate", "values.txt", "reference.txt", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# characters str.splitlines also breaks a line at
LINE_BREAKS_BUT_NOT_LINE_FEEDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", LINE_BREAKS_BUT_NOT_LINE_FEEDS)
def test_calibrate_values_file_lines_end_at_line_feeds(tmp_path, capsys, sep):
    values = tmp_path / "v.txt"
    values.write_bytes(f"0.5{sep}0.7\nfoo\n".encode())
    reference = tmp_path / "r.txt"
    reference.write_text("0\n1\n")
    assert run(["calibrate", values, reference]) == 1
    assert (f"{values} line 1: not a number: {f'0.5{sep}0.7'!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("sep", LINE_BREAKS_BUT_NOT_LINE_FEEDS)
def test_config_lines_end_at_line_feeds(tmp_path, capsys, sep):
    values = tmp_path / "values.txt"
    values.write_text("0.6\n0.9\n1.4\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(f"theta1=0.5{sep}\nbogus\n".encode())
    assert run(["calibrate", values, "--mode", "split",
                "--config", cfg]) == 2
    assert "config line 2: expected key=value" in capsys.readouterr().err


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
    assert len(model.words) == 8


def test_train_is_byte_identical(tmp_path, dataset_file, capsys):
    a = tmp_path / "a.model"
    b = tmp_path / "b.model"
    for kind in ("majority", "crf"):
        assert run(["train", dataset_file, a, "--model", kind]) == 0
        assert run(["train", dataset_file, b, "--model", kind]) == 0
        assert a.read_bytes() == b.read_bytes()


GOLDEN_WORDS = ["the", "cat", "Anna", "runs", "to", "a", "green", "house",
                "and", "sings", "Berlin", "slowly", "2019", "over", "my",
                "old", "piano", "we", "never", "forget"]


def golden_crf_corpus(n=40, seed=5):
    """Dataset text drawn from random.Random (stable across Python releases):
    Zipf-weighted words whose label mostly follows the word, commas inside
    sentences and a full stop at the end."""
    r = random.Random(seed)
    weights = [1.0 / (i + 1) for i in range(len(GOLDEN_WORDS))]
    blocks = []
    for _ in range(n):
        rows = []
        length = 3 + int(r.random() * 8)
        for i in range(length):
            word = r.choices(range(len(GOLDEN_WORDS)), weights)[0]
            lab = word % 3 if r.random() < 0.7 else int(r.random() * 3)
            rows.append(f"{GOLDEN_WORDS[word]}\t{lab}\t{lab * 0.5:.3f}")
            if 0 < i < length - 1 and r.random() < 0.15:
                rows.append(",\tNA\tNA")
        rows.append(".\tNA\tNA")
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


# recorded with the per-position CRF loops; the scatter form keeps every bit
GOLDEN_CRF = {
    "2": ("features=225\nobjective=-14.419098\n",
          "24a80c75b8b6cffe385e604d6b8953301ba681ab7479eca0cfb9d030e9fcc8c6"),
    "3": ("features=225\nobjective=-19.778482\n",
          "a2d5cc4f60093bf8220b2451919e588520906d12812bd2d731da2dbcc5e33f9f"),
}


@pytest.mark.parametrize("classes", sorted(GOLDEN_CRF))
def test_train_crf_golden_bytes(tmp_path, capsys, classes):
    """`train --model crf` writes the summary and model bytes in GOLDEN_CRF;
    100 L-BFGS iterations carry any last-bit change into the weights."""
    stdout, sha256 = GOLDEN_CRF[classes]
    data = tmp_path / "golden.tsv"
    data.write_text(golden_crf_corpus(), encoding="utf-8")
    model = tmp_path / "crf.model"
    assert run(["train", data, model, "--model", "crf",
                "--classes", classes]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(model.read_bytes()).hexdigest() == sha256


# (stdout, model SHA-256), recorded before the model-file sections moved
# into the tagger modules
GOLDEN_MAJORITY = {
    "2": ("entries=20\n",
          "53934021b42afc14c22c084be53ef263b1df4b4517a6abcf37a2af4e8d082da7"),
    "3": ("entries=20\n",
          "8f9879266d69f23ea5f55e0d19805b0de08ae2dc77ed12b2392f62f89f3fc71c"),
}


@pytest.mark.parametrize("classes", sorted(GOLDEN_MAJORITY))
def test_train_majority_golden_bytes(tmp_path, capsys, classes):
    """`train --model majority` writes the summary and model bytes in
    GOLDEN_MAJORITY."""
    stdout, sha256 = GOLDEN_MAJORITY[classes]
    data = tmp_path / "golden.tsv"
    data.write_text(golden_crf_corpus(), encoding="utf-8")
    model = tmp_path / "majority.model"
    assert run(["train", data, model, "--model", "majority",
                "--classes", classes]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(model.read_bytes()).hexdigest() == sha256


# a 3-d table for half of GOLDEN_WORDS: "Berlin" reaches its row through the
# lowercase fallback, the other words look up as zero
GOLDEN_EMBEDDINGS = """\
the 0.1 -0.2 0.3
cat 0.5 0.25 -0.75
Anna 1.0 0.0 0.5
runs -0.5 0.5 0.125
to 0.0 0.3 -0.1
a 0.2 0.2 0.2
green 0.9 -0.4 0.1
berlin -0.3 0.8 0.6
2019 0.05 0.05 -0.9
piano 0.7 0.1 0.4
"""
# (model SHA-256, predict output SHA-256); the predict SHAs were recorded with
# the per-position feature loops and gradient-descent training, the model
# SHAs with L-BFGS-B training, which moves no prediction
GOLDEN_EMBED = {
    "2": ("9b2051f54077a9ba3cc8992ae328640fe72be1546591ca96548dd77e32f2bbe8",
          "4b23d445e971c8127ed866e0bc66ad68b998ecc4a505e27d109992f26423f81c"),
    "3": ("0c8f8faf043369ed232062a2aad941182cfbd413b7f7418778216d21ebb28167",
          "79b93bea7620769567b8fadf288c9ede51868d1543c573071f2c0e53998acc94"),
}


@pytest.mark.parametrize("classes", sorted(GOLDEN_EMBED))
def test_train_embed_golden_bytes(tmp_path, capsys, classes):
    """`train --model embed` and `predict` on the golden corpus write the
    model and prediction bytes in GOLDEN_EMBED."""
    model_sha, predict_sha = GOLDEN_EMBED[classes]
    data = tmp_path / "golden.tsv"
    data.write_text(golden_crf_corpus(), encoding="utf-8")
    emb = tmp_path / "vectors.txt"
    emb.write_text(GOLDEN_EMBEDDINGS, encoding="utf-8")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"embeddings={emb}\nembedding_dim=3\n", encoding="utf-8")
    model = tmp_path / "embed.model"
    out = tmp_path / "pred.tsv"
    assert run(["train", data, model, "--model", "embed", "--config", cfg,
                "--classes", classes]) == 0
    assert run(["predict", model, data, out, "--classes", classes]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == model_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == predict_sha


# SHA-256 of every file of the `tag` round on the golden corpus, keyed by
# file name (see _tag_round); recorded while labels were still lists
GOLDEN_TAG_ROUND = {
    "2": {
        "crf.curve.tsv":
            "e6660b24803b4a239e6ae5e59144d267d5106446ed158bd9d20eef1119c9999c",
        "crf.model.confusion.tsv":
            "f82ad45a31a69e074faab87e4a1df15e3b3a1e2616ec5fd649d0525a9aaeb97e",
        "crf.model.report.tsv":
            "11ceb3b87e189e1d10ba8b9029a4a1db43e31eb7fa67573fc8fcb14ff721900a",
        "crf.pred":
            "8075caba4c9a6da69e149aa1655a4c8871ccbde52d5f8f224c5983ec12120def",
        "crf.pred.confusion.tsv":
            "f82ad45a31a69e074faab87e4a1df15e3b3a1e2616ec5fd649d0525a9aaeb97e",
        "crf.pred.report.tsv":
            "fe07226d11c916e77be5536b4a727f60955f2d8e9fe45554ff9a0998f715613a",
        "majority-global.model.confusion.tsv":
            "d58a50f2824df1c8f31487f33cceb1448239dec3abe52fa6feeee1630f2ddb07",
        "majority-global.model.report.tsv":
            "a1b568696c4ee5d1d82992326c9bd422a57b919a80cae9b31cdcac191fe87313",
        "majority-global.pred":
            "d2b21b6ed66597fc9a4e8e06df93c46695fa42e3e032774a3e7be902d9f245b5",
        "majority-global.pred.confusion.tsv":
            "d58a50f2824df1c8f31487f33cceb1448239dec3abe52fa6feeee1630f2ddb07",
        "majority-global.pred.report.tsv":
            "81389d3568b3b35f55b780b637f82eaed3f15ca52dd0224b7ecc6882460f9cef",
        "majority.curve.tsv":
            "9ec6028874aa4a91c63517ef282622bf5a69cdc60259fd2dfc6cf446582e9f82",
        "majority.model.confusion.tsv":
            "2007211452d54c0609a9565a738745236bbcb0a2e9ceeda0e574eaf1f26c815a",
        "majority.model.report.tsv":
            "9cb68ccc1f3a263c95680cbbfccd637d9135c210d540d89342e1b1c50b652c30",
        "majority.pred":
            "590051aa37ae4272440756735e57995921f6449e485ba58ed6c12b699c069a2d",
        "majority.pred.confusion.tsv":
            "2007211452d54c0609a9565a738745236bbcb0a2e9ceeda0e574eaf1f26c815a",
        "majority.pred.report.tsv":
            "be5699f4f79e69fbe0760e5fc51ab2df8ef10ae5f9b3b2565ffaaa5b192a7a56",
    },
    "3": {
        "crf.curve.tsv":
            "ea469f09b74cfc9dd697315f6df05a03905cdc0c0e30a9d497dff35a00735123",
        "crf.model.confusion.tsv":
            "a5e89fbd213a4e2bcf1d02dc086b632b4bc83717599305c586109fc2aadf0ef1",
        "crf.model.report.tsv":
            "7c679cbae0de33eee35585dadec7b8f8da2f7de317ba25daa2e8695a8fb70712",
        "crf.pred":
            "f9f4998fba3cdd461f06ae8e20c3f1c41dde1481a63efc853e88eeca213ccf38",
        "crf.pred.confusion.tsv":
            "a5e89fbd213a4e2bcf1d02dc086b632b4bc83717599305c586109fc2aadf0ef1",
        "crf.pred.report.tsv":
            "ca7010ed0c303ebd72bc2f91254c9b988b536f30d36ee4f4299b2332be874fbe",
        "majority-global.model.confusion.tsv":
            "8a22ad1eccc293584d600ab2e9117441b6fb4f4efac910c6263905c9ca6e1be3",
        "majority-global.model.report.tsv":
            "0b30413cb5a728ddbbfac69a45cdece754747f1dac1ffeb6cafb3a69a47ddebe",
        "majority-global.pred":
            "78231b2218bd40ea78be6b2dbb323b77597024a7dbf5685cd4d24c53ff7d3508",
        "majority-global.pred.confusion.tsv":
            "8a22ad1eccc293584d600ab2e9117441b6fb4f4efac910c6263905c9ca6e1be3",
        "majority-global.pred.report.tsv":
            "e881f0992016ffa7d0e57cb49e297fc6c967353da7499e2da5fc75fb863ad0e4",
        "majority.curve.tsv":
            "c1dc20d46cf94ed74ff42de8f5cc2f84be6192735f4cf34757a807ac8f131c5c",
        "majority.model.confusion.tsv":
            "2be5520c14737e1cb676be1a2dca68757f69b430f1decdd72d993417104f8401",
        "majority.model.report.tsv":
            "75f345f4fe32a60ba6acb6aa044f575330e13f64409b91af93abd84f58834906",
        "majority.pred":
            "ccdf13bbb2480ab11ae848d4385a23669cc63d0f5fbf082efb9fe6ff3b4c019b",
        "majority.pred.confusion.tsv":
            "2be5520c14737e1cb676be1a2dca68757f69b430f1decdd72d993417104f8401",
        "majority.pred.report.tsv":
            "82943d4711a4848aff1124ee58f17f421bc038d98ba6cf16f1b9c16a3eebee2c",
    },
}


def _tag_round(tmp_path, classes) -> dict[str, str]:
    """Train majority and crf on golden_crf_corpus(); predict a test corpus
    with majority, majority-global and crf; evaluate each predictions file
    and each model; run learning-curve for majority and crf.  Returns the
    SHA-256 of every file written, by file name."""
    train = tmp_path / "train.tsv"
    train.write_text(golden_crf_corpus(), encoding="utf-8")
    test = tmp_path / "test.tsv"
    test.write_text(golden_crf_corpus(n=25, seed=11), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    for kind in ("majority", "crf"):
        assert run(["train", train, tmp_path / f"{kind}.model", "--model",
                    kind, "--classes", classes]) == 0
        assert run(["learning-curve", train, test, out / f"{kind}.curve.tsv",
                    "--model", kind, "--classes", classes]) == 0
    for name in ("majority", "majority-global", "crf"):
        model = tmp_path / f"{name.split('-')[0]}.model"
        pred = out / f"{name}.pred"
        assert run(["predict", model, test, pred, "--model", name,
                    "--classes", classes]) == 0
        assert run(["evaluate", pred, test, "--out", out / f"{name}.pred",
                    "--classes", classes]) == 0
        assert run(["evaluate", model, test, "--model", name, "--out",
                    out / f"{name}.model", "--classes", classes]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("classes", sorted(GOLDEN_TAG_ROUND))
def test_tag_round_golden_bytes(tmp_path, capsys, classes):
    """predict, evaluate (from a predictions file and from a model file) and
    learning-curve write the bytes in GOLDEN_TAG_ROUND."""
    assert _tag_round(tmp_path, classes) == GOLDEN_TAG_ROUND[classes]


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


@pytest.mark.parametrize("model, setting", [
    ("crf", "l2_lambda=-10"), ("crf", "max_iterations=-5"),
    ("crf", "tolerance=-1"), ("embed", "l2_lambda=-10"),
    ("embed", "max_iterations=0"),
])
def test_train_rejects_an_out_of_range_setting(tmp_path, dataset_file,
                                               capsys, model, setting):
    if model == "embed":
        cfg = write_training_config(tmp_path, setting + "\n")
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
    out = tmp_path / "m.model"
    assert run(["train", dataset_file, out, "--model", model,
                "--config", cfg]) == 1
    key = setting.split("=")[0]
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


TRAINERS = {"crf": crf_train, "embed": train_embed_classifier}
# a value of each training key far enough from its default to show
AWAY = {"l2_lambda": "0.5", "max_iterations": "2", "tolerance": "0.5"}


@pytest.mark.parametrize("model, key", [
    (model, key) for model in TRAINERS
    for key in cli.TAGGERS[model].config_keys if key in cli.TRAINING_KEYS])
def test_every_training_setting_has_an_effect_and_one_default(
        tmp_path, dataset_file, capsys, model, key):
    """Set away from its default, a key changes the model file; set to the
    default in the trainer's signature, it writes the bytes of leaving it
    out."""
    default = inspect.signature(TRAINERS[model]).parameters[key].default

    def trained(setting: str) -> bytes:
        if model == "embed":
            cfg = write_training_config(tmp_path, setting)
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(setting)
        out = tmp_path / "m.model"
        assert run(["train", dataset_file, out, "--model", model,
                    "--config", cfg]) == 0
        return out.read_bytes()

    unset = trained("")
    assert trained(f"{key}={default!r}\n") == unset
    assert trained(f"{key}={AWAY[key]}\n") != unset


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


def test_evaluate_reads_a_predictions_file_that_starts_like_a_model_file(
        tmp_path, capsys):
    """Only a first line equal to the model header makes a model file: a
    predictions file whose first token is `prosolab-model` is scored."""
    test = tmp_path / "test.tsv"
    test.write_text("prosolab-model\t1\t0.500\nb\t0\t0.000\n",
                    encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("prosolab-model\t1\nb\t0\n", encoding="utf-8")
    assert run(["evaluate", pred, test, "--out", tmp_path / "e"]) == 0
    assert (tmp_path / "e.report.tsv").read_text() == (
        "model\ttask\tfraction\taccuracy\n"
        "predictions\t3-way\t1\t1.000000\n")


@pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("kind", ["majority", "crf", "embed"])
def test_a_model_file_with_crlf_or_cr_line_ends_decodes_the_same(
        tmp_path, dataset_file, capsys, kind, eol):
    """predict and evaluate read a model file whose line ends an editor or a
    Windows checkout changed, and write the same bytes as from the LF file."""
    config = (["--config", write_training_config(tmp_path)]
              if kind == "embed" else [])
    lf = tmp_path / "lf.model"
    assert run(["train", dataset_file, lf, "--model", kind, *config]) == 0
    other = tmp_path / "other.model"
    other.write_bytes(lf.read_bytes().replace(b"\n", eol))
    written = []
    for model in (lf, other):
        out = tmp_path / model.stem
        assert run(["predict", model, dataset_file, f"{out}.pred"]) == 0
        assert run(["evaluate", model, dataset_file, "--out", out]) == 0
        written.append([Path(f"{out}{suffix}").read_bytes() for suffix in
                        (".pred", ".report.tsv", ".confusion.tsv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_an_unwritable_output_prints_no_result(tmp_path, dataset_file,
                                                capsys, command):
    """A command writes its files before it prints its result, so an output
    path in a missing directory fails with nothing on stdout."""
    model = tmp_path / "m.model"
    assert run(["train", dataset_file, model, "--model", "majority"]) == 0
    pred = tmp_path / "p.pred"
    assert run(["predict", model, dataset_file, pred]) == 0
    capsys.readouterr()
    missing = tmp_path / "nodir"
    argv = (["train", dataset_file, missing / "m.model", "--model",
             "majority"] if command == "train" else
            ["evaluate", pred, dataset_file, "--out", missing / "e"])
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno 2] ")
    assert not missing.exists()


@pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_a_predictions_file_with_crlf_or_cr_line_ends_scores_the_same(
        tmp_path, dataset_file, capsys, eol):
    """evaluate scores a predictions file whose line ends were changed
    against an LF test file, and writes the same bytes as for the LF file."""
    model = tmp_path / "m.model"
    assert run(["train", dataset_file, model, "--model", "majority"]) == 0
    lf = tmp_path / "lf.pred"
    assert run(["predict", model, dataset_file, lf]) == 0
    other = tmp_path / "other.pred"
    other.write_bytes(lf.read_bytes().replace(b"\n", eol))
    written = []
    for pred in (lf, other):
        out = tmp_path / pred.stem
        assert run(["evaluate", pred, dataset_file, "--out", out]) == 0
        written.append([Path(f"{out}{suffix}").read_bytes() for suffix in
                        (".report.tsv", ".confusion.tsv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("kind", ["majority", "crf", "embed"])
def test_evaluate_numbers_only_the_file_a_tagger_reads(
        tmp_path, dataset_file, monkeypatch, capsys, kind):
    """evaluate of a predictions file compares token bytes and numbers
    neither file; evaluate of a model numbers the test file once, for the
    tagger, and predict numbers its input once."""
    config = (["--config", write_training_config(tmp_path)]
              if kind == "embed" else [])
    model = tmp_path / "m.model"
    assert run(["train", dataset_file, model, "--model", kind, *config]) == 0
    numbered = []  # the token count of each file numbered
    number = corpus_io.number_tokens
    monkeypatch.setattr(corpus_io, "number_tokens", lambda token_bytes: (
        numbered.append(token_bytes.tobytes().count(b"\n"))
        or number(token_bytes)))
    pred = tmp_path / "p.pred"
    assert run(["predict", model, dataset_file, pred]) == 0
    assert numbered == [10]
    numbered.clear()
    assert run(["evaluate", pred, dataset_file, "--out", tmp_path / "e"]) == 0
    assert numbered == []
    assert run(["evaluate", model, dataset_file, "--out", tmp_path / "m"]) == 0
    assert numbered == [10]


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


def _decode_args(command, model, data, tmp_path):
    if command == "predict":
        return ["predict", model, data, tmp_path / "out.tsv"]
    return ["evaluate", model, data, "--out", tmp_path / "eval"]


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("trained, flag", [
    ("majority", "crf"), ("majority", "embed"), ("crf", "majority"),
    ("crf", "majority-global"), ("crf", "embed"),
])
def test_model_flag_naming_another_tagger_is_a_usage_error(
        tmp_path, dataset_file, capsys, command, trained, flag):
    model = tmp_path / "m.model"
    assert run(["train", dataset_file, model, "--model", trained]) == 0
    capsys.readouterr()
    assert run([*_decode_args(command, model, dataset_file, tmp_path),
                "--model", flag]) == 2
    assert (f"--model {flag} does not match the model file, which holds a "
            f"{trained} model") in capsys.readouterr().err
    assert not (tmp_path / "out.tsv").exists()
    assert not (tmp_path / "eval.report.tsv").exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("trained, flag", [
    ("majority", "majority"), ("majority", "majority-global"), ("crf", "crf"),
])
def test_model_flag_naming_the_file_tagger_decodes(
        tmp_path, dataset_file, capsys, command, trained, flag):
    model = tmp_path / "m.model"
    assert run(["train", dataset_file, model, "--model", trained]) == 0
    assert run([*_decode_args(command, model, dataset_file, tmp_path),
                "--model", flag]) == 0


@pytest.mark.parametrize("flag", ["majority", "majority-global", "crf",
                                  "embed"])
def test_model_flag_with_a_predictions_file_is_a_usage_error(
        tmp_path, dataset_file, capsys, flag):
    model = tmp_path / "m.model"
    preds = tmp_path / "preds.tsv"
    assert run(["train", dataset_file, model, "--model", "majority"]) == 0
    assert run(["predict", model, dataset_file, preds]) == 0
    capsys.readouterr()
    assert run(["evaluate", preds, dataset_file, "--out", tmp_path / "eval",
                "--model", flag]) == 2
    assert "--model applies to a model file" in capsys.readouterr().err
    assert not (tmp_path / "eval.report.tsv").exists()


def _two_sentence_files(tmp_path, pred_blocks):
    """A 2-sentence test file and a predictions file of `pred_blocks`."""
    test = tmp_path / "test.tsv"
    test.write_text(DATASET_SENTENCE + "\n" + DATASET_SENTENCE,
                    encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    preds.write_text("\n\n".join("\n".join(f"{tok}\t{lab}"
                                           for tok, lab in block)
                                 for block in pred_blocks) + "\n",
                     encoding="utf-8")
    return test, preds


def _gold_pairs():
    rows = [line.split("\t") for line in DATASET_SENTENCE.splitlines()]
    return [(tok, lab) for tok, lab, _ in rows]


@pytest.mark.parametrize("case, message", [
    # the first sentence's last token opens the second sentence instead
    ("shifted", "sentence 1: 9 predicted tokens vs 10 in the test file"),
    ("renamed", "sentence 1, token 1: predicted 'x0' where the test file "
                "has 'Tell'"),
], ids=["shifted", "renamed"])
def test_evaluate_rejects_predictions_for_other_tokens(tmp_path, capsys,
                                                       case, message):
    gold = _gold_pairs()
    if case == "shifted":
        blocks = [gold[:-1], gold[-1:] + gold]
    else:
        blocks = [[(f"x{i}", lab) for i, (_, lab) in enumerate(gold)]] * 2
    test, preds = _two_sentence_files(tmp_path, blocks)
    assert run(["evaluate", preds, test, "--out", tmp_path / "eval"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "eval.report.tsv").exists()


def test_evaluate_rejects_a_label_that_is_not_an_integer(tmp_path, capsys):
    gold = _gold_pairs()
    test, preds = _two_sentence_files(
        tmp_path, [gold, [("Tell", "x")] + gold[1:]])
    assert run(["evaluate", preds, test, "--out", tmp_path / "eval"]) == 1
    assert ("line 12: label is neither NA nor an integer: 'x'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("label", ["-1", "7"])
def test_evaluate_rejects_a_predicted_label_out_of_range(tmp_path, capsys,
                                                        label, classes):
    gold = _gold_pairs()
    test, preds = _two_sentence_files(
        tmp_path, [gold, [("Tell", label)] + gold[1:]])
    assert run(["evaluate", preds, test, "--out", tmp_path / "eval",
                "--classes", classes]) == 1
    assert (f"line 12: label out of range: {label!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "eval.report.tsv").exists()


@pytest.mark.parametrize("label", ["01", "+1", "-0", " 1", "1 "])
def test_evaluate_rejects_a_label_spelled_another_way(tmp_path, capsys,
                                                      label):
    gold = _gold_pairs()
    test, preds = _two_sentence_files(
        tmp_path, [gold, [("Tell", label)] + gold[1:]])
    assert run(["evaluate", preds, test, "--out", tmp_path / "eval"]) == 1
    assert (f"line 12: not a label: {label!r} (labels are 0, 1, 2 or NA)"
            in capsys.readouterr().err)
    assert not (tmp_path / "eval.report.tsv").exists()


@pytest.mark.parametrize("case, message", [
    ("predicted-na", "sentence 2, token 1: predicted NA where the test file "
                     "has a label"),
    ("predicted-label", "sentence 2, token 5: predicted a label where the "
                        "test file has NA"),
    ("model", "sentence 2, token 1: predicted a label where the test file "
              "has NA"),
], ids=["predicted-na", "predicted-label", "model"])
def test_evaluate_names_the_sentence_and_token_of_an_na_disagreement(
        tmp_path, dataset_file, capsys, case, message):
    gold = _gold_pairs()
    if case == "model":
        # the test file marks the word 'Tell' NA; a tagger labels every word
        test = tmp_path / "test.tsv"
        test.write_text(DATASET_SENTENCE + "\n" + DATASET_SENTENCE.replace(
            "Tell\t2\t1.473", "Tell\tNA\tNA"), encoding="utf-8")
        scored = tmp_path / "m.model"
        assert run(["train", dataset_file, scored, "--model", "majority"]) == 0
    else:
        changed = ([("Tell", "NA")] + gold[1:] if case == "predicted-na"
                   else gold[:4] + [(",", "1")] + gold[5:])
        test, scored = _two_sentence_files(tmp_path, [gold, changed])
    capsys.readouterr()
    assert run(["evaluate", scored, test, "--out", tmp_path / "eval"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "eval.report.tsv").exists()


def _check_sentence_by_sentence(pred, gold):
    """The per-sentence reference for cli._check_predictions: None, or the
    message of the first mismatch."""
    if len(pred) != len(gold):
        return (f"sentence count mismatch: {len(pred)} predicted vs "
                f"{len(gold)} gold")
    for i, ((tokens, labels), (gold_tokens, gold_labels)) in enumerate(
            zip(pred, gold), start=1):
        for k, (p, g, p_lab, g_lab) in enumerate(
                zip(tokens, gold_tokens, labels, gold_labels), start=1):
            if p != g:
                return (f"sentence {i}, token {k}: predicted {p!r} where "
                        f"the test file has {g!r}")
            if (p_lab is None) != (g_lab is None):
                got, want = (("NA", "a label") if p_lab is None
                             else ("a label", "NA"))
                return (f"sentence {i}, token {k}: predicted {got} where "
                        f"the test file has {want}")
        if len(tokens) != len(gold_tokens):
            return (f"sentence {i}: {len(tokens)} predicted tokens vs "
                    f"{len(gold_tokens)} in the test file")
    return None


# tokens whose bytes the check compares: multi-byte, combining, one a
# prefix of another, whitespace-led and holding a space
PAIR_TOKENS = ["a", "ab", "\u00e9", "e\u0301", " a", "a b"]
# sentences of PAIR_TOKENS with labels None/0; predictions are the same
# sentences with a few tokens, labels or sentence ends changed
pair_sentence_st = st.lists(st.tuples(st.sampled_from(PAIR_TOKENS),
                                      st.sampled_from([None, 0])),
                            min_size=1, max_size=4).map(
    lambda rows: ([t for t, _ in rows], [lab for _, lab in rows]))


@settings(max_examples=300, deadline=None)
@given(st.lists(pair_sentence_st, max_size=4), st.data())
def test_check_predictions_equals_a_sentence_by_sentence_walk(gold, data):
    flat = [(t, lab) for tokens, labels in gold
            for t, lab in zip(tokens, labels)]
    for _ in range(data.draw(st.integers(0, 2))):
        if flat:
            k = data.draw(st.integers(0, len(flat) - 1))
            flat[k] = data.draw(st.tuples(
                st.sampled_from([*PAIR_TOKENS, "c"]),
                st.sampled_from([None, 0])))
    lengths = [len(tokens) for tokens, _ in gold]
    if data.draw(st.booleans()) and lengths:
        lengths = data.draw(st.permutations(lengths))
    if data.draw(st.integers(0, 4)) == 0:
        lengths = lengths[:-1] or lengths + [1]
        flat = flat[:sum(lengths)] + [("a", 0)] * (sum(lengths) - len(flat))
    ends = np.cumsum(lengths).tolist()
    pred = [([t for t, _ in flat[a:b]], [lab for _, lab in flat[a:b]])
            for a, b in zip([0, *ends], ends)]
    want = _check_sentence_by_sentence(pred, gold)
    try:
        cli._check_predictions(make_columns(*pred),
                               make_columns(*gold))
    except CorpusFormatError as exc:
        assert str(exc) == want
    else:
        assert want is None


# a CRF model file with no features; {v} is one transition weight
NON_FINITE_CRF_MODEL = ("prosolab-model v1\ntype=crf\nlabels=0,1\n"
                        "l2_lambda=0.0001\nfeatures=0\nstates=3\n"
                        "trans\t{v}\t0.0\t0.0\n" + "trans\t0.0\t0.0\t0.0\n" * 2)
NON_FINITE_TEXTGRID = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 1
        intervals: size = 1
        intervals [1]:
            xmin = {v}
            xmax = 1
            text = "hello"
"""
# reader: (files to write, command, exit code, message); {v} is the value
NON_FINITE_CASES = {
    "config-theta1": (
        {"values.txt": "0.5\n", "c.cfg": "theta1={v}\n"},
        ["calibrate", "values.txt", "--mode", "split", "--config", "c.cfg"],
        2, "config key theta1: not a finite number: '{v}'"),
    "config-l2_lambda": (
        {"train.tsv": DATASET_SENTENCE, "c.cfg": "l2_lambda={v}\n"},
        ["train", "train.tsv", "m.model", "--model", "crf",
         "--config", "c.cfg"],
        2, "config key l2_lambda: not a finite number: '{v}'"),
    "calibrate-values": (
        {"values.txt": "0.1\n{v}\n0.3\n", "ref.txt": "0\n1\n0\n"},
        ["calibrate", "values.txt", "ref.txt"],
        1, "values.txt line 2: not a finite number: '{v}'"),
    "theta1-flag": (
        {"values.txt": "0.5\n"},
        ["calibrate", "values.txt", "--mode", "split", "--theta1", "{v}"],
        2, "--theta1: not a finite number: '{v}'"),
    "dataset": (
        {"train.tsv": "tok\t1\t{v}\n"},
        ["train", "train.tsv", "m.model", "--model", "majority"],
        1, "line 1: continuous value: not a finite number: '{v}'"),
    "embeddings": (
        {"train.tsv": DATASET_SENTENCE, "vectors.txt": "tell 1.0 {v}\n",
         "c.cfg": "embeddings=vectors.txt\nembedding_dim=2\n"},
        ["train", "train.tsv", "m.model", "--model", "embed",
         "--config", "c.cfg"],
        1, "line 1: not a finite number: '{v}'"),
    "model-file": (
        {"m.model": NON_FINITE_CRF_MODEL, "test.tsv": DATASET_SENTENCE},
        ["predict", "m.model", "test.tsv", "out.tsv"],
        1, "crf model, trans row 0: not a finite number: '{v}'"),
    "textgrid": (
        {"audio/u.wav": pcm16_wav_bytes(np.zeros(16000), 16000),
         "align/u.TextGrid": NON_FINITE_TEXTGRID},
        ["annotate", "audio", "align", "out.tsv"],
        0, "interval block at tier 'words': not a finite number: '{v}'"),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("reader", list(NON_FINITE_CASES))
def test_every_reader_rejects_a_non_finite_number(tmp_path, monkeypatch,
                                                  capsys, reader, value):
    files, argv, code, message = NON_FINITE_CASES[reader]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content.replace("{v}", value), encoding="utf-8")
    assert run([arg.replace("{v}", value) for arg in argv]) == code
    err = capsys.readouterr().err
    # annotate names a failed utterance in its manifest and goes on
    shown = err if code else Path("out.tsv.manifest").read_text()
    assert message.replace("{v}", value) in shown


HUGE = "99999999999999999999999"  # an integer to int(), but past int64


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("global_, row, message", [
    (HUGE, "1,0,0", f"majority model, key global: integer out of range: "
                    f"'{HUGE}'"),
    ("1", f"{HUGE},0,0", f"majority model, word row 0: integer out of "
                         f"range: '{HUGE}'"),
], ids=["global", "word"])
def test_an_oversized_count_in_a_model_file_is_a_format_error(
        tmp_path, capsys, command, global_, row, message):
    model = tmp_path / "m.model"
    model.write_text(f"prosolab-model v1\ntype=majority\n"
                     f"global={global_},0,0\nwords=1\nword\ttell\t{row}\n",
                     encoding="utf-8")
    data = tmp_path / "test.tsv"
    data.write_text(DATASET_SENTENCE, encoding="utf-8")
    assert run(_decode_args(command, model, data, tmp_path)) == 1
    assert f"error: {message}" in capsys.readouterr().err


# reader: (files to write, command, exit code, message); each file holds one
# byte that is not UTF-8
NOT_UTF8_CASES = {
    "dataset": (
        {"train.tsv": b"tok\t1\t0.5\nt\xffk\t0\t0.1\n"},
        ["train", "train.tsv", "m.model", "--model", "majority"],
        1, "train.tsv line 2: not UTF-8 text: byte 0xff"),
    "predictions": (
        {"test.tsv": DATASET_SENTENCE, "pred.tsv": b"Tell\t2\n\xff\t0\n"},
        ["evaluate", "pred.tsv", "test.tsv"],
        1, "pred.tsv line 2: not UTF-8 text: byte 0xff"),
    "model-file": (
        {"m.model": b"prosolab-model v1\ntype=majority\nglobal=1,0,0\n"
                    b"words=1\nword\t\xfe\t1,0,0\n",
         "test.tsv": DATASET_SENTENCE},
        ["predict", "m.model", "test.tsv", "out.tsv"],
        1, "m.model line 5: not UTF-8 text: byte 0xfe"),
    "embeddings": (
        {"train.tsv": DATASET_SENTENCE,
         "vectors.txt": b"tell 1.0 2.0\n\xffme 0.5 0.5\n",
         "c.cfg": "embeddings=vectors.txt\nembedding_dim=2\n"},
        ["train", "train.tsv", "m.model", "--model", "embed",
         "--config", "c.cfg"],
        1, "vectors.txt line 2: not UTF-8 text: byte 0xff"),
    "config": (
        {"train.tsv": DATASET_SENTENCE,
         "c.cfg": b"# caf\xe9\nmax_iterations=5\n"},
        ["train", "train.tsv", "m.model", "--model", "crf",
         "--config", "c.cfg"],
        2, "config c.cfg line 1: not UTF-8 text: byte 0xe9"),
    "calibrate-values": (
        {"values.txt": b"0.1\n0.2\xff\n", "ref.txt": "0\n1\n"},
        ["calibrate", "values.txt", "ref.txt"],
        1, "values.txt line 2: not UTF-8 text: byte 0xff"),
}


@pytest.mark.parametrize("reader, eol", [
    pytest.param(reader, eol, id=reader + suffix)
    for eol, suffix in (("\n", ""), ("\r\n", "-CRLF"), ("\r", "-CR"))
    for reader in NOT_UTF8_CASES])
def test_every_reader_names_the_file_of_bytes_that_are_not_utf8(
        tmp_path, monkeypatch, capsys, reader, eol):
    # the line is named the same whichever line ends the file has
    files, argv, code, message = NOT_UTF8_CASES[reader]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        if isinstance(content, str):
            content = content.encode("utf-8")
        (tmp_path / name).write_bytes(content.replace(b"\n", eol.encode()))
    assert run(argv) == code
    assert f"error: {message}\n" == capsys.readouterr().err


MAJORITY_MODEL = ("prosolab-model v1\ntype=majority\nglobal=1,0,0\n"
                  "words=1\nword\ttell\t0,0,1\n")
ANNOTATE_ARGS = ["annotate", "audio", "align", "out.tsv", "--config",
                 "annotate.cfg"]
# reader: (files to write, None for an annotate tree, the file that starts
# with a byte order mark, command, output file or None)
BOM_CASES = {
    "dataset": ({"train.tsv": DATASET_SENTENCE}, "train.tsv",
                ["train", "train.tsv", "m.model", "--model", "majority"],
                "m.model"),
    "predictions": (
        {"test.tsv": DATASET_SENTENCE,
         "pred.tsv": "".join(line.rsplit("\t", 1)[0] + "\n"
                             for line in DATASET_SENTENCE.splitlines())},
        "pred.tsv", ["evaluate", "pred.tsv", "test.tsv"], "eval.report.tsv"),
    "model-file": ({"m.model": MAJORITY_MODEL, "test.tsv": DATASET_SENTENCE},
                   "m.model", ["predict", "m.model", "test.tsv", "out.tsv"],
                   "out.tsv"),
    "model-file-evaluate": (
        {"m.model": MAJORITY_MODEL, "test.tsv": DATASET_SENTENCE}, "m.model",
        ["evaluate", "m.model", "test.tsv"], "eval.report.tsv"),
    "embeddings": (
        {"train.tsv": DATASET_SENTENCE, "vectors.txt": "tell 1.0 2.0\n",
         "c.cfg": "embeddings=vectors.txt\nembedding_dim=2\n"},
        "vectors.txt", ["train", "train.tsv", "m.model", "--model", "embed",
                        "--config", "c.cfg"], "m.model"),
    "config": ({"train.tsv": DATASET_SENTENCE, "c.cfg": "max_iterations=5\n"},
               "c.cfg", ["train", "train.tsv", "m.model", "--model", "crf",
                         "--config", "c.cfg"], "m.model"),
    "calibrate-values": ({"values.txt": "0.1\n0.2\n", "ref.txt": "0\n1\n"},
                         "values.txt", ["calibrate", "values.txt", "ref.txt"],
                         None),
    "lab": (None, "align/u.lab", ANNOTATE_ARGS, "out.tsv"),
    "textgrid": (None, "align/u.TextGrid", ANNOTATE_ARGS, "out.tsv"),
}


@pytest.mark.parametrize("reader", list(BOM_CASES))
def test_every_reader_reads_a_file_the_same_with_a_byte_order_mark(
        tmp_path, monkeypatch, capsys, reader):
    files, target, argv, out = BOM_CASES[reader]
    results = []
    for bom in (b"", codecs.BOM_UTF8):
        where = tmp_path / ("bom" if bom else "plain")
        where.mkdir()
        monkeypatch.chdir(where)
        if files is None:
            _, align_dir, _ = annotate_tree(where, [("u", [0.2, 0.8, 0.5],
                                                     ".")])
            if target.endswith(".TextGrid"):
                lab = align_dir / "u.lab"
                write_textgrid(align_dir / "u.TextGrid", corpus_io.parse_lab(
                    lab))
                lab.unlink()
        for name, content in (files or {}).items():
            (where / name).write_text(content, encoding="utf-8")
        path = where / target
        path.write_bytes(bom + path.read_bytes())
        assert run(argv) == 0
        results.append((capsys.readouterr().out,
                        out and (where / out).read_bytes()))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# learning-curve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_learning_curve_negative_seed_is_a_usage_error(tmp_path, capsys,
                                                       seed):
    train = tmp_path / "train.tsv"
    train.write_text(DATASET_SENTENCE, encoding="utf-8")
    out = tmp_path / "curve.tsv"
    assert run(["learning-curve", train, train, out, "--model", "majority",
                "--seed", seed]) == 2
    assert (f"error: --seed must be at least 0, got {seed}\n"
            == capsys.readouterr().err)
    assert not out.exists()


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


def test_learning_curve_rejects_a_repeated_fraction(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_text(DATASET_SENTENCE, encoding="utf-8")
    out = tmp_path / "c.tsv"
    assert run(["learning-curve", train, train, out, "--model", "majority",
                "--fractions", "5,100,5.0"]) == 2
    assert (capsys.readouterr().err
            == "error: --fractions 5,100,5.0: 5% is repeated\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--fractions", "37"], ["--fractions", "5,5"],
                                  ["--seed", "-1"]])
def test_learning_curve_checks_its_flags_before_reading_data(tmp_path, capsys,
                                                             flag):
    """A bad flag is a usage error even when the data files are missing."""
    missing = tmp_path / "missing.tsv"
    assert run(["learning-curve", missing, missing, tmp_path / "c.tsv",
                "--model", "majority", *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[0]}") and "missing" not in err


@pytest.mark.parametrize("kind", ["majority", "crf", "embed"])
def test_learning_curve_fits_what_train_fits(tmp_path, dataset_file, kind,
                                             capsys):
    # a strong penalty makes a dropped config key change the accuracy; each
    # tagger gets only the keys it reads, and majority reads none
    config = []
    if kind == "crf":
        config = ["--config", tmp_path / "c.cfg"]
        config[1].write_text("l2_lambda=1000\n")
    elif kind == "embed":
        config = ["--config",
                  write_training_config(tmp_path, "l2_lambda=1000\n")]
    model = tmp_path / "m.model"
    assert run(["train", dataset_file, model, "--model", kind, *config]) == 0
    assert run(["evaluate", model, dataset_file,
                "--out", tmp_path / "eval"]) == 0
    curve = tmp_path / "curve.tsv"
    assert run(["learning-curve", dataset_file, dataset_file, curve,
                "--model", kind, *config, "--fractions", "100"]) == 0
    evaluated = (tmp_path / "eval.report.tsv").read_text().splitlines()[1]
    curve_row = curve.read_text().splitlines()[1]
    assert curve_row.split("\t")[3] == evaluated.split("\t")[3]


# what each --model decodes with, by its name in prosolab.cli
DECODERS = {"majority": "predict_majority", "majority-global":
            "predict_majority", "crf": "viterbi", "embed": "predict_embed"}


def test_every_tracer_binding_resolves_to_a_callable():
    # a refactor that drops or renames a name that perfbench/spans.py
    # rebinds would otherwise show only in the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.BINDINGS:
        bound = getattr(importlib.import_module(module), attr, None)
        assert callable(bound), (module, attr)


def test_the_tracer_bindings_see_every_train_and_decode_call(
        tmp_path, dataset_file, monkeypatch, capsys):
    # perfbench/spans.py traces by rebinding names in prosolab.cli, so the
    # commands must look them up there at call time
    calls = dict.fromkeys(["crf_train", *DECODERS.values(), "load_model"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)

    def calls_made(argv):
        before = dict(calls)
        assert run(argv) == 0
        return {name for name in calls if calls[name] > before[name]}

    cfg = write_training_config(tmp_path)
    for kind in DECODERS:
        config = ["--config", cfg] if kind == "embed" else []
        decoded = {DECODERS[kind]}
        trained = {"crf_train"} if kind == "crf" else set()
        model = tmp_path / f"{kind}.model"
        if kind != "majority-global":
            assert calls_made(["train", dataset_file, model, "--model", kind,
                               *config]) == trained
        else:
            model = tmp_path / "majority.model"
        assert calls_made(["predict", model, dataset_file, tmp_path / "p.tsv",
                           "--model", kind]) == {"load_model", *decoded}
        assert calls_made(["evaluate", model, dataset_file, "--model", kind,
                           "--out", tmp_path / "eval"]) == {"load_model",
                                                            *decoded}
        assert calls_made(["learning-curve", dataset_file, dataset_file,
                           tmp_path / "curve.tsv", "--model", kind, *config,
                           "--fractions", "100"]) == {*trained, *decoded}


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


@pytest.mark.parametrize("argv", [
    ["predict", "m.model", "in.tsv", "out.tsv"],
    ["evaluate", "m.model", "test.tsv"],
], ids=lambda argv: argv[0])
def test_config_is_a_usage_error_for_predict_and_evaluate(tmp_path,
                                                          monkeypatch, argv,
                                                          capsys):
    # neither command reads a config, so neither accepts one
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--config", "c.cfg"]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


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


# the variables perfbench/run.py pins, as the prosolab command does
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(**settings) -> dict[str, str]:
    """This process's environment for a child Python, without the BLAS
    thread variables, plus `settings`.  The child imports the same
    prosolab as this process, whether it is installed or found through
    PYTHONPATH."""
    package_root = str(Path(prosolab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in [package_root, os.environ.get("PYTHONPATH")] if p)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    return {**env, "PYTHONPATH": pythonpath, **settings}


def test_log_level_env_controls_verbosity(tmp_path):
    train = tmp_path / "train.tsv"
    train.write_text(DATASET_SENTENCE, encoding="utf-8")
    script = ("import sys; from prosolab.cli import main; "
              "sys.exit(main(sys.argv[1:]))")

    # the subprocess is needed because basicConfig is a no-op once pytest
    # has set up log capture
    def run_proc(level):
        return subprocess.run(
            [sys.executable, "-c", script, "train", str(train),
             str(tmp_path / "m.model"), "--model", "majority"],
            capture_output=True, text=True, env=child_env(PROSOLAB_LOG=level))

    loud = run_proc("INFO")
    assert loud.returncode == 0, loud.stderr
    assert "training majority on 1 sentences" in loud.stderr

    quiet = run_proc("WARNING")
    assert quiet.returncode == 0, quiet.stderr
    assert "training majority" not in quiet.stderr


@pytest.mark.parametrize("level", ["bogus", "10", ""])
def test_log_level_env_unknown_is_a_usage_error_and_empty_is_unset(tmp_path,
                                                                   level):
    train = tmp_path / "train.tsv"
    train.write_text(DATASET_SENTENCE, encoding="utf-8")
    model = tmp_path / "m.model"
    script = ("import sys; from prosolab.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    child = subprocess.run(
        [sys.executable, "-c", script, "train", str(train), str(model),
         "--model", "majority"],
        capture_output=True, text=True, env=child_env(PROSOLAB_LOG=level))
    if level:
        assert child.returncode == 2
        assert child.stderr == (
            f"error: PROSOLAB_LOG={level!r} is not a log level; use one of "
            "CRITICAL, FATAL, ERROR, WARN, WARNING, INFO, DEBUG, NOTSET\n")
        assert not model.exists()
    else:
        # the default, WARNING: no INFO line
        assert child.returncode == 0, child.stderr
        assert child.stderr == ""
        assert model.exists()


def test_importing_the_cli_loads_no_scipy():
    """scipy.optimize takes most of a fresh command's start-up, and only
    training uses it, so it is imported where training calls it."""
    script = ("import sys, prosolab.cli; "
              "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=child_env())
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


@pytest.mark.parametrize("module, preset, want", [
    ("prosolab.__main__", {}, "1"),
    ("prosolab.__main__", dict.fromkeys(BLAS_VARS, "2"), "2"),
    ("prosolab.cli", {}, None),
    ("prosolab", {}, None),
], ids=["command", "user-set", "cli", "package"])
def test_the_command_pins_blas_threads_unless_set(module, preset, want):
    script = (f"import json, os, {module}; print(json.dumps("
              f"[os.environ.get(v) for v in {BLAS_VARS!r}]))")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=child_env(**preset))
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [want] * len(BLAS_VARS)


def test_python_m_prosolab_runs_the_cli(tmp_path):
    train = tmp_path / "train.tsv"
    train.write_text(DATASET_SENTENCE, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "prosolab", "train", str(train),
         str(tmp_path / "m.model"), "--model", "majority"],
        capture_output=True, text=True, env=child_env())
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "m.model").read_text().startswith("prosolab-model v1")


def test_the_parser_is_built_once_and_parses_each_call_afresh(capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    annotate = ["annotate", "audio", "align", "out.tsv"]
    assert parser.parse_args([*annotate, "--jobs", "3"]).jobs == 3
    assert parser.parse_args(annotate).jobs == 1
    outputs = []
    for _ in range(2):
        for argv in (["--help"], ["train", "--help"], ["train", "x"],
                     ["bogus"]):
            outputs.append((run(argv), capsys.readouterr()))
    assert outputs[:4] == outputs[4:]
    assert [code for code, _ in outputs[:4]] == [0, 0, 2, 2]
