"""The workloads: set-up, measurement, one traced block, output checks.

Each workload writes its seeded inputs to files in ``setup``, then drives
prosolab through the same entry points a user would: ``prosolab.cli.main``
for every command.  ``measure``
runs with tracing off and returns end-to-end figures; ``block`` is the fixed
unit of work the traced run repeats, so per-layer counts are exact.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.stats import spearmanr

import inputs
from gauge import Gauged
from prosolab import cli


# Floors sit well below what the current code reaches on every seed tried, so
# they catch a broken tagger, not noise.
RANK_RHO_FLOOR = 0.5
TAG_ACC_FLOOR = {"majority": 0.5, "crf": 0.45, "embed": 0.45}

MIN_PASSES = 2
MIN_ROUNDS = 2

# The annotate corpus is split into this many directories, one command each,
# so that each command is short enough for the gauge around it to track the
# host's speed.
ANNOTATE_PARTS = 8

# A round of predict and evaluate over TAG_TEST sentences takes about a
# second, so a run has a few dozen rounds to take the median of.
TAG_TRAIN = 200
TAG_TEST = 1000
TAG_CRF_MAX_ITERATIONS = 4

TAGGERS = ("majority", "crf", "embed")


class CheckFailed(Exception):
    """An output of the program is wrong; the run is not correct."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run_cli(argv) -> None:
    """Run one prosolab command in-process, keeping its prints off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    check(rc == 0, f"prosolab {argv[0]} exited with {rc}")


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return perf_counter() - t0, result


def read_rows(path: Path) -> list[list[list[str]]]:
    """Tab-split rows per sentence of a dataset or prediction file."""
    blocks = path.read_text(encoding="utf-8").strip("\n").split("\n\n")
    return [[line.split("\t") for line in block.split("\n")]
            for block in blocks]


def label(text: str) -> int | None:
    return None if text == "NA" else int(text)


def check_na_at_punct(tokens, preds, where: str) -> None:
    for tok, pred in zip(tokens, preds):
        check((pred is None) == (tok in inputs.PUNCT),
              f"{where}: label {pred!r} for token {tok!r}")


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

class Annotate:
    """Sine-burst utterances through ``prosolab annotate``, 1 and 2 jobs.

    Why: pitch tracking is nearly all of this work and no text layer runs,
    so a front-end change shows here and nowhere else.  Short utterances
    stay in, so fixing their failure shows as a higher ``ok_frac``.  The
    corpus runs as ``ANNOTATE_PARTS`` commands, one per part.
    """

    traced_layers = [
        "acoustics.extract_f0", "acoustics.extract_energy",
        "acoustics.duration_track", "accel.frame_acf",
        "accel.mirror_correlate", "conditioning.condition",
        "prominence.compose", "prominence.cwt", "prominence.extract_loma",
        "prominence.word_prominence", "prominence.annotate_utterance",
        "discretize.discretize", "corpus_io.read_wav", "corpus_io.parse_lab",
        "corpus_io.write_dataset", "cli.main",
    ]

    def setup(self, seed: int, work: Path) -> None:
        self.parts, self.utts = [], {}
        for u, utt in enumerate(inputs.annotate_corpus(
                np.random.default_rng(seed))):
            part = u % ANNOTATE_PARTS
            if part == len(self.parts):
                dirs = (work / "audio" / f"part{part}",
                        work / "align" / f"part{part}")
                for d in dirs:
                    d.mkdir(parents=True)
                self.parts.append((*dirs, []))
            audio_dir, align_dir, stems = self.parts[part]
            (audio_dir / f"{utt.stem}.wav").write_bytes(utt.wav)
            (align_dir / f"{utt.stem}.lab").write_text(utt.lab,
                                                       encoding="utf-8")
            stems.append(utt.stem)
            self.utts[utt.stem] = utt
        self.out = work / "out"
        self.out.mkdir()
        self.reference, self.scores, self.summary = {}, {}, None

    def inputs_info(self) -> dict:
        return {"utterances": len(self.utts), "tokens": self.tokens(),
                "audio_s": round(self.audio_s(), 3),
                "short_utterances": inputs.N_SHORT,
                "parts": len(self.parts)}

    def tokens(self) -> int:
        return sum(len(u.saliences) for u in self.utts.values())

    def audio_s(self) -> float:
        return sum(u.duration_s for u in self.utts.values())

    def annotate(self, jobs: int, part: int, run=timed) -> tuple:
        """One ``prosolab annotate`` run on one part, timed by ``run``;
        checks its output and returns what ``run`` does."""
        audio_dir, align_dir, stems = self.parts[part]
        path = self.out / f"part{part}-jobs{jobs}.tsv"
        timing = run(run_cli, ["annotate", audio_dir, align_dir, path,
                               "--jobs", jobs])
        data = path.read_bytes()
        status = [line for line in
                  Path(f"{path}.manifest").read_text("utf-8").splitlines()
                  if line.startswith("utt\t")]
        if part not in self.reference:
            self.reference[part] = (data, status)
            self.scores[part] = self.score(path, status, stems)
            if len(self.scores) == len(self.parts):
                self.summary = self.summarise()
        check((data, status) == self.reference[part],
              f"part {part}: --jobs {jobs} output differs from the first "
              "run's bytes")
        return timing

    def annotate_all(self, jobs: int) -> float:
        """Every part once at ``jobs``: total wall s."""
        return sum(self.annotate(jobs, part)[0]
                   for part in range(len(self.parts)))

    def score(self, path: Path, status: list[str], stems: list[str]):
        """Per-utterance rank correlation with the designed salience, plus
        failure stages, for one part: (ok stems, rhos, failures)."""
        states = dict(line.split("\t")[1:3] for line in status)
        check(sorted(states) == sorted(stems),
              "manifest does not list every utterance")
        ok = sorted(s for s, st in states.items() if st == "ok")
        failed = []
        for stem, st in states.items():
            if st == "ok":
                continue
            # only the designed short utterances may fail, and only because
            # the wavelet grid cannot fit them
            check(self.utts[stem].short, f"{stem} failed: {st}")
            stage = re.search(r"stage (\w+):", st)
            failed.append(
                f"annotate.failed.{stage.group(1) if stage else 'other'}")
        blocks = read_rows(path) if ok else []
        check(len(blocks) == len(ok), "dataset and manifest disagree")
        rhos = []
        for stem, rows in zip(ok, blocks):
            sal = self.utts[stem].saliences
            check(len(rows) == len(sal),
                  f"{stem}: {len(rows)} records for {len(sal)} tokens")
            check([r[0] for r in rows] == [f"w{i}" for i in range(len(sal))],
                  f"{stem}: tokens out of order")
            rho = spearmanr(sal, [float(r[2]) for r in rows]).statistic
            rhos.append(0.0 if math.isnan(rho) else float(rho))
        return ok, rhos, failed

    def summarise(self) -> dict:
        """The parts' scores together; ``rank_rho`` must reach its floor."""
        rhos = [r for _, part_rhos, _ in self.scores.values()
                for r in part_rhos]
        failed = {}
        for _, _, part_failed in self.scores.values():
            for key in part_failed:
                failed[key] = failed.get(key, 0) + 1
        rank_rho = float(np.mean(rhos)) if rhos else 0.0
        check(rank_rho >= RANK_RHO_FLOOR,
              f"rank_rho {rank_rho:.3f} below floor {RANK_RHO_FLOOR}")
        return {"ok": len(rhos), "rank_rho": rank_rho, "failed": failed}

    def measure(self, seconds: float) -> tuple[dict, dict, int]:
        parts = range(len(self.parts))
        walls = {(jobs, part): [] for jobs in (1, 2) for part in parts}
        costs = {key: [] for key in walls}
        timer = Gauged()
        t_end = perf_counter() + seconds
        passes = 0
        while passes < MIN_PASSES or perf_counter() < t_end:
            for part in parts:
                # alternate which job count goes first, so neither always
                # runs on a cache the other warmed
                order = (1, 2) if (passes + part) % 2 == 0 else (2, 1)
                for jobs in order:
                    run = timer.run if jobs == 1 else timer.run_all_cores
                    wall, cost = self.annotate(jobs, part, run)
                    walls[jobs, part].append(wall)
                    costs[jobs, part].append(cost)
            passes += 1

        def corpus(figures, jobs):
            """Median per part, summed over the parts: the whole corpus."""
            return sum(statistics.median(figures[jobs, part])
                       for part in parts)

        j1, j2 = corpus(walls, 1), corpus(walls, 2)
        n = len(self.utts)
        ok = self.summary["ok"]
        metrics = {
            "tokens_per_gu": (self.tokens() / corpus(costs, 1), "tokens/gu"),
            "job_gu": (corpus(costs, 2), "gu"),
            "quality": (self.summary["rank_rho"], "score"),
            "ok_frac": (ok / n, "fraction"),
        }
        detail = {
            "tokens_per_s": (self.tokens() / j1, "tokens/s"),
            "job_s": (j2, "s"),
            "audio_s_per_s": (self.audio_s() / j1, "audio_s/s"),
            "audio_s_per_s_jobs2": (self.audio_s() / j2, "audio_s/s"),
            "rank_rho": (self.summary["rank_rho"], "spearman"),
            "failed_frac": ((n - ok) / n, "fraction"),
            "passes": (passes, "count"),
            **timer.figures(),
            **{k: (v, "count") for k, v in self.summary["failed"].items()},
        }
        return metrics, detail, 2 * len(parts) * passes

    def block(self) -> float:
        return self.annotate_all(1)

    def block_tokens(self) -> int:
        return self.tokens()

    def trace_extras(self, jobs1_s: float) -> dict:
        """Scaling of one 2-worker pass against the untraced 1-worker block."""
        jobs2_s = self.annotate_all(2)
        return {"cli.jobs2_scaling": (jobs1_s / (2 * jobs2_s), "ratio"),
                "annotate.failed.cwt": (
                    self.summary["failed"].get("annotate.failed.cwt", 0),
                    "count")}


# ---------------------------------------------------------------------------
# tag
# ---------------------------------------------------------------------------

class Tag:
    """``prosolab predict`` then ``evaluate`` for three saved taggers.

    Why: the tagger code used for reading and decoding rather than
    training, so a training-side change that slows per-sentence decoding,
    or a CLI change that adds overhead, shows here.
    """

    traced_layers = [
        "accel.chain_forward", "accel.chain_backward",
        "crf.build_feature_index", "crf.crf_loglik_grad", "crf.lbfgs",
        "corpus_io.parse_dataset", "crf.sentence_feature_ids", "crf.viterbi",
        "accel.chain_viterbi", "majority.predict_majority",
        "embed.predict_embed", "serialize.load_model", "evaluation.accuracy",
        "evaluation.confusion", "cli.main",
    ]

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        text = inputs.TextModel(rng)
        train = text.sentences(rng, TAG_TRAIN)
        self.test = text.sentences(rng, TAG_TEST)
        self.train_file = work / "train.tsv"
        self.test_file = work / "test.tsv"
        self.train_file.write_text(inputs.dataset_text(train),
                                   encoding="utf-8")
        self.test_file.write_text(inputs.dataset_text(self.test),
                                  encoding="utf-8")
        emb = work / "embeddings.txt"
        emb.write_text(text.embedding_text(rng), encoding="utf-8")
        configs = {
            "majority": "",
            "crf": f"max_iterations={TAG_CRF_MAX_ITERATIONS}\n",
            "embed": f"embeddings={emb}\nembedding_dim={inputs.EMBED_DIM}\n",
        }
        self.work = work
        for name in TAGGERS:
            cfg = work / f"{name}.cfg"
            cfg.write_text(configs[name], encoding="utf-8")
            run_cli(["train", self.train_file, work / f"{name}.model",
                     "--model", name, "--config", cfg])
        self.reference = None

    def inputs_info(self) -> dict:
        return {"test_sentences": len(self.test),
                "test_tokens": self.tokens(), "train_sentences": TAG_TRAIN,
                "crf_max_iterations": TAG_CRF_MAX_ITERATIONS}

    def tokens(self) -> int:
        return sum(len(tokens) for tokens, _ in self.test)

    def round(self, run=timed) -> tuple[dict, dict]:
        """Predict and score once per tagger, each command timed by ``run``.

        Returns what ``run`` gave for each ``predict`` and ``evaluate``.
        """
        predicts, evaluates, accs, preds = {}, {}, {}, {}
        for name in TAGGERS:
            pred = self.work / f"{name}.pred"
            predicts[name] = run(run_cli, [
                "predict", self.work / f"{name}.model", self.test_file, pred,
                "--model", name])
            evaluates[name] = run(run_cli, [
                "evaluate", pred, self.test_file, "--out", self.work / name])
            preds[name] = pred.read_bytes()
            report = (self.work / f"{name}.report.tsv").read_text("utf-8")
            accs[name] = float(report.splitlines()[1].split("\t")[3])
        if self.reference is None:
            self.reference = preds
            for name in TAGGERS:
                self.check_predictions(name, accs[name])
            self.accs = accs
        check(preds == self.reference, "predictions differ between rounds")
        return predicts, evaluates

    def check_predictions(self, name: str, acc: float) -> None:
        rows = read_rows(self.work / f"{name}.pred")
        check(len(rows) == len(self.test), f"{name}: sentence count")
        for (tokens, _), sent in zip(self.test, rows):
            check([r[0] for r in sent] == tokens, f"{name}: tokens changed")
            check_na_at_punct(tokens, [label(r[1]) for r in sent], name)
        check(acc >= TAG_ACC_FLOOR[name],
              f"{name} accuracy {acc:.4f} below floor {TAG_ACC_FLOOR[name]}")

    def measure(self, seconds: float) -> tuple[dict, dict, int]:
        timer = Gauged()
        # per round: wall s and cost in gu, of the whole round and of its
        # three predicts
        rounds, predicts, round_costs, predict_costs = [], [], [], []
        t_end = perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or perf_counter() < t_end:
            pred, ev = self.round(timer.run)
            rounds.append(sum(w for w, _ in [*pred.values(), *ev.values()]))
            predicts.append(sum(w for w, _ in pred.values()))
            round_costs.append(
                sum(c for _, c in [*pred.values(), *ev.values()]))
            predict_costs.append(sum(c for _, c in pred.values()))
        tokens = len(TAGGERS) * self.tokens()
        metrics = {
            "tokens_per_gu": (tokens / statistics.median(round_costs),
                              "tokens/gu"),
            "job_gu": (statistics.median(predict_costs), "gu"),
            "quality": (float(np.mean(list(self.accs.values()))), "score"),
            "ok_frac": (1.0, "fraction"),
        }
        detail = {
            "failed_frac": (0.0, "fraction"),
            "tokens_per_s": (tokens / statistics.median(rounds), "tokens/s"),
            "job_s": (statistics.median(predicts), "s"),
            "rounds": (len(rounds), "count"),
            **timer.figures(),
            **{f"{name}_acc": (acc, "accuracy")
               for name, acc in self.accs.items()},
        }
        return metrics, detail, 2 * len(TAGGERS) * len(rounds)

    def block(self) -> float:
        """One round plus the set-up's CRF training, so that the traced run
        also measures the training layers (forward-backward, L-BFGS)."""
        t0 = perf_counter()
        run_cli(["train", self.train_file, self.work / "traced-crf.model",
                 "--model", "crf", "--config", self.work / "crf.cfg"])
        self.round()
        return perf_counter() - t0

    def block_tokens(self) -> int:
        return len(TAGGERS) * self.tokens()

    def trace_extras(self, block_s: float) -> dict:
        return {}


WORKLOADS = {"annotate": Annotate, "tag": Tag}
