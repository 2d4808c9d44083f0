"""Command-line entry point: annotate, calibrate, train, predict, evaluate,
learning-curve.

Every run is reproducible: flat key=value config files, explicit seeds, and
deterministic training make identical inputs produce identical output bytes
(the manifest timestamp line is the single exception).  Exit codes: 0 success,
1 data/validation failure, 2 usage or config failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from functools import reduce
from pathlib import Path

from . import evaluation
from .corpus_io import (CorpusFormatError, EmbeddingTable, ProminenceRecord,
                        Utterance, load_embeddings, parse_dataset, parse_lab,
                        parse_number, parse_predictions, parse_textgrid,
                        read_wav, write_dataset)
from .discretize import calibrate_binary, split_prominent
from .prominence import AnnotateConfig, AnnotationError, annotate_utterance
# crf_loglik_grad is unused here, but perfbench's tracer looks it up here
from .taggers import (crf_loglik_grad, crf_train, load_model,  # noqa: F401
                      predict_embed, predict_majority, save_model,
                      train_embed_classifier, train_majority, viterbi)
from .taggers.common import LabeledSentence, sentence_from_records
from .taggers.crf import CrfModel
from .taggers.majority import MajorityModel

log = logging.getLogger("prosolab")


class UsageError(Exception):
    """Bad flags or config contents; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# Every annotation key a config file may set, in manifest order, and the
# AnnotateConfig attribute it sets.  Defaults and types are read from
# AnnotateConfig() itself.
ANNOTATE_KEYS = {
    "f0_min": "pitch.f0_min",
    "f0_max": "pitch.f0_max",
    "voicing_threshold": "pitch.voicing_threshold",
    "window_s": "window_s",
    "frame_shift_s": "frame_shift_s",
    "smooth_sigma_s": "smooth_sigma_s",
    "dur_smooth_sigma_s": "dur_smooth_sigma_s",
    "w_f0": "composite.w_f0",
    "w_energy": "composite.w_energy",
    "w_dur": "composite.w_dur",
    "composite_mode": "composite.mode",
    "n_scales": "grid.n_scales",
    "min_period_s": "grid.min_period_s",
    "scales_per_octave": "grid.scales_per_octave",
    "theta1": "thresholds.theta1",
    "theta2": "thresholds.theta2",
}
# `calibrate --mode split` reads theta1 from the annotate config file
ANNOTATE_CONFIG_KEYS = (*ANNOTATE_KEYS, "textgrid_tier")
# the training keys each tagger reads; majority-global trains as majority
TRAIN_CONFIG_KEYS = {
    "majority": (),
    "crf": ("l2_lambda", "max_iterations", "tolerance"),
    "embed": ("l2_lambda", "max_iterations", "embeddings", "embedding_dim"),
}


def load_config(path: str | None, known: tuple[str, ...]) -> dict[str, str]:
    """Read a flat key=value file; unknown or repeated keys are usage errors."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"unreadable config {path}: {exc}") from exc
    cfg, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise UsageError(f"config line {lineno}: unknown key {key!r}; "
                             "this command reads "
                             f"{', '.join(known) or 'no config keys'}")
        if key in cfg:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}, "
                             f"first set on line {first_line[key]}")
        first_line[key] = lineno
        cfg[key] = value.strip()
    return cfg


def _parse(text: str, kind: type, where: str):
    """A config or flag value as `kind`; a bad number is a usage error."""
    if kind is str:
        return text
    try:
        return parse_number(text, kind, where)
    except CorpusFormatError as exc:
        raise UsageError(str(exc)) from exc


def _cfg_value(cfg: dict[str, str], key: str, default):
    """cfg[key] parsed as the type of `default`, or `default` if unset."""
    if key not in cfg:
        return default
    return _parse(cfg[key], type(default), f"config key {key}")


def _setting(cfg: AnnotateConfig, path: str):
    return reduce(getattr, path.split("."), cfg)


def build_annotate_config(cfg: dict[str, str], n_classes: int) -> AnnotateConfig:
    """AnnotateConfig() with the table keys that `cfg` sets replaced."""
    defaults = AnnotateConfig()
    changes: dict[str, dict] = {"": {"n_classes": n_classes}}
    for key, path in ANNOTATE_KEYS.items():
        if key in cfg:
            section, _, name = path.rpartition(".")
            changes.setdefault(section, {})[name] = _parse(
                cfg[key], type(_setting(defaults, path)), f"config key {key}")
    top = changes.pop("")
    for section, fields in changes.items():
        top[section] = replace(getattr(defaults, section), **fields)
    return replace(defaults, **top)


def _config_lines(cfg: AnnotateConfig) -> list[str]:
    pairs = [(key, _setting(cfg, path)) for key, path in ANNOTATE_KEYS.items()]
    pairs.append(("n_classes", cfg.n_classes))
    return [f"config.{k}={v}" for k, v in pairs]


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def _annotate_one(job) -> tuple[
        str, tuple[Utterance, list[ProminenceRecord]] | None, str | None]:
    stem, wav_path, align_path, tier, cfg = job
    try:
        audio = read_wav(wav_path)
        if align_path.suffix.lower() == ".lab":
            utt = parse_lab(align_path, utt_id=stem)
        else:
            utt = parse_textgrid(align_path, tier, utt_id=stem)
        return stem, (utt, annotate_utterance(audio, utt, cfg)), None
    except Exception as exc:
        return stem, None, str(exc)


def cmd_annotate(args) -> int:
    cfg_dict = load_config(args.config, ANNOTATE_CONFIG_KEYS)
    cfg = build_annotate_config(cfg_dict, args.classes)
    tier = cfg_dict.get("textgrid_tier", "words")
    align_dir = Path(args.align_dir)
    audio_dir = Path(args.audio_dir)

    aligns = sorted(
        [p for p in align_dir.iterdir()
         if p.suffix.lower() in (".lab", ".textgrid")],
        key=lambda p: p.stem,
    ) if align_dir.is_dir() else []
    if not aligns:
        raise CorpusFormatError(f"empty input set: no alignments in {align_dir}")

    jobs = []
    missing: list[str] = []
    for align_path in aligns:
        wav_path = audio_dir / (align_path.stem + ".wav")
        if wav_path.is_file():
            jobs.append((align_path.stem, wav_path, align_path, tier, cfg))
        else:
            missing.append(align_path.stem)

    log.info("annotating %d utterances with %d worker(s)", len(jobs),
             args.jobs)
    if args.jobs > 1 and jobs:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_annotate_one, jobs))
    else:
        results = [_annotate_one(job) for job in jobs]

    status: list[tuple[str, str]] = [(s, "failed: missing audio")
                                     for s in missing]
    payload = []
    for stem, annotated, err in results:
        if annotated is None:
            log.info("%s failed: %s", stem, err)
            status.append((stem, f"failed: {err}"))
            continue
        status.append((stem, "ok"))
        payload.append(annotated)

    out_path = Path(args.out_file)
    out_path.write_bytes(write_dataset(payload))

    status.sort(key=lambda s: s[0])
    n_ok = sum(1 for _, st in status if st == "ok")
    n_fail = len(status) - n_ok
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    manifest = [f"# generated {stamp}", "command=annotate"]
    manifest.extend(_config_lines(cfg))
    manifest.extend(f"utt\t{stem}\t{st}" for stem, st in status)
    manifest.append(f"summary\t{n_ok} ok, {n_fail} failed")
    Path(str(out_path) + ".manifest").write_text(
        "\n".join(manifest) + "\n", encoding="utf-8")
    print(f"{n_ok} ok, {n_fail} failed -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _read_floats(path: str, binary: bool = False) -> list[float]:
    """Numbers on the non-blank lines; with `binary`, each must be 0 or 1."""
    values = []
    for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        value = parse_number(line, float, f"{path} line {lineno}")
        if binary and value not in (0.0, 1.0):
            raise CorpusFormatError(
                f"{path} line {lineno}: label must be 0 or 1: {line!r}")
        values.append(value)
    return values


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config, ANNOTATE_CONFIG_KEYS)
    values = _read_floats(args.values_file)
    if args.mode == "binary":
        if args.reference_file is None:
            raise UsageError("binary mode needs a reference file")
        reference = _read_floats(args.reference_file, binary=True)
        t = calibrate_binary(values, reference)
        print(f"theta1={t.theta1!r}")
    else:
        if args.theta1 is not None:
            theta1 = _parse(args.theta1, float, "--theta1")
        elif "theta1" in cfg:
            theta1 = _parse(cfg["theta1"], float, "config key theta1")
        else:
            raise UsageError("split mode needs --theta1 or config theta1")
        theta2 = split_prominent(values, theta1)
        print(f"theta1={theta1!r}")
        print(f"theta2={theta2!r}")
    return 0


# ---------------------------------------------------------------------------
# train / predict / evaluate / learning-curve
# ---------------------------------------------------------------------------

def _load_sentences(path: str, n_classes: int) -> list[LabeledSentence]:
    sentences = [sentence_from_records(block)
                 for block in parse_dataset(Path(path))]
    if not sentences:
        raise CorpusFormatError(f"no sentences in {path}")
    if n_classes == 2:
        for sent in sentences:
            sent.labels = evaluation.merge_labels(sent.labels)
    return sentences


def _embed_table(cfg: dict[str, str]):
    if "embeddings" not in cfg:
        raise UsageError("embed model needs config keys embeddings=<path> "
                         "and embedding_dim=<n>")
    dim = _cfg_value(cfg, "embedding_dim", 0)
    if dim <= 0:
        raise UsageError("config key embedding_dim must be a positive integer")
    return load_embeddings(Path(cfg["embeddings"]), dim)


def _train(kind: str, corpus: list[LabeledSentence], cfg: dict[str, str],
           table: EmbeddingTable | None):
    """Fit a `kind` tagger; `train` and `learning-curve` both come here, so
    they read the same config keys."""
    if kind == "majority":
        return train_majority(corpus)
    l2_lambda = _cfg_value(cfg, "l2_lambda", 1e-4)
    if kind == "crf":
        return crf_train(
            corpus, l2_lambda=l2_lambda,
            max_iterations=_cfg_value(cfg, "max_iterations", 100),
            tolerance=_cfg_value(cfg, "tolerance", 1e-5),
        )
    return train_embed_classifier(
        corpus, table, l2_lambda=l2_lambda,
        max_iterations=_cfg_value(cfg, "max_iterations", 500),
    )


def cmd_train(args) -> int:
    cfg = load_config(args.config, TRAIN_CONFIG_KEYS[args.model])
    corpus = _load_sentences(args.train_file, args.classes)
    log.info("training %s on %d sentences", args.model, len(corpus))
    table = _embed_table(cfg) if args.model == "embed" else None
    model = _train(args.model, corpus, cfg, table)
    if args.model == "majority":
        print(f"entries={len(model.per_word)}")
    elif args.model == "crf":
        print(f"features={len(model.feature_index)}")
        print(f"objective={model.objective:.6f}")
    else:
        print(f"dimension={model.table.dimension}")
    Path(args.out_model).write_bytes(save_model(model))
    return 0


def _predictor(model, model_arg: str | None):
    """(report name, tokens -> labels).  The model's type picks the decoder;
    `model_arg`, when given, must name that type, and majority-global picks
    global decoding of a majority model.  Decoders are looked up at call
    time, so a tracer that rebinds them here sees every call."""
    kind = ("majority" if isinstance(model, MajorityModel)
            else "crf" if isinstance(model, CrfModel) else "embed")
    if model_arg is not None and model_arg.split("-")[0] != kind:
        raise UsageError(f"--model {model_arg} does not match the model "
                         f"file, which holds a {kind} model")
    if model_arg == "majority-global":
        return ("majority-global",
                lambda tokens: predict_majority(model, tokens, "global"))
    if kind == "majority":
        return ("majority-per-word",
                lambda tokens: predict_majority(model, tokens, "per_word"))
    if kind == "crf":
        return "crf", lambda tokens: viterbi(model, tokens)
    return "embed", lambda tokens: predict_embed(model, tokens)


def cmd_predict(args) -> int:
    model = load_model(Path(args.model_file).read_bytes())
    sentences = _load_sentences(args.in_file, 3)
    _, predict = _predictor(model, args.model)
    blocks = []
    for sent in sentences:
        preds = predict(sent.tokens)
        if args.classes == 2:
            preds = evaluation.merge_labels(preds)
        lines = [
            f"{tok}\t{'NA' if lab is None else lab}"
            for tok, lab in zip(sent.tokens, preds)
        ]
        blocks.append("\n".join(lines))
    Path(args.out_file).write_text("\n\n".join(blocks) + "\n",
                                   encoding="utf-8")
    print(f"{len(sentences)} sentences -> {args.out_file}")
    return 0


def _check_predictions(pred_sents: list[tuple[list[str], list[int | None]]],
                       gold_sents: list[LabeledSentence]) -> None:
    """Predictions must hold the test file's sentences and tokens, with NA
    exactly where the test file has NA."""
    if len(pred_sents) != len(gold_sents):
        raise CorpusFormatError(
            f"sentence count mismatch: {len(pred_sents)} predicted vs "
            f"{len(gold_sents)} gold")
    for i, ((tokens, labels), gold) in enumerate(zip(pred_sents, gold_sents),
                                                 start=1):
        for k, (p, g, p_lab, g_lab) in enumerate(
                zip(tokens, gold.tokens, labels, gold.labels), start=1):
            if p != g:
                raise CorpusFormatError(
                    f"sentence {i}, token {k}: predicted {p!r} where the "
                    f"test file has {g!r}")
            if (p_lab is None) != (g_lab is None):
                got, want = (("NA", "a label") if p_lab is None
                             else ("a label", "NA"))
                raise CorpusFormatError(
                    f"sentence {i}, token {k}: predicted {got} where the "
                    f"test file has {want}")
        if len(tokens) != len(gold.tokens):
            raise CorpusFormatError(
                f"sentence {i}: {len(tokens)} predicted tokens vs "
                f"{len(gold.tokens)} in the test file")


def cmd_evaluate(args) -> int:
    gold_sents = _load_sentences(args.test_file, args.classes)
    data = Path(args.model_or_pred).read_bytes()

    if data.startswith(b"prosolab-model"):
        name, predict = _predictor(load_model(data), args.model)
        pred_sents = [(sent.tokens, predict(sent.tokens))
                      for sent in gold_sents]
    else:
        if args.model is not None:
            raise UsageError("--model applies to a model file, not to a "
                             "predictions file")
        name = "predictions"
        pred_sents = parse_predictions(data)
    _check_predictions(pred_sents, gold_sents)

    preds: list[int | None] = []
    golds: list[int | None] = []
    for (_, pred), sent in zip(pred_sents, gold_sents):
        if args.classes == 2:
            pred = evaluation.merge_labels(pred)
        preds.extend(pred)
        golds.extend(sent.labels)

    acc = evaluation.accuracy(preds, golds)
    conf = evaluation.confusion(preds, golds, args.classes)
    task = f"{args.classes}-way"
    print(evaluation.format_summary({name: {task: acc}}), end="")

    prefix = args.out
    Path(f"{prefix}.report.tsv").write_text(
        evaluation.report_tsv([(name, task, 1.0, acc)]), encoding="utf-8")
    Path(f"{prefix}.confusion.tsv").write_text(conf.to_tsv(), encoding="utf-8")
    return 0


def _parse_fractions(text: str) -> list[float]:
    where = f"--fractions {text}"
    percents = [_parse(part, float, where) for part in text.split(",")]
    try:
        return [evaluation.check_fraction(p / 100.0) for p in percents]
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from exc


def cmd_learning_curve(args) -> int:
    kind = "majority" if args.model.startswith("majority") else args.model
    cfg = load_config(args.config, TRAIN_CONFIG_KEYS[kind])
    train_corpus = _load_sentences(args.train_file, args.classes)
    test_corpus = _load_sentences(args.test_file, args.classes)
    fractions = _parse_fractions(args.fractions)
    table = _embed_table(cfg) if kind == "embed" else None

    def train_fn(corpus):
        return _predictor(_train(kind, corpus, cfg, table), args.model)[1]

    points = evaluation.learning_curve(train_fn, train_corpus, test_corpus,
                                       fractions, args.seed)
    task = f"{args.classes}-way"
    Path(args.out_tsv).write_text(
        evaluation.report_tsv([(args.model, task, p.fraction, p.accuracy)
                               for p in points]),
        encoding="utf-8")
    for p in points:
        print(f"fraction {p.fraction:g}: accuracy {p.accuracy:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prosolab",
        description="Word prominence annotation from audio and text-only "
                    "prominence taggers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, classes=True):
        if config:
            p.add_argument("--config", default=None,
                           help="flat key=value config file")
        if classes:
            p.add_argument("--classes", type=int, choices=(2, 3), default=3,
                           help="label granularity (default 3)")

    def model_option(p):
        p.add_argument("--model", default=None,
                       choices=("majority", "majority-global", "crf", "embed"),
                       help="the model file sets the tagger; a --model that "
                            "names another is an error, and majority-global "
                            "decodes a majority model with the global label")

    p = sub.add_parser("annotate",
                       help="annotate audio + alignments with prominence")
    p.add_argument("audio_dir")
    p.add_argument("align_dir")
    p.add_argument("out_file")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers (default 1)")
    common(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("calibrate", help="fit discretization thresholds")
    p.add_argument("values_file")
    p.add_argument("reference_file", nargs="?", default=None)
    p.add_argument("--mode", choices=("binary", "split"), default="binary")
    p.add_argument("--theta1", default=None)
    common(p, classes=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="train a text-only tagger")
    p.add_argument("train_file")
    p.add_argument("out_model")
    p.add_argument("--model", required=True,
                   choices=("majority", "crf", "embed"))
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels for a dataset file")
    p.add_argument("model_file")
    p.add_argument("in_file")
    p.add_argument("out_file")
    model_option(p)
    common(p, config=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model or prediction file")
    p.add_argument("model_or_pred")
    p.add_argument("test_file")
    model_option(p)
    p.add_argument("--out", default="eval",
                   help="prefix for report/confusion TSVs (default 'eval')")
    common(p, config=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("learning-curve",
                       help="accuracy at growing training fractions")
    p.add_argument("train_file")
    p.add_argument("test_file")
    p.add_argument("out_tsv")
    p.add_argument("--model", required=True,
                   choices=("majority", "majority-global", "crf", "embed"))
    p.add_argument("--fractions", default="1,5,10,50,100",
                   help="percent list from {1,5,10,50,100}")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the training subset sampling (default 0)")
    common(p)
    p.set_defaults(func=cmd_learning_curve)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("PROSOLAB_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CorpusFormatError, AnnotationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
