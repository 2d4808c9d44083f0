"""Command-line entry point: annotate, calibrate, train, predict, evaluate,
learning-curve.

Every run is reproducible: flat key=value config files, explicit seeds, and
deterministic training make identical inputs produce identical output bytes
(the manifest's `#` lines, its timestamp and the workers' busy time, are the
only exception).  Exit codes: 0 success, 1 data/validation failure, 2 usage or
config failure.
"""

from __future__ import annotations

import argparse
import logging
import multiprocessing
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from functools import cache, partial, reduce
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from . import evaluation
from .corpus_io import (Columns, CorpusFormatError, ProminenceRecord,
                        Utterance, decode_text, format_predictions,
                        load_embeddings, parse_dataset, parse_lab,
                        parse_number, parse_predictions, parse_textgrid,
                        read_wav, write_dataset)
from .discretize import calibrate_binary, split_prominent
from .prominence import AnnotateConfig, AnnotationError, annotate_utterance
# crf_loglik_grad is unused here, but perfbench's tracer looks it up here
from .taggers import (crf_loglik_grad, crf_train, load_model,  # noqa: F401
                      predict_embed, predict_majority, save_model,
                      train_embed_classifier, train_majority, viterbi)

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


def load_config(path: str | None, known: tuple[str, ...]) -> dict[str, str]:
    """Read a flat key=value file; unknown or repeated keys are usage errors."""
    if path is None:
        return {}
    try:
        text = decode_text(Path(path).read_bytes(), f"config {path}")
    except OSError as exc:
        raise UsageError(f"unreadable config {path}: {exc}") from exc
    except CorpusFormatError as exc:
        raise UsageError(str(exc)) from exc
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


def _claims(order: list[int], counter):
    """The entries of `order` that this worker claims from `counter`."""
    while True:
        with counter.get_lock():
            k, counter.value = counter.value, counter.value + 1
        if k >= len(order):
            return
        yield order[k]


def _annotate_all(jobs, workers: int) -> tuple[list, list[float]]:
    """Every job's result in job order, and each worker's busy seconds.

    This process is one of the `workers` and forks the rest.  They claim
    jobs, largest WAV first, from one shared counter, and each child sends
    its results back through a pipe.  One worker forks nothing."""
    def share(claims) -> tuple[float, list]:
        t0 = perf_counter()
        done = [(i, _annotate_one(jobs[i])) for i in claims]
        return perf_counter() - t0, done

    claims, children = range(len(jobs)), []
    try:
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            claims = _claims(sorted(range(len(jobs)), reverse=True,
                                    key=lambda i: jobs[i][1].stat().st_size),
                             ctx.Value("q", 0))
            for _ in range(workers - 1):
                recv, send = ctx.Pipe(duplex=False)
                # the child runs its own copy of the unstarted `claims`
                proc = ctx.Process(target=lambda conn: conn.send(
                    share(claims)), args=(send,))
                proc.start()
                send.close()
                children.append((proc, recv))
        shares = [share(claims)]
        for k, (proc, recv) in enumerate(children, start=2):
            try:
                shares.append(recv.recv())
            except EOFError:
                proc.join()
                raise ChildProcessError(
                    f"annotate worker {k} (pid {proc.pid}) exited with status "
                    f"{proc.exitcode} and sent no results") from None
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            recv.close()
            proc.join()
    done = sorted((pair for _, pairs in shares for pair in pairs),
                  key=lambda pair: pair[0])
    return [result for _, result in done], [busy for busy, _ in shares]


def cmd_annotate(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
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

    workers = max(1, min(args.jobs, len(jobs)))
    log.info("annotating %d utterances with %d worker(s)", len(jobs),
             workers)
    results, busy = _annotate_all(jobs, workers)

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
    manifest = [f"# generated {stamp}",
                f"# workers {workers}, busy "
                + ", ".join(f"{b:.3f} s" for b in busy),
                "command=annotate"]
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
            decode_text(Path(path).read_bytes(), path).splitlines(), start=1):
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

def _load_columns(path: str, n_classes: int) -> Columns:
    """The dataset at `path`, its labels merged to 2-way if asked."""
    data = parse_dataset(Path(path))
    if not data.lengths:
        raise CorpusFormatError(f"no sentences in {path}")
    if n_classes == 2:
        data.labels = evaluation.merge_labels(data.labels)
    return data


class Tagger(NamedTuple):
    """What the CLI does with one --model value.  Entries call trainers and
    decoders through this module's globals, so a tracer can rebind them."""
    kind: str                     # the model file's type
    name: str                     # the name `evaluate` reports
    config_keys: tuple[str, ...]  # the training keys a config may set
    trainer: Callable             # cfg -> (Columns -> model), built once
    summary: Callable             # model -> the lines `train` prints
    decode: Callable              # (model, Columns) -> a label per token


def _crf_trainer(cfg: dict[str, str]):
    settings = {"l2_lambda": _cfg_value(cfg, "l2_lambda", 1e-4),
                "max_iterations": _cfg_value(cfg, "max_iterations", 100),
                "tolerance": _cfg_value(cfg, "tolerance", 1e-5)}
    return lambda data: crf_train(data, **settings)


def _embed_trainer(cfg: dict[str, str]):
    if "embeddings" not in cfg:
        raise UsageError("embed model needs config keys embeddings=<path> "
                         "and embedding_dim=<n>")
    dim = _cfg_value(cfg, "embedding_dim", 0)
    if dim <= 0:
        raise UsageError("config key embedding_dim must be a positive integer")
    table = load_embeddings(Path(cfg["embeddings"]), dim)
    settings = {"l2_lambda": _cfg_value(cfg, "l2_lambda", 1e-4),
                "max_iterations": _cfg_value(cfg, "max_iterations", 500)}
    return lambda data: train_embed_classifier(data, table, **settings)


_MAJORITY = Tagger(
    "majority", "majority-per-word", (), lambda cfg: train_majority,
    lambda model: [f"entries={len(model.per_word)}"],
    lambda model, data: predict_majority(model, data, "per_word"))
# keyed by --model; majority-global trains as majority and decodes a
# majority model with the global label
TAGGERS = {
    "majority": _MAJORITY,
    "majority-global": _MAJORITY._replace(name="majority-global", decode=(
        lambda model, data: predict_majority(model, data, "global"))),
    "crf": Tagger(
        "crf", "crf", ("l2_lambda", "max_iterations", "tolerance"),
        _crf_trainer, lambda model: [f"features={len(model.feature_index)}",
                                     f"objective={model.objective:.6f}"],
        lambda model, data: viterbi(model, data)),
    "embed": Tagger(
        "embed", "embed",
        ("l2_lambda", "max_iterations", "embeddings", "embedding_dim"),
        _embed_trainer, lambda model: [f"dimension={model.table.dimension}"],
        lambda model, data: predict_embed(model, data)),
}


def _tagger(model, model_arg: str | None) -> Tagger:
    """The entry that decodes `model`: `model_arg`'s when given, which must
    name a tagger of the model file's kind, else the kind's own."""
    tagger = TAGGERS[model_arg or model.kind]
    if tagger.kind != model.kind:
        raise UsageError(f"--model {model_arg} does not match the model "
                         f"file, which holds a {model.kind} model")
    return tagger


def cmd_train(args) -> int:
    tagger = TAGGERS[args.model]
    cfg = load_config(args.config, tagger.config_keys)
    data = _load_columns(args.train_file, args.classes)
    log.info("training %s on %d sentences", args.model, len(data.lengths))
    model = tagger.trainer(cfg)(data)
    print(*tagger.summary(model), sep="\n")
    Path(args.out_model).write_bytes(save_model(model))
    return 0


def cmd_predict(args) -> int:
    model = load_model(Path(args.model_file).read_bytes(), args.model_file)
    data = _load_columns(args.in_file, 3)
    labels = _tagger(model, args.model).decode(model, data)
    if args.classes == 2:
        labels = evaluation.merge_labels(labels)
    Path(args.out_file).write_text(
        format_predictions(Columns(data.tokens, labels, None, data.lengths)),
        encoding="utf-8")
    print(f"{len(data.lengths)} sentences -> {args.out_file}")
    return 0


def _na_mask(labels: list[int | None]) -> list[bool]:
    return [lab is None for lab in labels]


def _check_predictions(pred: Columns, gold: Columns) -> None:
    """Predictions must hold the test file's sentences and tokens, with NA
    exactly where the test file has NA.  Three whole-file comparisons decide;
    the walk sentence by sentence only names the first mismatch."""
    if (pred.lengths == gold.lengths and pred.tokens == gold.tokens
            and _na_mask(pred.labels) == _na_mask(gold.labels)):
        return
    if len(pred.lengths) != len(gold.lengths):
        raise CorpusFormatError(
            f"sentence count mismatch: {len(pred.lengths)} predicted vs "
            f"{len(gold.lengths)} gold")
    # every sentence before the first mismatch has its length in both, so
    # its tokens sit at the same flat positions in both
    start = 0
    for i, (n, n_gold) in enumerate(zip(pred.lengths, gold.lengths), start=1):
        for k in range(min(n, n_gold)):
            p, g = pred.tokens[start + k], gold.tokens[start + k]
            p_lab, g_lab = pred.labels[start + k], gold.labels[start + k]
            if p != g:
                raise CorpusFormatError(
                    f"sentence {i}, token {k + 1}: predicted {p!r} where the "
                    f"test file has {g!r}")
            if (p_lab is None) != (g_lab is None):
                got, want = (("NA", "a label") if p_lab is None
                             else ("a label", "NA"))
                raise CorpusFormatError(
                    f"sentence {i}, token {k + 1}: predicted {got} where the "
                    f"test file has {want}")
        if n != n_gold:
            raise CorpusFormatError(
                f"sentence {i}: {n} predicted tokens vs {n_gold} in the test "
                "file")
        start += n


def cmd_evaluate(args) -> int:
    gold = _load_columns(args.test_file, args.classes)
    data = Path(args.model_or_pred).read_bytes()

    if data.startswith(b"prosolab-model"):
        model = load_model(data, args.model_or_pred)
        tagger = _tagger(model, args.model)
        name = tagger.name
        pred = Columns(gold.tokens, tagger.decode(model, gold), None,
                       gold.lengths)
    else:
        if args.model is not None:
            raise UsageError("--model applies to a model file, not to a "
                             "predictions file")
        name = "predictions"
        pred = parse_predictions(decode_text(data, args.model_or_pred))
    _check_predictions(pred, gold)
    if args.classes == 2:
        pred.labels = evaluation.merge_labels(pred.labels)

    acc = evaluation.accuracy(pred.labels, gold.labels)
    conf = evaluation.confusion(pred.labels, gold.labels, args.classes)
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
    tagger = TAGGERS[args.model]
    cfg = load_config(args.config, tagger.config_keys)
    train_data = _load_columns(args.train_file, args.classes)
    test_data = _load_columns(args.test_file, args.classes)
    fractions = _parse_fractions(args.fractions)
    train = tagger.trainer(cfg)
    points = evaluation.learning_curve(
        lambda data: partial(tagger.decode, train(data)),
        train_data, test_data, fractions, args.seed)
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

@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use; parse_args leaves it unchanged."""
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
        p.add_argument("--model", default=None, choices=tuple(TAGGERS),
                       help="the model file sets the tagger; a --model that "
                            "names another is an error, and majority-global "
                            "decodes a majority model with the global label")

    p = sub.add_parser("annotate",
                       help="annotate audio + alignments with prominence")
    p.add_argument("audio_dir")
    p.add_argument("align_dir")
    p.add_argument("out_file")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, this one included (default 1); "
                        "utterances go out longest audio first and the "
                        "output stays in stem order; more than one forks "
                        "(POSIX only)")
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
    p.add_argument("--model", required=True, choices=tuple(TAGGERS))
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
