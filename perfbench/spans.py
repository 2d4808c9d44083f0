"""Spans around calls into each prosolab layer, recorded from outside.

The tracer replaces a function at the binding its caller looks up (for
example ``prosolab.acoustics.frame_acf``, which ``extract_f0`` resolves at
call time) with a wrapper that records a span: name, start, end and the span
that was open when it began.  Spans stay in memory; self time is a span's
duration minus the time its direct child spans cover.  Nothing under
``src/`` changes, so the wrapped program is the program users run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer).  Several bindings may feed one layer: the
# wavelet rows and the smoothing step reach mirror_correlate through two
# modules, and `prosolab train` reports the objective once more after
# training.
BINDINGS = [
    ("prosolab.prominence", "extract_f0", "acoustics.extract_f0"),
    ("prosolab.prominence", "extract_energy", "acoustics.extract_energy"),
    ("prosolab.prominence", "duration_track", "acoustics.duration_track"),
    ("prosolab.acoustics", "frame_acf", "accel.frame_acf"),
    ("prosolab.conditioning", "mirror_correlate", "accel.mirror_correlate"),
    ("prosolab.prominence", "mirror_correlate", "accel.mirror_correlate"),
    ("prosolab.taggers.crf", "chain_forward", "accel.chain_forward"),
    ("prosolab.taggers.crf", "chain_backward", "accel.chain_backward"),
    ("prosolab.taggers.crf", "chain_viterbi", "accel.chain_viterbi"),
    ("prosolab.prominence", "condition", "conditioning.condition"),
    ("prosolab.prominence", "compose", "prominence.compose"),
    ("prosolab.prominence", "cwt", "prominence.cwt"),
    ("prosolab.prominence", "extract_loma", "prominence.extract_loma"),
    ("prosolab.prominence", "word_prominence", "prominence.word_prominence"),
    ("prosolab.cli", "annotate_utterance", "prominence.annotate_utterance"),
    ("prosolab.prominence", "discretize", "discretize.discretize"),
    ("prosolab.cli", "read_wav", "corpus_io.read_wav"),
    ("prosolab.cli", "parse_lab", "corpus_io.parse_lab"),
    ("prosolab.cli", "write_dataset", "corpus_io.write_dataset"),
    ("prosolab.cli", "parse_dataset", "corpus_io.parse_dataset"),
    ("prosolab.taggers.crf", "build_feature_index", "crf.build_feature_index"),
    ("prosolab.taggers.crf", "sentence_feature_ids",
     "crf.sentence_feature_ids"),
    ("prosolab.taggers.crf", "crf_loglik_grad", "crf.crf_loglik_grad"),
    ("prosolab.cli", "crf_loglik_grad", "crf.crf_loglik_grad"),
    # crf_train's self time is the optimizer: everything it does besides
    # indexing, featurising and evaluating the objective
    ("prosolab.cli", "crf_train", "crf.lbfgs"),
    ("prosolab.cli", "viterbi", "crf.viterbi"),
    ("prosolab.cli", "predict_majority", "majority.predict_majority"),
    ("prosolab.cli", "predict_embed", "embed.predict_embed"),
    ("prosolab.cli", "load_model", "serialize.load_model"),
    ("prosolab.evaluation", "accuracy", "evaluation.accuracy"),
    ("prosolab.evaluation", "confusion", "evaluation.confusion"),
    ("prosolab.cli", "main", "cli.main"),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer in BINDINGS))


class Tracer:
    """Records spans and result-derived counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, open_ = self.spans, self._open
        on_result = _RESULT_HOOKS.get(layer)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, perf_counter(), 0.0,
                          open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, layer in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Per layer: (self time in ms, call count), every layer listed."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for (layer, start, end, _), inner in zip(self.spans, child):
            totals[layer][0] += (end - start - inner) * 1e3
            totals[layer][1] += 1
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def nfev(self) -> int:
        """Objective evaluations made by the optimizer, not by the caller."""
        return sum(1 for layer, _, _, parent in self.spans
                   if layer == "crf.crf_loglik_grad" and parent >= 0
                   and self.spans[parent][0] == "crf.lbfgs")


def _count_f0(counts, track):
    counts["acoustics.frames"] += len(track.values)
    counts["acoustics.voiced"] += int(track.valid.sum())


def _count_loma(counts, lomas):
    counts["prominence.loma_lines"] += len(lomas)


def _count_features(counts, model):
    index = getattr(model, "feature_index", None)
    if index is not None:
        counts["crf.features"] = len(index)


_RESULT_HOOKS = {
    "acoustics.extract_f0": _count_f0,
    "prominence.extract_loma": _count_loma,
    "crf.lbfgs": _count_features,
    "serialize.load_model": _count_features,
}
