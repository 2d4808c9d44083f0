"""Text-only prominence predictors and their serialization."""

from .majority import MajorityModel, predict_majority, train_majority
from .crf import CrfModel, crf_loglik_grad, crf_train, viterbi
from .embed import EmbeddingClassifier, predict_embed, train_embed_classifier
from .serialize import load_model, save_model

__all__ = [
    "MajorityModel", "train_majority", "predict_majority",
    "CrfModel", "crf_loglik_grad", "crf_train", "viterbi",
    "EmbeddingClassifier", "train_embed_classifier", "predict_embed",
    "save_model", "load_model",
]
