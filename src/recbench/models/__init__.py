"""Model zoo behind the two-function interface."""

from ..errors import ModelError
from .base import Model, TrainConfig
from .bpr import BPRModel
from .checkpoint import FORMAT_VERSION, load_state, save_state
from .ease import EASEModel
from .fm import FMModel
from .itemknn import ItemKNNModel
from .losses import (bpr_loss, bpr_loss_grad, logistic_loss,
                     logistic_loss_grad, margin_loss, margin_loss_grad)
from .popularity import PopularityModel

MODEL_REGISTRY = {
    cls.kind: cls
    for cls in (PopularityModel, ItemKNNModel, BPRModel, EASEModel, FMModel)
}

# hyperparameters accepted per model kind, with coercion targets
MODEL_PARAM_SCHEMA = {
    "popularity": {},
    "itemknn": {"k": int, "shrink": float},
    "bpr": {},
    "ease": {"l2": float},
    "fm": {"fields": list},
}


def build_model(kind, ds, train_rows, cfg, params=None, rng=None) -> Model:
    try:
        cls = MODEL_REGISTRY[kind]
    except KeyError:
        raise ModelError(f"unknown model {kind!r} "
                         f"(available: {sorted(MODEL_REGISTRY)})") from None
    return cls(ds, train_rows, cfg, params, rng)


__all__ = [
    "Model", "TrainConfig", "MODEL_REGISTRY", "MODEL_PARAM_SCHEMA",
    "build_model", "save_state", "load_state", "FORMAT_VERSION",
    "PopularityModel", "ItemKNNModel", "BPRModel", "EASEModel", "FMModel",
    "bpr_loss", "bpr_loss_grad", "margin_loss", "margin_loss_grad",
    "logistic_loss", "logistic_loss_grad",
]
