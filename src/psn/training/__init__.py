from .losses import cross_entropy, loss_ce_mean, loss_tet
from .loop import History, TrainConfig, evaluate, train
from .model import HEADS, LinearLayer, Model, ModelSpec, NeuronLayer
from .optim import AdamLike, SGDMomentum, cosine_lr

__all__ = [
    "AdamLike",
    "HEADS",
    "History",
    "LinearLayer",
    "Model",
    "ModelSpec",
    "NeuronLayer",
    "SGDMomentum",
    "TrainConfig",
    "cosine_lr",
    "cross_entropy",
    "evaluate",
    "loss_ce_mean",
    "loss_tet",
    "train",
]
