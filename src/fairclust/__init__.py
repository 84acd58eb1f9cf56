"""Fair deep clustering: a DEC-style clustering objective joined with a
fairoid-equidistance fairness objective, plus the metric suite (FWD,
balance, Calders-Verwer, ACC, NMI) and an experiment harness.
"""

from .autoencoder import AeConfig, decode, encode, finetune_global, pretrain, pretrain_layerwise
from .ckpt import load_params, save_params
from .clustering import hungarian_match, kmeans_pp_init, lloyd
from .data import Dataset, SynthSpec, load_csv, load_with_manifest, normalize, save_csv, split, synth_blobs
from .metrics import MetricsReport, acc, balance, cv_score, fwd, nmi, report, report_from_assignments
from .model import (
    TrainConfig,
    TrainedModel,
    batch_centroids,
    compute_fairoids,
    fair_objective,
    kl_loss,
    load_model,
    predict,
    save_model,
    sharpen_target,
    smooth_target,
    soft_assign,
    train,
)
from .nn import AffineLayer, ParamSet, Rng, backward, forward, sgd_step

__version__ = "0.1.0"
