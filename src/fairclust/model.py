"""Fair deep clustering core: Student's-t soft assignments against cluster
centroids, fairoids (protected-group centroids), the sharpening and
smoothing self-training targets, the combined KL objective, minibatch
centroid estimation, and the joint training loop.

The objective is L = KL(P || Q) + gamma * KL(Psi || Phi), where Q compares
latent points to centroids, Phi compares centroids to fairoids, P sharpens
Q toward one-hot rows, and Psi smooths Phi toward uniform rows. The
clustering KL is a per-sample mean and the fairness KL a per-entry mean,
so gamma keeps its meaning across batch sizes and cluster counts.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics
from .autoencoder import encode, require_usable_latents
from .ckpt import MODEL_FORMAT, read_checkpoint, write_checkpoint
from .clustering import distortion, kmeans_pp_init, lloyd, nearest_assign, squared_distances
from .nn import (
    ParamSet,
    Rng,
    backward,
    forward,
    require_fields,
    require_finite,
    sgd_step,
    squared_error,
    squared_error_grad,
)

log = logging.getLogger(__name__)

CENTROIDS = "centroids"

# The combined objective sums a per-sample clustering KL and a fairness KL
# normalized per (cluster, state) entry. The extra factor fixes the scale
# of the fairness weight so its useful range spans 1e-2 (negligible) to
# 1e3 (dominant); the sum-form objective leaves this constant open.
FAIRNESS_NORM_FACTOR = 2.5

# k-means++ seedings that `init_centroids` refines and picks from.
CENTROID_SEEDINGS = 10

# Student's-t degrees of freedom of every soft assignment, Q and Phi. DEC
# (Xie et al., 2016) fixes alpha = 1 in every experiment: an unsupervised
# task has no labels to tune it against.
DOF = 1.0


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one joint training run. The t-kernel's degrees of
    freedom (DOF), the floor inside Psi's root (smooth_target's default)
    and the gradient clip (nn.CLIP_NORM) are constants, and the targets
    refresh at every epoch."""

    K: int
    gamma: float = 0.0
    beta: float = 1000.0
    lr: float = 0.01
    batch: int = 256
    max_epochs: int = 100
    convergence_tol: float = 0.001
    recon_weight: float = 0.0
    refresh: str = "incore"
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.beta < 2:
            raise ValueError("beta must be at least 2")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch < 1:
            raise ValueError("batch must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be non-negative")
        if self.recon_weight < 0:
            raise ValueError("recon_weight must be non-negative")
        if self.refresh not in ("incore", "streaming"):
            raise ValueError("refresh must be 'incore' or 'streaming'")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def soft_assign(Z, centroids, dof=DOF):
    """Row-stochastic Student's-t similarities between points and centroids.
    Also gives Phi (centroids against fairoids), whose row is uniform
    exactly when its centroid is equidistant from every fairoid. Training
    uses the default dof, DOF; other values are for study."""
    kernel = (1.0 + squared_distances(Z, centroids) / dof) ** (-(dof + 1.0) / 2.0)
    return kernel / kernel.sum(axis=1, keepdims=True)


def sharpen_target(Q):
    """Self-training target that pulls Q toward one-hot rows: squared
    similarities with a cluster-frequency correction, row-normalized."""
    freq = Q.sum(axis=0)
    weighted = Q**2 / freq
    return weighted / weighted.sum(axis=1, keepdims=True)


def compute_fairoids(Z, protected, T):
    """Mean latent vector of each protected group."""
    Z = np.asarray(Z, dtype=float)
    protected = np.asarray(protected, dtype=int)
    fairoids = np.empty((T, Z.shape[1]))
    for t in range(T):
        members = protected == t
        if not members.any():
            raise ValueError(f"protected state {t} has no members")
        fairoids[t] = Z[members].mean(axis=0)
    return fairoids


def smooth_target(Phi, beta=1000.0, epsilon=1e-9):
    """Self-training target that flattens Phi rows: a beta-th root squashes
    the similarities toward 1 and an inverse-frequency correction steers
    mass away from crowded fairoids. As beta grows the rows converge to the
    normalized inverse column frequencies."""
    if beta < 2:
        raise ValueError("beta must be at least 2")
    freq = Phi.sum(axis=0)
    weighted = (Phi + epsilon) ** (1.0 / beta) / freq
    return weighted / weighted.sum(axis=1, keepdims=True)


def kl_loss(target, model_probs):
    """sum target * log(target / model), with numpy's logs and 0 log 0 = 0:
    a zero target entry adds nothing, whatever the model entry, and a
    positive target against a zero model entry makes the sum +inf. A
    negative entry makes it nan where scipy.special.rel_entr gave inf (a
    pair of two negatives adds a finite term); train refuses both as a
    non-finite loss. The value feeds only the logged losses and that check,
    never a gradient, so it skips metrics.rel_entr_term's per-term libm
    logs, which are ten times slower here, and can differ from rel_entr's
    sum in the last bits."""
    target = np.asarray(target, dtype=float)
    model_probs = np.asarray(model_probs, dtype=float)
    if target.shape != model_probs.shape:
        raise ValueError("target and model matrices must share a shape")
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sum(target * np.log(target / model_probs), where=target != 0))


def batch_centroids(P, Z):
    """Least-squares centroid estimate from soft assignments: solves
    (P^T P) M = P^T Z. With one-hot P this is exactly the per-cluster batch
    mean. A singular system is retried once with ridge 1e-6. Returns
    (M, whether the system was singular)."""
    P = np.asarray(P, dtype=float)
    Z = np.asarray(Z, dtype=float)
    gram = P.T @ P
    moment = P.T @ Z
    try:
        M = np.linalg.solve(gram, moment)
        if np.all(np.isfinite(M)):
            return M, False
    except np.linalg.LinAlgError:
        pass
    return np.linalg.solve(gram + 1e-6 * np.eye(len(gram)), moment), True


def _kl_t_grads(target, probs, A, B):
    """Gradients of kl_loss(target, DOF t-kernel rows between A and B) with
    respect to A and B. Callers apply their own normalization."""
    d2 = squared_distances(A, B)
    coef = ((DOF + 1.0) / DOF) * (target - probs) / (1.0 + d2 / DOF)
    dA = A * coef.sum(axis=1, keepdims=True) - coef @ B
    dB = B * coef.sum(axis=0)[:, None] - coef.T @ A
    return dA, dB


def fair_objective(params, grads, X, P, Psi, fairoids, cfg):
    """Loss components and exact gradients for one batch against fixed
    targets P (rows matching X) and Psi, with fairoids held constant.

    params holds the encoder layers, the (K, d) centroids matrix, and (when
    the reconstruction weight is positive) the decoder layers. The
    gradients are written into grads, a ParamSet with the layout of params;
    entries the objective does not reach keep what they held (zeros for a
    fresh `params.zeros_like()`). Returns the components dict.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    M = params[CENTROIDS]
    K = M.shape[0]

    Z, tape = forward(params.layers("enc"), X)
    Q = soft_assign(Z, M)
    cluster = kl_loss(P, Q) / n
    Phi = soft_assign(M, fairoids)
    fair_norm = FAIRNESS_NORM_FACTOR * K * fairoids.shape[0]
    fairness = kl_loss(Psi, Phi) / fair_norm

    dZ, dM = _kl_t_grads(P, Q, Z, M)
    dZ /= n
    dM /= n
    dM_fair, _ = _kl_t_grads(Psi, Phi, M, fairoids)
    grads[CENTROIDS][...] = dM + (cfg.gamma / fair_norm) * dM_fair

    recon = 0.0
    if cfg.recon_weight > 0:
        dec_grads = grads.layers("dec")
        Xhat, dec_tape = forward(params.layers("dec"), Z)
        recon = squared_error(Xhat, X)
        dZ_recon = backward(dec_tape, squared_error_grad(Xhat, X), dec_grads,
                            input_grad=True)
        dZ = dZ + cfg.recon_weight * dZ_recon
        for layer in dec_grads:
            layer.weight *= cfg.recon_weight
            layer.bias *= cfg.recon_weight

    backward(tape, dZ, grads.layers("enc"))
    return {
        "loss": cluster + cfg.gamma * fairness + cfg.recon_weight * recon,
        "cluster": cluster,
        "fairness": fairness,
        "recon": recon,
    }


def _refresh_targets(Z, Q, M, protected, T, cfg):
    """Targets from one encoding Z and its soft assignments Q against the
    centroids M: returns (P, fairoids, Phi). Phi's centroids are the live M
    ("incore") or ("streaming") per-batch least-squares solves over slices
    of Z, weighted by per-cluster batch mass so that clusters absent from a
    batch contribute nothing. Phi's kernel has DOF degrees of freedom.
    Singular batch solves are logged once per refresh, as a count."""
    P = sharpen_target(Q)
    fairoids = compute_fairoids(Z, protected, T)
    if cfg.refresh == "streaming":
        starts = range(0, len(Z), cfg.batch)
        est, mass, singular = np.zeros_like(M), np.zeros(len(M)), 0
        for start in starts:
            sl = slice(start, start + cfg.batch)
            batch_mass = P[sl].sum(axis=0)
            M_batch, was_singular = batch_centroids(P[sl], Z[sl])
            est += batch_mass[:, None] * M_batch
            mass += batch_mass
            singular += was_singular
        if singular:
            log.warning("%d of %d batch centroid systems singular; retried with ridge 1e-6",
                        singular, len(starts))
        M = est / np.maximum(mass, 1e-12)[:, None]
    return P, fairoids, soft_assign(M, fairoids)


def init_centroids(Z, K, rng):
    """Best of CENTROID_SEEDINGS k-means++ seedings, each refined by `lloyd`
    with its default stopping rule, selected by distortion."""
    best, best_cost = None, np.inf
    for _ in range(CENTROID_SEEDINGS):
        M, assign = lloyd(Z, kmeans_pp_init(Z, K, rng))
        cost = distortion(Z, M, assign)
        if cost < best_cost:
            best, best_cost = M, cost
    return best


@dataclass
class TrainedModel:
    """The learned assignment function: the encoder layers in params and
    the centroids and fairoids in its latent space. Files written before
    models dropped the decoder load with it, and nothing reads it."""

    params: ParamSet
    centroids: np.ndarray
    fairoids: np.ndarray
    config: TrainConfig
    history: list = field(default_factory=list)


def train(ds, ae_params, cfg):
    """Joint training of the encoder, cluster centroids, and the fairness
    objective by minibatch momentum SGD.

    Each parameter state is encoded once, in full and without a tape: the
    initial encoding seeds the centroids and feeds epoch 0, and each
    minibatch sweep ends with one encoding that feeds the next epoch (or,
    after the last one, the returned fairoids). Each epoch first checks
    convergence (fraction of hard assignments changed below
    convergence_tol) and stops there if converged. Otherwise the fairoids
    and the targets P and Psi are recomputed from that encoding, and then
    shuffled minibatches of the combined objective are swept. cfg.refresh
    only chooses the centroids behind Psi: the live ones ("incore") or a
    minibatch least-squares estimate ("streaming"). Fairoids stay
    constant through an epoch's sweep and receive no gradient; the
    centroids ride in the parameter set and are updated by the same
    optimizer as the network, with one gradient set for every batch. The
    decoder is trained only when recon_weight > 0, for the reconstruction
    term; the returned params hold the trained encoder layers alone.
    ae_params is never modified. Initial latents that are not finite, or
    that are the same vector for every row (an encoder whose units are all
    dead), are a RuntimeError before any training.
    """
    X = ds.features
    N = len(X)
    if cfg.K > N:
        raise ValueError(f"K={cfg.K} exceeds the number of points {N}")
    if not ae_params.layers("enc"):
        raise ValueError("ae_params holds no encoder (enc*) layers")

    rng = Rng(cfg.seed)
    Z = encode(ae_params, X)
    require_usable_latents(Z)
    M0 = init_centroids(Z, cfg.K, rng.stream("kmeans"))
    prefixes = ("enc", "dec") if cfg.recon_weight > 0 else ("enc",)
    params = ParamSet([*((name, layer) for name, layer in ae_params.items()
                         if name.startswith(prefixes)), (CENTROIDS, M0)])
    velocity, grads = params.zeros_like(), params.zeros_like()

    shuffle = rng.stream("shuffle")
    history = []
    prev_hard = last_mean = None
    for epoch in range(cfg.max_epochs):
        Q = soft_assign(Z, params[CENTROIDS])
        hard = Q.argmax(axis=1)
        entry = _epoch_metrics(hard, ds, cfg.K)
        entry["epoch"] = epoch
        if prev_hard is not None:
            entry["assign_change"] = float(np.mean(hard != prev_hard))
            if entry["assign_change"] < cfg.convergence_tol:
                entry.update({"converged": True, "L_cl": None, "L_fr": None, "L": None})
                history.append(entry)
                break
        prev_hard = hard
        P, fairoids, Phi = _refresh_targets(Z, Q, params[CENTROIDS], ds.protected, ds.T, cfg)
        Psi = smooth_target(Phi, cfg.beta)

        order = shuffle.permutation(N)
        totals = np.zeros(3)
        batches = 0
        for start in range(0, N, cfg.batch):
            idx = order[start : start + cfg.batch]
            try:
                components = fair_objective(params, grads, X[idx], P[idx], Psi,
                                             fairoids, cfg)
                if not np.isfinite(components["loss"]):
                    raise FloatingPointError("non-finite loss")
                sgd_step(params, grads, velocity, cfg.lr)
            except (ValueError, RuntimeError, FloatingPointError) as exc:
                raise RuntimeError(f"training failed at epoch {epoch}, batch {batches} "
                                   f"(last finite mean loss {last_mean}): {exc}") from exc
            totals += (components["cluster"], components["fairness"], components["loss"])
            batches += 1
            last_mean = totals[2] / batches
        entry.update(zip(("L_cl", "L_fr", "L"), totals / batches))
        history.append(entry)
        Z = encode(params, X)

    encoder = ParamSet((name, layer) for name, layer in params.items() if name.startswith("enc"))
    return TrainedModel(params=encoder, centroids=params[CENTROIDS].copy(),
                        fairoids=compute_fairoids(Z, ds.protected, ds.T), config=cfg,
                        history=history)


def _epoch_metrics(hard, ds, K):
    rep = metrics.report_from_assignments(hard, ds.protected, ds.T, K, labels=ds.labels)
    return {name: getattr(rep, name) for name in metrics.SUMMARY_FIELDS}


def predict(model, X):
    """Hard assignments for new data: the nearest centroid in latent space
    (the t-kernel is monotone), ties to the lowest index."""
    return nearest_assign(encode(model.params, X), model.centroids)


def save_model(model, path):
    """Write a version 3 model checkpoint, `format` fairclust-model: the
    encoder's layer records, the config and the history in the header,
    and the encoder's values as `buffer`, the `centroids` and the
    `fairoids` as raw arrays; no decoder layer is written. The encoder
    layers must lead model.params, as in every set `init_params` and
    `train` build: their values are written from a view of its buffer."""
    header, arrays = model.params.to_payload("enc")
    write_checkpoint(path, {**header, "format": MODEL_FORMAT, "config": asdict(model.config),
                            "history": model.history},
                     {**arrays, "centroids": model.centroids, "fairoids": model.fairoids})


# Fields that stored configs may hold but TrainConfig no longer has; a load
# drops them whatever their value. clip_norm is now nn.CLIP_NORM, dof is
# DOF, epsilon is smooth_target's default floor, and refresh_interval is
# 1: the targets refresh at every epoch.
RETIRED_CONFIG_FIELDS = ("clip_norm", "dof", "epsilon", "refresh_interval")


def load_model(path):
    """Read a model checkpoint of any version, which `read_checkpoint`
    gives in version 3's shape; the config's retired fields are dropped. A
    missing field, a network that does not load, a config that makes no
    TrainConfig, or centroids (K rows) or fairoids (at least 2 rows) that
    are not finite 2-d arrays as wide as the last encoder layer's output,
    is a ValueError naming the path and the field."""
    header, arrays = read_checkpoint(path, MODEL_FORMAT)
    require_fields(header, ("config", "layers", "history"), f"{path}: ")
    require_fields(arrays, ("buffer", "centroids", "fairoids"), f"{path}: arrays: ")
    try:
        config = TrainConfig(**{name: value for name, value in {**header["config"]}.items()
                                if name not in RETIRED_CONFIG_FIELDS})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: config: {exc}") from None
    try:
        params = ParamSet.from_payload(header, arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: network: {exc}") from None
    encoder = params.layers("enc")
    if not encoder:
        raise ValueError(f"{path}: network: no encoder layers")
    for name, rows in (("centroids", config.K), ("fairoids", None)):
        a = arrays[name]
        if a.ndim != 2 or not np.all(np.isfinite(a)):
            raise ValueError(f"{path}: {name}: must be a finite 2-d array")
        if a.shape[1] != encoder[-1].n_out:
            raise ValueError(f"{path}: {name}: {a.shape[1]} wide, but the last encoder "
                             f"layer has n_out {encoder[-1].n_out}")
        if rows is not None and len(a) != rows:
            raise ValueError(f"{path}: {name}: {len(a)} rows, but config K is {rows}")
    if len(arrays["fairoids"]) < 2:
        raise ValueError(f"{path}: fairoids: {len(arrays['fairoids'])} rows, but a model "
                         f"has at least 2 protected states")
    return TrainedModel(params=params, config=config, history=header["history"],
                        centroids=arrays["centroids"], fairoids=arrays["fairoids"])
