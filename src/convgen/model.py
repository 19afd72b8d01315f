"""The convex-coefficient generator/discriminator oversampler.

The generator maps a shuffled minority neighborhood batch (neb rows) to a
nonnegative coefficient matrix K (neb x neb) whose columns sum to 1; the
synthetic batch is K^T times the neighborhood, so every synthetic row lies
in the neighborhood's convex hull by construction. The discriminator (a
small softmax MLP) learns to separate those synthetic rows from majority
batches, and the two are trained cooperatively: several discriminator-only
passes per epoch, then one combined pass that updates the generator
through the frozen discriminator with an MSE objective on the labels.

Every pass draws all its steps' minority shuffles and majority choices up
front (`_draws`, two (n_min, neb, f) arrays) in the order a per-step loop
would draw them; no draw depends on the weights. Where the generator is
frozen, in the discriminator-only passes and in `generate`, it runs over
stacks of neighborhoods (`_frozen`: `Generator.forward_stack`, bitwise
equal to `Generator.forward` on each); only the combined pass, which
backpropagates through it, runs `Generator.forward`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from .data import DataError, Dataset, load_json_object, open_text, require_int
from .neighborhood import knn_minority, majority_neighborhoods
from .rng import derive_seed

CHECKPOINT_FORMAT = "convgen-checkpoint-v3"
_CHECKPOINT_KEYS = ("config", "training_data_sha256", "generator", "discriminator")
SIMPLEX_TOL = 1e-5
# Elements in the largest array of one Generator.forward_stack call, so a
# pass over big neighborhoods (neb="min") runs in several stacks.
STACK_ELEMENTS = 1 << 20
DISC_HIDDEN = (250, 125, 75)
# DoC: the discriminator copy retrained as a classifier, in shuffled minibatches
DOC_EPOCHS = 10
DOC_BATCH_SIZE = 64
# The largest generator _setup builds. Training holds 5 float32 vectors per
# parameter (params, grads, Adam m and v, the step scratch), 20 bytes each, so
# this is ~400 MB; neb="min" on a few hundred minority rows goes far past it.
MAX_GENERATOR_PARAMS = 20_000_000


class TrainingError(RuntimeError):
    """Raised when training goes numerically wrong, with location context."""


@dataclass(frozen=True)
class ConvGeNConfig:
    """Model settings; `neb="min"` means the whole minority class.

    The generator emits neb rows per neighborhood (the paper's gen = neb).
    """

    neb: int | str = "min"
    disc_train_count: int = 5
    neb_epochs: int = 10
    maj_proximal: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.neb != "min":
            require_int("neb", self.neb, 2)
        require_int("disc_train_count", self.disc_train_count, 0)
        require_int("neb_epochs", self.neb_epochs, 0)
        require_int("seed", self.seed, float("-inf"))
        if not isinstance(self.maj_proximal, bool):
            raise DataError(f"maj_proximal must be a bool, got {self.maj_proximal!r}")

    def resolve_neb(self, minority_count: int) -> int:
        if self.neb == "min":
            return minority_count
        return min(self.neb, minority_count)

    @staticmethod
    def preset(name: str) -> "ConvGeNConfig":
        """The four named settings: (5|min, maj|prox)."""
        table = {
            "5,maj": (5, False),
            "min,maj": ("min", False),
            "5,prox": (5, True),
            "min,prox": ("min", True),
        }
        if not isinstance(name, str) or name not in table:
            raise DataError(f"unknown preset {name!r}; choose from {sorted(table)}")
        neb, prox = table[name]
        return ConvGeNConfig(neb=neb, maj_proximal=prox)


@dataclass(frozen=True)
class SyntheticBatch:
    """Generated rows plus the provenance needed to reconstruct them."""

    samples: np.ndarray              # (n_rows, f)
    source_neighborhood: np.ndarray  # (neb,) row ids into the training dataset
    coefficients: np.ndarray         # (neb, n_rows) simplex columns


def check_simplex(k: np.ndarray) -> None:
    """Raise unless every column of K, or of each K in a (..., neb, neb)
    stack, is nonnegative and sums to 1 within SIMPLEX_TOL; NaN fails."""
    if np.any(k < 0.0):
        raise TrainingError(f"negative coefficient {k.min():.3e} in K")
    sums = k.sum(axis=-2)
    off = np.abs(sums - 1.0)
    if not np.all(off <= SIMPLEX_TOL):
        worst = sums.flat[np.argmax(off)]
        raise TrainingError(f"coefficient column sums to {worst!r}, outside tolerance")


class Generator:
    """conv1d reduction -> dense -> ReLU -> column normalization -> K.

    The convolution reduces a neighborhood to k' = ceil(neb / 2) rows. The
    network runs in the engine's dtype; its neb x neb logits are widened
    to float64 once, so K, its normalization and C = K^T x neighborhood are
    float64 and C lies in the hull of the float64 dataset rows.
    """

    def __init__(self, neb: int, n_features: int, seed: int) -> None:
        self.neb = neb
        self.n_features = n_features
        self.k_prime = k_prime = (neb + 1) // 2
        rng = np.random.default_rng(seed)
        self.net = nn.Network(
            [
                nn.Conv1D(neb, k_prime, n_features, rng),
                nn.Dense(k_prime * n_features, neb * neb, "identity", rng),
            ]
        )
        self._logits = None
        self._k = None
        self._sums = None

    @staticmethod
    def param_count(neb: int, n_features: int) -> int:
        """Conv1D kernel and bias plus the Dense k'f -> neb^2 weights and bias."""
        k_prime = (neb + 1) // 2
        return (neb - k_prime + 2) * n_features + (k_prime * n_features + 1) * neb * neb

    def forward(self, neighborhood: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (K, C) with C = K^T x neighborhood."""
        if neighborhood.shape != (self.neb, self.n_features):
            raise DataError(
                f"neighborhood must be {(self.neb, self.n_features)}, got {neighborhood.shape}"
            )
        self._logits, self._k, self._sums, c = self._forward(neighborhood)
        return self._k, c

    def forward_stack(self, neighborhoods: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(K, C) stacks for an (S, neb, f) stack of neighborhoods, bitwise
        equal to forward on each; clears forward's cache, so no backward follows."""
        self._logits = None
        _, k, _, c = self._forward(neighborhoods)
        return k, c

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """(logits, K, column sums, C) for (..., neb, f) neighborhoods x.

        K is the ReLU of the logits with each column divided by its sum; a
        column with no positive logit is uniform, 1/neb.
        """
        logits = self.net.forward(x).reshape(*x.shape[:-2], self.neb, self.neb).astype(np.float64)
        pos = np.maximum(logits, 0.0)
        sums = pos.sum(axis=-2, keepdims=True)
        live = sums > 0.0
        k = np.where(live, pos / np.where(live, sums, 1.0), 1.0 / self.neb)
        check_simplex(k)
        return logits, k, sums, np.matmul(np.swapaxes(k, -1, -2), x)

    def backward_from_dk(self, dk: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. K through normalization and the net."""
        if self._logits is None:
            raise nn.NNError("generator backward before forward")
        k, sums = self._k, self._sums
        # column normalization: K = r / s  =>  dr = (dK - <dK, K>) / s
        inner = (dk * k).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dr = np.where(sums > 0.0, (dk - inner) / np.where(sums > 0.0, sums, 1.0), 0.0)
        dlogits = dr * (self._logits > 0.0)
        self.net.backward_from(dlogits.reshape(1, -1))

    def step(self) -> None:
        self.net.step()


def _build_discriminator(n_features: int, seed: int) -> nn.Network:
    sizes = [n_features, *DISC_HIDDEN, 2]
    return nn.dense_network(sizes, ["relu", "relu", "relu", "softmax"], seed=seed)


class ConvGeNModel:
    """Trainable oversampler; construct, then fit(dataset), then generate()."""

    def __init__(self, config: ConvGeNConfig) -> None:
        self.config = config
        self.dataset: Dataset | None = None
        self.generator: Generator | None = None
        self.discriminator: nn.Network | None = None
        self.epoch_losses: list[dict] = []
        self._neighbors = None
        self._maj_neigh = None
        self._labels = None
        self._rng = None
        self._neb = None

    # -- setup -----------------------------------------------------------

    def _setup(self, dataset: Dataset) -> None:
        cfg = self.config
        self.dataset = dataset
        self._neb = cfg.resolve_neb(dataset.minority_count)
        if self._neb < 2:
            raise DataError("ConvGeN needs at least 2 minority samples")
        n_params = Generator.param_count(self._neb, dataset.n_features)
        if n_params > MAX_GENERATOR_PARAMS:
            raise DataError(
                f"neb={self._neb} needs a generator of {n_params} parameters, over the "
                f"{MAX_GENERATOR_PARAMS} limit; use a fixed neighbourhood such as neb=5"
            )
        self.generator = Generator(
            self._neb, dataset.n_features, seed=derive_seed(cfg.seed, "generator")
        )
        self.discriminator = _build_discriminator(
            dataset.n_features, seed=derive_seed(cfg.seed, "discriminator")
        )
        self._neighbors = knn_minority(dataset, self._neb)
        self._maj_neigh = (
            majority_neighborhoods(dataset, self._neb) if cfg.maj_proximal else None
        )
        self._labels = np.vstack(
            [np.tile([1.0, 0.0], (self._neb, 1)), np.tile([0.0, 1.0], (self._neb, 1))]
        )
        self._rng = np.random.default_rng(derive_seed(cfg.seed, "train"))

    # -- batch assembly --------------------------------------------------

    def _neighborhood_ids(self, x_pos: int, rng) -> np.ndarray:
        """Row ids of minority point x_pos's neighborhood, shuffled by rng."""
        positions = self._neighbors[x_pos].copy()
        rng.shuffle(positions)
        return self.dataset.minority_indices[positions]

    def _draws(self) -> tuple[np.ndarray, np.ndarray]:
        """One pass's minority neighborhoods and majority batches, two
        (n_min, neb, f) arrays, drawn in the RNG order of a per-step loop:
        each point's neighborhood shuffle, then its majority choice."""
        min_ids = np.empty((self.dataset.minority_count, self._neb), dtype=np.intp)
        maj_ids = np.empty_like(min_ids)
        for x_pos in range(len(min_ids)):
            min_ids[x_pos] = self._neighborhood_ids(x_pos, self._rng)
            pool = (self._maj_neigh[x_pos] if self.config.maj_proximal
                    else self.dataset.majority_indices)
            maj_ids[x_pos] = self._rng.choice(pool, size=self._neb, replace=len(pool) < self._neb)
        return self.dataset.features[min_ids], self.dataset.features[maj_ids]

    def _frozen(self, neighborhoods: np.ndarray):
        """The frozen generator over an (S, neb, f) stack of neighborhoods:
        yields (start, K, C) per chunk of at most STACK_ELEMENTS elements."""
        # the largest arrays of a chunk: K, and the convolution's products of
        # at most neb windows times the kernel
        per_neighborhood = self._neb * max(self._neb, self.generator.net.layers[0].w.size)
        size = max(1, STACK_ELEMENTS // per_neighborhood)
        for start in range(0, len(neighborhoods), size):
            yield (start, *self.generator.forward_stack(neighborhoods[start:start + size]))

    # -- training steps --------------------------------------------------

    def discriminator_step(self, concat: np.ndarray) -> float:
        """One Algorithm-2 step: train D once on BCE over a (2 neb, f) batch,
        synthetic rows first; returns the loss."""
        pred = self.discriminator.forward(concat)
        loss = self.discriminator.backward("bce", pred, self._labels)
        self.discriminator.step()
        return loss

    def _discriminator_pass(self) -> list[float]:
        """One D-only pass over the minority points; returns the step losses.
        G, frozen, runs on stacks of the drawn neighborhoods, then D trains on
        each step's batch in turn."""
        min_rows, maj_rows = self._draws()
        concat = np.concatenate([np.empty_like(min_rows), maj_rows], axis=1)
        for start, _, c in self._frozen(min_rows):
            concat[start:start + len(c), :self._neb] = c
        return [self.discriminator_step(batch) for batch in concat]

    def _combined_pass(self) -> list[float]:
        """One combined pass; returns the MSE losses. Per minority point, D
        trains once, then G updates through the frozen D against the MSE
        objective."""
        losses = []
        for min_rows, maj_rows in zip(*self._draws()):
            concat = np.vstack([self.generator.forward(min_rows)[1], maj_rows])
            self.discriminator_step(concat)
            loss, grad = nn.loss("mse", self.discriminator.forward(concat), self._labels)
            # D stays frozen in this step: only the gradient w.r.t. its input
            dc = self.discriminator.backward_from(grad, input_only=True)[: self._neb]
            # G's forward cache still holds min_rows: D's step does not touch G
            self.generator.backward_from_dk(min_rows @ dc.T)
            self.generator.step()
            losses.append(loss)
        return losses

    def fit(self, dataset: Dataset) -> "ConvGeNModel":
        """Run the full cooperative training loop on `dataset`.

        Each epoch runs disc_train_count D-only passes, with G run once over
        all of a pass's neighborhoods, then the combined pass, one G update
        per minority point.
        """
        self._setup(dataset)
        self.epoch_losses = []
        for epoch in range(self.config.neb_epochs):
            disc_losses = []
            try:
                for _ in range(self.config.disc_train_count):
                    disc_losses += self._discriminator_pass()
                gen_losses = self._combined_pass()
            except (nn.NNError, TrainingError) as exc:
                raise TrainingError(f"epoch {epoch}: {exc}") from exc
            self.epoch_losses.append(
                {
                    "epoch": epoch,
                    "disc_bce": float(np.mean(disc_losses)) if disc_losses else None,
                    "combined_mse": float(np.mean(gen_losses)) if gen_losses else None,
                }
            )
        return self

    # -- generation ------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.generator is None:
            raise DataError("model is not fitted")

    def generate(self, n_synthetic: int) -> list[SyntheticBatch]:
        """Round-robin over minority neighborhoods until n_synthetic rows:
        neb rows from each, fewer from the last."""
        self._require_fitted()
        n = require_int("n_synthetic", n_synthetic, 0)
        rng = np.random.default_rng(derive_seed(self.config.seed, "generate"))
        ids = np.array([self._neighborhood_ids(b % self.dataset.minority_count, rng)
                        for b in range(-(-n // self._neb))], dtype=np.intp).reshape(-1, self._neb)
        # batch b holds rows b neb .. (b + 1) neb of the n; a slice stops at neb
        return [SyntheticBatch(samples=c[:n - b * self._neb], source_neighborhood=ids[b],
                               coefficients=k[:, :n - b * self._neb])
                for start, ks, cs in self._frozen(self.dataset.features[ids])
                for b, (k, c) in enumerate(zip(ks, cs), start)]

    def synthetic_rows(self, n_synthetic: int) -> np.ndarray:
        batches = self.generate(n_synthetic)
        if not batches:
            return np.empty((0, self.dataset.n_features))
        return np.vstack([b.samples for b in batches])

    def retrain_doc(self, features, labels) -> nn.Network:
        """A copy of D retrained on labelled rows (1 = minority), typically the
        training data balanced with synthetic rows; D itself is untouched."""
        self._require_fitted()
        features = np.asarray(features)
        targets = np.where((np.asarray(labels) == 1)[:, None], [[1.0, 0.0]], [[0.0, 1.0]])
        doc = self.discriminator.clone()
        rng = np.random.default_rng(derive_seed(self.config.seed, "doc"))
        for _ in range(DOC_EPOCHS):
            order = rng.permutation(len(features))
            for start in range(0, len(features), DOC_BATCH_SIZE):
                sel = order[start:start + DOC_BATCH_SIZE]
                pred = doc.forward(features[sel])
                doc.backward("bce", pred, targets[sel])
                doc.step()
        return doc

    # -- checkpointing ---------------------------------------------------

    def save(self, path) -> None:
        self._require_fitted()
        payload = {
            "format": CHECKPOINT_FORMAT,
            "config": asdict(self.config),
            "training_data_sha256": _fingerprint(self.dataset),
            "generator": _dump_network(self.generator.net),
            "discriminator": _dump_network(self.discriminator),
        }
        with open_text(path, "w") as fh:  # streamed: a checkpoint can hold 20M parameters
            json.dump(payload, fh, sort_keys=True, indent=1)

    @staticmethod
    def load(path, dataset: Dataset) -> "ConvGeNModel":
        """Restore weights; `dataset` must be the training data the model saw."""
        payload = load_json_object(path, "checkpoint")
        fmt = payload.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise DataError(
                f"{path}: checkpoint format {fmt!r} is not {CHECKPOINT_FORMAT!r}; "
                "retrain and save the model again"
            )
        missing = sorted(set(_CHECKPOINT_KEYS) - set(payload))
        if missing:
            raise DataError(f"{path}: checkpoint lacks {missing}")
        if payload["training_data_sha256"] != _fingerprint(dataset):
            raise DataError(f"{path}: checkpoint does not match this training data")
        config = payload["config"]
        names = {f.name for f in fields(ConvGeNConfig)}
        if not isinstance(config, dict) or set(config) != names:
            raise DataError(f"{path}: checkpoint config must hold exactly {sorted(names)}")
        try:
            model = ConvGeNModel(ConvGeNConfig(**config))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        model._setup(dataset)
        _load_network(model.generator.net, payload["generator"], path)
        _load_network(model.discriminator, payload["discriminator"], path)
        return model


def _fingerprint(dataset: Dataset) -> str:
    """sha256 of the training features (float64) and labels (int64)."""
    import hashlib  # here, not at the top: loading it adds ~7 ms to every start-up

    digest = hashlib.sha256(np.ascontiguousarray(dataset.features, np.float64).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels, np.int64).tobytes())
    return digest.hexdigest()


def _dump_network(net: nn.Network) -> dict:
    return {"dtype": net.params.dtype.name, "params": net.params.tolist()}


def _load_network(net: nn.Network, dumped, path) -> None:
    if not (isinstance(dumped, dict) and isinstance(dumped.get("params"), list)):
        raise DataError(f"{path}: a network entry must hold a 'dtype' and a 'params' list")
    if dumped.get("dtype") != net.params.dtype.name or len(dumped["params"]) != net.params.size:
        raise DataError(
            f"{path}: checkpoint holds {len(dumped['params'])} {dumped.get('dtype')} parameters, "
            f"the network {net.params.size} {net.params.dtype.name}"
        )
    try:
        net.params[...] = dumped["params"]
    except (TypeError, ValueError):
        raise DataError(f"{path}: checkpoint parameters must be numbers") from None
