"""Training loop: 1-vs-all binary cross-entropy with label smoothing,
Adam, and binary checkpoints.

Queries are the distinct (entity, relation) pairs of the training split in
both directions; each is scored against every entity and pushed toward the
smoothed multi-hot answer vector. Runs are bit-reproducible for a fixed
seed: parameter init, batch shuffling, and dropout each draw from their own
seeded stream, and nothing writes wall-clock time into logs or checkpoints.
"""

import json
import os
import zlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, VocabMismatchError
from .model import ModelConfig, build_model
from .tensor import as_tensor, clip, log, mul, reduce_mean

CHECKPOINT_MAGIC = b"PKGE"
CHECKPOINT_VERSION = 1

LOG_NAME = "train_log.csv"
CKPT_NAME = "best.ckpt"

_STREAMS = ("init", "data", "dropout")


def seed_streams(seed):
    """Independent generators for init, batch shuffling, and dropout."""
    return {name: np.random.default_rng([int(seed), i])
            for i, name in enumerate(_STREAMS)}


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 100
    label_smoothing: float = 0.1
    seed: int = 0
    eval_every: int = 10
    eval_batch: int = 512

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1 or self.epochs < 1 or self.eval_every < 1:
            raise ConfigError("batch_size, epochs, eval_every must be >= 1")
        if not 0.0 <= self.label_smoothing < 0.5:
            raise ConfigError(
                f"label_smoothing must be in [0, 0.5), got {self.label_smoothing}")
        if self.eval_batch < 1:
            raise ConfigError("eval_batch must be >= 1")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**d)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def smooth_targets(targets, label_smoothing):
    """Map {0,1} targets to {eps, 1-eps} as a graph tensor.

    Computed as (1-eps)*y + eps*(1-y) so the two values are exactly the
    float32 representations of eps and 1-eps.
    """
    y = as_tensor(np.ascontiguousarray(targets, dtype=np.float32))
    if label_smoothing == 0.0:
        return y
    return mul(y, 1.0 - label_smoothing) + mul(1.0 - y, label_smoothing)


def bce_smoothed_loss(scores, targets, label_smoothing=0.1):
    """Mean binary cross-entropy over every (query, entity) score.

    Scores are clamped to [1e-7, 1-1e-7] before the logs.
    """
    y = smooth_targets(targets, label_smoothing)
    s = clip(scores, 1e-7, 1.0 - 1e-7)
    ll = mul(y, log(s)) + mul(1.0 - y, log(1.0 - s))
    return mul(reduce_mean(ll), -1.0)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction; eps sits outside the square root."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._items = params.trainable_items()
        self.m = {name: np.zeros_like(t.data) for name, t in self._items}
        self.v = {name: np.zeros_like(t.data) for name, t in self._items}

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self._items:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            step = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - np.float32(self.lr) * step

    def state_arrays(self):
        out = {}
        for name, _ in self._items:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state(self, step_count, arrays):
        for name, _ in self._items:
            for prefix, store in (("m", self.m), ("v", self.v)):
                key = f"{prefix}.{name}"
                if key not in arrays:
                    raise CheckpointError(f"optimizer state missing {key!r}")
                arr = np.asarray(arrays[key], dtype=np.float32)
                if arr.shape != store[name].shape:
                    raise CheckpointError(
                        f"optimizer state {key!r}: shape {arr.shape} != "
                        f"{store[name].shape}")
                store[name] = arr.copy()
        self.step_count = int(step_count)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, model, optimizer=None):
    """Write a binary checkpoint atomically: the bytes go to ``path + ".tmp"``,
    are synced, and then replace ``path``, so a failed save leaves the
    previous file intact.

    Layout: magic, u32 version, u32 header length, UTF-8 JSON header
    (model kind, config, vocab sizes, tensor manifest with byte offsets),
    raw little-endian float32 payload, u32 CRC-32 of the payload.
    """
    chunks = []
    offset = 0

    def pack(name, arr, trainable=None):
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entry = {"name": name, "shape": list(arr.shape), "offset": offset}
        if trainable is not None:
            entry["trainable"] = trainable
        chunks.append(raw)
        offset += len(raw)
        return entry

    header = {
        "model": model.kind,
        "config": model.config.to_dict(),
        "n_entities": model.n_entities,
        "n_relations": model.n_relations,
    }
    header["tensors"] = []
    for name, t in model.params.items():
        header["tensors"].append(pack(name, t.data, trainable=t.requires_grad))
    if optimizer is not None:
        opt_entries = []
        for name, arr in optimizer.state_arrays().items():
            opt_entries.append(pack(name, arr))
        header["optimizer"] = {"step": optimizer.step_count, "tensors": opt_entries}
    else:
        header["optimizer"] = None

    payload = b"".join(chunks)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(np.uint32(CHECKPOINT_VERSION).tobytes())
            fh.write(np.uint32(len(head)).tobytes())
            fh.write(head)
            fh.write(payload)
            fh.write(np.uint32(zlib.crc32(payload) & 0xFFFFFFFF).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_manifest(entries, payload):
    arrays = {}
    for entry in entries:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = int(entry["offset"])
        nbytes = count * 4
        if start < 0 or start + nbytes > len(payload):
            raise CheckpointError(
                f"tensor {entry['name']!r} extends past the payload")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
        arrays[entry["name"]] = arr.reshape(shape).copy()
    return arrays


def load_checkpoint(path):
    """Parse and validate a checkpoint; returns a dict of header fields,
    parameter arrays, and optional optimizer state."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    head_len = int(np.frombuffer(blob, dtype="<u4", count=1, offset=8)[0])
    if 12 + head_len + 4 > len(blob):
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[12:12 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header: {exc}") from None
    payload = blob[12 + head_len:-4]
    stored_crc = int(np.frombuffer(blob, dtype="<u4", count=1, offset=len(blob) - 4)[0])
    if (zlib.crc32(payload) & 0xFFFFFFFF) != stored_crc:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    for key in ("model", "config", "n_entities", "n_relations", "tensors"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing field {key!r}")
    arrays = _read_manifest(header["tensors"], payload)
    trainable = {e["name"]: bool(e.get("trainable", True)) for e in header["tensors"]}
    optimizer = None
    if header.get("optimizer"):
        optimizer = {
            "step": int(header["optimizer"]["step"]),
            "arrays": _read_manifest(header["optimizer"]["tensors"], payload),
        }
    return {
        "model": header["model"],
        "config": header["config"],
        "n_entities": int(header["n_entities"]),
        "n_relations": int(header["n_relations"]),
        "arrays": arrays,
        "trainable": trainable,
        "optimizer": optimizer,
    }


def restore_model(path):
    """Rebuild the model a checkpoint describes and load its parameters."""
    ck = load_checkpoint(path)
    try:
        config = ModelConfig.from_dict(ck["config"])
    except (ConfigError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad model config: {exc}") from None
    model = build_model(ck["model"], config, ck["n_entities"], ck["n_relations"],
                        rng=None)
    try:
        model.params.load_arrays(ck["arrays"])
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    for name, flag in ck["trainable"].items():
        if name in model.params and model.params[name].requires_grad != flag:
            raise CheckpointError(
                f"{path}: parameter {name!r} trainable flag mismatch")
    return model, ck


def check_vocab(model, store):
    """Checkpointed vocab sizes must match the dataset's."""
    if (model.n_entities != store.num_entities
            or model.n_relations != store.num_relations_with_reverse):
        raise VocabMismatchError(
            f"checkpoint built for {model.n_entities} entities / "
            f"{model.n_relations} relations (with reverses), dataset has "
            f"{store.num_entities} / {store.num_relations_with_reverse}")


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    history: list           # rows of (epoch, mean loss, valid MRR or None)
    best_epoch: int
    best_valid_mrr: float
    checkpoint_path: str
    best_params: dict = field(repr=False)   # {name: array copy} at best_epoch


def _query_arrays(store):
    queries = store.train_query_targets()
    n = len(queries)
    ents = np.empty(n, dtype=np.int64)
    rels = np.empty(n, dtype=np.int64)
    targets = []
    for i, ((e, r), answers) in enumerate(queries.items()):
        ents[i] = e
        rels[i] = r
        targets.append(np.fromiter(sorted(answers), dtype=np.int64,
                                   count=len(answers)))
    return ents, rels, targets


def train_model(store, model, cfg, out_dir=None, progress=None):
    """Run the full loop; returns history and the best-validation parameters.

    Validation MRR is measured every ``eval_every`` epochs (and at the last
    epoch); the best model by that number is kept in ``best_params`` and,
    with ``out_dir``, checkpointed to ``best.ckpt`` next to ``train_log.csv``.
    """
    from .evaluation import check_split, evaluate

    cfg.validate()
    check_split(store, "valid")
    streams = seed_streams(cfg.seed)
    data_rng = streams["data"]
    drop_rng = streams["dropout"]

    ents, rels, target_lists = _query_arrays(store)
    n_queries = len(ents)
    n_entities = store.num_entities
    adam = Adam(model.params, lr=cfg.lr)

    ckpt_path = os.path.join(out_dir, CKPT_NAME) if out_dir else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    history = []
    best_epoch = 0
    best_mrr = -1.0
    best_params = None
    for epoch in range(1, cfg.epochs + 1):
        order = data_rng.permutation(n_queries)
        loss_sum = 0.0
        for start in range(0, n_queries, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_targets = np.zeros((len(idx), n_entities), dtype=np.float32)
            for row, qi in enumerate(idx):
                batch_targets[row, target_lists[qi]] = 1.0
            model.params.zero_grad()
            scores = model.score_all(ents[idx], rels[idx], training=True,
                                     rng=drop_rng)
            loss = bce_smoothed_loss(scores, batch_targets, cfg.label_smoothing)
            loss.backward()
            adam.step()
            loss_sum += loss.item() * len(idx)
        epoch_loss = loss_sum / n_queries

        valid_mrr = None
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            report = evaluate(store, model, "valid", batch_size=cfg.eval_batch)
            valid_mrr = report.mrr
            if valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best_epoch = epoch
                best_params = {name: t.data.copy()
                               for name, t in model.params.items()}
                if ckpt_path:
                    save_checkpoint(ckpt_path, model)
        history.append((epoch, epoch_loss, valid_mrr))
        if progress:
            progress(epoch, epoch_loss, valid_mrr)

    if out_dir:
        with open(os.path.join(out_dir, LOG_NAME), "w", encoding="utf-8") as fh:
            fh.write("epoch,loss,valid_mrr\n")
            for epoch, loss, mrr in history:
                tail = "" if mrr is None else f"{mrr:.6f}"
                fh.write(f"{epoch},{loss:.6f},{tail}\n")
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_valid_mrr=best_mrr, checkpoint_path=ckpt_path,
                       best_params=best_params)


def run_experiment(store, kind, model_cfg, train_cfg, out_dir=None,
                   progress=None):
    """Build a ``kind`` model from the seed's init stream, train it, and test
    the parameters with the best validation MRR; returns the TrainResult and
    the test-split EvalReport."""
    from .evaluation import check_split, evaluate

    check_split(store, "test")
    model = build_model(kind, model_cfg, store.num_entities,
                        store.num_relations_with_reverse,
                        seed_streams(train_cfg.seed)["init"])
    result = train_model(store, model, train_cfg, out_dir=out_dir,
                         progress=progress)
    model.params.load_arrays(result.best_params)
    report = evaluate(store, model, "test", batch_size=train_cfg.eval_batch)
    return result, report
