"""Training loop: 1-vs-all binary cross-entropy with label smoothing,
Adam, and binary checkpoints that hold the model alone.

Queries are the distinct (entity, relation) pairs of the training split in
both directions; each is scored against every entity and pushed toward
1-eps at its answers and eps at every other entity. A batch's answers are
the (row, answer) pairs ``QueryIndex.lookup`` returns, the form ranking
reads too, so no [batch, entities] target is built. Models return logits;
the loss applies the sigmoid inside one fused op
(``tensor.bce_with_logits``). Runs are bit-reproducible for a fixed seed:
parameter init, batch shuffling, and dropout each draw from their own
seeded stream, and nothing writes wall-clock time into logs or checkpoints.
"""

import json
import os
import zlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, VocabMismatchError
from .evaluation import EVAL_BATCH, check_split, evaluate
from .model import MODEL_KINDS, Config, ModelConfig, build_model
from .tensor import bce_with_logits

CHECKPOINT_MAGIC = b"PKGE"
CHECKPOINT_VERSION = 2
# The header's fields, each required and no other allowed.
HEADER_FIELDS = ("model", "config", "n_entities", "n_relations", "tensors")

LOG_NAME = "train_log.csv"
CKPT_NAME = "best.ckpt"

_STREAMS = ("init", "data", "dropout")


def seed_streams(seed):
    """Independent generators for init, batch shuffling, and dropout."""
    return {name: np.random.default_rng([int(seed), i])
            for i, name in enumerate(_STREAMS)}


@dataclass(frozen=True)
class TrainConfig(Config):
    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 100
    label_smoothing: float = 0.1
    seed: int = 0
    eval_every: int = 10
    eval_batch: ClassVar[int] = EVAL_BATCH

    def validate(self):
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.batch_size < 1 or self.epochs < 1 or self.eval_every < 1:
            raise ConfigError("batch_size, epochs, eval_every must be >= 1")
        if not 0.0 <= self.label_smoothing < 0.5:
            raise ConfigError(
                f"label_smoothing must be in [0, 0.5), got {self.label_smoothing}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def bce_smoothed_loss(logits, answers, label_smoothing=0.1):
    """Mean binary cross-entropy over every (query, entity) cell of the
    ``logits`` a model returns, with the target 1-eps at the ``answers``
    cells (the (rows, answers) pairs of ``QueryIndex.lookup``) and eps at
    every other, each exactly its float32 value; the sigmoid is applied only
    here, inside ``bce_with_logits``."""
    return bce_with_logits(logits, answers, np.float32(label_smoothing),
                           np.float32(1.0 - label_smoothing))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction; eps sits outside the square root."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self._items = params.trainable_items()
        self.m = {name: np.zeros_like(t.data) for name, t in self._items}
        self.v = {name: np.zeros_like(t.data) for name, t in self._items}

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.BETA1 ** self.step_count
        bc2 = 1.0 - self.BETA2 ** self.step_count
        for name, p in self._items:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            step = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            p.data = p.data - np.float32(self.lr) * step


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, model):
    """Write a binary checkpoint atomically: the bytes go to ``path + ".tmp"``,
    are synced, and then replace ``path``, so a failed save leaves the
    previous file intact and removes only a temporary file it created.

    Layout: magic, u32 version, u32 header length, UTF-8 JSON header,
    payload, and a u32 CRC-32 of every byte before it. The header holds
    exactly the model kind, its config, the vocab sizes and ``tensors``: the
    ``[name, shape]`` of each parameter in ``params.items()`` order. The
    payload is those parameters as little-endian float32, end to end in the
    same order. The config fixes the parameter list and which parameters
    train, so the file states neither offsets nor flags. It holds the model
    only, no optimizer or random-stream state, so a run cannot resume from it.
    """
    header = {
        "model": model.kind,
        "config": model.config.to_dict(),
        "n_entities": model.n_entities,
        "n_relations": model.n_relations,
        "tensors": _layout(model),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join(
        [CHECKPOINT_MAGIC, np.uint32(CHECKPOINT_VERSION).tobytes(),
         np.uint32(len(head)).tobytes(), head]
        + [np.ascontiguousarray(t.data, dtype="<f4").tobytes()
           for _, t in model.params.items()])
    tmp = path + ".tmp"
    fh = open(tmp, "wb")    # a failed open made no file for the cleanup
    try:
        with fh:
            fh.write(body)
            fh.write(np.uint32(zlib.crc32(body)).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _layout(model):
    """``[name, shape]`` of each parameter, in ``params.items()`` order."""
    return [[name, list(t.shape)] for name, t in model.params.items()]


def restore_model(path):
    """Rebuild the model a checkpoint describes and load its parameters;
    returns the model and the file's JSON header.

    Any file but one ``save_checkpoint`` wrote raises ``CheckpointError``: the
    CRC covers header and payload, the header must hold exactly its five
    fields, and its tensor list must be that of the zero skeleton its kind,
    config and vocab sizes build. A parameter holding inf or NaN raises
    ``NumericError`` naming it, before any forward pass can run on it."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated checkpoint")
    version = int.from_bytes(blob[4:8], "little")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    head_end = 12 + int.from_bytes(blob[8:12], "little")
    if head_end + 4 > len(blob):
        raise CheckpointError(f"{path}: truncated checkpoint header")
    if zlib.crc32(memoryview(blob)[:-4]) != int.from_bytes(blob[-4:], "little"):
        raise CheckpointError(f"{path}: checksum mismatch")
    try:
        header = json.loads(blob[12:head_end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:    # UnicodeDecodeError too
        raise CheckpointError(f"{path}: corrupt checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
    for key in HEADER_FIELDS:
        if key not in header:
            raise CheckpointError(f"{path}: header missing field {key!r}")
    if len(header) != len(HEADER_FIELDS):
        raise CheckpointError(f"{path}: unknown header fields "
                              f"{sorted(set(header) - set(HEADER_FIELDS))}")
    kind, n_ent, n_rel = (header[k] for k in ("model", "n_entities", "n_relations"))
    if kind not in MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    if not all(type(n) is int and n > 0 for n in (n_ent, n_rel)):
        raise CheckpointError(f"{path}: vocab sizes {n_ent!r} and {n_rel!r} "
                              "are not positive integers")
    try:
        model = build_model(kind, ModelConfig.from_dict(header["config"]),
                            n_ent, n_rel, rng=None)
    except (ConfigError, MemoryError) as exc:
        # Sizes no memory holds come only from a header edited with its CRC.
        raise CheckpointError(f"{path}: cannot build the model its header "
                              f"describes: {exc}") from None
    if header["tensors"] != _layout(model):
        raise CheckpointError(f"{path}: tensor list is not the parameter list "
                              f"of the {kind} model its config builds")
    items = model.params.items()
    size = 4 * sum(t.data.size for _, t in items)
    if len(blob) - 4 - head_end != size:
        raise CheckpointError(f"{path}: payload holds {len(blob) - 4 - head_end} "
                              f"bytes, its tensors {size}")
    offset = head_end
    for name, t in items:
        t.data = np.frombuffer(blob, "<f4", t.data.size, offset).reshape(
            t.shape).astype(np.float32)
        offset += 4 * t.data.size
        if not np.all(np.isfinite(t.data)):
            raise NumericError(f"{path}: parameter {name!r} holds non-finite values")
    return model, header


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
    """What a run measured; the trained model itself is the one passed to
    ``train_model``, left at its best-validation parameters."""
    history: list           # rows of (epoch, mean loss, valid MRR or None)
    best_epoch: int
    best_valid_mrr: float
    checkpoint_path: str


def train_model(store, model, cfg, out_dir=None, progress=None):
    """Train ``model`` in place and leave it at the parameters with the best
    validation MRR, not those of its last epoch; returns the TrainResult.

    Validation MRR is measured every ``eval_every`` epochs (and at the last
    epoch). With ``out_dir``, the best model by that number is checkpointed
    to ``best.ckpt`` next to ``train_log.csv``, which gains one row per epoch
    as the epoch ends; the trained model then equals what ``best.ckpt`` holds.
    """
    check_split(store, "valid")
    streams = seed_streams(cfg.seed)
    data_rng = streams["data"]
    drop_rng = streams["dropout"]

    queries = store.train_query_targets()
    n_queries = len(queries)
    adam = Adam(model.params, lr=cfg.lr)

    ckpt_path = os.path.join(out_dir, CKPT_NAME) if out_dir else None
    log_path = os.path.join(out_dir, LOG_NAME) if out_dir else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss,valid_mrr\n")

    history = []
    best_epoch = 0
    best_mrr = -1.0
    best_params = None
    for epoch in range(1, cfg.epochs + 1):
        order = data_rng.permutation(n_queries)
        loss_sum = 0.0
        for start in range(0, n_queries, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            ents, rels = queries.entities[idx], queries.relations[idx]
            model.params.zero_grad()
            # Positional: bench/workloads.BatchClock reads the mode from args[0].
            scores = model.score_all(ents, rels, drop_rng)
            loss = bce_smoothed_loss(scores, queries.lookup(ents, rels),
                                     cfg.label_smoothing)
            loss.backward()
            adam.step()
            loss_sum += loss.item() * len(idx)
            # Free this step's tape before the next forward builds its own.
            del scores, loss
        epoch_loss = loss_sum / n_queries

        valid_mrr = None
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            report = evaluate(store, model, "valid")
            valid_mrr = report.mrr
            if valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best_epoch = epoch
                best_params = {name: t.data.copy()
                               for name, t in model.params.items()}
                if ckpt_path:
                    save_checkpoint(ckpt_path, model)
        history.append((epoch, epoch_loss, valid_mrr))
        if log_path:
            # Appended and closed every epoch, so a crash keeps the rows so far.
            tail = "" if valid_mrr is None else f"{valid_mrr:.6f}"
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{epoch},{epoch_loss:.6f},{tail}\n")
        if progress:
            progress(epoch, epoch_loss, valid_mrr)

    for name, t in model.params.items():
        t.data = best_params[name]
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_valid_mrr=best_mrr, checkpoint_path=ckpt_path)


def run_experiment(store, kind, model_cfg, train_cfg, out_dir=None,
                   progress=None):
    """Build a ``kind`` model from the seed's init stream, train it, and test
    the best-validation model ``train_model`` leaves; returns the TrainResult
    and the test-split EvalReport."""
    check_split(store, "test")
    model = build_model(kind, model_cfg, store.num_entities,
                        store.num_relations_with_reverse,
                        seed_streams(train_cfg.seed)["init"])
    result = train_model(store, model, train_cfg, out_dir=out_dir,
                         progress=progress)
    report = evaluate(store, model, "test")
    return result, report
