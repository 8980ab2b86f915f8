import json
import os
import zlib

import numpy as np
import pytest

from pkge.kg import build_store
from pkge.model import ModelConfig
from pkge.synth import memorization_kg

from random_graphs import random_kg

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def tiny_store():
    """20 entities, 4 relations, 120 random triples split 80/10/10."""
    splits = random_kg(np.random.default_rng(0))
    return build_store(splits["train"], splits["valid"], splits["test"])


@pytest.fixture(scope="session")
def memo_store():
    """30 entities, train == valid == test."""
    splits = memorization_kg(np.random.default_rng(7))
    return build_store(splits["train"], splits["valid"], splits["test"])


@pytest.fixture
def tiny_config():
    """Smallest config that still has multiple patches and heads."""
    return ModelConfig(d_e=8, d_r=12, d=4, heads=2, layers=2, d_f=8,
                       p1=0.0, p2=0.0, p3=0.0)


def _rewrite_checkpoint(path, edit_header=None, edit_body=None):
    """Rewrite a checkpoint in place with its header length and CRC-32
    recomputed, so that only the reader's checks of what changed can refuse
    it. ``edit_header`` changes the parsed JSON header in place or returns a
    new one; then ``edit_body`` maps the bytes before the CRC to new ones."""
    with open(path, "rb") as fh:
        blob = fh.read()
    end = 12 + int.from_bytes(blob[8:12], "little")
    body = blob[:-4]
    if edit_header:
        header = json.loads(blob[12:end])
        edited = edit_header(header)
        head = json.dumps(header if edited is None else edited).encode("utf-8")
        body = blob[:8] + len(head).to_bytes(4, "little") + head + blob[end:-4]
    if edit_body:
        body = edit_body(body)
    with open(path, "wb") as fh:
        fh.write(body + zlib.crc32(body).to_bytes(4, "little"))


@pytest.fixture(scope="session")
def rewrite_checkpoint():
    """``_rewrite_checkpoint``, for tests that rewrite a saved checkpoint."""
    return _rewrite_checkpoint
