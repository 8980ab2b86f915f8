"""Named parameter registry shared by all models.

Parameters are float32 leaf tensors addressed by dotted names. Frozen
entries (requires_grad=False) travel through checkpoints like everything
else but are invisible to the optimizer.
"""

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


class ParamStore:
    def __init__(self):
        self._params = {}

    def add(self, name, data, trainable=True):
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name}")
        arr = np.ascontiguousarray(data, dtype=np.float32)
        t = Tensor(arr, requires_grad=trainable)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return list(self._params.items())

    def trainable_items(self):
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def load_arrays(self, arrays):
        """Overwrite parameter values in place from {name: ndarray}."""
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ConfigError(
                f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, t in self._params.items():
            arr = np.ascontiguousarray(arrays[name], dtype=np.float32)
            if arr.shape != t.data.shape:
                raise ConfigError(
                    f"parameter {name}: shape {arr.shape} != expected {t.data.shape}")
            t.data = arr


def glorot_uniform(rng, shape):
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)), where fan_in is
    ``shape[0]`` and fan_out ``shape[-1]``."""
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)
