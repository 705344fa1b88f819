"""Experiment configuration shared by the CLI and the harness functions."""
from __future__ import annotations

from dataclasses import dataclass, field

from ..groups import Group

MODELS = ("hypertree", "one-out", "lm")

# The layer audit holds one count and writes one table row per layer, so the
# layer count is bounded before anything is built; 10^4 layers make a CSV of
# about 0.75 MB, and past the sample count most layers are empty anyway.
MAX_LAYERS = 10_000


@dataclass
class ExperimentConfig:
    seed: int
    model: str = "one-out"
    n_values: tuple[int, ...] = (6, 8, 10)
    group: Group = field(default_factory=lambda: Group((2,)))
    primes: tuple[int, ...] = (2,)
    samples: int = 100
    layers: int = 10
    c: float = 2.0
    include_mg: bool = True

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("a seed is mandatory for reproducibility")
        self.seed = int(self.seed)
        self.n_values = tuple(int(n) for n in self.n_values)
        if any(n < 3 for n in self.n_values):
            raise ValueError("all n must be >= 3")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.layers > MAX_LAYERS:
            raise ValueError(f"layers must be <= MAX_LAYERS = {MAX_LAYERS}; got {self.layers}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")

    def replica_rng(self, *tags):
        """Independent stream per (experiment tag..., replica); merge order
        never depends on execution order. String tags are crc32-hashed so the
        stream id stays stable across runs and platforms."""
        import zlib

        import numpy as np

        nums = []
        for t in tags:
            if isinstance(t, str):
                nums.append(zlib.crc32(t.encode()) & 0x7FFFFFFF)
            else:
                nums.append(int(t) & 0x7FFFFFFF)
        return np.random.default_rng([self.seed & 0x7FFFFFFF, *nums])
