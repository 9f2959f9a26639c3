"""Deterministic random-number management (paper §V-A3, Code 1).

The paper goes to some length to make framework training deterministic so
that error-free and injected runs are bit-comparable.  Here a single global
seed drives every stochastic component; named *streams* (weight init,
shuffling, dropout, ...) are forked from it so that adding randomness in one
component never perturbs another — the numpy analogue of seeding
``random``/``numpy``/``torch``/``cupy``/``tensorflow`` separately.
"""

from __future__ import annotations

import hashlib

import numpy as np
# numpy 2 imports numpy.random on the first np.random access; importing it
# with this module pays that once, before a campaign forks, not in every
# trial child (a warm baseline cache may fork before any draw)
import numpy.random  # noqa: F401

_state = {"seed": 0, "namespace": ""}


def seed_all(seed: int) -> None:
    """Set the global seed from which every named stream is derived."""
    _state["seed"] = int(seed)


def current_seed() -> int:
    """The active global seed."""
    return _state["seed"]


class namespace:
    """Context manager prefixing every stream name drawn inside it.

    Framework facades build models inside ``namespace("chainer_like")`` so
    that each facade gets *different but deterministic* weight
    initializations — mirroring how the real frameworks initialize
    differently from the same seed.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._saved = ""

    def __enter__(self) -> "namespace":
        self._saved = _state["namespace"]
        _state["namespace"] = (
            f"{self._saved}{self.prefix}::" if self.prefix else self._saved
        )
        return self

    def __exit__(self, *exc_info) -> None:
        _state["namespace"] = self._saved


def current_namespace() -> str:
    """The active stream-name prefix (empty outside any namespace)."""
    return _state["namespace"]


def stream(name: str, *extra: int) -> np.random.Generator:
    """A generator deterministically derived from (global seed, namespace,
    name, extra).

    Same seed + same namespace + same name + same extras => identical
    stream, regardless of what other streams were consumed in between.
    """
    digest = hashlib.sha256(
        f"{_state['seed']}|{_state['namespace']}{name}|"
        f"{'|'.join(map(str, extra))}".encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class StreamRNG:
    """A lazily re-derivable named stream with a step counter.

    Used by components (e.g. Dropout) that must produce a *fresh but
    reproducible* draw on every call: each draw advances ``step`` and the
    generator for a step is pure function of (seed, name, step).
    """

    def __init__(self, name: str):
        # capture the active namespace so draws made later (during training,
        # outside the facade's namespace context) stay bound to the facade
        self.name = f"{current_namespace()}{name}"
        self.step = 0

    def next(self) -> np.random.Generator:
        digest = hashlib.sha256(
            f"{_state['seed']}|{self.name}|{self.step}".encode()
        ).digest()
        self.step += 1
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def reset(self, step: int = 0) -> None:
        self.step = step
