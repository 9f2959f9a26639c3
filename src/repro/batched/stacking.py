"""Stack per-trial model/optimizer replicas along a leading trial axis.

The batched multi-fault engine loads N independently corrupted checkpoints
into N ordinary models, then *stacks* them: every parameter, gradient, and
state array of structurally identical layers becomes one array with a new
leading axis of length N, and each concrete layer's ``trials`` attribute is
set.  The :mod:`repro.nn` kernels always run over a trial axis; with
``trials`` set they take the stacked arrays as they are, instead of viewing
one trial's arrays as a stack of one.

Stacking is performed **in place onto the first replica** (``np.stack``
copies the bytes, so the result shares no storage with the donors, but the
donors are consumed — their layer objects are the result's layer objects,
and every other replica's arrays are dropped once stacked, so a stack of T
holds one copy of each trial's weights however long its caller keeps the
replica lists).
Slice ``t`` of every stacked array is bitwise replica ``t``'s array, which
is the invariant the bit-identity oracle battery locks down.
"""

from __future__ import annotations

import numpy as np

from ..nn.model import Model
from ..nn.optim import Optimizer


def stack_models(models: list[Model]) -> Model:
    """Stack weight replicas onto ``models[0]`` and return it.

    Every replica must have the same architecture (layer count, names, and
    param/state keys in the same order); shapes are implicitly checked by
    ``np.stack``.  Gradients are re-created as stacked zeros at the compute
    dtype so params/grads/state all carry the trial axis from the start.
    """
    if not models:
        raise ValueError("need at least one model to stack")
    trials = len(models)
    layer_lists = [model.layers() for model in models]
    count = len(layer_lists[0])
    if any(len(layers) != count for layers in layer_lists):
        raise ValueError("models have differing layer structure")
    for layers in zip(*layer_lists):
        target = layers[0]
        names = {layer.name for layer in layers}
        if len(names) != 1:
            raise ValueError(
                f"layer name mismatch across replicas: {sorted(names)}"
            )
        for group_name in ("params", "state"):
            groups = [getattr(layer, group_name) for layer in layers]
            keys = list(groups[0])
            if any(list(group) != keys for group in groups):
                raise ValueError(
                    f"{target.name}: {group_name} keys differ across replicas"
                )
            for key in keys:
                groups[0][key] = np.stack([group[key] for group in groups])
            for group in groups[1:]:
                group.clear()
        for layer in layers[1:]:
            layer.grads = {}
        target.grads = {
            key: np.zeros_like(target.params[key],
                               dtype=target.policy.compute_dtype)
            for key in target.params
        }
        target.trials = trials
    return models[0]


def stack_optimizers(optimizers: list[Optimizer]) -> Optimizer:
    """Stack optimizer slot buffers onto ``optimizers[0]`` and return it.

    All replicas must share a type, hyperparameters (unchecked — campaign
    replicas are built from one spec), an identical ``step_count``, and the
    same slot keys (guaranteed when each was loaded from a checkpoint of the
    same architecture).
    """
    if not optimizers:
        raise ValueError("need at least one optimizer to stack")
    base = optimizers[0]
    if any(type(opt) is not type(base) for opt in optimizers):
        raise ValueError("optimizers must share a type")
    if len({opt.step_count for opt in optimizers}) != 1:
        raise ValueError("optimizers must share step_count")
    for dicts in zip(*(opt.slot_dicts() for opt in optimizers)):
        keys = list(dicts[0])
        if any(list(d) != keys for d in dicts):
            raise ValueError("optimizer slot keys differ across replicas")
        for key in keys:
            dicts[0][key] = np.stack([d[key] for d in dicts])
        for donor in dicts[1:]:
            donor.clear()
    return base
