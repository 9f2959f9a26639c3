"""Framework facade base class.

A facade plays the role of one deep-learning framework in the study: it
builds models (with framework-specific initialization streams), and it
serializes/deserializes checkpoints with that framework's HDF5 layout —
group paths, parameter names, and array layouts (e.g. OIHW vs HWIO
convolution kernels).  Because the facades share the numpy engine, the
*model* is identical across frameworks while the *checkpoint file* differs
exactly where real frameworks differ; that is the property equivalent
injection exploits.
"""

from __future__ import annotations

import numpy as np

from .. import hdf5
from ..models import build_model
from ..nn import BatchNorm2D, Conv2D, Dense, Model
from ..nn.optim import Optimizer
from ..nn.rng import namespace


class FrameworkFacade:
    """Abstract framework personality: naming + checkpoint layout."""

    #: short identifier, e.g. "chainer_like"
    name: str = "base"

    # -- model construction -----------------------------------------------------
    def build_model(self, model_name: str, **kwargs) -> Model:
        """Build a model whose random streams are namespaced per framework."""
        with namespace(self.name):
            return build_model(model_name, **kwargs)

    # -- layout hooks (overridden per framework) ---------------------------------
    def layer_group(self, layer_name: str) -> str:
        """HDF5 group path holding one layer's parameters."""
        raise NotImplementedError

    def param_dataset_name(self, layer, key: str) -> str:
        """Dataset name for parameter *key* ('W', 'b', 'gamma', ...)."""
        raise NotImplementedError

    def state_dataset_name(self, layer, key: str) -> str:
        """Dataset name for persistent state ('running_mean', ...)."""
        raise NotImplementedError

    def optimizer_group(self) -> str:
        return "optimizer_state"

    def to_checkpoint_layout(self, layer, key: str,
                             value: np.ndarray) -> np.ndarray:
        """Convert an engine-layout array to this framework's layout."""
        return value

    def from_checkpoint_layout(self, layer, key: str,
                               value: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_checkpoint_layout`."""
        return value

    def root_attributes(self) -> dict[str, object]:
        """Attributes stamped on the checkpoint root group."""
        return {"framework": self.name}

    # -- checkpoint I/O (shared implementation) -----------------------------------
    def save_checkpoint(self, path: str, model: Model,
                        optimizer: Optimizer | None = None,
                        epoch: int = 0,
                        include_optimizer: bool = True) -> None:
        """Serialize *model* (and optionally optimizer state) to HDF5."""
        with hdf5.File(path, "w") as f:
            for key, value in self.root_attributes().items():
                f.attrs[key] = value
            f.attrs["epoch"] = int(epoch)
            f.attrs["model"] = model.name
            f.attrs["policy"] = model.policy.name
            for layer in model.layers():
                if not layer.params and not layer.state:
                    continue
                group = f.create_group(self.layer_group(layer.name))
                for key, value in layer.params.items():
                    group.create_dataset(
                        self.param_dataset_name(layer, key),
                        data=self.to_checkpoint_layout(layer, key, value),
                    )
                for key, value in layer.state.items():
                    group.create_dataset(
                        self.state_dataset_name(layer, key),
                        data=self.to_checkpoint_layout(layer, key, value),
                    )
            if include_optimizer and optimizer is not None:
                opt_group = f.create_group(self.optimizer_group())
                for key, value in optimizer.state_arrays().items():
                    opt_group.create_dataset(key, data=np.asarray(value))

    def load_checkpoint(self, path: str, model: Model,
                        optimizer: Optimizer | None = None,
                        template: "hdf5.File | hdf5.Structure | None" = None
                        ) -> int:
        """Restore *model* (and optimizer, when present) from HDF5.

        Returns the stored epoch number.  Loading performs **no** validity
        check on values — corrupted weights (including NaN/Inf) flow straight
        into the model, exactly as a framework resuming from a silently
        corrupted checkpoint would.

        *template* is an open :class:`repro.hdf5.File`, or a parsed
        :class:`repro.hdf5.Structure`, structurally byte-identical to
        *path* (sibling corrupted copies of one baseline); it lets the
        reader skip re-parsing the checkpoint's metadata.  See
        :class:`repro.hdf5.File`.
        """
        with hdf5.File(path, "r", template=template) as f:
            for layer in model.layers():
                if not layer.params and not layer.state:
                    continue
                group_path = self.layer_group(layer.name)
                for key in layer.params:
                    dataset = f[
                        f"{group_path}/{self.param_dataset_name(layer, key)}"
                    ]
                    value = self.from_checkpoint_layout(
                        layer, key, dataset[...]
                    )
                    layer.params[key] = value.astype(
                        layer.policy.param_dtype
                    )
                for key in layer.state:
                    dataset = f[
                        f"{group_path}/{self.state_dataset_name(layer, key)}"
                    ]
                    value = self.from_checkpoint_layout(
                        layer, key, dataset[...]
                    )
                    layer.state[key] = value.astype(layer.state[key].dtype)
            if optimizer is not None and self.optimizer_group() in f:
                arrays = {}
                opt_group = f[self.optimizer_group()]
                for rel_path, obj in opt_group._walk():
                    if isinstance(obj, hdf5.Dataset):
                        # __getitem__ already unwraps 0-d datasets to scalars
                        arrays[rel_path] = obj[...]
                optimizer.load_state_arrays(arrays)
            return int(f.attrs["epoch"]) if "epoch" in f.attrs else 0

    # -- equivalent-injection support ----------------------------------------------
    def layer_location_table(self, model: Model) -> dict[str, str]:
        """Map canonical layer names to this framework's HDF5 group paths.

        Feeding two frameworks' tables to
        :func:`repro.injector.build_location_map` produces the path
        translation used for equivalent injection (paper §IV-C).
        """
        table: dict[str, str] = {}
        for layer in model.layers():
            if layer.params or layer.state:
                table[layer.name] = "/" + self.layer_group(layer.name)
        return table

    # -- misc ----------------------------------------------------------------------
    @staticmethod
    def _is_conv(layer) -> bool:
        return isinstance(layer, Conv2D)

    @staticmethod
    def _is_dense(layer) -> bool:
        return isinstance(layer, Dense)

    @staticmethod
    def _is_batchnorm(layer) -> bool:
        return isinstance(layer, BatchNorm2D)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
