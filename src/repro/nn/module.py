"""Module / Parameter system (a minimal ``torch.nn`` analogue).

A :class:`Module` owns :class:`Parameter` leaves and child modules, can
enumerate them recursively (for the optimiser and the checkpoint manager),
switch between train/eval mode, and export/import a flat state dict.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.autograd import Tensor
from repro.utils.versioning import bump_weights_version

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable leaf."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all NN modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration happens automatically through
    ``__setattr__``, mirroring PyTorch's behaviour.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ---------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs recursively, self included."""
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    # -- train / eval ----------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradients --------------------------------------------------------------

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -- state dict --------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Flat mapping of qualified parameter names to copies of their data."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, Any], strict: bool = True) -> None:
        """Load a state dict produced by :meth:`state_dict`.

        With ``strict=True`` (default) the key sets must match exactly and
        shapes must agree; otherwise only matching keys are loaded.  Values
        are copied and cast to each parameter's dtype.
        """
        own = dict(self.named_parameters())
        if strict:
            missing = sorted(set(own) - set(state))
            unexpected = sorted(set(state) - set(own))
            if missing or unexpected:
                raise KeyError(
                    f"state dict mismatch: missing={missing}, unexpected={unexpected}"
                )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if tuple(value.shape) != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {param.shape}, got {tuple(value.shape)}"
                )
            param.data = value.astype(param.dtype, copy=True)
        # Loaded weights invalidate every weight-derived checksum cache
        # (stale-rollback restores, checkpoint loads).
        bump_weights_version()

    # -- forward -----------------------------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container of child modules (like ``torch.nn.ModuleList``)."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self.register_module(str(index), module)
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called")
