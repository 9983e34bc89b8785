"""Module/Parameter abstractions, mirroring the torch.nn API surface the
GraphRARE implementation relies on (parameters(), train/eval mode, state
dicts for checkpointing the best model during early stopping).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a :class:`Module`."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural-network components.

    Sub-modules and parameters assigned as attributes are discovered
    automatically, as in PyTorch.  Modules carry a ``training`` flag that
    toggles dropout behaviour.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Parameter / submodule discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """``(dotted name, parameter)`` pairs of this module and every
        sub-module, in attribute order (lists and tuples index in)."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> List[Parameter]:
        """Every parameter, in :meth:`named_parameters` order."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """This module, then every sub-module depth first."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Put this module and every sub-module in training mode."""
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        """Put this module and every sub-module in eval mode (no dropout)."""
        for m in self.modules():
            m.training = False
        return self

    # ------------------------------------------------------------------
    # Gradient / state management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset every parameter's gradient to ``None``."""
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter's data, keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy ``state`` (as from :meth:`state_dict`) into the parameters.

        Raises ``KeyError`` when the names differ and ``ValueError`` when
        a shape does.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].copy()

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
