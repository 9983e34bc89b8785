"""The public custom-op API: :class:`Function`.

A ``Function`` is the single mechanism by which an operation registers
into the autograd graph — every op in :mod:`repro.tensor.ops` is built on
it, and user code (custom backbones) subclasses it to add
differentiable ops without touching ``tensor/tensor.py`` internals.  The
shape follows MegEngine's imperative ``Function``: **one instance per
call**, with ``forward``/``backward`` overrides and instance attributes
as the saved state.

Lifecycle of ``out = MyOp(constants)(x, y)``:

1. the instance is constructed with op-specific *constants* (an axis, a
   sparse matrix, an index array — anything that is not differentiated);
2. ``__call__`` coerces the inputs to :class:`~repro.tensor.Tensor`;
3. ``forward(*arrays)`` runs on the raw ``numpy`` payloads and returns
   the output array, stashing whatever backward needs via
   :meth:`Function.save_for_backward` or plain attributes (safe because
   the instance is never shared between calls);
4. if any input requires grad (and no :func:`~repro.tensor.no_grad`
   scope is active), the instance is wired into the graph; during
   backprop ``backward(grad)`` returns one gradient per input (``None``
   for inputs that get nothing), which the engine accumulates.
   ``self.needs_input_grad`` tells ``backward`` which inputs want one,
   so it can skip computing gradients nobody consumes.  The engine may
   keep a returned array as the input's ``.grad`` and add into it later,
   so ``backward`` must never return an array that aliases a tensor's
   ``.data`` or one it keeps elsewhere (see :meth:`Function.backward`).

Under an enabled telemetry session (:mod:`repro.telemetry`) every
``forward`` and ``backward`` is timed into the ``op.<Name>.fwd_s`` /
``op.<Name>.bwd_s`` histograms, ``<Name>`` being the class name without
its leading underscore (``_Spmm`` -> ``op.Spmm.fwd_s``).  With telemetry
off the hook costs one context-variable read per call.

See ``docs/custom-ops.md`` for a worked example.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Tuple, Type

import numpy as np

from ..telemetry import get_telemetry
from .tensor import Tensor

__all__ = ["FUNCTION_REGISTRY", "Function"]

#: Every Function subclass ever defined, by class name — the gradcheck
#: sweep in ``tests/tensor`` uses this to assert the op surface stays
#: fully migrated (and fully checked).
FUNCTION_REGISTRY: Dict[str, Type["Function"]] = {}


class Function:
    """Base class for differentiable custom ops (one instance per call).

    Subclasses override :meth:`forward` and :meth:`backward`; the
    constructor is free for op constants.  Calling the instance with
    tensor (or array-like) inputs runs the op and returns the output
    ``Tensor`` wired into the autograd graph.

    Examples
    --------
    A residual sparse aggregation, ``matrix @ x + x``::

        class SpmmResidual(Function):
            def __init__(self, matrix):
                self.matrix = matrix.tocsr()

            def forward(self, x):
                return np.asarray(self.matrix @ x) + x

            def backward(self, grad):
                return np.asarray(self.matrix.T @ grad) + grad

        out = SpmmResidual(adj)(x)   # fresh instance every call
    """

    #: Per ``__call__`` input, whether it requires grad; set by
    #: ``__call__``.  ``backward`` may return ``None`` where it is
    #: ``False`` (the engine would discard that gradient anyway).
    needs_input_grad: Tuple[bool, ...] = ()

    _called: bool = False
    _saved: Tuple = ()
    _inputs: Tuple[Tensor, ...] = ()
    _fwd_metric: str = "op.Function.fwd_s"
    _bwd_metric: str = "op.Function.bwd_s"

    def __init_subclass__(cls, **kwargs) -> None:
        """Record the subclass in :data:`FUNCTION_REGISTRY` and name its
        ``op.<Name>.fwd_s`` / ``.bwd_s`` timing histograms."""
        super().__init_subclass__(**kwargs)
        FUNCTION_REGISTRY[cls.__name__] = cls
        name = cls.__name__.lstrip("_")
        cls._fwd_metric = f"op.{name}.fwd_s"
        cls._bwd_metric = f"op.{name}.bwd_s"

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        """Compute the output array from the inputs' raw arrays.

        Runs on plain ``numpy.ndarray`` payloads.  Stash anything
        backward needs on ``self`` (or via :meth:`save_for_backward`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def backward(self, grad: np.ndarray):
        """Map the output gradient to input gradients.

        Returns one array per ``__call__`` input, in order (a bare array
        is accepted for single-input ops); ``None`` entries mean "no
        gradient for this input".

        The engine keeps the first gradient an input receives as that
        input's ``.grad`` without a copy, and adds later contributions
        into it in place, when the array owns its data, is writeable, has
        the input's dtype and shape, is not ``grad`` itself and is not
        returned for another input of this call.  Everything else (views
        of ``grad``, broadcast views, scalars) is copied.  So a returned
        array must never alias a tensor's ``.data`` or an array the op
        keeps elsewhere (a saved value, a cache): return a fresh array, or
        a view, which is copied.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement backward()"
        )

    def save_for_backward(self, *arrays) -> None:
        """Stash values computed in ``forward`` for use in ``backward``."""
        self._saved = arrays

    @property
    def saved_for_backward(self) -> Tuple:
        """The values stashed by :meth:`save_for_backward` (a tuple)."""
        return self._saved

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------
    def __call__(self, *inputs) -> Tensor:
        """Run the op on ``inputs`` and return the graph-wired output."""
        if self._called:
            raise RuntimeError(
                f"{type(self).__name__} instance called twice; Function "
                "instances hold per-call state — construct a fresh one "
                "for every call"
            )
        self._called = True
        tensors = tuple(
            x if isinstance(x, Tensor) else Tensor(x) for x in inputs
        )
        self._inputs = tensors
        self.needs_input_grad = tuple(t.requires_grad for t in tensors)
        arrays = tuple(t.data for t in tensors)
        tel = get_telemetry()
        if tel.enabled:
            start = perf_counter()
            out_data = self.forward(*arrays)
            tel.observe(self._fwd_metric, perf_counter() - start)
        else:
            out_data = self.forward(*arrays)
        return Tensor._make(out_data, tensors, self._apply_backward)

    def _apply_backward(self, grad: np.ndarray) -> None:
        tel = get_telemetry()
        if tel.enabled:
            start = perf_counter()
            grads = self.backward(grad)
            tel.observe(self._bwd_metric, perf_counter() - start)
        else:
            grads = self.backward(grad)
        if not isinstance(grads, (tuple, list)):
            grads = (grads,)
        if len(grads) != len(self._inputs):
            raise RuntimeError(
                f"{type(self).__name__}.backward returned {len(grads)} "
                f"gradient(s) for {len(self._inputs)} input(s)"
            )
        # An input may keep its first gradient without a copy unless the
        # array is the upstream gradient or went to another input of this
        # call; ``Tensor._accumulate`` checks the array's own flags.
        handed = [grad]
        for tensor, g in zip(self._inputs, grads):
            if g is not None:
                tensor._accumulate(g, fresh=not any(g is h for h in handed))
                handed.append(g)
