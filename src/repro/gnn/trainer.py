"""Training / evaluation loops for node classification.

Implements the paper's protocol (Sec. V-C): Adam, early stopping on
validation accuracy, and test accuracy measured at the epoch where the
validation accuracy peaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..graph import Graph, Split
from ..nn import (
    Adam,
    EarlyStopping,
    LRScheduler,
    classification_report,
    cross_entropy,
    cross_entropy_label_smoothing,
    masked_metrics,
)
from ..tensor import Tensor
from .base import GNNBackbone, features_tensor


@dataclass
class TrainResult:
    """Outcome of one training run."""

    test_acc: float
    val_acc: float
    train_acc: float
    epochs_run: int
    history: List[dict] = field(default_factory=list)


def evaluate(model: GNNBackbone, graph: Graph, mask: np.ndarray, *more_masks):
    """Eval-mode ``(accuracy, loss)`` of ``model`` on the nodes in ``mask``.

    This is the no-backward evaluation step of Algorithm 1 (line 9): one
    :meth:`~repro.gnn.GNNBackbone.predict_logits` forward reduced by
    :func:`repro.nn.masked_metrics`.  Passing further masks scores all of
    them from the same single forward and returns a list of
    ``(accuracy, loss)`` pairs, one per mask in order — each bitwise what
    a separate call would return.
    """
    logits = model.predict_logits(graph)
    scores = [
        masked_metrics(logits, graph.labels, m) for m in (mask, *more_masks)
    ]
    return scores if more_masks else scores[0]


class Trainer:
    """Reusable trainer bound to one model + optimiser.

    The RARE co-training loop trains the same model repeatedly on evolving
    topologies, so optimiser state lives here rather than in a free
    function.
    """

    def __init__(
        self,
        model: GNNBackbone,
        lr: float = 0.05,
        weight_decay: float = 5e-5,
        label_smoothing: float = 0.0,
        scheduler: Optional[LRScheduler] = None,
    ) -> None:
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
        self.label_smoothing = label_smoothing
        self.scheduler = scheduler

    def _loss(self, logits: Tensor, labels: np.ndarray, mask: np.ndarray):
        if self.label_smoothing > 0:
            return cross_entropy_label_smoothing(
                logits, labels, self.label_smoothing, mask
            )
        return cross_entropy(logits, labels, mask)

    def train_epoch(self, graph: Graph, train_mask: np.ndarray) -> float:
        """One full-batch gradient step; returns the training loss."""
        self.model.train()
        self.optimizer.zero_grad()
        logits = self.model(graph, features_tensor(graph, self.model))
        loss = self._loss(logits, graph.labels, train_mask)
        loss.backward()
        self.optimizer.step()
        if self.scheduler is not None:
            self.scheduler.step()
        return loss.item()

    def report(self, graph: Graph, mask: np.ndarray):
        """Per-class precision/recall/F1 of the current model on ``mask``."""
        logits = self.model.predict_logits(graph)
        return classification_report(logits, graph.labels, mask)

    def fit(
        self,
        graph: Graph,
        split: Split,
        epochs: int = 200,
        patience: int = 30,
        record_history: bool = False,
    ) -> TrainResult:
        """Train with early stopping; restore and score the best snapshot."""
        stopper = EarlyStopping(patience=patience)
        history: List[dict] = []
        epochs_run = 0
        for epoch in range(epochs):
            epochs_run = epoch + 1
            train_loss = self.train_epoch(graph, split.train)
            if record_history:
                (val_acc, val_loss), (train_acc, _) = evaluate(
                    self.model, graph, split.val, split.train
                )
                history.append(
                    {
                        "epoch": epoch,
                        "train_loss": train_loss,
                        "train_acc": train_acc,
                        "val_acc": val_acc,
                        "val_loss": val_loss,
                    }
                )
            else:
                val_acc, val_loss = evaluate(self.model, graph, split.val)
            if stopper.step(val_acc, self.model):
                break
        stopper.restore(self.model)
        (val_acc, _), (test_acc, _), (train_acc, _) = evaluate(
            self.model, graph, split.val, split.test, split.train
        )
        return TrainResult(
            test_acc=test_acc,
            val_acc=val_acc,
            train_acc=train_acc,
            epochs_run=epochs_run,
            history=history,
        )


def train_backbone(
    model: GNNBackbone,
    graph: Graph,
    split: Split,
    epochs: int = 200,
    lr: float = 0.05,
    weight_decay: float = 5e-5,
    patience: int = 30,
    record_history: bool = False,
) -> TrainResult:
    """Convenience wrapper: build a Trainer and fit once."""
    trainer = Trainer(model, lr=lr, weight_decay=weight_decay)
    return trainer.fit(
        graph, split, epochs=epochs, patience=patience, record_history=record_history
    )
