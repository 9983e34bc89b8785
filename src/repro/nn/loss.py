"""Loss functions and classification metrics."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor, ops


def cross_entropy(
    logits: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None
) -> Tensor:
    """Mean cross-entropy of integer ``targets`` given unnormalised ``logits``.

    ``mask`` (boolean or index array) restricts the loss to a node subset —
    the usual semi-supervised node-classification setting.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            mask = np.flatnonzero(mask)
        logits = ops.gather_rows(logits, mask)
        targets = targets[mask]
    if len(targets) == 0:
        # Empty selection (e.g. a class too small to reach the test split):
        # zero loss, no gradient.
        return Tensor(0.0)
    log_probs = ops.log_softmax(logits, axis=-1)
    one_hot = np.zeros(log_probs.shape)
    one_hot[np.arange(len(targets)), targets] = 1.0
    picked = ops.sum(log_probs * Tensor(one_hot), axis=-1)
    return -ops.mean(picked)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return ops.mean(diff * diff)


def accuracy(
    logits: np.ndarray, targets: np.ndarray, mask: Optional[np.ndarray] = None
) -> float:
    """Classification accuracy of argmax predictions on ``mask``."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            mask = np.flatnonzero(mask)
        logits = logits[mask]
        targets = targets[mask]
    if len(targets) == 0:
        return 0.0
    return float((logits.argmax(axis=-1) == targets).mean())


def masked_metrics(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> Tuple[float, float]:
    """``(accuracy, cross-entropy)`` on ``mask`` from plain logits.

    The one reducer behind every eval-mode score: the trainer's
    ``evaluate``, the topology env's rewards and the serving layer's
    batched scores.  Bitwise twin of the Tensor-op
    :func:`cross_entropy` + :func:`accuracy` pair: identical reductions
    in identical order (max-shifted log-softmax, sum along the class
    axis, pairwise sum then ``* (1/m)`` mean), without building an
    autograd graph.  An empty ``mask`` gives ``(0.0, 0.0)``, the
    convention of both twins.
    """
    mask = np.asarray(mask)
    if mask.dtype == bool:
        mask = np.flatnonzero(mask)
    picked_logits = logits[mask]
    targets = np.asarray(labels, dtype=np.int64)[mask]
    m = targets.shape[0]
    if m == 0:
        return 0.0, 0.0
    shifted = picked_logits - picked_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    picked = log_probs[np.arange(m), targets]
    loss = -(picked.sum() * (1.0 / m))
    acc = float((picked_logits.argmax(axis=-1) == targets).mean())
    return acc, float(loss)


def macro_auc(
    logits: np.ndarray, targets: np.ndarray, mask: Optional[np.ndarray] = None
) -> float:
    """One-vs-rest macro-averaged ROC-AUC.

    Used by the Table V ablation row ``GCN-RARE-reward``, which swaps the
    accuracy/loss reward (Eq. 11) for an AUC-based one.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            mask = np.flatnonzero(mask)
        logits = logits[mask]
        targets = targets[mask]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)

    aucs = []
    for c in range(logits.shape[1]):
        pos = targets == c
        neg = ~pos
        n_pos, n_neg = int(pos.sum()), int(neg.sum())
        if n_pos == 0 or n_neg == 0:
            continue
        # Mann-Whitney U via rank sums (ties get average ranks).
        order = probs[:, c].argsort(kind="mergesort")
        ranks = np.empty(len(order))
        scores = probs[order, c]
        i = 0
        while i < len(scores):
            j = i
            while j + 1 < len(scores) and scores[j + 1] == scores[i]:
                j += 1
            ranks[i : j + 1] = 0.5 * (i + j) + 1.0
            i = j + 1
        rank_of = np.empty(len(order))
        rank_of[order] = ranks
        u = rank_of[pos].sum() - n_pos * (n_pos + 1) / 2.0
        aucs.append(u / (n_pos * n_neg))
    return float(np.mean(aucs)) if aucs else 0.5


def cross_entropy_label_smoothing(
    logits: Tensor,
    targets: np.ndarray,
    smoothing: float = 0.1,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy against smoothed targets.

    Each target distribution puts ``1 - smoothing`` on the true class and
    spreads ``smoothing`` uniformly over the rest — a common regulariser
    for the small, noisy training sets of the WebKB graphs.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
    targets = np.asarray(targets, dtype=np.int64)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            mask = np.flatnonzero(mask)
        logits = ops.gather_rows(logits, mask)
        targets = targets[mask]
    if len(targets) == 0:
        return Tensor(0.0)
    log_probs = ops.log_softmax(logits, axis=-1)
    n, c = log_probs.shape
    smooth = np.full((n, c), smoothing / (c - 1) if c > 1 else 0.0)
    smooth[np.arange(n), targets] = 1.0 - smoothing
    picked = ops.sum(log_probs * Tensor(smooth), axis=-1)
    return -ops.mean(picked)
