"""Training-loop tests: backbones must learn planted structure."""

import numpy as np
import pytest

from repro.datasets import planted_partition_graph
from repro.gnn import Trainer, build_backbone, evaluate, train_backbone
from repro.graph import random_split


@pytest.fixture(scope="module")
def setup():
    graph = planted_partition_graph(
        num_nodes=90, num_classes=3, homophily=0.85,
        feature_signal=0.5, num_features=48, seed=0,
    )
    split = random_split(graph.labels, np.random.default_rng(0))
    return graph, split


def test_gcn_learns_homophilic_graph(setup):
    graph, split = setup
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=32, rng=np.random.default_rng(0),
    )
    result = train_backbone(model, graph, split, epochs=120, lr=0.05)
    assert result.test_acc > 0.7, f"GCN failed to learn: {result.test_acc}"


def test_mlp_learns_features(setup):
    graph, split = setup
    model = build_backbone(
        "mlp", graph.num_features, graph.num_classes,
        hidden=32, rng=np.random.default_rng(0),
    )
    result = train_backbone(model, graph, split, epochs=120, lr=0.05)
    assert result.test_acc > 0.6


def test_training_reduces_loss(setup):
    graph, split = setup
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=32, rng=np.random.default_rng(1),
    )
    trainer = Trainer(model, lr=0.05)
    first = trainer.train_epoch(graph, split.train)
    for _ in range(30):
        last = trainer.train_epoch(graph, split.train)
    assert last < first


def test_early_stopping_limits_epochs(setup):
    graph, split = setup
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=32, rng=np.random.default_rng(0),
    )
    result = train_backbone(model, graph, split, epochs=500, patience=5)
    assert result.epochs_run < 500


def test_history_recording(setup):
    graph, split = setup
    model = build_backbone(
        "mlp", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(0),
    )
    result = train_backbone(
        model, graph, split, epochs=10, patience=10, record_history=True
    )
    assert len(result.history) == result.epochs_run
    assert {"epoch", "train_loss", "val_acc"} <= set(result.history[0])


def test_evaluate_returns_acc_and_loss(setup):
    graph, split = setup
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(0),
    )
    acc, loss = evaluate(model, graph, split.val)
    assert 0.0 <= acc <= 1.0
    assert loss > 0.0


def test_evaluate_does_not_change_mode(setup):
    graph, split = setup
    model = build_backbone(
        "gcn", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(0),
    )
    model.train()
    evaluate(model, graph, split.val)
    assert model.training


def test_result_accs_in_range(setup):
    graph, split = setup
    model = build_backbone(
        "graphsage", graph.num_features, graph.num_classes,
        hidden=16, rng=np.random.default_rng(0),
    )
    result = train_backbone(model, graph, split, epochs=30)
    for value in (result.test_acc, result.val_acc, result.train_acc):
        assert 0.0 <= value <= 1.0


def _reference_fit(trainer, graph, split, epochs, patience):
    """The loop as it was before eval forwards were shared: one separate
    full forward per scored mask, graph recording on."""
    from repro.gnn.trainer import TrainResult
    from repro.nn import EarlyStopping, accuracy, cross_entropy
    from repro.tensor import Tensor

    def separate_eval(mask):
        trainer.model.eval()
        logits = trainer.model(graph, Tensor(graph.features))
        loss = cross_entropy(logits, graph.labels, mask).item()
        acc = accuracy(logits.data, graph.labels, mask)
        trainer.model.train()
        return acc, float(loss)

    stopper = EarlyStopping(patience=patience)
    history = []
    epochs_run = 0
    for epoch in range(epochs):
        epochs_run = epoch + 1
        train_loss = trainer.train_epoch(graph, split.train)
        val_acc, val_loss = separate_eval(split.val)
        train_acc, _ = separate_eval(split.train)
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "train_acc": train_acc, "val_acc": val_acc,
                        "val_loss": val_loss})
        if stopper.step(val_acc, trainer.model):
            break
    stopper.restore(trainer.model)
    return TrainResult(
        test_acc=separate_eval(split.test)[0],
        val_acc=separate_eval(split.val)[0],
        train_acc=separate_eval(split.train)[0],
        epochs_run=epochs_run,
        history=history,
    )


@pytest.mark.parametrize("backbone", ["gcn", "graphsage", "gat"])
def test_shared_eval_forward_train_result_bitwise(setup, backbone):
    """Scoring val/test/train from one no-grad forward leaves a dense-
    feature fit's TrainResult (history included) bitwise unchanged."""
    graph, split = setup

    def trainer():
        return Trainer(build_backbone(
            backbone, graph.num_features, graph.num_classes,
            hidden=16, rng=np.random.default_rng(2),
        ))

    got = trainer().fit(graph, split, epochs=25, patience=5,
                        record_history=True)
    ref = _reference_fit(trainer(), graph, split, epochs=25, patience=5)
    assert got == ref


def test_evaluate_many_masks_matches_single_calls(setup):
    graph, split = setup
    model = build_backbone("gcn", graph.num_features, graph.num_classes,
                           rng=np.random.default_rng(1))
    many = evaluate(model, graph, split.val, split.test, split.train)
    assert many == [evaluate(model, graph, m)
                    for m in (split.val, split.test, split.train)]
