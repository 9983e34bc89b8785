"""Synthetic graph generators standing in for the paper's public datasets.

The execution environment has no network access, so the seven benchmark
datasets (Table II) cannot be downloaded.  GraphRARE consumes only the
triple ``(A, X, y)`` and its behaviour is governed by

* the edge homophily ratio ``H`` (how noisy the original topology is),
* the degree distribution (Chameleon/Squirrel are dense and heavy-tailed),
* how informative the features are about the class (WebKB features are
  strong — MLP beats GCN there — while Squirrel features are weak).

The generator below reproduces those statistics: a degree-corrected
planted-partition edge sampler whose intra-class edge probability *is* the
target homophily, plus a class-prototype Bernoulli feature model with a
per-dataset signal strength.  Targets are validated in ``tests/datasets``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """Target statistics for one synthetic dataset (mirrors Table II)."""

    name: str
    num_nodes: int
    num_edges: int
    num_features: int
    num_classes: int
    homophily: float
    feature_signal: float = 0.15
    """Bernoulli bump for prototype dimensions; larger = easier for an MLP."""
    feature_noise: float = 0.02
    """Background on-probability for non-prototype dimensions."""
    degree_sigma: float = 0.8
    """Log-normal sigma of node propensities; larger = heavier degree tail."""
    class_degree_spread: float = 0.5
    """Log-normal sigma of per-class degree factors.  Real graphs have
    class-correlated degrees (e.g. WebKB's course pages are hubs), which is
    exactly the signal the paper's *structural* entropy (Eq. 5-8) exploits;
    zero makes degree profiles class-agnostic."""

    def scaled(self, scale: float, min_nodes: int = 40, min_features: int = 32) -> "DatasetSpec":
        """A proportionally smaller spec (constant mean degree and H)."""
        if not 0 < scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        if scale == 1.0:
            return self
        n = max(min_nodes, int(round(self.num_nodes * scale)))
        # Keep the mean degree: edges shrink with the node count.
        e = max(n, int(round(self.num_edges * n / self.num_nodes)))
        d = max(min_features, int(round(self.num_features * scale)))
        return DatasetSpec(
            name=self.name,
            num_nodes=n,
            num_edges=e,
            num_features=d,
            num_classes=self.num_classes,
            homophily=self.homophily,
            feature_signal=self.feature_signal,
            feature_noise=self.feature_noise,
            degree_sigma=self.degree_sigma,
            class_degree_spread=self.class_degree_spread,
        )


def generate_labels(
    num_nodes: int, num_classes: int, rng: np.random.Generator
) -> np.ndarray:
    """Roughly balanced labels with mild class-size variation."""
    weights = rng.dirichlet(np.full(num_classes, 8.0))
    labels = rng.choice(num_classes, size=num_nodes, p=weights)
    # Guarantee at least three nodes per class so 60/20/20 splits exist.
    for c in range(num_classes):
        short = 3 - int((labels == c).sum())
        if short > 0:
            donors = np.flatnonzero(np.bincount(labels, minlength=num_classes) > 3)
            for _ in range(short):
                candidates = np.flatnonzero(np.isin(labels, donors))
                labels[rng.choice(candidates)] = c
    return labels


def sample_edges(
    labels: np.ndarray,
    num_edges: int,
    homophily: float,
    rng: np.random.Generator,
    degree_sigma: float = 0.8,
    class_degree_spread: float = 0.5,
) -> set:
    """Degree-corrected planted-partition edge sampling.

    Each edge draws an endpoint ``u`` proportional to a log-normal node
    propensity (scaled by a per-class factor so degrees correlate with the
    class, as in real graphs), flips a coin with probability ``homophily``
    to decide whether the partner shares ``u``'s class, then draws the
    partner with the same propensities restricted to the chosen side.  The
    expected edge homophily therefore equals the target.
    """
    if not 0.0 <= homophily <= 1.0:
        raise ValueError(f"homophily must be in [0, 1], got {homophily}")
    n = len(labels)
    propensity = rng.lognormal(mean=0.0, sigma=degree_sigma, size=n)
    if class_degree_spread > 0:
        num_classes = int(labels.max()) + 1
        class_factor = rng.lognormal(0.0, class_degree_spread, size=num_classes)
        propensity = propensity * class_factor[labels]
    prob = propensity / propensity.sum()

    classes = np.unique(labels)
    members = {c: np.flatnonzero(labels == c) for c in classes}
    member_prob = {}
    for c in classes:
        w = propensity[members[c]]
        member_prob[c] = w / w.sum()

    # Sampling the "same class?" coin per edge and deduplicating biases the
    # realised homophily on small graphs (intra-class pairs collide more).
    # Targeting explicit intra/cross counts keeps H on target at every scale.
    target_intra = int(round(homophily * num_edges))
    target_cross = num_edges - target_intra
    class_index = {c: i for i, c in enumerate(classes)}

    def draw_partners(us: np.ndarray, partner_classes: np.ndarray) -> np.ndarray:
        """Vectorised partner draw: one propensity-weighted node per row."""
        vs = np.empty(len(us), dtype=np.int64)
        for c in classes:
            rows = np.flatnonzero(partner_classes == c)
            if rows.size:
                picks = rng.choice(len(members[c]), size=rows.size, p=member_prob[c])
                vs[rows] = members[c][picks]
        return vs

    intra: set = set()
    cross: set = set()
    rounds = 0
    max_rounds = 200
    while (len(intra) < target_intra or len(cross) < target_cross) and (
        rounds < max_rounds
    ):
        rounds += 1
        if len(intra) < target_intra:
            batch = max(256, int(1.5 * (target_intra - len(intra))))
            us = rng.choice(n, size=batch, p=prob)
            vs = draw_partners(us, labels[us])
            for u, v in zip(us, vs):
                if u != v:
                    intra.add((u, v) if u < v else (v, u))
                    if len(intra) >= target_intra:
                        break
        if len(cross) < target_cross and len(classes) > 1:
            batch = max(256, int(1.5 * (target_cross - len(cross))))
            us = rng.choice(n, size=batch, p=prob)
            # Shift each node's class by a random non-zero offset.
            offsets = rng.integers(1, len(classes), size=batch)
            u_class_ids = np.array([class_index[c] for c in labels[us]])
            partner_ids = (u_class_ids + offsets) % len(classes)
            vs = draw_partners(us, classes[partner_ids])
            for u, v in zip(us, vs):
                cross.add((u, v) if u < v else (v, u))
                if len(cross) >= target_cross:
                    break
    return intra | cross


def generate_features(
    labels: np.ndarray,
    num_features: int,
    rng: np.random.Generator,
    signal: float = 0.15,
    noise: float = 0.02,
    prototype_density: float = 0.08,
) -> np.ndarray:
    """Sparse binary bag-of-words-style features.

    Every class owns a random prototype subset of dimensions; a node turns a
    dimension on with probability ``noise`` plus ``signal`` when the
    dimension belongs to its class prototype.
    """
    num_classes = int(labels.max()) + 1
    proto_size = max(4, int(round(prototype_density * num_features)))
    prototypes = [
        rng.choice(num_features, size=proto_size, replace=False)
        for _ in range(num_classes)
    ]
    prob = np.full((len(labels), num_features), noise)
    for c in range(num_classes):
        rows = labels == c
        prob[np.ix_(rows, prototypes[c])] += signal
    features = (rng.random(prob.shape) < prob).astype(np.float64)
    # Avoid all-zero feature rows (they break row-normalisation downstream).
    empty = features.sum(axis=1) == 0
    if empty.any():
        cols = rng.integers(0, num_features, size=int(empty.sum()))
        features[np.flatnonzero(empty), cols] = 1.0
    return features


def build_synthetic_graph(spec: DatasetSpec, seed: int = 0) -> Graph:
    """Materialise a :class:`Graph` matching ``spec``'s target statistics."""
    rng = np.random.default_rng(seed)
    labels = generate_labels(spec.num_nodes, spec.num_classes, rng)
    edges = sample_edges(
        labels,
        spec.num_edges,
        spec.homophily,
        rng,
        degree_sigma=spec.degree_sigma,
        class_degree_spread=spec.class_degree_spread,
    )
    features = generate_features(
        labels,
        spec.num_features,
        rng,
        signal=spec.feature_signal,
        noise=spec.feature_noise,
    )
    return Graph(spec.num_nodes, edges, features=features, labels=labels)


def planted_partition_graph(
    num_nodes: int = 60,
    num_classes: int = 3,
    homophily: float = 0.8,
    mean_degree: float = 6.0,
    num_features: int = 16,
    feature_signal: float = 0.4,
    seed: int = 0,
) -> Graph:
    """A small, strongly-structured graph for tests and examples."""
    spec = DatasetSpec(
        name="planted",
        num_nodes=num_nodes,
        num_edges=int(num_nodes * mean_degree / 2),
        num_features=num_features,
        num_classes=num_classes,
        homophily=homophily,
        feature_signal=feature_signal,
        feature_noise=0.05,
        degree_sigma=0.3,
    )
    return build_synthetic_graph(spec, seed=seed)
