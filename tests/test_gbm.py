import dataclasses
import hashlib
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aquagauge import gbm
from aquagauge.errors import LengthMismatch, NonFinite
from aquagauge.gbm import (
    _NEAR_TIE_RELATIVE_MARGIN,
    _ROW_MASK,
    ArityMismatch,
    BadMagic,
    CorruptHeader,
    CorruptNode,
    EmptyTargets,
    FeatureMatrix,
    GbmModel,
    Hyperparams,
    ModelFormatError,
    RegressionTree,
    SplitCandidate,
    UnsupportedVersion,
    _child_lists,
    _presort,
    _stats,
    best_split,
    deserialize_model,
    fit_tree,
    gbm_fit,
    init_constant,
    negative_gradient,
    node_train_count,
    predict_matrix,
    serialize_model,
    tree_depth,
)


# ---------------------------------------------------------------------------
# Independent references: direct-enumeration splitter and a naive CART/boost
# loop built on top of it. These stay deliberately simple-minded.
# ---------------------------------------------------------------------------

def ref_sse(v: np.ndarray) -> float:
    return float(np.sum((v - v.mean()) ** 2))


def _sse(values: np.ndarray) -> float:
    """Sum of squared deviations from the mean, two-pass."""
    return _stats(values)[1] if values.size >= 2 else 0.0


def ref_threshold(a: float, b: float) -> float:
    """The cut between distinct values a < b: their midpoint on Python floats
    when a <= it < b, else a (the midpoint rounds up to b or overflows)."""
    thr = 0.5 * (a + b)
    return thr if a <= thr < b else a


def ref_best_split(x: np.ndarray, y: np.ndarray, msl: int):
    n, d = x.shape
    parent = ref_sse(y)
    best = None
    for f in range(d):
        u = np.unique(x[:, f]).tolist()
        for thr in map(ref_threshold, u[:-1], u[1:]):
            mask = x[:, f] <= thr
            nl = int(mask.sum())
            if nl < msl or n - nl < msl:
                continue
            s = ref_sse(y[mask]) + ref_sse(y[~mask])
            if best is None or s < best[2]:
                best = (f, float(thr), s)
    if best is None or not parent - best[2] > 0.0:
        return None
    return best


class RefNode:
    def __init__(self):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = None

    def predict(self, row):
        if self.value is not None:
            return self.value
        child = self.left if row[self.feature] <= self.threshold else self.right
        return child.predict(row)


def ref_fit_tree(x, y, hp: Hyperparams, depth=0) -> RefNode:
    node = RefNode()
    if depth < hp.max_depth and len(y) >= hp.min_samples_split:
        found = ref_best_split(x, y, hp.min_samples_leaf)
        if found is not None:
            f, thr, _ = found
            mask = x[:, f] <= thr
            node.feature, node.threshold = f, thr
            node.left = ref_fit_tree(x[mask], y[mask], hp, depth + 1)
            node.right = ref_fit_tree(x[~mask], y[~mask], hp, depth + 1)
            return node
    node.value = float(np.mean(y))
    return node


def ref_gbm_train_predictions(x, y, hp: Hyperparams) -> np.ndarray:
    pred = np.full(len(y), float(np.mean(y)))
    for _ in range(hp.n_trees):
        resid = y - pred
        root = ref_fit_tree(x, resid, hp)
        pred = pred + hp.learning_rate * np.array([root.predict(row) for row in x])
    return pred


def flatten_ref(node: RefNode, out):
    if node.value is not None:
        out.append(("L", node.value))
    else:
        out.append(("I", node.feature, node.threshold))
        flatten_ref(node.left, out)
        flatten_ref(node.right, out)
    return out


TREE_FIELDS = ("feature", "threshold", "left", "right", "value", "count")


def node_view(tree: RegressionTree) -> list[tuple]:
    """A tree as one tuple per node, ("I", feature, threshold, left, right)
    or ("L", value, train_count), the form of the model file's node lines."""
    rows = zip(*(getattr(tree, name).tolist() for name in TREE_FIELDS))
    return [("I", f, t, left, right) if f >= 0 else ("L", v, c) for f, t, left, right, v, c in rows]


def node_rows(nodes: list[tuple]) -> list[tuple]:
    """A node_view as RegressionTree.from_rows rows."""
    return [(n[1], n[2], n[3], n[4], 0.0, 0) if n[0] == "I" else (-1, 0.0, -1, -1, n[1], n[2]) for n in nodes]


def tree_of(nodes: list[tuple]) -> RegressionTree:
    """The tree whose node_view is `nodes`."""
    return RegressionTree.from_rows(node_rows(nodes))


def one_tree_text(nodes: list[tuple], feature_names: list[str]) -> str:
    """A one-tree model file holding the node_view `nodes` line for line, in
    the writer's spelling, whether or not RegressionTree takes them."""
    header = GbmModel(f0=0.0, trees=[], hyperparams=Hyperparams(), training_curve=[0.0, 0.0],
                      feature_names=feature_names)
    lines = [f"tree 0 nodes {len(nodes)}", *(gbm._node_line(*row) for row in node_rows(nodes))]
    return serialize_model(header) + "\n".join(lines) + "\n"


def tree_predict(tree: RegressionTree, x) -> np.ndarray:
    """One tree's leaf value for every row of x, through predict_matrix: an
    f0 of -0.0 adds nothing to any value's bits, -0.0 included."""
    model = GbmModel(f0=-0.0, trees=[tree], hyperparams=Hyperparams(),
                     feature_names=[f"f{j}" for j in range(np.shape(x)[1])])
    return predict_matrix(model, x)


def view_predict(nodes: list[tuple], row) -> float:
    """One row's leaf value, walking a node_view one node at a time."""
    node = nodes[0]
    while node[0] == "I":
        node = nodes[node[3] if row[node[1]] <= node[2] else node[4]]
    return node[1]


def view_sums(f0: float, trees: list[RegressionTree], x) -> list[float]:
    """f0 plus every tree's view_predict, added in tree order, for each row of x."""
    views = [node_view(tree) for tree in trees]
    sums = []
    for row in np.asarray(x).tolist():
        acc = f0
        for nodes in views:
            acc += view_predict(nodes, row)
        sums.append(acc)
    return sums


def flatten_tree(tree: RegressionTree):
    nodes = node_view(tree)

    def walk(node_id, out):
        node = nodes[node_id]
        if node[0] == "L":
            out.append(("L", node[1]))
        else:
            out.append(("I", node[1], node[2]))
            walk(node[3], out)
            walk(node[4], out)
        return out

    return walk(0, [])


# ---------------------------------------------------------------------------
# The split search as it was before presorting: every node stably argsorts
# every feature column of its own sub-matrix. Kept verbatim (renamed) as the
# reference that the presorted fitter must reproduce bit for bit.
# ---------------------------------------------------------------------------

def argsort_best_split(rows, targets, min_samples_leaf: int = 1) -> SplitCandidate | None:
    """Exhaustive best two-leaf split by total SSE, or None when infeasible.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature; both sides must keep at least min_samples_leaf
    rows and the split must strictly reduce the node SSE. Candidates are
    scanned with prefix sums, then everything within a hair of the scanned
    optimum is re-scored with the exact two-pass SSE so that the returned
    (feature, threshold, sse) matches direct enumeration, ties resolved
    toward the lower (feature, threshold).
    """
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n, n_features = x.shape
    msl = min_samples_leaf
    if n != y.size:
        raise LengthMismatch(n, y.size)
    if n < 2 or n < 2 * msl:
        return None

    parent_sse = _sse(y)
    cand_feature: list[np.ndarray] = []
    cand_threshold: list[np.ndarray] = []
    cand_score: list[np.ndarray] = []
    total = None
    for f in range(n_features):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        ks = np.arange(msl, n - msl + 1)
        ks = ks[xs[ks - 1] < xs[ks]]
        if ks.size == 0:
            continue
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        left_sum = csum[ks - 1]
        left_sq = csq[ks - 1]
        right_sum = csum[-1] - left_sum
        right_sq = csq[-1] - left_sq
        score = (left_sq - left_sum**2 / ks) + (right_sq - right_sum**2 / (n - ks))
        cand_feature.append(np.full(ks.size, f))
        cand_threshold.append(np.array(list(map(ref_threshold, xs[ks - 1].tolist(), xs[ks].tolist()))))
        cand_score.append(score)
    if not cand_feature:
        return None

    features = np.concatenate(cand_feature)
    thresholds = np.concatenate(cand_threshold)
    scores = np.concatenate(cand_score)
    margin = _NEAR_TIE_RELATIVE_MARGIN * max(parent_sse, 1.0)
    shortlist = np.flatnonzero(scores <= scores.min() + margin)

    best: SplitCandidate | None = None
    order = sorted(shortlist, key=lambda i: (features[i], thresholds[i]))
    for i in order:
        f = int(features[i])
        thr = float(thresholds[i])
        mask = x[:, f] <= thr
        n_left = int(mask.sum())
        if n_left < msl or n - n_left < msl:
            continue
        exact = _sse(y[mask]) + _sse(y[~mask])
        if best is None or exact < best.sse:
            best = SplitCandidate(feature=f, threshold=thr, sse=exact)
    if best is None or not parent_sse - best.sse > 0.0:
        return None
    return best


def argsort_fit_tree(rows, residuals, hp: Hyperparams) -> list[tuple]:
    """Greedy CART on residuals. A node splits only while its row count is at
    least min_samples_split and its depth is below max_depth; leaves carry the
    mean residual and their training row count. Returns the node_view of the
    tree."""
    x = np.asarray(rows, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    if r.size == 0:
        raise EmptyTargets()
    if x.shape[0] != r.size:
        raise LengthMismatch(x.shape[0], r.size)

    nodes: list[tuple] = []

    def build(idx: np.ndarray, depth: int) -> int:
        sub = r[idx]
        if depth < hp.max_depth and idx.size >= hp.min_samples_split:
            cand = argsort_best_split(x[idx], sub, hp.min_samples_leaf)
            if cand is not None:
                node_id = len(nodes)
                nodes.append(None)  # type: ignore[arg-type]  # patched below
                mask = x[idx, cand.feature] <= cand.threshold
                left = build(idx[mask], depth + 1)
                right = build(idx[~mask], depth + 1)
                nodes[node_id] = ("I", cand.feature, cand.threshold, left, right)
                return node_id
        node_id = len(nodes)
        nodes.append(("L", float(np.mean(sub)), int(idx.size)))
        return node_id

    build(np.arange(r.size), 0)
    return nodes


def float_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def node_bits(node: tuple):
    """A node_view node with every float replaced by its exact bit pattern."""
    if node[0] == "L":
        return ("L", float_bits(node[1]), node[2])
    return ("I", node[1], float_bits(node[2]), node[3], node[4])


@st.composite
def tied_problems(draw):
    """Small fitting problems full of ties: columns drawn from small value
    sets, constant and 0/1 columns, tied targets, n near 2 * min_samples_leaf
    and large min_samples_leaf."""
    msl = draw(st.integers(1, 12))
    n = draw(st.one_of(st.integers(2 * msl - 1, 2 * msl + 2), st.integers(1, 48)))
    n_features = draw(st.integers(1, 4))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    columns = []
    for _ in range(n_features):
        kind = draw(st.sampled_from(["small set", "constant", "binary", "any"]))
        if kind == "constant":
            columns.append([draw(finite)] * n)
            continue
        values = {
            "small set": st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0]),
            "binary": st.sampled_from([0.0, 1.0]),
            "any": finite,
        }[kind]
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    x = np.array(columns, dtype=np.float64).T.reshape(n, n_features)
    target_values = draw(st.sampled_from([st.sampled_from([-1.0, 0.0, 0.25, 2.0]), finite]))
    y = np.array(draw(st.lists(target_values, min_size=n, max_size=n)), dtype=np.float64)
    hp = Hyperparams(
        max_depth=draw(st.integers(0, 5)),
        min_samples_split=draw(st.integers(2, max(2, n))),
        min_samples_leaf=msl,
    )
    return x, y, hp


@st.composite
def offset_problems(draw):
    """Small problems with rounded (tie-heavy) features whose targets are
    scaled by up to 1e3 and shifted far from zero."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.integers(0, 5), min_size=n * n_features, max_size=n * n_features)),
                 dtype=np.float64).reshape(n, n_features)
    unit = draw(st.sampled_from([st.sampled_from([-1.0, 0.0, 0.25, 2.0]), st.floats(-1.0, 1.0)]))
    base = np.array(draw(st.lists(unit, min_size=n, max_size=n)), dtype=np.float64)
    scale = 10.0 ** draw(st.floats(0.0, 3.0))
    offset = draw(st.sampled_from([0.0, 1e6, 1e8, 1e12]))
    hp = Hyperparams(
        max_depth=draw(st.integers(0, 3)),
        min_samples_split=draw(st.integers(2, 12)),
        min_samples_leaf=draw(st.integers(1, 5)),
    )
    return x, offset + scale * base, hp


@st.composite
def stats_arrays(draw):
    """1-200 floats, tie-heavy or spread, with signed zeros, shifted by up
    to 1e12 (signed zeros keep their sign only without a shift)."""
    n = draw(st.integers(1, 200))
    unit = draw(st.sampled_from([st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e-9]),
                                 st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)]))
    v = np.array(draw(st.lists(unit, min_size=n, max_size=n)), dtype=np.float64)
    offset = draw(st.sampled_from([0.0, 1.0, -1e6, 1e9, 1e12, -1e12]))
    return v + offset if offset else v


@st.composite
def packing_matrices(draw):
    """Matrices whose columns are -0.0/0.0 mixes, constant, 0/1, all distinct
    or drawn from a small value set."""
    n = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["signed zeros", "constant", "binary", "distinct", "small set"]))
        if kind == "constant":
            columns.append([draw(st.floats(-1e3, 1e3))] * n)
        elif kind == "distinct":
            columns.append(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True)))
        else:
            values = {
                "signed zeros": [-0.0, 0.0],
                "binary": [0.0, 1.0],
                "small set": [-2.0, -0.0, 0.0, 0.5, 3.0],
            }[kind]
            columns.append(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    return np.array(columns, dtype=np.float64).T.reshape(n, len(columns))


@st.composite
def traversal_cases(draw):
    """A matrix of -0.0/0.0, small and large cells, plus f0 and one to four
    random preorder trees over it. Each threshold is a cell of its feature's
    column, so some rows land exactly on it."""
    n = draw(st.integers(1, 24))
    n_features = draw(st.integers(1, 4))
    cell = st.one_of(st.sampled_from([-0.0, 0.0, -1.0, 1.0, 0.5]),
                     st.floats(-1e-9, 1e-9), st.floats(-1e12, 1e12))
    x = np.array(draw(st.lists(cell, min_size=n * n_features, max_size=n * n_features)),
                 dtype=np.float64).reshape(n, n_features)
    leaf_value = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e-3, 1e-3), st.floats(-1e9, 1e9))
    thresholds = [st.sampled_from(x[:, f].tolist()) for f in range(n_features)]
    trees = [tree_of(draw_preorder_nodes(draw, thresholds, leaf_value)) for _ in range(draw(st.integers(1, 4)))]
    return x, draw(st.floats(-1e6, 1e6)), trees


def draw_preorder_nodes(draw, thresholds: list, leaf_value) -> list[tuple]:
    """The node_view of a random tree of depth at most 4, numbered in
    preorder (left subtree first): an internal node splits feature f at a
    draw of thresholds[f], and a leaf holds a draw of leaf_value."""
    nodes = []

    def grow(depth):
        node_id = len(nodes)
        nodes.append(None)
        if depth == 4 or draw(st.booleans()):
            nodes[node_id] = ("L", draw(leaf_value), draw(st.integers(1, 50)))
        else:
            f = draw(st.integers(0, len(thresholds) - 1))
            threshold = draw(thresholds[f])
            left = grow(depth + 1)
            right = grow(depth + 1)
            nodes[node_id] = ("I", f, threshold, left, right)
        return node_id

    grow(0)
    return nodes


_EDGE_CELLS = [-0.0, 0.0, 5e-324, -5e-324, -1.0, 1.0, 0.5, 1e12]


def random_preorder_tree(rnd: random.Random, n_leaves: int, thresholds: list) -> RegressionTree:
    """A tree of exactly n_leaves leaves, numbered in preorder, whose internal
    nodes split at random on a feature f at a pick of thresholds[f]."""
    nodes: list[tuple] = []

    def grow(k: int) -> int:
        node_id = len(nodes)
        nodes.append(())
        if k == 1:
            nodes[node_id] = (-1, 0.0, -1, -1, rnd.choice([-0.0, 0.0, rnd.gauss(0.0, 1.0)]), 1)
            return node_id
        f = rnd.randrange(len(thresholds))
        left_leaves = rnd.randrange(1, k)
        grow(left_leaves)
        right = grow(k - left_leaves)
        nodes[node_id] = (f, rnd.choice(thresholds[f]), node_id + 1, right, 0.0, 0)
        return node_id

    grow(n_leaves)
    return RegressionTree.from_rows(nodes)


@st.composite
def mixed_size_ensembles(draw):
    """A matrix and f0 plus over 100 preorder trees of 1, 63, 64, 65, 100+,
    128, 129, 192 and 256 leaves (one to four 64-leaf mask words, and either
    side of each word boundary) and of 2 to 70, sharing a few thresholds per
    feature. Cells are the edge cells above, the thresholds themselves and
    uniform draws; some matrices have zero rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng, rnd = np.random.default_rng(seed), random.Random(seed)
    n, n_features = draw(st.sampled_from([0, 1, 40])), draw(st.integers(1, 5))
    thresholds = [rng.choice([*_EDGE_CELLS, *rng.uniform(-2, 2, 4)], size=6).tolist() for _ in range(n_features)]
    pool = [*_EDGE_CELLS, *(t for column in thresholds for t in column)]
    x = np.where(rng.random((n, n_features)) < 0.7, rng.choice(pool, size=(n, n_features)),
                 rng.uniform(-3, 3, (n, n_features)))
    sizes = [1, 63, 64, 65, int(rng.integers(100, 130)), 128, 129, 192, 256,
             *rng.integers(2, 71, size=100).tolist()]
    trees = [random_preorder_tree(rnd, int(k), thresholds) for k in rng.permutation(sizes)]
    return x, float(rng.normal()), trees


def traversal_layouts(x: np.ndarray) -> dict[str, np.ndarray]:
    """x as C-order, F-order, strided and column-subset views, int64 and zero rows."""
    wide = np.hstack([x, np.full((x.shape[0], 1), 7.0)])
    return {
        "C order": np.ascontiguousarray(x),
        "F order": np.asfortranarray(x),
        "every other row": x[::2],
        "column-subset view": wide[:, :-1],
        "int64": np.trunc(x).astype(np.int64),  # |x| <= 1e12, so float64 holds each exactly
        "zero rows": x[:0],
    }


def as_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


# The sha256 of serialize_model(gbm_fit(...)) on golden_xy() with
# GOLDEN_HP, computed with the per-node argsort fitter.
GOLDEN_MODEL_SHA256 = "2303ed8543f388bc03b0c120201266b0f7445f35d2d3b12f8bd07c8079397394"
GOLDEN_HP = Hyperparams(n_trees=25, learning_rate=0.2, max_depth=4,
                        min_samples_split=20, min_samples_leaf=5)


def golden_xy():
    """Seeded matrix with a continuous, a rounded, a 0/1, a constant and a
    month-like column."""
    rng = np.random.default_rng(2102)
    n = 500
    x = np.column_stack([
        rng.normal(size=n),
        np.round(rng.uniform(0, 10, size=n)),
        rng.integers(0, 2, size=n).astype(float),
        np.full(n, 3.0),
        rng.integers(1, 13, size=n).astype(float),
    ])
    y = 2.0 * x[:, 0] + np.sin(x[:, 1]) + 3.0 * x[:, 2] * (x[:, 4] > 6) + rng.normal(0, 0.3, n)
    return x, y


# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_init_constant_mean(self):
        assert init_constant([1, 2, 3]) == 2.0
        assert init_constant([5]) == 5.0
        assert init_constant([-1, 1]) == 0.0

    def test_init_constant_empty(self):
        with pytest.raises(EmptyTargets):
            init_constant([])

    def test_negative_gradient_residuals(self):
        assert list(negative_gradient([3, 3], [1, 5])) == [2, -2]
        assert list(negative_gradient([10], [7.5])) == [2.5]
        assert list(negative_gradient([4, 4], [4, 4])) == [0, 0]

    def test_negative_gradient_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            negative_gradient([1, 2], [1])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
           st.data())
    def test_negative_gradient_matches_finite_differences(self, targets, data):
        preds = data.draw(st.lists(st.floats(-100, 100),
                                   min_size=len(targets), max_size=len(targets)))
        y = np.array(targets)
        f = np.array(preds)
        eps = 1e-4
        loss_plus = 0.5 * (y - (f + eps)) ** 2
        loss_minus = 0.5 * (y - (f - eps)) ** 2
        fd = (loss_plus - loss_minus) / (-2 * eps)
        assert np.allclose(negative_gradient(y, f), fd, atol=1e-6)

    def test_line_search_leaf(self):
        # a stump's one leaf takes the optimal step, the mean residual
        for residuals, step in (([2, 4], 3.0), ([0, 0, 0], 0.0), ([-6], -6.0)):
            stump = fit_tree(np.zeros((len(residuals), 1)), residuals, Hyperparams(max_depth=0))
            assert node_view(stump) == [("L", step, len(residuals))]

    def test_line_search_empty(self):
        with pytest.raises(EmptyTargets):
            fit_tree(np.zeros((0, 1)), [], Hyperparams(max_depth=0))

    @settings(max_examples=500, deadline=None)
    @given(stats_arrays())
    def test_stats_is_mean_and_two_pass_sse_bit_for_bit(self, v):
        got = np.array(_stats(v)).view(np.int64)
        want = np.array([np.mean(v), ref_sse(v)]).view(np.int64)
        assert np.array_equal(got, want)
        assert _sse(v) == (ref_sse(v) if v.size >= 2 else 0.0)


class TestBestSplit:
    def test_two_point_forced_split(self):
        got = best_split(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 1)
        assert (got.feature, got.threshold, got.sse) == (0, 0.5, 0.0)

    def test_constant_targets_no_split(self):
        x = np.arange(10.0).reshape(-1, 1)
        assert best_split(x, np.full(10, 3.3), 1) is None

    def test_constant_feature_no_split(self):
        x = np.zeros((10, 1))
        assert best_split(x, np.arange(10.0), 1) is None

    def test_min_samples_leaf_respected(self):
        x = np.arange(6.0).reshape(-1, 1)
        y = np.array([0.0, 0, 0, 10, 10, 10])
        got = best_split(x, y, 3)
        assert got.threshold == 2.5

    @pytest.mark.parametrize("msl", [0, -1])
    def test_min_samples_leaf_below_one_rejected(self, msl):
        x = np.arange(6.0).reshape(-1, 1)
        y = np.array([0.0, 0, 0, 10, 10, 10])
        with pytest.raises(ValueError, match="min_samples_leaf must be >= 1"):
            best_split(x, y, msl)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            x = rng.uniform(-5, 5, size=(n, 2))
            y = rng.uniform(-10, 10, size=n)
            msl = int(rng.integers(1, 4))
            got = best_split(x, y, msl)
            want = ref_best_split(x, y, msl)
            if want is None:
                assert got is None
            else:
                assert (got.feature, got.threshold, got.sse) == want

    def test_tie_breaks_to_lower_feature(self):
        # identical columns -> identical candidate splits; feature 0 must win
        col = np.array([0.0, 1.0, 2.0, 3.0])
        x = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        got = best_split(x, y, 1)
        assert got.feature == 0
        assert got.threshold == 1.5

    def test_zero_gain_cut_refused(self):
        """Cutting at 1.5 leaves each side's SSE at 0.5, the parent's 1.0 in
        total: a split must strictly reduce the node SSE."""
        x, y = [[1.0], [1.0], [2.0], [2.0]], [1.0, 2.0, 1.0, 2.0]
        assert best_split(x, y, 1) is None
        tree = fit_tree(x, y, Hyperparams(max_depth=3, min_samples_split=2, min_samples_leaf=1))
        assert node_view(tree) == [("L", 1.5, 4)]

    def test_near_tie_margin_grows_with_node_sse(self):
        """Both features cut the same 20 rows from the other 20, so the exact
        SSEs tie, and the tie goes to feature 0. Their scanned gains differ
        only by rounding, which grows with the node SSE (about 4e13 here), so
        the shortlist margin must scale with it to keep feature 0 in."""
        rng = np.random.default_rng(1)
        y = np.concatenate([rng.normal(-1e6, 1.0, 20), rng.normal(1e6, 1.0, 20)])
        x1 = np.concatenate([rng.permutation(20), 20 + rng.permutation(20)]).astype(float)
        x = np.column_stack([np.arange(40.0), x1])
        got = best_split(x, y, 1)
        assert (got.feature, got.threshold) == (0, 19.5)
        assert ref_best_split(x, y, 1)[:2] == (0, 19.5)

    _finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included

    @settings(max_examples=300, deadline=None)
    @given(_finite, st.one_of(st.just(None), _finite), st.integers(1, 3))
    @example(1e308, 1.7e308, 3)  # the midpoint overflows
    @example(-1.7e308, -1e308, 3)
    @example(5e-324, 1e-323, 3)  # the midpoint of two subnormals rounds up
    @example(1.0000000000000002, 1.0000000000000004, 3)  # adjacent doubles
    def test_distinct_values_split_apart_at_any_scale(self, a, b, reps):
        """Two distinct values with separable targets are always cut apart:
        the threshold t keeps a <= t < b. b None stands for a's successor."""
        b = math.nextafter(a, math.inf) if b is None else b
        a, b = min(a, b), max(a, b)
        assume(a < b and math.isfinite(b))
        x = np.array([[a]] * reps + [[b]] * reps)
        y = np.array([0.0] * reps + [1.0] * reps)
        got = best_split(x, y)
        assert got is not None and got.feature == 0 and a <= got.threshold < b
        assert ref_best_split(x, y, 1)[:2] == (0, got.threshold)
        tree = fit_tree(x, y, Hyperparams(max_depth=1, min_samples_split=2, min_samples_leaf=1))
        assert tree.feature[0] == 0 and tree.threshold[0] == got.threshold
        assert tree_predict(tree, x).tolist() == y.tolist()


class TestFitTree:
    def test_depth_zero_single_leaf(self):
        tree = fit_tree(np.random.default_rng(0).normal(size=(30, 2)),
                        np.arange(30.0),
                        Hyperparams(max_depth=0, min_samples_split=2, min_samples_leaf=1))
        nodes = node_view(tree)
        assert len(nodes) == 1
        assert nodes[0][0] == "L"
        assert nodes[0][1] == pytest.approx(np.mean(np.arange(30.0)))

    def test_constant_residuals_single_leaf(self):
        x = np.random.default_rng(1).normal(size=(40, 3))
        tree = fit_tree(x, np.full(40, 2.5),
                        Hyperparams(max_depth=5, min_samples_split=2, min_samples_leaf=1))
        assert node_view(tree) == [("L", 2.5, 40)]

    def test_matches_reference_construction(self):
        rng = np.random.default_rng(7)
        hp = Hyperparams(max_depth=2, min_samples_split=4, min_samples_leaf=2)
        for _ in range(25):
            x = rng.uniform(-4, 4, size=(20, 2))
            y = rng.normal(size=20)
            ours = flatten_tree(fit_tree(x, y, hp))
            ref = flatten_ref(ref_fit_tree(x, y, hp), [])
            assert ours == ref

    def test_structural_invariants(self, synth_xy):
        x, y = synth_xy
        hp = Hyperparams(n_trees=5, max_depth=4, min_samples_split=20, min_samples_leaf=5)
        model = gbm_fit(x, y, hp)
        for tree in model.trees:
            assert tree_depth(tree) <= hp.max_depth
            for i, node in enumerate(node_view(tree)):
                if node[0] == "L":
                    assert node[2] >= hp.min_samples_leaf
                else:
                    assert node_train_count(tree, i) >= hp.min_samples_split

    def test_tree_depth_counts_edges_on_the_longest_path(self):
        assert tree_depth(tree_of([("L", 1.0, 3)])) == 0
        stump = [("I", 0, 0.5, 1, 2), ("L", 1.0, 1), ("L", 2.0, 1)]
        assert tree_depth(tree_of(stump)) == 1
        right_deep = [("I", 0, 0.5, 1, 2), ("L", 1.0, 1), ("I", 1, 0.5, 3, 4),
                      ("L", 2.0, 1), ("I", 0, 1.5, 5, 6), ("L", 3.0, 1), ("L", 4.0, 1)]
        assert tree_depth(tree_of(right_deep)) == 3


class TestGbmFit:
    def test_constant_targets(self):
        x = np.random.default_rng(3).normal(size=(50, 2))
        model = gbm_fit(x, np.full(50, 7.0), Hyperparams(n_trees=5, min_samples_split=2, min_samples_leaf=1))
        assert all(loss == 0.0 for loss in model.training_curve)
        assert predict_matrix(model, np.asarray(x[0], dtype=float)[None])[0] == 7.0

    def test_single_stump_is_mean_predictor(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        model = gbm_fit(x, y, Hyperparams(n_trees=1, max_depth=0, min_samples_split=2, min_samples_leaf=1))
        assert model.training_curve[1] == pytest.approx(np.mean((y - y.mean()) ** 2), abs=1e-12)
        assert predict_matrix(model, np.asarray(x[0], dtype=float)[None])[0] == pytest.approx(y.mean(), abs=1e-12)

    def test_curve_shape_and_monotonicity(self, synth_xy):
        x, y = synth_xy
        hp = Hyperparams(n_trees=50, max_depth=4, min_samples_split=20, min_samples_leaf=5)
        model = gbm_fit(x, y, hp)
        assert len(model.training_curve) == len(model.trees) + 1
        diffs = np.diff(model.training_curve)
        assert np.all(diffs <= 1e-12)

    def test_learns_parabola(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, size=(200, 1))
        y = x[:, 0] ** 2
        hp = Hyperparams(n_trees=100, learning_rate=0.1, max_depth=3,
                         min_samples_split=10, min_samples_leaf=5)
        model = gbm_fit(x, y, hp)
        pred = predict_matrix(model, x)
        r2 = 1 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
        assert model.training_curve[-1] < model.training_curve[1]
        assert r2 > 0.95

    def test_deterministic_byte_identical(self, synth_xy):
        x, y = synth_xy
        hp = Hyperparams(n_trees=10, max_depth=3, min_samples_split=20, min_samples_leaf=5)
        assert serialize_model(gbm_fit(x, y, hp)) == serialize_model(gbm_fit(x, y, hp))

    def test_shrinkage_identity_at_rate_one(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=(40, 2))
        y = rng.normal(size=40)
        hp = Hyperparams(n_trees=1, learning_rate=1.0, max_depth=3,
                         min_samples_split=4, min_samples_leaf=2)
        model = gbm_fit(x, y, hp)
        raw = fit_tree(x, y - y.mean(), hp)
        for row in x:
            want = model.f0 + view_predict(node_view(raw), row)
            assert predict_matrix(model, np.asarray(row, dtype=float)[None])[0] == want

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-3, 3, size=(80, 2))
        y = 1.5 * x[:, 0] - x[:, 1] ** 2 + rng.normal(0, 0.2, 80)
        hp = Hyperparams(n_trees=15, max_depth=3, min_samples_split=8, min_samples_leaf=3)
        model = gbm_fit(x, y, hp)
        ours = predict_matrix(model, x)
        ref = ref_gbm_train_predictions(x, y, hp)
        assert np.max(np.abs(ours - ref)) <= 1e-9

    def test_empty_targets(self):
        with pytest.raises(EmptyTargets):
            gbm_fit(np.empty((0, 2)), [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            gbm_fit(np.zeros((3, 2)), [1.0, 2.0])

    @pytest.mark.parametrize("y", [[1.7e308, 1.7e308, -1.7e308, 1.7e308], [1e200, 1e200, -1e200, -1e200]],
                             ids=["f0-overflows", "loss-overflows"])
    def test_non_finite_training_loss_refused(self, y):
        """Finite targets whose mean overflows (f0 = inf, curve [inf, nan]),
        or whose squared error does (curve [inf, inf]), give no model: its
        file could not be loaded."""
        hp = Hyperparams(n_trees=1, min_samples_split=2, min_samples_leaf=1)
        with np.errstate(all="ignore"), pytest.raises(NonFinite, match="training loss"):
            gbm_fit(np.arange(4.0)[:, None], y, hp)


class TestPredict:
    def _toy_model(self, trees=None):
        return GbmModel(f0=1.5, trees=trees or [], hyperparams=Hyperparams(),
                        training_curve=[0.0] + [0.0] * len(trees or []),
                        feature_names=["a", "b"])

    def test_zero_trees_returns_f0(self):
        model = self._toy_model()
        assert predict_matrix(model, np.asarray([0.0, 0.0], dtype=float)[None])[0] == 1.5

    def test_single_leaf_additivity(self):
        model = self._toy_model([tree_of([("L", 2.0, 10)])])
        assert predict_matrix(model, np.asarray([9.9, -3.0], dtype=float)[None])[0] == 3.5

    def test_equals_sum_of_per_tree_outputs(self, synth_xy):
        x, y = synth_xy
        model = gbm_fit(x, y, Hyperparams(n_trees=20, max_depth=3,
                                          min_samples_split=20, min_samples_leaf=5))
        rng = np.random.default_rng(9)
        for row in rng.uniform(-3, 3, size=(25, 4)):
            acc = model.f0
            for tree in model.trees:
                acc += view_predict(node_view(tree), row)
            assert predict_matrix(model, np.asarray(row, dtype=float)[None])[0] == acc

    @settings(max_examples=300, deadline=None)
    @given(traversal_cases())
    def test_traversal_matches_view_predict_bit_for_bit(self, case):
        x, f0, trees = case
        model = GbmModel(f0=f0, trees=trees, hyperparams=Hyperparams(),
                         training_curve=[0.0] * (len(trees) + 1),
                         feature_names=[f"f{j}" for j in range(x.shape[1])])
        views = [node_view(tree) for tree in trees]
        for layout, xl in traversal_layouts(x).items():
            rows = xl.tolist()
            for tree, nodes in zip(trees, views):
                want = [view_predict(nodes, row) for row in rows]
                assert np.array_equal(as_bits(tree_predict(tree, xl)), as_bits(want)), layout
            want = view_sums(f0, trees, xl)
            assert np.array_equal(as_bits(predict_matrix(model, xl)), as_bits(want)), layout

    @settings(max_examples=20, deadline=None)
    @given(mixed_size_ensembles())
    def test_bitmask_matches_view_predict_in_tree_order(self, case):
        x, f0, trees = case
        names = [f"f{j}" for j in range(x.shape[1])]
        model = GbmModel(f0=f0, trees=trees, hyperparams=Hyperparams(), feature_names=names)
        assert np.array_equal(as_bits(predict_matrix(model, x)), as_bits(view_sums(f0, trees, x)))

    def test_fitted_trees_over_128_leaves_match_view_predict(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-3, 3, size=(600, 3))
        y = np.sin(3 * x[:, 0]) * x[:, 1] + rng.normal(0, 0.5, 600)
        model = gbm_fit(x, y, Hyperparams(n_trees=3, learning_rate=0.5, max_depth=8,
                                          min_samples_split=2, min_samples_leaf=1))
        assert max(np.count_nonzero(tree.feature < 0) for tree in model.trees) > 128
        rows = np.vstack([x, rng.uniform(-4, 4, size=(200, 3))])
        want = view_sums(model.f0, model.trees, rows)
        assert np.array_equal(as_bits(predict_matrix(model, rows)), as_bits(want))

    def test_predict_matrix_agrees_with_row_predict(self, synth_xy):
        x, y = synth_xy
        model = gbm_fit(x, y, Hyperparams(n_trees=10, max_depth=3,
                                          min_samples_split=20, min_samples_leaf=5))
        batch = predict_matrix(model, x[:10])
        rows = [predict_matrix(model, np.asarray(row, dtype=float)[None])[0] for row in x[:10]]
        assert np.array_equal(batch, np.array(rows))

    def test_right_child_first_tree_is_refused(self):
        """Numbered right child first, this tree would score x = 0 as node 1
        (10.0) in QuickScorer, which numbers the leaves in node order, where
        a walk from the root reaches node 2 (20.0)."""
        rows = [(0, 0.5, 2, 1, 0.0, 0), (-1, 0.0, -1, -1, 10.0, 1), (-1, 0.0, -1, -1, 20.0, 1)]
        with pytest.raises(ValueError, match="preorder"):
            RegressionTree.from_rows(rows)
        with pytest.raises(ValueError, match="preorder"):
            RegressionTree(*(np.array(col) for col in zip(*rows)))

    def test_empty_tree_is_refused(self):
        with pytest.raises(ValueError, match="at least one node"):
            RegressionTree(*(np.empty(0, dtype=dt) for dt in gbm._NODE_DTYPES))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            predict_matrix(self._toy_model(), np.asarray([1.0], dtype=float)[None])

    def test_non_finite_row(self):
        with pytest.raises(NonFinite):
            predict_matrix(self._toy_model(), np.asarray([np.nan, 0.0], dtype=float)[None])


class TestSerialization:
    def _model(self, synth_xy, n_trees=8):
        x, y = synth_xy
        fm = FeatureMatrix(x, ["ph", "do", "bod", "ec"])
        return gbm_fit(fm, y, Hyperparams(n_trees=n_trees, max_depth=3,
                                          min_samples_split=20, min_samples_leaf=5))

    def test_round_trip_predictions_identical(self, synth_xy):
        model = self._model(synth_xy)
        clone = deserialize_model(serialize_model(model))
        rows = np.random.default_rng(10).uniform(-4, 4, size=(1000, 4))
        assert np.array_equal(predict_matrix(model, rows), predict_matrix(clone, rows))

    def test_round_trip_fields(self, synth_xy):
        model = self._model(synth_xy)
        clone = deserialize_model(serialize_model(model))
        assert clone.f0 == model.f0
        assert clone.hyperparams == model.hyperparams
        assert clone.training_curve == model.training_curve
        assert clone.feature_names == model.feature_names
        assert len(clone.trees) == len(model.trees)
        for ours, theirs in zip(clone.trees, model.trees):
            for name in TREE_FIELDS:
                a, b = getattr(ours, name), getattr(theirs, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("seed", range(6))
    def test_serialize_deserialize_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 400))
        x = np.column_stack([rng.normal(size=n), np.round(rng.uniform(0, 5, size=n)),
                             rng.integers(0, 2, size=n).astype(float)])
        scale = 1e3 ** rng.uniform(-1, 1)
        y = x[:, 0] * rng.normal() + np.cos(x[:, 1]) + rng.normal(0, 0.5, n) * scale
        hp = Hyperparams(n_trees=int(rng.integers(1, 12)),
                         learning_rate=float(rng.uniform(0.01, 1.0)),
                         max_depth=int(rng.integers(0, 6)),
                         min_samples_split=int(rng.integers(2, 40)),
                         min_samples_leaf=int(rng.integers(1, 10)), seed=seed)
        text = serialize_model(gbm_fit(FeatureMatrix(x, ["u", "v", "w"]), y, hp))
        assert serialize_model(deserialize_model(text)) == text

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            deserialize_model("NOT-A-MODEL\nversion 1\n")

    def test_unsupported_version(self, synth_xy):
        text = serialize_model(self._model(synth_xy, n_trees=1))
        lines = text.splitlines()
        lines[1] = "version 99"
        with pytest.raises(UnsupportedVersion):
            deserialize_model("\n".join(lines))

    def test_truncation_never_partial(self, synth_xy):
        text = serialize_model(self._model(synth_xy, n_trees=3))
        lines = text.splitlines()
        for cut in (len(lines) - 1, len(lines) - 5, 15):
            with pytest.raises(ModelFormatError):
                deserialize_model("\n".join(lines[:cut]))

    def test_header_cut_at_a_line_end(self):
        """A file that ends, line end included, after its version line or
        after any header line is a corrupt header, not a short version or an
        IndexError."""
        lines = _small_model_text().splitlines()
        for cut in range(2, 3 + len(gbm._HEADER_KEYS)):
            with pytest.raises(CorruptHeader):
                deserialize_model("\n".join(lines[:cut]) + "\n")

    def test_corrupt_node_line(self, synth_xy):
        text = serialize_model(self._model(synth_xy, n_trees=1))
        with pytest.raises(CorruptNode):
            deserialize_model(text.replace("\nL ", "\nX ", 1))

    def test_out_of_range_child_rejected(self):
        nodes = [("I", 0, 0.5, 1, 7), ("L", 1.0, 1), ("L", 2.0, 1)]
        with pytest.raises(ValueError, match="outside 0..2"):
            tree_of(nodes)
        with pytest.raises(CorruptNode):
            deserialize_model(one_tree_text(nodes, ["a"]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from("ab,\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029") | st.characters(),
                            max_size=3), max_size=4))
    @example(["a\rb", "z"])
    @example(["a\x85b"])
    @example(["a\u2028b"])
    @example(["a\x0cb"])
    @example(["a", "a"])
    def test_feature_names_round_trip_or_refused(self, names):
        """Feature names that serialize_model writes load back as written;
        it refuses any others with ValueError."""
        model = GbmModel(f0=0.0, trees=[], hyperparams=Hyperparams(n_trees=0), training_curve=[0.0],
                         feature_names=names)
        try:
            text = serialize_model(model)
        except ValueError:
            return
        assert deserialize_model(text).feature_names == names

    @pytest.mark.parametrize(("f0", "curve"), [(math.inf, [1.0]), (0.0, [1.0, math.nan]), (0.0, [-math.inf])])
    def test_non_finite_f0_or_curve_refused(self, f0, curve):
        """The writer refuses what the loader would refuse."""
        model = GbmModel(f0=f0, trees=[], hyperparams=Hyperparams(n_trees=0), training_curve=curve)
        with pytest.raises(ValueError, match="f0 and training_curve must be finite"):
            serialize_model(model)

    def test_committed_v1_file_loads_and_writes_back(self):
        """A model file written before the loader read the header in the
        writer's order and each tree in preorder still loads, unchanged."""
        data = (Path(__file__).parent / "data" / "golden_model_v1.txt").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_MODEL_SHA256
        text = data.decode("utf-8")
        assert serialize_model(deserialize_model(text)) == text


class TestPresortedFitter:
    @settings(max_examples=300, deadline=None)
    @given(tied_problems())
    def test_fit_tree_matches_per_node_argsort_bit_for_bit(self, problem):
        x, y, hp = problem
        ours = node_view(fit_tree(x, y, hp))
        ref = argsort_fit_tree(x, y, hp)
        assert [node_bits(node) for node in ours] == [node_bits(node) for node in ref]

    @settings(max_examples=300, deadline=None)
    @given(tied_problems())
    def test_best_split_matches_per_node_argsort_bit_for_bit(self, problem):
        x, y, hp = problem
        got = best_split(x, y, hp.min_samples_leaf)
        want = argsort_best_split(x, y, hp.min_samples_leaf)
        if want is None:
            assert got is None
        else:
            assert (got.feature, float_bits(got.threshold), float_bits(got.sse)) == (
                want.feature, float_bits(want.threshold), float_bits(want.sse))

    def test_boosted_trees_match_per_node_argsort(self):
        x, y = golden_xy()
        model = gbm_fit(x, y, GOLDEN_HP)
        pred = np.full(y.size, np.mean(y))
        for tree in model.trees:
            ref = argsort_fit_tree(x, y - pred, GOLDEN_HP)
            lr = GOLDEN_HP.learning_rate
            scaled = [("L", n[1] * lr, n[2]) if n[0] == "L" else n for n in ref]
            assert [node_bits(n) for n in node_view(tree)] == [node_bits(n) for n in scaled]
            pred = pred + tree_predict(tree, x)

    @settings(max_examples=300, deadline=None)
    @given(offset_problems())
    def test_best_split_matches_brute_force_at_target_offsets(self, problem):
        x, y, hp = problem
        got = best_split(x, y, hp.min_samples_leaf)
        want = ref_best_split(x, y, hp.min_samples_leaf)
        if want is None:
            assert got is None
        else:
            assert (got.feature, got.threshold, got.sse) == want

    @settings(max_examples=300, deadline=None)
    @given(offset_problems())
    def test_fit_tree_matches_brute_force_at_target_offsets(self, problem):
        x, y, hp = problem
        assert flatten_tree(fit_tree(x, y, hp)) == flatten_ref(ref_fit_tree(x, y, hp), [])

    def test_golden_model_sha256(self):
        x, y = golden_xy()
        fm = FeatureMatrix(x, ["a", "b", "c", "d", "e"])
        text = serialize_model(gbm_fit(fm, y, GOLDEN_HP))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_MODEL_SHA256


class TestPackedLists:
    @settings(max_examples=300, deadline=None)
    @given(packing_matrices())
    def test_presort_packs_dense_ranks_and_rows(self, x):
        packed = _presort(x)
        assert packed.dtype == np.int64 and packed.shape == x.shape[::-1]
        assert np.all(np.diff(packed, axis=1) > 0)
        for f, lst in enumerate(packed):
            rows, ranks = lst & _ROW_MASK, lst >> 32
            assert np.array_equal(rows, np.argsort(x[:, f], kind="stable"))
            xs = x[rows, f]
            assert np.array_equal(np.diff(ranks) != 0, xs[:-1] < xs[1:])
            assert np.all(np.diff(ranks) <= 1) and (ranks.size == 0 or ranks[0] == 0)

    def test_presort_row_guard(self):
        with pytest.raises(ValueError):
            _presort(np.broadcast_to(0.0, (2**31, 1)))

    @settings(max_examples=300, deadline=None)
    @given(packing_matrices(), st.data())
    def test_partition_keeps_lists_sorted_and_complete(self, x, data):
        goes_left = np.array(data.draw(st.lists(st.booleans(), min_size=x.shape[0],
                                                max_size=x.shape[0])), dtype=bool)
        packed = _presort(x)
        side = goes_left.take(packed & _ROW_MASK)
        left, right = _child_lists(packed, side), _child_lists(packed, ~side)
        for parent, lo, hi in zip(packed, left, right):
            assert np.all(np.diff(lo) > 0) and np.all(np.diff(hi) > 0)
            assert np.all(goes_left[lo & _ROW_MASK]) and not np.any(goes_left[hi & _ROW_MASK])
            assert np.array_equal(np.sort(np.concatenate((lo, hi))), parent)


class TestLeafChildren:
    """A child that cannot split gets no packed lists, and the tree is still
    the per-node argsort fitter's."""

    def _count_child_lists(self, monkeypatch) -> list:
        calls = []
        real = gbm._child_lists

        def counted(order, side):
            calls.append(order.shape)
            return real(order, side)

        monkeypatch.setattr(gbm, "_child_lists", counted)
        return calls

    @pytest.mark.parametrize("hp", [
        Hyperparams(max_depth=1, min_samples_split=2, min_samples_leaf=1),
        # every root child keeps 41-59 of the 100 rows, below min_samples_split
        Hyperparams(max_depth=8, min_samples_split=60, min_samples_leaf=41),
    ])
    def test_leaf_children_build_no_lists(self, monkeypatch, synth_xy, hp):
        x, y = synth_xy[0][:100], synth_xy[1][:100]
        calls = self._count_child_lists(monkeypatch)
        tree = fit_tree(x, y, hp)
        assert calls == []
        assert tree.feature.size == 3
        ref = argsort_fit_tree(x, y, hp)
        assert [node_bits(n) for n in node_view(tree)] == [node_bits(n) for n in ref]
        model = gbm_fit(x, y, Hyperparams(n_trees=3, max_depth=hp.max_depth,
                                          min_samples_split=hp.min_samples_split,
                                          min_samples_leaf=hp.min_samples_leaf))
        assert calls == [] and all(t.feature.size == 3 for t in model.trees)

    def test_only_splittable_children_get_lists(self, monkeypatch, synth_xy):
        x, y = synth_xy
        hp = Hyperparams(max_depth=3, min_samples_split=40, min_samples_leaf=10)
        calls = self._count_child_lists(monkeypatch)
        tree = fit_tree(x, y, hp)
        ref = argsort_fit_tree(x, y, hp)
        assert [node_bits(n) for n in node_view(tree)] == [node_bits(n) for n in ref]
        # one list set per node that may split: depth below 3, >= 40 rows
        depth = {0: 0}
        splittable = 0
        for i in range(tree.feature.size):
            if tree.feature[i] >= 0:
                for child in (tree.left[i], tree.right[i]):
                    depth[child] = depth[i] + 1
                    if depth[child] < 3 and node_train_count(tree, child) >= 40:
                        splittable += 1
        assert 0 < len(calls) == splittable
        assert all(shape[0] == x.shape[1] for shape in calls)


# ---------------------------------------------------------------------------
# The fitter contract: best_split, fit_tree and gbm_fit check x and y alike,
# whether x comes as a FeatureMatrix or as a bare array.
# ---------------------------------------------------------------------------

CONTRACT_HP = Hyperparams(n_trees=3, max_depth=2, min_samples_split=2, min_samples_leaf=1)
FITTERS = {
    "best_split": lambda x, y: best_split(x, y, 1),
    "fit_tree": lambda x, y: fit_tree(x, y, CONTRACT_HP),
    "gbm_fit": lambda x, y: gbm_fit(x, y, CONTRACT_HP),
}


def named(x) -> FeatureMatrix:
    """x as a FeatureMatrix with the names gbm_fit gives a bare array."""
    return FeatureMatrix(x, [f"f{j}" for j in range(np.shape(x)[-1])])


X3 = [[1.0, 4.0], [2.0, 5.0], [3.0, 7.0]]
Y3 = [1.0, 2.0, 4.0]
MALFORMED = {  # x, y, the error and its message
    "1-D x": ([1.0, 2.0, 3.0], Y3, ValueError, "feature matrix must be 2-D"),
    "3-D x": ([X3], Y3, ValueError, "feature matrix must be 2-D"),
    "2-D y": (X3, [[v] for v in Y3], ValueError, "targets must be 1-D"),
    "short y": (X3, Y3[:2], LengthMismatch, "expected 3, got 2"),
    "long y": (X3, Y3 + [8.0], LengthMismatch, "expected 3, got 4"),
    "rows without targets": (X3, [], LengthMismatch, "expected 3, got 0"),
    "targets without rows": (np.empty((0, 2)), Y3, LengthMismatch, "expected 0, got 3"),
}


class TestFitterContract:
    @pytest.mark.parametrize("wrap", [False, True], ids=["array", "FeatureMatrix"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("fitter", sorted(FITTERS))
    def test_malformed_shapes_rejected(self, fitter, case, wrap):
        x, y, error, message = MALFORMED[case]
        with pytest.raises(error, match=re.escape(message)):
            FITTERS[fitter](named(x) if wrap else x, y)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_non_finite_values_rejected(self, data):
        n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        x = np.arange(n * d, dtype=np.float64).reshape(n, d)
        y = np.arange(n, dtype=np.float64)
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if data.draw(st.booleans()):
            x[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))] = bad
        else:
            y[data.draw(st.integers(0, n - 1))] = bad
        wrap = data.draw(st.booleans())
        for fit in FITTERS.values():
            with pytest.raises(NonFinite):
                fit(named(x) if wrap else x.tolist(), y.tolist())

    @pytest.mark.parametrize("wrap", [False, True], ids=["array", "FeatureMatrix"])
    def test_zero_rows(self, wrap):
        x = np.empty((0, 2))
        assert best_split(named(x) if wrap else x, [], 1) is None
        with pytest.raises(EmptyTargets):
            fit_tree(named(x) if wrap else x, [], CONTRACT_HP)
        with pytest.raises(EmptyTargets):
            gbm_fit(named(x) if wrap else x, [], CONTRACT_HP)

    @settings(max_examples=100, deadline=None)
    @given(tied_problems())
    def test_same_fit_whichever_way_x_is_passed(self, problem):
        x, y, hp = problem
        hp = dataclasses.replace(hp, n_trees=3)
        layouts = [x, np.asfortranarray(x), x.tolist(), named(x)]
        splits = [best_split(xl, y, hp.min_samples_leaf) for xl in layouts]
        trees = [[node_bits(n) for n in node_view(fit_tree(xl, y, hp))] for xl in layouts]
        models = [serialize_model(gbm_fit(xl, y.tolist(), hp)) for xl in layouts]
        for got in (splits, trees, models):
            assert all(g == got[0] for g in got[1:])


def _small_model_text() -> str:
    rng = np.random.default_rng(12)
    x = rng.uniform(-3, 3, size=(60, 3))
    y = x[:, 0] - 2 * (x[:, 1] > 0) + rng.normal(0, 0.1, 60)
    hp = Hyperparams(n_trees=2, max_depth=2, min_samples_split=10, min_samples_leaf=4)
    return serialize_model(gbm_fit(FeatureMatrix(x, ["ph", "do", "bod"]), y, hp))


_FUZZ_TOKENS = ["nan", "-nan", "NaN", "inf", "-inf", "1e999", "0", "-0", "-1", "2", "7",
                "1e308", "-1e308", "5e-324", "1.5", "", "x", "ph", "ph,ph", "tree", "I", "L",
                "99999999999999999999999", "0.10", "1E5", "+1", ".5"]


@st.composite
def one_line_mutations(draw):
    """A serialized model with one line changed: a token swapped, a separator
    respaced, a trailing space added, the whole line replaced, or the line
    deleted or doubled."""
    lines = _small_model_text().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["token", "token", "space", "replace", "delete", "double"]))
    parts = re.split(r"([ =,])", lines[i])  # odd entries are the separators
    if how == "token":
        j = 2 * draw(st.integers(0, len(parts) // 2))
        parts[j] = draw(st.sampled_from(_FUZZ_TOKENS))
        lines[i] = "".join(parts)
    elif how == "space":
        spaces = [j for j in range(1, len(parts), 2) if parts[j] == " "]
        if spaces and draw(st.booleans()):
            parts[draw(st.sampled_from(spaces))] = draw(st.sampled_from(["  ", "\t"]))
        else:
            parts.append(" ")
        lines[i] = "".join(parts)
    elif how == "replace":
        lines[i] = draw(st.text(max_size=30))
    elif how == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


# A hand-written one-tree file in the writer's spelling.
_TINY_MODEL_TEXT = """\
AQUAGAUGE-GBM
version 1
loss=squared_error
n_trees=1
learning_rate=0.10000000000000001
max_depth=8
min_samples_split=200
min_samples_leaf=30
seed=0
f0=0
feature_names=a
training_curve=1,0.5
tree 0 nodes 3
I 0 1.5 1 2
L -0.5 2
L 0.25 3
"""


class TestLoaderRejects:
    def _mutate(self, prefix: str, edit) -> str:
        lines = _small_model_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        lines[i] = edit(lines[i])
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_f0(self, value):
        with pytest.raises(CorruptHeader):
            deserialize_model(self._mutate("f0=", lambda _: f"f0={value}"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate(self, value):
        with pytest.raises(CorruptHeader):
            deserialize_model(self._mutate("learning_rate=", lambda _: f"learning_rate={value}"))

    def test_negative_seed(self):
        with pytest.raises(CorruptHeader, match="seed must be >= 0"):
            deserialize_model(self._mutate("seed=", lambda _: "seed=-5"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_training_curve(self, value):
        text = self._mutate("training_curve=", lambda line: re.sub(r",[^,]+", f",{value}", line, 1))
        with pytest.raises(CorruptHeader):
            deserialize_model(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold(self, value):
        edit = lambda line: " ".join(p if k != 2 else value for k, p in enumerate(line.split()))
        with pytest.raises(CorruptNode):
            deserialize_model(self._mutate("I ", edit))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_leaf_value(self, value):
        with pytest.raises(CorruptNode):
            deserialize_model(self._mutate("L ", lambda line: f"L {value} {line.split()[2]}"))

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_train_count_below_one(self, count):
        with pytest.raises(CorruptNode):
            deserialize_model(self._mutate("L ", lambda line: f"L {line.split()[1]} {count}"))

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("prefix, field", [("I ", 1), ("I ", 3), ("I ", 4), ("L ", 2)])
    def test_integer_outside_int64(self, prefix, field, sign):
        huge = sign + "99999999999999999999999"
        edit = lambda line: " ".join(p if k != field else huge for k, p in enumerate(line.split()))
        with pytest.raises(CorruptNode):
            deserialize_model(self._mutate(prefix, edit))

    @pytest.mark.parametrize("feature", ["-1", "3"])
    def test_feature_index_out_of_range(self, feature):
        # three feature names; an I line is never read as a leaf
        edit = lambda line: " ".join(p if k != 1 else feature for k, p in enumerate(line.split()))
        with pytest.raises(CorruptNode):
            deserialize_model(self._mutate("I ", edit))

    @pytest.mark.parametrize("nodes", [
        pytest.param([("I", 0, 0.5, 1, 2), ("I", 0, 0.2, 2, 3), ("L", 1.0, 1), ("L", 2.0, 1)],
                     id="two-parents"),
        pytest.param([("I", 0, 0.5, 1, 2), ("L", 1.0, 1), ("I", 0, 0.7, 0, 3), ("L", 2.0, 1)],
                     id="root-as-child"),
        pytest.param([("I", 0, 0.5, 1, 2), ("I", 0, 0.2, 1, 3), ("L", 1.0, 1), ("L", 2.0, 1)],
                     id="self-loop"),
        pytest.param([("L", 1.0, 1), ("I", 0, 0.5, 1, 2), ("L", 2.0, 1)],
                     id="unreachable-self-loop"),
        pytest.param([("I", 0, 0.5, 1, 2), ("L", 1.0, 1), ("L", 2.0, 1), ("I", 0, 0.5, 4, 5),
                      ("I", 0, 0.5, 3, 6), ("L", 3.0, 1), ("L", 4.0, 1)], id="unreachable-cycle"),
        pytest.param([("I", 0, 0.5, 2, 1), ("L", 1.0, 1), ("L", 2.0, 1)], id="right-child-first"),
        pytest.param([("I", 0, 0.5, 1, 2), ("L", 1.0, 1), ("I", 0, 0.7, 3, 0)], id="left-child-past-the-end"),
        pytest.param([("I", 0, 0.5, 1, 2), ("I", 0, 0.2, 3, 4), ("L", 1.0, 1), ("L", 2.0, 1),
                      ("L", 3.0, 1)], id="breadth-first"),
    ])
    def test_not_one_tree(self, nodes):
        with pytest.raises(ValueError):
            tree_of(nodes)
        with pytest.raises(CorruptNode):
            deserialize_model(one_tree_text(nodes, ["a"]))

    def test_right_id_equal_to_node_count_rejected(self):
        # popped at the last leaf, a right id of 3 would read as the block's end
        text = _TINY_MODEL_TEXT.replace("I 0 1.5 1 2\nL -0.5 2\n", "I 0 1.5 1 2\nI 0 0.5 2 3\n")
        with pytest.raises(CorruptNode):
            deserialize_model(text)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_preorder_tree_loads_and_relabelled_tree_does_not(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        nodes = draw_preorder_nodes(data.draw, [finite] * 3, finite)
        model = GbmModel(f0=0.0, trees=[tree_of(nodes)], hyperparams=Hyperparams(),
                         training_curve=[0.0, 0.0], feature_names=["a", "b", "c"])
        (got,) = deserialize_model(serialize_model(model)).trees
        for name in TREE_FIELDS:
            want = getattr(model.trees[0], name)
            assert getattr(got, name).dtype == want.dtype
            assert getattr(got, name).tobytes() == want.tobytes(), name

        assume(len(nodes) >= 3)
        perm = data.draw(st.permutations(range(1, len(nodes))))
        assume(perm != list(range(1, len(nodes))))
        new_id = [0, *perm]  # node 0 stays the root
        relabelled = [None] * len(nodes)
        for old, node in enumerate(nodes):
            relabelled[new_id[old]] = node if node[0] == "L" else (*node[:3], new_id[node[3]], new_id[node[4]])
        with pytest.raises(ValueError):
            tree_of(relabelled)
        with pytest.raises(CorruptNode):
            deserialize_model(one_tree_text(relabelled, ["a", "b", "c"]))

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(range(len(gbm._HEADER_KEYS))))
    @example([0, 1, 2, 3, 4, 5, 6, 8, 7, 9])  # f0 and feature_names swapped
    def test_header_lines_out_of_order(self, perm):
        assume(perm != sorted(perm))
        lines = _small_model_text().splitlines()
        header = lines[2 : 2 + len(perm)]
        lines[2 : 2 + len(perm)] = [header[i] for i in perm]
        with pytest.raises(CorruptHeader):
            deserialize_model("\n".join(lines) + "\n")

    def test_non_ascii_digits_in_tree_block_header(self):
        arabic_indic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
        with pytest.raises(CorruptNode):
            deserialize_model(self._mutate("tree 0 ", lambda line: line.translate(arabic_indic)))

    # int() and float() read Unicode decimal digits, '_' separators and
    # surrounding whitespace; the writer writes none of them, so a file
    # holding one would load and write back other bytes.
    def test_non_ascii_digits_in_internal_node(self):
        arabic_indic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")  # such as `I ٠ ٠.٥ ١ ٢`
        with pytest.raises(CorruptNode, match="not the writer's spelling"):
            deserialize_model(self._mutate("I ", lambda line: line.translate(arabic_indic)))

    def test_non_ascii_digits_in_leaf(self):
        fullwidth = str.maketrans("0123456789", "０１２３４５６７８９")  # such as `L -0.05 ２`
        with pytest.raises(CorruptNode, match="not the writer's spelling"):
            deserialize_model(self._mutate("L ", lambda line: line.translate(fullwidth)))

    @pytest.mark.parametrize("edit", [
        lambda value: "0_" + value,  # such as `n_trees=0_2`
        lambda value: " " + value,
        lambda value: value.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    ], ids=["underscore", "space", "fullwidth"])
    @pytest.mark.parametrize("key", [*(name for name, _ in gbm._HP_FIELDS), "f0", "training_curve"])
    def test_header_numeral_that_is_not_ascii(self, key, edit):
        text = self._mutate(key + "=", lambda line: f"{key}={edit(line.partition('=')[2])}")
        with pytest.raises(CorruptHeader, match="not the writer's spelling"):
            deserialize_model(text)

    # The writer spells every integer str(int): a '+' or a leading zero would
    # load and write back other bytes.
    _NOT_STR_INT = pytest.mark.parametrize("edit", [lambda value: "+" + value, lambda value: "0" + value],
                                           ids=["plus", "leading-zero"])

    @_NOT_STR_INT
    @pytest.mark.parametrize("key", [name for name, kind in gbm._HP_FIELDS if kind is int])
    def test_header_integer_not_spelt_as_written(self, key, edit):
        text = self._mutate(key + "=", lambda line: f"{key}={edit(line.partition('=')[2])}")
        with pytest.raises(CorruptHeader, match="not the writer's spelling"):
            deserialize_model(text)

    @_NOT_STR_INT
    @pytest.mark.parametrize("prefix,field", [("I ", 1), ("I ", 3), ("I ", 4), ("L ", 2)],
                             ids=["feature", "left", "right", "count"])
    def test_node_integer_not_spelt_as_written(self, prefix, field, edit):
        def change(line):
            parts = line.split(" ")
            parts[field] = edit(parts[field])
            return " ".join(parts)

        with pytest.raises(CorruptNode, match="not the writer's spelling"):
            deserialize_model(self._mutate(prefix, change))

    @pytest.mark.parametrize("old,new", [("tree 0 ", "tree 00 "), (" nodes ", " nodes 0")],
                             ids=["tree", "nodes"])
    def test_tree_header_integer_with_leading_zero(self, old, new):
        with pytest.raises(CorruptNode, match="bad tree block header"):
            deserialize_model(self._mutate("tree 0 ", lambda line: line.replace(old, new)))

    def test_key_after_training_curve_is_a_bad_tree_header(self):
        with pytest.raises(CorruptNode, match="bad tree block header"):
            deserialize_model(self._mutate("training_curve=", lambda line: line + "\nseed=0"))

    def test_duplicate_feature_names(self):
        with pytest.raises(CorruptHeader):
            deserialize_model(self._mutate("feature_names=", lambda _: "feature_names=ph,do,ph"))

    def test_duplicate_header_key(self):
        with pytest.raises(CorruptHeader):
            deserialize_model(self._mutate("training_curve=", lambda _: "f0=1.0"))

    def test_unknown_header_key(self):
        with pytest.raises(CorruptHeader):
            deserialize_model(self._mutate("f0=", lambda line: line + "\nbogus=1"))

    @pytest.mark.parametrize("names", [",ph,do,bod", "ph,,do,bod", "ph,do,bod,"])
    def test_empty_feature_name(self, names):
        with pytest.raises(CorruptHeader):
            deserialize_model(self._mutate("feature_names=", lambda _: f"feature_names={names}"))

    @pytest.mark.parametrize("edit", [lambda line: line.replace("=", "=,", 1),
                                      lambda line: line.replace(",", ",,", 1),
                                      lambda line: line + ","], ids=["leading", "inner", "trailing"])
    def test_empty_training_curve_token(self, edit):
        with pytest.raises(CorruptHeader):
            deserialize_model(self._mutate("training_curve=", edit))

    def test_absent_training_curve_rejected(self):
        lines = [line for line in _small_model_text().splitlines() if not line.startswith("training_curve=")]
        with pytest.raises(CorruptHeader, match="expected training_curve="):
            deserialize_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit", [lambda text: text.replace("\n", "\r\n"), lambda text: text[:-1],
                                      lambda text: text + "tree 2 nodes 1"],
                             ids=["crlf", "last-line-end-missing", "unterminated-extra-line"])
    def test_line_ends_not_the_writers(self, edit):
        with pytest.raises(ModelFormatError):
            deserialize_model(edit(_small_model_text()))

    def test_empty_feature_names_value_loads(self):
        model = GbmModel(f0=1.5, trees=[], hyperparams=Hyperparams(n_trees=0), training_curve=[0.25])
        text = serialize_model(model)
        assert "\nfeature_names=\n" in text
        assert deserialize_model(text).feature_names == []

    def test_unmutated_text_loads(self):
        assert deserialize_model(_small_model_text()).feature_names == ["ph", "do", "bod"]
        assert serialize_model(deserialize_model(_TINY_MODEL_TEXT)) == _TINY_MODEL_TEXT

    @settings(max_examples=400, deadline=None)
    @given(one_line_mutations())
    @example(_TINY_MODEL_TEXT.replace("\nI 0 1.5 1 2\n", "\nI  0 1.5 1 2\n"))
    @example(_TINY_MODEL_TEXT.replace("\nI 0 1.5 1 2\n", "\nI\t0 1.5 1 2\n"))
    @example(_TINY_MODEL_TEXT.replace("\nL -0.5 2\n", "\nL  -0.5 2\n"))
    @example(_TINY_MODEL_TEXT.replace("\nL -0.5 2\n", "\nL -0.5 2 \n"))
    def test_one_line_mutation_loads_finite_or_raises(self, text):
        """A mutated file either is refused or is exactly what the writer
        writes for the model it loads, and that model predicts finite values."""
        try:
            model = deserialize_model(text)
        except ModelFormatError:
            return
        assert serialize_model(model) == text
        rows = np.random.default_rng(13).uniform(-1e3, 1e3, size=(50, len(model.feature_names)))
        assert np.all(np.isfinite(predict_matrix(model, rows)))
