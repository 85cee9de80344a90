"""Gradient-boosted regression trees, built from scratch.

Squared-error boosting with CART base learners: start from the constant that
minimizes the loss (the target mean), then per iteration fit a binary
regression tree to the residuals, set each leaf to the loss-minimizing step
for its members (the mean residual, the closed-form line search for squared
error), shrink by the learning rate, and add the tree to the ensemble. The
training curve records the training MSE after every iteration and is
non-increasing by construction.

A tree is a RegressionTree of parallel node arrays, as in scikit-learn's Tree
(Pedregosa et al., 2011). tree_apply is the one traversal, for prediction; the
fit knows each training row's leaf as it grows the tree. gbm_fit multiplies
each fitted tree's values by the learning rate.

Fitting is deterministic: split thresholds are midpoints between consecutive
distinct sorted feature values, candidate ties break toward the lower
(feature index, threshold), and there is no row or feature subsampling. Two
fits of the same data with the same hyperparameters serialize byte-identically.

The split search is exact and presorted, after the attribute lists of SLIQ
(Mehta et al., 1996) and the exact-greedy column blocks of XGBoost (Chen and
Guestrin, 2016). gbm_fit sorts each feature column once into a packed list of
int64 codes, (dense rank of the value << 32) | row; every tree starts from
those lists, and each split stably partitions them between its two children,
so no node sorts. A node's lists stay strictly ascending, so each is the
node's own stable sort. A candidate cut is a rank change between neighbouring
positions, so the scan reads no feature values.

Each node centres its residuals on the node mean and takes one cumulative sum
per feature. A cut with k of the node's n rows on the left, left sum S_L and
right sum S_R has SSE parent_sse - (S_L**2 / k + S_R**2 / (n - k)), the gain
form of XGBoost, so no sum of squares is taken, and the centring keeps a large
target offset from swamping the sums. Every candidate whose scanned gain is
within a hair of the best is re-scored with the exact two-pass SSE, and that
re-score picks the split. The chosen (feature, threshold, sse) is that of
direct enumeration, and the models are byte-identical to those of sorting and
scanning every feature at every node.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import AquagaugeError, LengthMismatch, NonFinite

MODEL_MAGIC = "AQUAGAUGE-GBM"
MODEL_VERSION = 1
SQUARED_ERROR = "squared_error"

# Candidates whose scanned score lands this close (relative to the node SSE)
# to the scanned optimum are re-scored exactly before the final choice.
_NEAR_TIE_RELATIVE_MARGIN = 1e-8


class GbmError(AquagaugeError):
    pass


class EmptyTargets(GbmError):
    def __init__(self):
        super().__init__("targets are empty")


class EmptyLeaf(GbmError):
    def __init__(self):
        super().__init__("leaf has no members")


class ArityMismatch(GbmError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"row has {got} features, model expects {expected}")
        self.expected = expected
        self.got = got


class ModelFormatError(GbmError):
    pass


class BadMagic(ModelFormatError):
    def __init__(self):
        super().__init__(f"model text does not start with {MODEL_MAGIC!r}")


class UnsupportedVersion(ModelFormatError):
    def __init__(self, version: str):
        super().__init__(f"unsupported model format version: {version!r}")
        self.version = version


class CorruptHeader(ModelFormatError):
    def __init__(self, detail: str):
        super().__init__(f"corrupt model header: {detail}")


class CorruptNode(ModelFormatError):
    def __init__(self, index: int, detail: str):
        super().__init__(f"corrupt node {index}: {detail}")
        self.index = index


@dataclass(frozen=True)
class Hyperparams:
    """Boosting hyperparameters. `seed` is the CLI `--seed` of the station
    split, recorded so that the model file names the split that produced it;
    the deterministic fitter never reads it."""

    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 8
    min_samples_split: int = 200
    min_samples_leaf: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError("n_trees must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass
class FeatureMatrix:
    """Row-major feature matrix with named columns; all values finite."""

    values: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if not np.all(np.isfinite(self.values)):
            raise NonFinite(None, context="feature matrix")
        self.feature_names = list(self.feature_names)
        if len(self.feature_names) != self.values.shape[1]:
            raise LengthMismatch(self.values.shape[1], len(self.feature_names))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


_NODE_DTYPES = (np.intp, np.float64, np.intp, np.intp, np.float64, np.intp)


@dataclass(eq=False)  # == on array fields has no single truth value; compare the arrays
class RegressionTree:
    """Binary CART tree as parallel node arrays; node 0 is the root. Node i
    is a leaf when feature[i] < 0, with output value[i] and training row count
    count[i]; otherwise rows with x[feature[i]] <= threshold[i] go to left[i]
    and the rest to right[i]. Unused fields hold -1 or 0."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> RegressionTree:
        """A tree from one (feature, threshold, left, right, value, count) per node."""
        return cls(*(np.array(col, dtype=dt) for col, dt in zip(zip(*rows), _NODE_DTYPES)))


@dataclass(frozen=True)
class SplitCandidate:
    feature: int
    threshold: float
    sse: float


@dataclass
class GbmModel:
    f0: float
    trees: list[RegressionTree]
    hyperparams: Hyperparams
    loss: str = SQUARED_ERROR
    training_curve: list[float] = field(default_factory=list)
    feature_names: list[str] = field(default_factory=list)


def init_constant(targets) -> float:
    """The squared-error-optimal constant model: the target mean."""
    y = np.asarray(targets, dtype=np.float64)
    if y.size == 0:
        raise EmptyTargets()
    return float(np.mean(y))


def negative_gradient(targets, predictions) -> np.ndarray:
    """Residuals y - f, the negative gradient of 0.5*(y - f)^2."""
    y = np.asarray(targets, dtype=np.float64)
    f = np.asarray(predictions, dtype=np.float64)
    if y.shape != f.shape:
        raise LengthMismatch(y.size, f.size)
    return y - f


def line_search_leaf(residuals_in_leaf) -> float:
    """Optimal per-leaf step for squared error: the mean residual."""
    r = np.asarray(residuals_in_leaf, dtype=np.float64)
    if r.size == 0:
        raise EmptyLeaf()
    return float(np.mean(r))


def _sse(values: np.ndarray) -> float:
    """Sum of squared deviations from the mean, two-pass."""
    if values.size < 2:
        return 0.0
    return float(np.sum((values - values.mean()) ** 2))


def _matrix_values(rows) -> np.ndarray:
    if isinstance(rows, FeatureMatrix):
        return rows.values
    return np.asarray(rows, dtype=np.float64)


_ROW_MASK = 0xFFFFFFFF


def _presort(x: np.ndarray) -> np.ndarray:
    """Every feature's packed attribute list: one int64 per (feature, sorted
    position), (dense rank of the value << 32) | row, in stable ascending
    order of the values (shape n_features x n_rows).

    Ranks step exactly where the sorted values increase (-0.0 and 0.0 share a
    rank), and rows of equal value stay ascending, so each feature's list is
    strictly ascending as integers.
    """
    if x.shape[0] > np.iinfo(np.int32).max:
        raise ValueError("too many rows for 32-bit row fields")
    order = np.argsort(x, axis=0, kind="stable").T
    xs = np.take_along_axis(x.T, order, axis=1)
    packed = np.zeros(order.shape, dtype=np.int64)
    np.cumsum(xs[:, :-1] < xs[:, 1:], axis=1, out=packed[:, 1:])
    del xs
    packed <<= 32
    packed |= order
    return packed


def _split_node(
    x: np.ndarray, y: np.ndarray, rows: np.ndarray, order: np.ndarray, msl: int
) -> tuple[SplitCandidate, np.ndarray, np.ndarray] | None:
    """best_split for the node holding `rows` (ascending) of x and y, whose
    packed attribute lists (see _presort) are `order`, with the split's left
    mask over `rows` and the row of each entry of `order`.

    A stable sort of a whole column, restricted to the node's ascending rows,
    is the node's own stable sort, so the scan below sees the node's values in
    the order that sorting the node would give them.
    """
    n = rows.size
    if n < 2 or n < 2 * msl:
        return None
    # Candidates: sorted positions k - 1 that end a left side of k rows,
    # msl <= k <= n - msl, between two distinct values (ranks) of the feature.
    ranks = order >> 32
    cut = np.zeros(order.shape, dtype=bool)
    np.less(ranks[:, msl - 1 : n - msl], ranks[:, msl : n - msl + 1], out=cut[:, msl - 1 : n - msl])
    del ranks
    pos = np.flatnonzero(cut)
    del cut
    if pos.size == 0:
        return None
    features = pos // n
    ks = pos - features * n + 1

    y_node = y.take(rows)
    parent_sse = _sse(y_node)
    # Centred on the node mean, the left sums S_L stay small at any target
    # offset, and the split SSE is parent_sse - (S_L**2 / k + S_R**2 / (n - k)),
    # so one cumulative sum scores every candidate by its gain.
    sorted_rows = order & _ROW_MASK
    ys = y.take(sorted_rows)
    ys -= y_node.mean()
    csum = np.cumsum(ys, axis=1, out=ys)
    left_sum = csum.ravel()[pos]
    right_sum = csum[:, -1].take(features)
    right_sum -= left_sum
    del ys, csum
    np.square(left_sum, out=left_sum)
    left_sum /= ks
    np.square(right_sum, out=right_sum)
    right_sum /= n - ks
    gain = np.add(left_sum, right_sum, out=left_sum)

    margin = _NEAR_TIE_RELATIVE_MARGIN * max(parent_sse, 1.0)
    shortlist = []
    for i in np.flatnonzero(gain >= gain.max() - margin):
        f, k = int(features[i]), int(ks[i])
        a, b = sorted_rows[f, k - 1], sorted_rows[f, k]
        shortlist.append((f, float(0.5 * (x[a, f] + x[b, f]))))

    best: tuple[SplitCandidate, np.ndarray] | None = None
    for f, thr in sorted(shortlist):
        mask = x[rows, f] <= thr
        n_left = int(mask.sum())
        if n_left < msl or n - n_left < msl:
            continue
        exact = _sse(y_node[mask]) + _sse(y_node[~mask])
        if best is None or exact < best[0].sse:
            best = SplitCandidate(feature=f, threshold=thr, sse=exact), mask
    if best is None or not parent_sse - best[0].sse > 0.0:
        return None
    return (*best, sorted_rows)


def best_split(rows, targets, min_samples_leaf: int = 1) -> SplitCandidate | None:
    """Exhaustive best two-leaf split by total SSE, or None when infeasible.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature; both sides must keep at least min_samples_leaf
    rows and the split must strictly reduce the node SSE. Candidates are
    scanned with prefix sums, then everything within a hair of the scanned
    optimum is re-scored with the exact two-pass SSE so that the returned
    (feature, threshold, sse) matches direct enumeration, ties resolved
    toward the lower (feature, threshold).
    """
    x = _matrix_values(rows)
    y = np.asarray(targets, dtype=np.float64)
    n, _ = x.shape
    if n != y.size:
        raise LengthMismatch(n, y.size)
    split = _split_node(x, y, np.arange(n, dtype=np.int32), _presort(x), min_samples_leaf)
    return None if split is None else split[0]


def _partition(order: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every feature's packed list by `side`, True where an entry goes
    left, keeping order."""
    side = side.ravel()
    flat = order.ravel()
    n_features = order.shape[0]
    left = np.compress(side, flat).reshape(n_features, -1)
    return left, np.compress(~side, flat).reshape(n_features, -1)


def fit_tree(rows, residuals, hp: Hyperparams) -> RegressionTree:
    """Greedy CART on residuals. A node splits only while its row count is at
    least min_samples_split and its depth is below max_depth; leaves carry the
    mean residual and their training row count. Nodes are numbered in
    preorder (left subtree first).
    """
    x = _matrix_values(rows)
    r = np.asarray(residuals, dtype=np.float64)
    if r.size == 0:
        raise EmptyTargets()
    if x.shape[0] != r.size:
        raise LengthMismatch(x.shape[0], r.size)
    return _grow(x, r, hp, _presort(x))[0]


def _grow(
    x: np.ndarray, r: np.ndarray, hp: Hyperparams, order: np.ndarray
) -> tuple[RegressionTree, np.ndarray]:
    """fit_tree on checked arrays whose packed attribute lists are `order`
    (gbm_fit shares one _presort among its trees). Also returns the leaf id
    of every row."""
    goes_left = np.zeros(r.size, dtype=bool)
    leaf_of = np.empty(r.size, dtype=np.intp)
    # one [feature, threshold, left, right, value, count] per node; an internal
    # node's right id is filled in when its right child is made
    nodes: list[list] = []
    # (rows ascending, packed attribute lists, depth, parent id if a right child)
    stack = [(np.arange(r.size, dtype=np.int32), order, 0, -1)]
    while stack:
        idx, order, depth, parent = stack.pop()
        node_id = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node_id
        split = None
        if depth < hp.max_depth and idx.size >= hp.min_samples_split:
            split = _split_node(x, r, idx, order, hp.min_samples_leaf)
        if split is None:
            nodes.append([-1, 0.0, -1, -1, line_search_leaf(r[idx]), idx.size])
            leaf_of[idx] = node_id
            continue
        cand, mask, sorted_rows = split
        nodes.append([cand.feature, cand.threshold, node_id + 1, -1, 0.0, 0])
        goes_left[idx] = mask
        left_order, right_order = _partition(order, goes_left.take(sorted_rows))
        stack.append((idx[~mask], right_order, depth + 1, node_id))
        stack.append((idx[mask], left_order, depth + 1, -1))
        del order, split, sorted_rows, left_order, right_order  # the stack owns the child lists now
    return RegressionTree.from_rows(nodes), leaf_of


def _levels(tree: RegressionTree, node_id: int = 0):
    """The node ids of the subtree under node_id, one array per depth."""
    level = np.array([node_id], dtype=np.intp)
    while level.size:
        yield level
        inner = level[tree.feature[level] >= 0]
        level = np.concatenate((tree.left[inner], tree.right[inner]))


def tree_depth(tree: RegressionTree) -> int:
    return sum(1 for _ in _levels(tree)) - 1


def node_train_count(tree: RegressionTree, node_id: int = 0) -> int:
    """Training rows under a node, summed from its leaves."""
    return sum(int(tree.count[level].sum()) for level in _levels(tree, node_id))


def tree_apply(tree: RegressionTree, x: np.ndarray) -> np.ndarray:
    """Vectorized leaf-value lookup for every row of x."""
    out = np.empty(x.shape[0], dtype=np.float64)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node_id, idx = stack.pop()
        f = tree.feature[node_id]
        if f < 0:
            out[idx] = tree.value[node_id]
        else:
            mask = x[idx, f] <= tree.threshold[node_id]
            stack.append((tree.left[node_id], idx[mask]))
            stack.append((tree.right[node_id], idx[~mask]))
    return out


def gbm_fit(x, y, hp: Hyperparams = Hyperparams()) -> GbmModel:
    """Run the boosting loop and return the fitted ensemble.

    Leaf values are stored with the learning rate already applied, so
    prediction is plainly f0 plus the sum of tree outputs. training_curve[0]
    is the loss of the constant model; entry t is the training MSE after
    adding tree t.
    """
    if isinstance(x, FeatureMatrix):
        fm = x
    else:
        arr = np.asarray(x, dtype=np.float64)
        fm = FeatureMatrix(arr, [f"f{j}" for j in range(arr.shape[1])])
    targets = np.asarray(y, dtype=np.float64)
    if targets.size == 0:
        raise EmptyTargets()
    if fm.n_rows != targets.size:
        raise LengthMismatch(fm.n_rows, targets.size)
    if not np.all(np.isfinite(targets)):
        raise NonFinite(None, context="targets")

    f0 = init_constant(targets)
    pred = np.full(targets.size, f0, dtype=np.float64)
    curve = [float(np.mean((targets - pred) ** 2))]
    trees: list[RegressionTree] = []
    presorted = _presort(fm.values)
    for _ in range(hp.n_trees):
        resid = negative_gradient(targets, pred)
        tree, leaf_of = _grow(fm.values, resid, hp, presorted)
        tree.value *= hp.learning_rate
        pred = pred + tree.value[leaf_of]
        trees.append(tree)
        curve.append(float(np.mean((targets - pred) ** 2)))
    return GbmModel(
        f0=f0,
        trees=trees,
        hyperparams=hp,
        loss=SQUARED_ERROR,
        training_curve=curve,
        feature_names=list(fm.feature_names),
    )


def gbm_predict(model: GbmModel, row) -> float:
    """Ensemble prediction for one feature row: predict_matrix of that row."""
    return float(predict_matrix(model, np.asarray(row, dtype=np.float64).reshape(1, -1))[0])


def predict_matrix(model: GbmModel, x: np.ndarray) -> np.ndarray:
    """Ensemble predictions for every row of x: f0 plus every tree's output."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(model.feature_names):
        raise ArityMismatch(len(model.feature_names), x.shape[1] if x.ndim == 2 else -1)
    if not np.all(np.isfinite(x)):
        raise NonFinite(None, context="feature matrix")
    out = np.full(x.shape[0], model.f0, dtype=np.float64)
    for tree in model.trees:
        out += tree_apply(tree, x)
    return out


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _finite(text: str) -> float:
    """float(text), raising ValueError for NaN and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


# Each Hyperparams field, in declaration order, which is its order in the
# model header, with the parser of its header value.
_HP_FIELDS = [(f.name, _finite if isinstance(f.default, float) else int) for f in fields(Hyperparams)]


def serialize_model(model: GbmModel) -> str:
    """Write a model to the line-oriented text format (exact round trip)."""
    for name in model.feature_names:
        if not name or "," in name or "\n" in name:
            raise ValueError(f"feature name not serializable: {name!r}")
    hp = model.hyperparams
    lines = [
        MODEL_MAGIC,
        f"version {MODEL_VERSION}",
        f"loss={model.loss}",
        *(f"{name}={(_fmt if parse is _finite else str)(getattr(hp, name))}" for name, parse in _HP_FIELDS),
        f"f0={_fmt(model.f0)}",
        "feature_names=" + ",".join(model.feature_names),
        "training_curve=" + ",".join(_fmt(v) for v in model.training_curve),
    ]
    for t, tree in enumerate(model.trees):
        lines.append(f"tree {t} nodes {tree.feature.size}")
        columns = (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.count)
        for f, thr, left, right, value, count in zip(*(c.tolist() for c in columns)):
            if f < 0:
                lines.append(f"L {_fmt(value)} {count}")
            else:
                lines.append(f"I {f} {_fmt(thr)} {left} {right}")
    return "\n".join(lines) + "\n"


_TREE_HEADER_RE = re.compile(r"^tree (\d+) nodes (\d+)$")


def _int_in(text: str, lo: int, hi: int) -> int:
    """int(text), raising ValueError unless lo <= value < hi."""
    value = int(text)
    if not lo <= value < hi:
        raise ValueError(f"{text!r} is outside [{lo}, {hi})")
    return value


def _checked_tree(rows: list[tuple]) -> RegressionTree:
    """The tree of parsed node rows, whose fields the parser has range-checked.
    Rejects any node graph but one tree rooted at node 0."""
    tree = RegressionTree.from_rows(rows)
    k = tree.feature.size
    inner = tree.feature >= 0
    parents = np.bincount(np.concatenate((tree.left[inner], tree.right[inner])), minlength=k)
    if parents[0] != 0:
        raise CorruptNode(0, "root has a parent")
    bad = np.flatnonzero(parents[1:] != 1) + 1
    if bad.size:
        raise CorruptNode(int(bad[0]), f"node has {parents[bad[0]]} parents, expected 1")
    # One parent per non-root node still allows a cycle apart from the root
    # (an unreachable self-loop, say), so the root must reach every node.
    if sum(level.size for level in _levels(tree)) != k:
        raise CorruptNode(0, "not every node is reachable from the root")
    return tree


def deserialize_model(text: str) -> GbmModel:
    """Parse the text format back into a model; rejects anything malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise BadMagic()
    if len(lines) < 2 or not lines[1].startswith("version "):
        raise UnsupportedVersion(lines[1] if len(lines) > 1 else "<missing>")
    version = lines[1][len("version ") :]
    if version != str(MODEL_VERSION):
        raise UnsupportedVersion(version)

    required = ("loss", *(name for name, _ in _HP_FIELDS), "f0", "feature_names")
    header: dict[str, str] = {}
    pos = 2
    while pos < len(lines) and not lines[pos].startswith("tree "):
        line = lines[pos]
        if "=" not in line:
            raise CorruptHeader(f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        if key not in required and key != "training_curve":
            raise CorruptHeader(f"unknown key {key!r}")
        if key in header:
            raise CorruptHeader(f"duplicate key {key!r}")
        header[key] = value
        pos += 1

    for key in required:
        if key not in header:
            raise CorruptHeader(f"missing key {key!r}")
    if header["loss"] != SQUARED_ERROR:
        raise CorruptHeader(f"unknown loss {header['loss']!r}")
    try:
        hp = Hyperparams(**{name: parse(header[name]) for name, parse in _HP_FIELDS})
        f0 = _finite(header["f0"])
    except ValueError as exc:
        raise CorruptHeader(str(exc)) from exc
    feature_names = header["feature_names"].split(",") if header["feature_names"] else []
    if "" in feature_names:
        raise CorruptHeader("empty feature name")
    if len(set(feature_names)) != len(feature_names):
        raise CorruptHeader("duplicate feature names")
    curve_text = header.get("training_curve", "")
    try:
        curve = [_finite(tok) for tok in curve_text.split(",")] if curve_text else []
    except ValueError as exc:
        raise CorruptHeader(f"bad training_curve: {exc}") from exc

    trees: list[RegressionTree] = []
    while pos < len(lines):
        m = _TREE_HEADER_RE.match(lines[pos])
        if not m or int(m.group(1)) != len(trees):
            raise CorruptNode(0, f"bad tree block header: {lines[pos]!r}")
        k = int(m.group(2))
        if k < 1:
            raise CorruptNode(0, "tree has no nodes")
        pos += 1
        nodes = []
        for j in range(k):
            if pos >= len(lines):
                raise CorruptNode(j, "unexpected end of input inside tree block")
            parts = lines[pos].split()
            pos += 1
            try:
                if parts and parts[0] == "I" and len(parts) == 5:
                    feature = _int_in(parts[1], 0, len(feature_names))
                    left, right = _int_in(parts[3], 0, k), _int_in(parts[4], 0, k)
                    nodes.append((feature, _finite(parts[2]), left, right, 0.0, 0))
                elif parts and parts[0] == "L" and len(parts) == 3:
                    # train_count >= 1, and < 2**63 to fit the count array
                    nodes.append((-1, 0.0, -1, -1, _finite(parts[1]), _int_in(parts[2], 1, 2**63)))
                else:
                    raise CorruptNode(j, f"unrecognized node line: {' '.join(parts)!r}")
            except ValueError as exc:
                raise CorruptNode(j, f"bad numeric field: {exc}") from exc
        trees.append(_checked_tree(nodes))

    if len(trees) > hp.n_trees:
        raise CorruptHeader(f"file holds {len(trees)} trees but n_trees={hp.n_trees}")
    # A curve written at fit time pins the tree count, so a file truncated at
    # a tree-block boundary cannot pass for a smaller model.
    if curve and len(curve) != len(trees) + 1:
        raise CorruptHeader(
            f"training_curve has {len(curve)} entries but file holds {len(trees)} trees"
        )
    return GbmModel(
        f0=f0,
        trees=trees,
        hyperparams=hp,
        loss=header["loss"],
        training_curve=curve,
        feature_names=feature_names,
    )
