"""Gradient-boosted regression trees, built from scratch.

Squared-error boosting with CART base learners: start from the constant that
minimizes the loss (the target mean), then per iteration fit a binary
regression tree to the residuals, set each leaf to the loss-minimizing step
for its members (the mean residual, the closed-form line search for squared
error), shrink by the learning rate, and add the tree to the ensemble. The
training curve records the training MSE after every iteration and is
non-increasing by construction.

A tree is a RegressionTree of parallel node arrays, as in scikit-learn's Tree
(Pedregosa et al., 2011). tree_apply is the one traversal, for the fit and for
prediction; gbm_fit multiplies each fitted tree's values by the learning rate.

Fitting is deterministic: split thresholds are midpoints between consecutive
distinct sorted feature values, candidate ties break toward the lower
(feature index, threshold), and there is no row or feature subsampling. Two
fits of the same data with the same hyperparameters serialize byte-identically.

The split search is exact and presorted, after the attribute lists of SLIQ
(Mehta et al., 1996) and the exact-greedy column blocks of XGBoost (Chen and
Guestrin, 2016). gbm_fit stably argsorts each feature column once, every tree
starts from those sorted row lists, and each split stably partitions them
between its two children, so no node sorts. A node's rows stay in ascending
order, so a stable sort of a whole column restricted to them is the node's own
stable sort: the prefix sums see the same values in the same order, and the
models are byte-identical to those of sorting every feature at every node.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


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


def _presort(x: np.ndarray) -> np.ndarray:
    """Every feature's row indices in stable ascending order of its values,
    one int32 row per feature (shape n_features x n_rows)."""
    if x.shape[0] > np.iinfo(np.int32).max:
        raise ValueError("too many rows for int32 row lists")
    return np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T, dtype=np.int32)


def _split_node(
    x: np.ndarray, y: np.ndarray, rows: np.ndarray, order: np.ndarray, msl: int
) -> SplitCandidate | None:
    """best_split for the node holding `rows` (ascending) of x and y, whose
    per-feature row lists in stable sorted order are `order`.

    A stable sort of a whole column, restricted to the node's ascending rows,
    is the node's own stable sort, so the prefix sums below see the same
    values in the same order as sorting the node would give them.
    """
    n = rows.size
    if n < 2 or n < 2 * msl:
        return None
    index = order.astype(np.intp)  # one index conversion for both gathers
    # Candidates: sorted positions k - 1 that end a left side of k rows,
    # msl <= k <= n - msl, between two distinct values of the feature.
    xs = x[index, np.arange(order.shape[0])[:, None]]
    cut = np.zeros(order.shape, dtype=bool)
    np.less(xs[:, msl - 1 : n - msl], xs[:, msl : n - msl + 1], out=cut[:, msl - 1 : n - msl])
    del xs
    pos = np.flatnonzero(cut)
    if pos.size == 0:
        return None
    per_feature = np.count_nonzero(cut, axis=1)
    del cut
    ks = pos % n + 1

    ys = y[index]
    del index
    csum = np.cumsum(ys, axis=1)
    left_sum = csum.ravel()[pos]
    right_sum = np.repeat(csum[:, -1], per_feature)
    right_sum -= left_sum
    del csum
    np.multiply(ys, ys, out=ys)
    csq = np.cumsum(ys, axis=1, out=ys)
    left_sq = csq.ravel()[pos]
    right_sq = np.repeat(csq[:, -1], per_feature)
    right_sq -= left_sq
    del ys, csq
    # scores = (left_sq - left_sum**2 / ks) + (right_sq - right_sum**2 / (n - ks)),
    # evaluated in place to hold fewer candidate-sized arrays at once
    np.square(left_sum, out=left_sum)
    left_sum /= ks
    scores = np.subtract(left_sq, left_sum, out=left_sq)
    np.square(right_sum, out=right_sum)
    right_sum /= n - ks
    right_sq -= right_sum
    scores += right_sq

    y_node = y[rows]
    parent_sse = _sse(y_node)
    margin = _NEAR_TIE_RELATIVE_MARGIN * max(parent_sse, 1.0)
    shortlist = []
    for i in np.flatnonzero(scores <= scores.min() + margin):
        f, k = int(pos[i] // n), int(ks[i])
        shortlist.append((f, float(0.5 * (x[order[f, k - 1], f] + x[order[f, k], f]))))

    best: SplitCandidate | None = None
    for f, thr in sorted(shortlist):
        mask = x[rows, f] <= thr
        n_left = int(mask.sum())
        if n_left < msl or n - n_left < msl:
            continue
        exact = _sse(y_node[mask]) + _sse(y_node[~mask])
        if best is None or exact < best.sse:
            best = SplitCandidate(feature=f, threshold=thr, sse=exact)
    if best is None or not parent_sse - best.sse > 0.0:
        return None
    return best


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
    return _split_node(x, y, np.arange(n, dtype=np.int32), _presort(x), min_samples_leaf)


def _partition(order: np.ndarray, goes_left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every feature's sorted row list by goes_left[row], keeping order."""
    side = goes_left[order.astype(np.intp)].ravel()
    flat = order.ravel()
    n_features = order.shape[0]
    left = np.compress(side, flat).reshape(n_features, -1)
    return left, np.compress(~side, flat).reshape(n_features, -1)


def fit_tree(
    rows, residuals, hp: Hyperparams, _presorted: np.ndarray | None = None
) -> RegressionTree:
    """Greedy CART on residuals. A node splits only while its row count is at
    least min_samples_split and its depth is below max_depth; leaves carry the
    mean residual and their training row count.

    `_presorted` is _presort(rows), passed by gbm_fit so that every tree of a
    fit shares one sort. Nodes are numbered in preorder (left subtree first).
    """
    x = _matrix_values(rows)
    r = np.asarray(residuals, dtype=np.float64)
    if r.size == 0:
        raise EmptyTargets()
    if x.shape[0] != r.size:
        raise LengthMismatch(x.shape[0], r.size)
    order = _presort(x) if _presorted is None else _presorted

    goes_left = np.zeros(r.size, dtype=bool)
    # one [feature, threshold, left, right, value, count] per node; an internal
    # node's right id is filled in when its right child is made
    nodes: list[list] = []
    # (rows ascending, per-feature sorted rows, depth, parent id if a right child)
    stack = [(np.arange(r.size, dtype=np.int32), order, 0, -1)]
    while stack:
        idx, order, depth, parent = stack.pop()
        node_id = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node_id
        cand = None
        if depth < hp.max_depth and idx.size >= hp.min_samples_split:
            cand = _split_node(x, r, idx, order, hp.min_samples_leaf)
        if cand is None:
            nodes.append([-1, 0.0, -1, -1, line_search_leaf(r[idx]), idx.size])
            continue
        nodes.append([cand.feature, cand.threshold, node_id + 1, -1, 0.0, 0])
        mask = x[idx, cand.feature] <= cand.threshold
        goes_left[idx] = mask
        left_order, right_order = _partition(order, goes_left)
        stack.append((idx[~mask], right_order, depth + 1, node_id))
        stack.append((idx[mask], left_order, depth + 1, -1))
        del order, left_order, right_order  # the stack owns the child lists now
    return RegressionTree.from_rows(nodes)


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
        tree = fit_tree(fm.values, resid, hp, presorted)
        tree.value *= hp.learning_rate
        pred = pred + tree_apply(tree, fm.values)
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
        f"n_trees={hp.n_trees}",
        f"learning_rate={_fmt(hp.learning_rate)}",
        f"max_depth={hp.max_depth}",
        f"min_samples_split={hp.min_samples_split}",
        f"min_samples_leaf={hp.min_samples_leaf}",
        f"seed={hp.seed}",
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


def _finite(text: str) -> float:
    """float(text), raising ValueError for NaN and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


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

    header: dict[str, str] = {}
    pos = 2
    while pos < len(lines) and not lines[pos].startswith("tree "):
        line = lines[pos]
        if "=" not in line:
            raise CorruptHeader(f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        if key in header:
            raise CorruptHeader(f"duplicate key {key!r}")
        header[key] = value
        pos += 1

    required = (
        "loss",
        "n_trees",
        "learning_rate",
        "max_depth",
        "min_samples_split",
        "min_samples_leaf",
        "seed",
        "f0",
        "feature_names",
    )
    for key in required:
        if key not in header:
            raise CorruptHeader(f"missing key {key!r}")
    if header["loss"] != SQUARED_ERROR:
        raise CorruptHeader(f"unknown loss {header['loss']!r}")
    try:
        hp = Hyperparams(
            n_trees=int(header["n_trees"]),
            learning_rate=_finite(header["learning_rate"]),
            max_depth=int(header["max_depth"]),
            min_samples_split=int(header["min_samples_split"]),
            min_samples_leaf=int(header["min_samples_leaf"]),
            seed=int(header["seed"]),
        )
        f0 = _finite(header["f0"])
    except ValueError as exc:
        raise CorruptHeader(str(exc)) from exc
    feature_names = [s for s in header["feature_names"].split(",") if s]
    if len(set(feature_names)) != len(feature_names):
        raise CorruptHeader("duplicate feature names")
    curve_text = header.get("training_curve", "")
    try:
        curve = [_finite(tok) for tok in curve_text.split(",") if tok]
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
