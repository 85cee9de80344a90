"""Gradient-boosted regression trees, built from scratch.

Squared-error boosting with CART base learners: start from the constant that
minimizes the loss (the target mean), then per iteration fit a binary
regression tree to the residuals, set each leaf to the loss-minimizing step
for its members (the mean residual, the closed-form line search for squared
error), shrink by the learning rate, and add the tree to the ensemble. The
training curve records the training MSE after every iteration and is
non-increasing by construction.

A tree is a RegressionTree of parallel node arrays, as in scikit-learn's Tree
(Pedregosa et al., 2011), numbered in preorder, which the type checks. The fit
knows each training row's leaf as it grows the tree, and gbm_fit multiplies
each fitted tree's values by the learning rate. predict_matrix scores every
tree by QuickScorer (Lucchese et al., 2015): a tree's leaves, numbered left to
right, take one bit each in ceil(leaves / 64) uint64 mask words; the leaves
reachable from a row are, word by word, the AND of one mask per feature the
tree tests, looked up by the row's bin among that feature's thresholds, and
the exit leaf is the lowest set bit of the first word that keeps one. The
tables are built per call from the node arrays.

Fitting is deterministic: the threshold between consecutive distinct sorted
feature values a < b is 0.5 * (a + b), or a where that rounds up to b or
overflows. Candidate ties break toward the lower (feature index, threshold),
and there is no row or feature subsampling. Two fits of the same data with
the same hyperparameters serialize byte-identically.

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

A node never recomputes what its parent knew, as XGBoost's exact greedy
passes node statistics down. The re-score gathers each candidate's feature
from a column-major copy of x, made once per fit, and takes the mean and
two-pass SSE of both sides; the children inherit them as their centring mean
and node SSE, and a leaf's value is its inherited mean, so only the root
computes its own. A child that cannot split (at max_depth, or below
min_samples_split rows) gets no packed lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

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


class ArityMismatch(GbmError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"row has {got} features, model expects {expected}")
        self.expected = expected
        self.got = got


class ModelFormatError(GbmError):
    pass


class BadMagic(ModelFormatError):
    def __init__(self, first_line: str):
        super().__init__(f"model text does not start with {MODEL_MAGIC!r}: first line {first_line[:80]!r}")


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


_NODE_DTYPES = (np.intp, np.float64, np.intp, np.intp, np.float64, np.intp)


@dataclass(eq=False)  # == on array fields has no single truth value; compare the arrays
class RegressionTree:
    """Binary CART tree as parallel node arrays; node 0 is the root. Node i
    is a leaf when feature[i] < 0, with output value[i] and training row count
    count[i]; otherwise rows with x[feature[i]] <= threshold[i] go to left[i]
    and the rest to right[i]. Unused fields hold -1 or 0.

    The nodes are numbered in preorder, left subtree first: an internal
    node's left child is the next node, its right child is the node after its
    left subtree, and every child id is a node of the tree. predict_matrix
    numbers the leaves left to right by that order, so a tree numbered any
    other way raises ValueError when it is made."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray

    def __post_init__(self):
        k = self.feature.size
        if k == 0:
            raise ValueError("a tree has at least one node")
        pending = []  # right-child ids still to come, innermost last
        for j, (f, left, right) in enumerate(zip(self.feature.tolist(), self.left.tolist(), self.right.tolist())):
            if f >= 0:
                if not (0 <= left < k and 0 <= right < k):
                    raise ValueError(f"node {j}: a child id is outside 0..{k - 1}")
                pending.append(right)
                next_id = left
            else:
                next_id = pending.pop() if pending else k  # k: the tree ends here
            # The child range above keeps a right id from reading as the end.
            if next_id != j + 1:
                raise ValueError(f"node {j}: preorder puts node {next_id} after it, not node {j + 1}")

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
    training_curve: list[float] = field(default_factory=list)
    feature_names: list[str] = field(default_factory=list)


def _scale_exponent(values: np.ndarray) -> int:
    """The binary exponent k of the largest magnitude in values (0 when all
    are 0). Scaled by 2**-k, which is exact, every value lies in (-1, 1), so
    no sum or square of them overflows, and only a value more than 2**1022
    times smaller than the largest turns subnormal."""
    return int(np.frexp(np.abs(values).max(initial=0.0))[1])


def init_constant(targets) -> float:
    """The squared-error-optimal constant model: the target mean, np.mean's
    own wherever its sum stays finite, else taken in scaled units (see
    _scale_exponent), so that it holds at any magnitude. Scaled units would
    flush a target more than 2**1022 times smaller than the largest, which
    np.mean keeps."""
    y = np.asarray(targets, dtype=np.float64)
    if y.size == 0:
        raise EmptyTargets()
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(y)
    if np.isfinite(mean):
        return float(mean)
    k = _scale_exponent(y)
    return float(np.ldexp(np.mean(np.ldexp(y, -k)), k))


def negative_gradient(targets, predictions) -> np.ndarray:
    """Residuals y - f, the negative gradient of 0.5*(y - f)^2."""
    y = np.asarray(targets, dtype=np.float64)
    f = np.asarray(predictions, dtype=np.float64)
    if y.shape != f.shape:
        raise LengthMismatch(y.size, f.size)
    return y - f


def _stats(values: np.ndarray) -> tuple[float, float]:
    """(mean, sum of squared deviations from the mean, two-pass) of a
    non-empty float64 array, bit for bit np.mean and np.sum((v - mean) ** 2):
    those wrappers are np.add.reduce, / size and np.square underneath."""
    mean = np.add.reduce(values) / values.size
    dev = values - mean
    return float(mean), float(np.add.reduce(np.square(dev, out=dev)))


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


def _fit_inputs(x, y) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """x and y checked as gbm_fit documents: the feature names, y as float64,
    x column-major (one row per feature) and x's packed lists (see _presort)."""
    if not isinstance(x, FeatureMatrix):
        x = np.asarray(x, dtype=np.float64)
        x = FeatureMatrix(x, [f"f{j}" for j in range(x.shape[1] if x.ndim == 2 else 0)])
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("targets must be 1-D")
    if y.size != len(x.values):
        raise LengthMismatch(len(x.values), y.size)
    if not np.all(np.isfinite(y)):
        raise NonFinite(None, context="targets")
    return list(x.feature_names), y, np.ascontiguousarray(x.values.T), _presort(x.values)


_Stats = tuple[float, float]  # (mean, sse) of a node's targets, from _stats


def _split_node(
    xt: np.ndarray, y: np.ndarray, rows: np.ndarray, order: np.ndarray, msl: int, stats: _Stats
) -> tuple[SplitCandidate, np.ndarray, np.ndarray, _Stats, _Stats] | None:
    """best_split for the node holding `rows` (ascending) of the column-major
    xt (one row per feature) and of y, whose packed attribute lists (see
    _presort) are `order` and whose targets y[rows] have _stats `stats`.
    Returns the split, its left mask over `rows`, the row of each entry of
    `order`, and the _stats of the left and the right child's targets.

    A stable sort of a whole column, restricted to the node's ascending rows,
    is the node's own stable sort, so the scan below sees the node's values in
    the order that sorting the node would give them.
    """
    n = rows.size
    # Candidates: sorted positions k - 1 that end a left side of k rows,
    # msl <= k <= n - msl, between two distinct values (ranks) of the feature.
    ranks = order >> 32
    cut = np.zeros(order.shape, dtype=bool)
    np.less(ranks[:, msl - 1 : n - msl], ranks[:, msl : n - msl + 1], out=cut[:, msl - 1 : n - msl])
    del ranks
    pos = cut.ravel().nonzero()[0]
    del cut
    if pos.size == 0:
        return None
    features, ks = np.divmod(pos, n)
    ks += 1

    mean, parent_sse = stats
    # Centred on the node mean, the left sums S_L stay small at any target
    # offset, and the split SSE is parent_sse - (S_L**2 / k + S_R**2 / (n - k)),
    # so one cumulative sum scores every candidate by its gain.
    sorted_rows = order & _ROW_MASK
    ys = y.take(sorted_rows)
    ys -= mean
    csum = ys.cumsum(axis=1, out=ys)
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
    for i in (gain >= gain.max() - margin).nonzero()[0]:
        f, k = int(features[i]), int(ks[i])
        a, b = float(xt[f, sorted_rows[f, k - 1]]), float(xt[f, sorted_rows[f, k]])
        thr = 0.5 * (a + b)  # a Python float: an overflow gives inf, and no warning
        shortlist.append((f, thr if a <= thr < b else a))

    # The exact re-score: each side's _stats, in ascending row order, are
    # those its child would compute, so the children inherit them.
    y_node = y.take(rows)
    best = None
    for f, thr in sorted(shortlist):
        mask = xt[f].take(rows) <= thr
        left, right = _stats(y_node.compress(mask)), _stats(y_node.compress(~mask))
        exact = left[1] + right[1]
        if best is None or exact < best[0].sse:
            best = SplitCandidate(feature=f, threshold=thr, sse=exact), mask, left, right
    if best is None or not parent_sse - best[0].sse > 0.0:
        return None
    cand, mask, left, right = best
    return cand, mask, sorted_rows, left, right


def best_split(rows, targets, min_samples_leaf: int = 1) -> SplitCandidate | None:
    """Exhaustive best two-leaf split by total SSE, or None when infeasible.

    The threshold between consecutive distinct sorted values a < b of a
    feature is 0.5 * (a + b), or a where that rounds up to b or overflows;
    both sides must keep at least min_samples_leaf rows and the split must
    strictly reduce the node SSE. Candidates are scanned with prefix sums,
    then everything within a hair of the scanned optimum is re-scored with
    the exact two-pass SSE so that the returned (feature, threshold, sse)
    matches direct enumeration, ties resolved toward the lower (feature,
    threshold). rows and targets are checked as gbm_fit checks x and y;
    fewer than 2 rows give None.
    """
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    _, y, xt, order = _fit_inputs(rows, targets)
    if y.size < 2:  # no split, and an empty node has no mean for _stats
        return None
    k = _scale_exponent(y)
    y = np.ldexp(y, -k)
    split = _split_node(xt, y, np.arange(y.size, dtype=np.int32), order, min_samples_leaf, _stats(y))
    if split is None:
        return None
    with np.errstate(over="ignore"):  # an sse beyond float64's range is inf
        return replace(split[0], sse=float(np.ldexp(split[0].sse, 2 * k)))


def _child_lists(order: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The entries of every feature's packed list where `side` is True,
    keeping order: one child's lists."""
    return order.compress(side.ravel()).reshape(order.shape[0], -1)


def fit_tree(rows, residuals, hp: Hyperparams) -> RegressionTree:
    """Greedy CART on residuals. A node splits only while its row count is at
    least min_samples_split and its depth is below max_depth; leaves carry the
    mean residual and their training row count. Nodes are numbered in
    preorder (left subtree first). rows and residuals are checked as gbm_fit
    checks x and y, zero rows included (EmptyTargets).
    """
    _, r, xt, order = _fit_inputs(rows, residuals)
    if r.size == 0:
        raise EmptyTargets()
    return _grow(xt, r, hp, order)[0]


def _grow(
    xt: np.ndarray, r: np.ndarray, hp: Hyperparams, order: np.ndarray
) -> tuple[RegressionTree, np.ndarray]:
    """fit_tree on checked arrays, x given column-major as xt (one row per
    feature), whose packed attribute lists are `order` (gbm_fit shares one xt
    and one _presort among its trees). Also returns the leaf id of every row.

    Only the root computes its targets' _stats; every child inherits those of
    its side from its parent's exact re-score. A node that cannot split gets
    no packed lists. The tree grows on the residuals scaled by 2**-k (see
    _scale_exponent), and its leaf values are scaled back by 2**k.
    """
    def splittable(size: int, depth: int) -> bool:
        return depth < hp.max_depth and size >= hp.min_samples_split

    k = _scale_exponent(r)
    r = np.ldexp(r, -k)
    goes_left = np.zeros(r.size, dtype=bool)
    leaf_of = np.empty(r.size, dtype=np.intp)
    # one [feature, threshold, left, right, value, count] per node; an internal
    # node's right id is filled in when its right child is made
    nodes: list[list] = []
    # (rows ascending, packed attribute lists or None for a leaf, _stats of
    # the rows' residuals, depth, parent id if a right child)
    stack = [(np.arange(r.size, dtype=np.int32), order if splittable(r.size, 0) else None, _stats(r), 0, -1)]
    while stack:
        idx, order, stats, depth, parent = stack.pop()
        node_id = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node_id
        split = None if order is None else _split_node(xt, r, idx, order, hp.min_samples_leaf, stats)
        if split is None:
            nodes.append([-1, 0.0, -1, -1, math.ldexp(stats[0], k), idx.size])
            leaf_of[idx] = node_id
            continue
        cand, mask, sorted_rows, left, right = split
        nodes.append([cand.feature, cand.threshold, node_id + 1, -1, 0.0, 0])
        left_idx, right_idx = idx.compress(mask), idx.compress(~mask)
        split_left = splittable(left_idx.size, depth + 1)
        split_right = splittable(right_idx.size, depth + 1)
        left_order = right_order = None
        if split_left or split_right:
            goes_left[idx] = mask
            side = goes_left.take(sorted_rows)
            if split_left:
                left_order = _child_lists(order, side)
            if split_right:
                right_order = _child_lists(order, ~side)
            del side
        stack.append((right_idx, right_order, right, depth + 1, node_id))
        stack.append((left_idx, left_order, left, depth + 1, -1))
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


def _training_loss(targets: np.ndarray, pred: np.ndarray) -> float:
    """The training MSE; NonFinite where it is infinite or NaN, which a model
    file cannot hold. A non-finite f0 makes the first loss non-finite."""
    loss = float(np.mean((targets - pred) ** 2))
    if not math.isfinite(loss):
        raise NonFinite(loss, context="training loss")
    return loss


def gbm_fit(x, y, hp: Hyperparams = Hyperparams()) -> GbmModel:
    """Run the boosting loop and return the fitted ensemble.

    x is a FeatureMatrix, or a 2-D array (else ValueError) whose columns are
    named f0, f1, ...; y is 1-D (else ValueError) with one target per row of
    x (else LengthMismatch). NaN or infinity in x or y raises NonFinite, as
    does a training loss that is not finite, and zero rows raise
    EmptyTargets. Leaf values are stored with the learning rate already
    applied, so prediction is plainly f0 plus the sum of tree outputs.
    training_curve[0] is the loss of the constant model; entry t is the
    training MSE after adding tree t.
    """
    feature_names, targets, xt, presorted = _fit_inputs(x, y)
    f0 = init_constant(targets)
    pred = np.full(targets.size, f0, dtype=np.float64)
    curve = [_training_loss(targets, pred)]
    trees: list[RegressionTree] = []
    for _ in range(hp.n_trees):
        resid = negative_gradient(targets, pred)
        tree, leaf_of = _grow(xt, resid, hp, presorted)
        tree.value *= hp.learning_rate
        pred = pred + tree.value[leaf_of]
        trees.append(tree)
        curve.append(_training_loss(targets, pred))
    return GbmModel(
        f0=f0,
        trees=trees,
        hyperparams=hp,
        training_curve=curve,
        feature_names=feature_names,
    )


_EXPONENT_BIAS = 1023  # 2.0**k has the float64 exponent field k + 1023


def _bitmask_tables(trees: list[RegressionTree], xf: np.ndarray) -> list[tuple]:
    """QuickScorer's tables (see predict_matrix), one (leaf values by exponent
    field, [(table, bins)] per mask word) per tree, bins being one feature's
    threshold bins of the rows of the column-major xf."""
    if not trees:
        return []
    sizes = [tree.feature.size for tree in trees]
    starts = np.cumsum([0, *sizes[:-1]])
    feature, threshold, right, value = (np.concatenate([getattr(tree, name) for tree in trees])
                                        for name in ("feature", "threshold", "right", "value"))
    leaf = feature < 0
    before = np.cumsum(leaf) - leaf  # leaves before each node, in preorder over all trees
    first_leaf = before[starts]
    words = (np.diff(first_leaf, append=np.count_nonzero(leaf)) + 63) // 64  # 64 leaves to a word
    first_word = np.cumsum(words) - words  # words numbered over all trees
    inner = np.flatnonzero(~leaf)
    inner = inner[np.lexsort((threshold[inner], feature[inner]))]  # by feature, then threshold
    tree_of = np.repeat(np.arange(len(trees)), sizes)[inner]
    # A value above a node's threshold rules out its left subtree's leaves,
    # [low, high) in its tree; the node masks every word that range meets.
    low = before[inner] - first_leaf[tree_of]
    high = before[right[inner] + starts[tree_of]] - first_leaf[tree_of]
    spans = (high - 1) // 64 - low // 64 + 1
    entry = np.repeat(np.arange(inner.size), spans)
    word = low[entry] // 64 + np.arange(entry.size) - (np.cumsum(spans) - spans)[entry]
    lo_bit = np.maximum(low[entry] - 64 * word, 0)
    n_bits = np.minimum(high[entry] - 64 * word, 64) - lo_bit  # 1 to 64, so no shift is by 64
    keep = ~((~np.uint64(0) >> (64 - n_bits).astype(np.uint64)) << lo_bit.astype(np.uint64))
    inner, slot = inner[entry], first_word[tree_of[entry]] + word
    f, thr = feature[inner], threshold[inner]
    new_cut = np.r_[True, (f[1:] != f[:-1]) | (thr[1:] != thr[:-1])]  # -0.0 == 0.0: one cut
    bounds = [*np.flatnonzero(np.diff(f, prepend=-1)).tolist(), f.size]
    scorers: list[list] = [[] for _ in range(int(words.sum()))]
    for lo, hi in zip(bounds, bounds[1:]):
        cuts = thr[lo:hi][new_cut[lo:hi]]  # the feature's distinct thresholds, ascending
        # x <= cuts[b] exactly when the count of cuts below x is at most b
        bins = np.searchsorted(cuts, xf[:, f[lo]])
        testing = np.zeros(len(scorers), dtype=bool)
        testing[slot[lo:hi]] = True
        table = np.full((np.count_nonzero(testing), cuts.size + 1), ~np.uint64(0))
        cut_of = np.cumsum(new_cut[lo:hi])  # each node's cut index, plus 1
        np.bitwise_and.at(table, ((np.cumsum(testing) - 1)[slot[lo:hi]], cut_of), keep[lo:hi])
        np.bitwise_and.accumulate(table, axis=1, out=table)
        for row, s in zip(table, np.flatnonzero(testing).tolist()):
            scorers[s].append((row, bins))
    leaf_values = np.concatenate((np.zeros(_EXPONENT_BIAS), value[leaf]))
    return [(leaf_values[first:], scorers[w : w + n])
            for first, w, n in zip(first_leaf.tolist(), first_word.tolist(), words.tolist())]


def predict_matrix(model: GbmModel, x: np.ndarray) -> np.ndarray:
    """Ensemble predictions for every row of x: f0 plus every tree's output,
    added in tree order, bit for bit f0 plus the leaf that a walk from each
    root reaches, tree by tree.

    Every tree is scored by QuickScorer (Lucchese et al., 2015). Its leaves
    are numbered left to right, 64 to a uint64 mask word. In each word, a
    row's reachable set is the AND of one table entry per feature whose nodes
    mask that word, indexed by the row's bin among that feature's distinct
    thresholds, or all ones where no node does; the exit leaf is the lowest
    set bit of the first word with a bit set.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(model.feature_names):
        raise ArityMismatch(len(model.feature_names), x.shape[1] if x.ndim == 2 else -1)
    if not np.all(np.isfinite(x)):
        raise NonFinite(None, context="feature matrix")
    x = np.asfortranarray(x)
    out = np.full(x.shape[0], model.f0, dtype=np.float64)
    for leaf_values, words in _bitmask_tables(model.trees, x):
        exits = None
        for w, tables in reversed(list(enumerate(words))):  # the first word is chosen last
            reachable = tables[0][0].take(tables[0][1]) if tables else np.full(x.shape[0], ~np.uint64(0))
            for table, bins in tables[1:]:
                reachable &= table.take(bins)
            reachable &= -reachable  # the lowest set bit, 2.0**bit as a float, or 0
            values = leaf_values[64 * w :].take(reachable.astype(np.float64).view(np.int64) >> 52)
            exits = values if exits is None else np.where(reachable != 0, values, exits)
        out += exits
    return out


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# Each Hyperparams field, in declaration order, which is its order in the
# model header, with its type, which also parses its header value.
_HP_FIELDS = [(f.name, type(f.default)) for f in fields(Hyperparams)]

# The header keys in the order the writer writes them and the loader reads them.
_HEADER_KEYS = ("loss", *(name for name, _ in _HP_FIELDS), "f0", "feature_names", "training_curve")


def _valid_feature_names(names: list[str]) -> bool:
    """Whether names can be a model file's feature_names: unique, each
    non-empty and holding no comma and no line boundary of str.splitlines."""
    return len(set(names)) == len(names) and all("," not in n and n.splitlines() == [n] for n in names)


def _header_lines(model: GbmModel) -> list[str]:
    """The magic, version and header lines of a model file."""
    hp = model.hyperparams
    hp_values = ((_fmt if kind is float else str)(getattr(hp, name)) for name, kind in _HP_FIELDS)
    values = (SQUARED_ERROR, *hp_values, _fmt(model.f0), ",".join(model.feature_names),
              ",".join(map(_fmt, model.training_curve)))
    return [MODEL_MAGIC, f"version {MODEL_VERSION}",
            *(f"{key}={value}" for key, value in zip(_HEADER_KEYS, values, strict=True))]


def _node_line(feature: int, threshold: float, left: int, right: int, value: float, count: int) -> str:
    """One node's line of a model file: a leaf (feature < 0) or an internal node."""
    return f"L {_fmt(value)} {count}" if feature < 0 else f"I {feature} {_fmt(threshold)} {left} {right}"


def serialize_model(model: GbmModel) -> str:
    """Write a model to the text format (exact round trip); ValueError for
    names or a non-finite f0 or training_curve entry, which the loader rejects."""
    if not _valid_feature_names(model.feature_names):
        raise ValueError(f"feature names not serializable: {model.feature_names!r}")
    if not all(map(math.isfinite, (model.f0, *model.training_curve))):
        raise ValueError("f0 and training_curve must be finite")
    lines = _header_lines(model)
    for t, tree in enumerate(model.trees):
        lines.append(f"tree {t} nodes {tree.feature.size}")
        columns = (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.count)
        lines += map(_node_line, *(c.tolist() for c in columns))
    return "\n".join(lines) + "\n"


def deserialize_model(text: str) -> GbmModel:
    """Parse the text format back into a model; rejects anything malformed.

    Each line is parsed with int and float and must equal the writer's line
    for the parsed values, so a file that loads writes back byte for byte.
    The loader also checks what spelling cannot: the header key order, finite
    floats, Hyperparams, feature names, node field ranges, preorder trees and
    the tree and training_curve counts."""
    *lines, rest = text.split("\n")  # rest: what follows the last line end, "" as written
    if not lines or lines[0] != MODEL_MAGIC:
        raise BadMagic(text.partition("\n")[0])
    if len(lines) < 2 or lines[1] != f"version {MODEL_VERSION}":
        raise UnsupportedVersion(lines[1].removeprefix("version ") if len(lines) > 1 else "<missing>")

    header: dict[str, str] = {}
    for pos, key in enumerate(_HEADER_KEYS, 2):
        line = lines[pos] if pos < len(lines) else None
        if line is None or not line.startswith(key + "="):
            raise CorruptHeader(f"expected {key}= on line {pos + 1}, got {line!r}")
        header[key] = line[len(key) + 1 :]
    pos = 2 + len(header)

    try:
        hp_values = {name: kind(header[name]) for name, kind in _HP_FIELDS}
        f0 = float(header["f0"])
        curve = [float(tok) for tok in header["training_curve"].split(",")] if header["training_curve"] else []
    except ValueError as exc:
        raise CorruptHeader(f"not the writer's spelling: {exc}") from exc
    try:
        hp = Hyperparams(**hp_values)
    except ValueError as exc:
        raise CorruptHeader(str(exc)) from exc
    if not all(map(math.isfinite, (f0, *curve))):
        raise CorruptHeader("f0 and training_curve must be finite")
    feature_names = header["feature_names"].split(",") if header["feature_names"] else []
    if not _valid_feature_names(feature_names):
        raise CorruptHeader(f"bad feature names: {header['feature_names']!r}")
    model = GbmModel(f0=f0, trees=[], hyperparams=hp, training_curve=curve, feature_names=feature_names)
    for line, written in zip(lines[2:pos], _header_lines(model)[2:]):
        if line != written:
            raise CorruptHeader(f"{line!r} is not the writer's spelling {written!r}")

    while pos < len(lines):
        line = lines[pos]
        try:
            k = int(line[line.rfind(" ") + 1 :])
        except ValueError:
            k = None
        if k is None or k < 1 or line != f"tree {len(model.trees)} nodes {k}":
            raise CorruptNode(0, f"bad tree block header: {line!r}")
        pos += 1
        nodes = []
        for j in range(k):
            if pos >= len(lines):
                raise CorruptNode(j, "unexpected end of input inside tree block")
            line = lines[pos]
            pos += 1
            parts = line.split(" ")
            try:
                if parts[0] == "I" and len(parts) == 5:
                    node = (int(parts[1]), float(parts[2]), int(parts[3]), int(parts[4]), 0.0, 0)
                    valid = 0 <= node[0] < len(feature_names) and math.isfinite(node[1])
                elif parts[0] == "L" and len(parts) == 3:
                    value, count = float(parts[1]), int(parts[2])
                    node = (-1, 0.0, -1, -1, value, count)
                    # at least one row, and a count that fits the count array
                    valid = 1 <= count < 2**63 and math.isfinite(value)
                else:
                    raise CorruptNode(j, f"unrecognized node line: {line!r}")
            except ValueError as exc:
                raise CorruptNode(j, f"not the writer's spelling: {exc}") from exc
            if not valid:
                raise CorruptNode(j, f"field out of range or not finite: {line!r}")
            if line != _node_line(*node):
                raise CorruptNode(j, f"{line!r} is not the writer's spelling {_node_line(*node)!r}")
            nodes.append(node)
        try:  # RegressionTree checks the child ids and the preorder
            model.trees.append(RegressionTree.from_rows(nodes))
        except (ValueError, OverflowError) as exc:  # OverflowError: a child id beyond intp
            raise CorruptNode(0, f"tree {len(model.trees)}: {exc}") from exc
    if rest:
        raise CorruptNode(0, f"last line has no line end: {rest!r}")

    if len(model.trees) > hp.n_trees:
        raise CorruptHeader(f"file holds {len(model.trees)} trees but n_trees={hp.n_trees}")
    # A curve written at fit time pins the tree count, so a file truncated at
    # a tree-block boundary cannot pass for a smaller model.
    if curve and len(curve) != len(model.trees) + 1:
        raise CorruptHeader(
            f"training_curve has {len(curve)} entries but file holds {len(model.trees)} trees"
        )
    return model
