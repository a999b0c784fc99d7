"""Generic identifiability certification for fixed base class columns.

The input is an int64 (J, C) block of canonical columns, one per item, as
``ModelState.columns`` holds them. A model is certified by exhibiting a
tripartition of the items and, for the first two parts, merged columns that
stay within the response level counts and leave no two classes alike. The
search is sound but not complete: a failed search reports Unknown, never
non-identifiable.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import canonicalize, check_columns


class BudgetExceededError(RuntimeError):
    """Exhaustive search exceeded its work budget."""


def _checked(columns, m):
    """``columns`` as checked (J, C) canonical columns of C >= 2 classes, ``m``
    as one level count per item; else ``ValueError``."""
    columns = check_columns(columns)
    if columns.shape[1] < 2:
        raise ValueError(f"identifiability needs at least 2 classes, got {columns.shape[1]}: "
                         "a witness separates classes")
    m = np.asarray(m, dtype=np.int64)
    if m.shape != (len(columns),):
        raise ValueError(f"levels must have one entry per item ({len(columns)})")
    if np.any(m < 2):
        raise ValueError("every item needs at least 2 response levels")
    return columns, m


@dataclass
class Witness:
    """A tripartition and the merged columns of its first two parts, one
    (|part|, C) block each, rows in the part's item order."""

    tripartition: tuple
    merged1: np.ndarray
    merged2: np.ndarray


@dataclass
class IdentifiabilityReport:
    status: str
    witness: Witness = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def identifiable(self) -> bool:
        return self.status == "Identifiable"

    def to_dict(self) -> dict:
        out = {"status": self.status, "diagnostics": self.diagnostics}
        if self.witness is not None:
            out["witness"] = {
                "tripartition": [list(map(int, part)) for part in self.witness.tripartition],
                "merged1": self.witness.merged1.T.tolist(),
                "merged2": self.witness.merged2.T.tolist(),
            }
        return out


def _is_column_merge(column, merged_column) -> bool:
    mapping = {}
    for b, b_tilde in zip(column.tolist(), merged_column.tolist()):
        if mapping.setdefault(b, b_tilde) != b_tilde:
            return False
    return True


def _rows_unique(matrix) -> bool:
    return len(set(map(tuple, matrix.tolist()))) == matrix.shape[0]


def _refine(codes, column) -> tuple:
    """Row codes after appending ``column`` to the columns ``codes`` encodes.

    Two classes share a code exactly when they agree on every column
    appended so far, so the number of distinct codes is the number of
    distinct rows; start from ``(0,) * C`` for no columns.
    """
    seen = {}
    return tuple(seen.setdefault((c, b), len(seen) + 1) for c, b in zip(codes, column.tolist()))


@dataclass
class ConditionCheck:
    """Outcome of the four witness conditions, with per-condition detail."""

    ok: bool
    diagnostics: dict

    def __bool__(self):
        return self.ok


def check_conditions(columns, m, partition, merged1, merged2) -> ConditionCheck:
    """Exact check of a candidate witness.

    ``partition`` is three disjoint item index sequences covering all items;
    ``merged1``/``merged2`` are the merged columns of the first two parts,
    one row per item in the order of the partition lists.
    """
    columns, m = _checked(columns, m)
    n_items, n_classes = columns.shape
    parts = [np.asarray(part, dtype=np.int64) for part in partition]
    if len(parts) != 3:
        raise ValueError("partition must have exactly three parts")
    if sorted(np.concatenate(parts).tolist()) != list(range(n_items)):
        raise ValueError("partition must cover all items disjointly")
    merged = [np.asarray(merged1, dtype=np.int64), np.asarray(merged2, dtype=np.int64)]
    for k in (0, 1):
        if merged[k].shape != (parts[k].size, n_classes):
            raise ValueError(f"merged{k + 1} shape does not match part {k + 1}")

    diag = {}
    diag["merge_relation"] = [
        all(_is_column_merge(columns[j], merged[k][i]) for i, j in enumerate(parts[k]))
        for k in (0, 1)
    ]
    diag["level_bounds"] = [
        all(len(set(merged[k][i].tolist())) <= m[j] for i, j in enumerate(parts[k]))
        for k in (0, 1)
    ]
    diag["unique_rows"] = [_rows_unique(merged[k].T) for k in (0, 1)]
    diag["pattern_capacity"] = [
        int(np.prod(m[parts[k]], dtype=object)) >= n_classes for k in (0, 1)
    ]
    diag["third_part_rows_unique"] = _rows_unique(columns[parts[2]].T)
    ok = (
        all(diag["merge_relation"])
        and all(diag["level_bounds"])
        and all(diag["unique_rows"])
        and all(diag["pattern_capacity"])
        and diag["third_part_rows_unique"]
    )
    return ConditionCheck(ok, diag)


# ---------------------------------------------------------------------------
# greedy search
# ---------------------------------------------------------------------------

def _merge_column(column, max_sets, codes):
    """Merge a column down to at most ``max_sets`` labels.

    At each step the pairs with the smallest combined population are the
    candidates; the pair whose merge keeps the most distinct rows in the
    part whose row codes are ``codes`` wins, lowest labels breaking ties.
    """
    col = column.copy()
    while col.max() > max_sets:
        sizes = np.bincount(col)[1:]
        n_sets = col.max()
        pairs = list(itertools.combinations(range(1, n_sets + 1), 2))
        totals = [sizes[a - 1] + sizes[b - 1] for a, b in pairs]
        smallest = min(totals)
        best = None
        for (a, b), total in zip(pairs, totals):
            if total != smallest:
                continue
            cand = canonicalize(np.where(col == b, a, col))
            score = len(set(_refine(codes, cand)))
            if best is None or score > best[0]:
                best = (score, cand)
        col = best[1]
    return canonicalize(col)


def _greedy_assign(columns, m, third_first):
    """One greedy pass over items in decreasing set count order.

    Each item is merged for the first part and kept there if it strictly
    increases that part's distinct row count, then the second part is tried
    the same way, and otherwise the raw column joins the third part. With
    ``third_first`` the third part instead takes items while its raw rows
    are not yet unique; this variant serves matrices (block diagonal
    Q-matrix imports among them) whose high set count items are needed as
    raw columns.
    """
    n_classes = columns.shape[1]
    order = sorted(range(len(columns)), key=lambda j: -columns[j].max())
    chosen = ({}, {}, {})  # per part: item -> the column it contributes
    codes = [(0,) * n_classes] * 3

    def take(k, j, column):
        refined = _refine(codes[k], column)
        if len(set(refined)) <= len(set(codes[k])):
            return False
        chosen[k][j] = column
        codes[k] = refined
        return True

    for j in order:
        if third_first and len(set(codes[2])) < n_classes and take(2, j, columns[j]):
            continue
        if not any(take(k, j, _merge_column(columns[j], m[j], codes[k])) for k in (0, 1)):
            # part 3's codes are left as they are: they are read only under
            # third_first while below C, and then this column just failed to
            # split any of part 3's rows
            chosen[2][j] = columns[j]

    tripartition = tuple(tuple(sorted(part)) for part in chosen)
    merged = [np.array([chosen[k][j] for j in tripartition[k]], dtype=np.int64)
              .reshape(-1, n_classes) for k in (0, 1)]
    return tripartition, merged


def greedy_search(columns, m) -> IdentifiabilityReport:
    """Deterministic greedy witness search followed by the exact check.

    Two complementary passes are tried: one that feeds the first two parts
    greedily, and one that first secures unique raw rows in the third part.
    The first pass whose result passes the exact check wins; when neither
    does the verdict is Unknown, never a claim of non-identifiability.
    """
    columns, m = _checked(columns, m)
    attempts = {}
    for third_first in (False, True):
        tripartition, merged = _greedy_assign(columns, m, third_first)
        check = check_conditions(columns, m, tripartition, merged[0], merged[1])
        attempts["third_first" if third_first else "parts12_first"] = check.diagnostics
        if check.ok:
            return IdentifiabilityReport(
                status="Identifiable",
                witness=Witness(tripartition, merged[0], merged[1]),
                diagnostics=check.diagnostics,
            )
    return IdentifiabilityReport(status="Unknown", diagnostics={"attempts": attempts})


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def _set_partitions(labels):
    """All partitions of ``labels`` into nonempty groups."""
    labels = list(labels)
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def _column_merge_candidates(column, max_sets):
    """All canonical coarsenings of a column with at most ``max_sets`` labels."""
    n_sets = int(column.max())
    out = []
    for groups in _set_partitions(range(1, n_sets + 1)):
        if len(groups) > max_sets:
            continue
        relabel = np.empty(n_sets + 1, dtype=np.int64)
        for g, group in enumerate(groups, start=1):
            for label in group:
                relabel[label] = g
        out.append(canonicalize(relabel[column]))
    return out


class _WorkMeter:
    def __init__(self, budget):
        self.budget = budget
        self.used = 0

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.budget:
            raise BudgetExceededError(
                f"identifiability search exceeded its budget of {self.budget} steps"
            )


def _separating_merges(n_classes, items, candidates, meter):
    """Merged columns for ``items``, one row each, that leave no two classes
    alike, or None.

    Depth-first over per-column merge choices with memoization on the
    induced row partition; the state space is tiny for desk-scale matrices.
    """
    memo = {}

    def dfs(pos, state):
        if len(set(state)) == n_classes:
            return []
        if pos == len(items):
            return None
        key = (pos, state)
        if key in memo:
            return memo[key]
        result = None
        for cand in candidates[items[pos]]:
            meter.spend()
            tail = dfs(pos + 1, _refine(state, cand))
            if tail is not None:
                result = [cand] + tail
                break
        memo[key] = result
        return result

    chosen = dfs(0, (0,) * n_classes)
    if chosen is None:
        return None
    # pad with fully merged columns for items past the separating prefix
    while len(chosen) < len(items):
        j = items[len(chosen)]
        # _set_partitions yields the one-group partition first
        chosen.append(candidates[j][0])
    return np.array(chosen, dtype=np.int64).reshape(len(items), n_classes)


def exhaustive_search(columns, m, budget: int = 5_000_000) -> IdentifiabilityReport:
    """Enumerate tripartitions and per-column merges until a witness passes.

    Feasibility of an item subset as a first or second part is computed once
    per subset, so the enumeration over the 3^J assignments is cheap.
    Intended for small problems; raises :class:`BudgetExceededError` when the
    work budget runs out.
    """
    columns, m = _checked(columns, m)
    n_items, n_classes = columns.shape
    meter = _WorkMeter(budget)

    candidates = [_column_merge_candidates(column, m_j) for column, m_j in zip(columns, m)]
    full_mask = (1 << n_items) - 1

    def items_of(mask):
        return [j for j in range(n_items) if mask >> j & 1]

    feas12 = {}

    def part12_merges(mask):
        if mask not in feas12:
            items = items_of(mask)
            if int(np.prod(m[items], dtype=object)) < n_classes:
                feas12[mask] = None
            else:
                feas12[mask] = _separating_merges(n_classes, items, candidates, meter)
        return feas12[mask]

    feas3 = {}

    def part3_ok(mask):
        if mask not in feas3:
            meter.spend()
            feas3[mask] = _rows_unique(columns[items_of(mask)].T)
        return feas3[mask]

    for mask1 in range(full_mask + 1):
        merges1 = part12_merges(mask1)
        if merges1 is None:
            continue
        rest = full_mask & ~mask1
        mask2 = rest
        while True:
            meter.spend()
            merges2 = part12_merges(mask2)
            if merges2 is not None and part3_ok(rest & ~mask2):
                parts = (items_of(mask1), items_of(mask2), items_of(rest & ~mask2))
                check = check_conditions(columns, m, parts, merges1, merges2)
                if check.ok:
                    return IdentifiabilityReport(
                        status="Identifiable",
                        witness=Witness(tuple(map(tuple, parts)), merges1, merges2),
                        diagnostics=check.diagnostics,
                    )
            if mask2 == 0:
                break
            mask2 = (mask2 - 1) & rest
    return IdentifiabilityReport(
        status="Unknown", diagnostics={"searched_assignments": "all", "budget_used": meter.used}
    )


# ---------------------------------------------------------------------------
# numeric verification
# ---------------------------------------------------------------------------

def kruskal_rank(matrix, tol: float = 1e-10) -> int:
    """Largest k such that every k columns are linearly independent.

    Subset ranks use singular values with threshold ``tol`` times the
    subset's largest singular value; brute force over column subsets.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        return 0
    n_cols = matrix.shape[1]
    max_k = min(matrix.shape)
    for k in range(1, max_k + 1):
        for cols in itertools.combinations(range(n_cols), k):
            s = np.linalg.svd(matrix[:, cols], compute_uv=False)
            rank = int((s > tol * s[0]).sum()) if s[0] > 0 else 0
            if rank < k:
                return k - 1
    return max_k


PATTERN_CAP = 4096


def pattern_probability_matrix(columns, items, item_probs) -> np.ndarray:
    """Classes-by-patterns probability matrix for a subset of items.

    ``item_probs[j]`` holds one distribution over levels per equivalence set
    of item j; conditional independence makes each row an outer product.
    """
    n_classes = columns.shape[1]
    out = np.ones((n_classes, 1))
    for j in items:
        probs = item_probs[j][columns[j] - 1]
        out = (out[:, :, None] * probs[:, None, :]).reshape(n_classes, -1)
    return out


def numeric_verify(columns, m, partition, rng, trials: int = 10) -> bool:
    """Monte Carlo check that the Kruskal rank bound holds for a tripartition.

    Each trial draws response probabilities respecting the equal-probability
    restrictions, builds the three pattern probability matrices, and requires
    the Kruskal ranks (over class columns) to sum to at least 2C + 2. This is
    probabilistic evidence only and never upgrades an Unknown verdict.
    """
    columns, m = _checked(columns, m)
    parts = [np.asarray(p, dtype=np.int64) for p in partition]
    for part in parts:
        if int(np.prod(m[part], dtype=object)) > PATTERN_CAP:
            raise ValueError(
                f"pattern space {np.prod(m[part])} exceeds the {PATTERN_CAP} guard"
            )
    need = 2 * columns.shape[1] + 2
    for _ in range(trials):
        item_probs = [rng.dirichlet(np.ones(m_j), size=column.max())
                      for column, m_j in zip(columns, m)]
        total = 0
        for part in parts:
            t_matrix = pattern_probability_matrix(columns, part, item_probs)
            total += kruskal_rank(t_matrix.T)
        if total < need:
            return False
    return True


# ---------------------------------------------------------------------------
# Q-matrix import
# ---------------------------------------------------------------------------

def q_matrix_to_base(q) -> np.ndarray:
    """Translate a binary Q-matrix into equivalent (J, C) base class columns.

    Classes enumerate the attribute bit vectors (class 1 has no attributes,
    class 2 has only the first, ...); two classes share an equivalence set
    for an item exactly when they agree on all attributes the item loads on.
    """
    q = np.asarray(q, dtype=np.int64)
    if q.ndim != 2 or not np.isin(q, (0, 1)).all():
        raise ValueError("Q must be a binary matrix of items by attributes")
    n_items, n_attr = q.shape
    if n_attr > 5:
        raise ValueError("at most 5 attributes supported (class count guard)")
    n_classes = 2 ** n_attr
    bits = (np.arange(n_classes)[:, None] >> np.arange(n_attr)[None, :]) & 1
    # a class's code packs the bits of the attributes the item loads on
    codes = (bits[None] * q[:, None]) @ (1 << np.arange(n_attr))  # item, class
    return canonicalize(codes)
