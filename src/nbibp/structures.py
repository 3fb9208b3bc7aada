"""Count-valued feature arrays, their label-free structures, and exact p.m.f.s.

A feature array records, for each of n rows and each feature column, how many
times the row expresses the feature; columns carry no meaningful identity.
Collapsing the array to the multiset of its columns (each column is a length-n
count vector, its "history") gives the combinatorial structure, the quantity
the exchangeable process actually distributes.  This module holds both
representations, the maps between them, and closed-form log p.m.f.s for each
under the buffet-style generative process.

Serialization is line-oriented JSON with integer payloads, so round-trips are
exact and files diff cleanly:

    {"kind": "array", "n": 2, "columns": [[1, 0], [0, 2]]}
    {"kind": "struct", "n": 2, "counts": [[[0, 2], 1], [[1, 0], 2]]}

Structure counts are serialized in ascending column order (tuple comparison,
first differing coordinate decides), making the encoding canonical.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .numerics import digamma_fn, log_rising_factorial

__all__ = [
    "Hyperparams",
    "FeatureArray",
    "CombStruct",
    "from_array",
    "left_order",
    "uniform_label",
    "ordering_count",
    "project",
    "log_pmf_struct",
    "log_pmf_array",
    "array_to_json",
    "array_from_json",
    "struct_to_json",
    "struct_from_json",
]


@dataclass(frozen=True)
class Hyperparams:
    """Count shape r > 0, concentration c > 0, base mass T > 0.

    The base measure is diffuse with total mass T, as the buffet, the p.m.f.s
    and the MCMC assume; fixed atoms enter only the finitary construction,
    as an argument of bnbp_sample_finitary.
    """

    r: float
    c: float
    T: float

    def __post_init__(self):
        if not (self.r > 0.0 and self.c > 0.0 and self.T > 0.0):
            raise ValueError(f"Hyperparams needs r, c, T > 0, got {self!r}")


def _check_history(h, n):
    if len(h) != n:
        raise ValueError(f"history length {len(h)} does not match n={n}")
    if any(w != int(w) or w < 0 for w in h):
        raise ValueError(f"history entries must be integers >= 0, got {h!r}")
    if n > 0 and not any(h):
        raise ValueError("all-zero history: a feature nobody expresses cannot be observed")
    return tuple(int(w) for w in h)


@dataclass(frozen=True)
class FeatureArray:
    """An ordered tuple of feature columns over n rows.

    Column order is meaningful here (simulators emit creation order); the
    order-free object is CombStruct.  n = 0 with no columns is the legal
    empty seed the sequential simulator grows from.
    """

    n: int
    columns: tuple = ()

    def __post_init__(self):
        if self.n != int(self.n) or self.n < 0:
            raise ValueError(f"FeatureArray needs integer n >= 0, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        cols = tuple(_check_history(col, self.n) for col in self.columns)
        if self.n == 0 and cols:
            raise ValueError("a 0-row array cannot have columns")
        object.__setattr__(self, "columns", cols)

    @property
    def kappa(self):
        return len(self.columns)

    @classmethod
    def from_matrix(cls, mat):
        mat = np.asarray(mat)
        if mat.ndim != 2:
            raise ValueError(f"from_matrix needs a 2-d array, got shape {mat.shape}")
        return cls(mat.shape[0], tuple(tuple(int(w) for w in mat[:, j]) for j in range(mat.shape[1])))

    def to_matrix(self):
        return np.array([list(col) for col in self.columns], dtype=np.int64).T.reshape(
            self.n, self.kappa
        )

    def column_sums(self):
        return tuple(sum(col) for col in self.columns)


@dataclass(frozen=True)
class CombStruct:
    """Multiset of histories: counts[h] = number of feature columns equal to h."""

    n: int
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n != int(self.n) or self.n < 1:
            raise ValueError(f"CombStruct needs integer n >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        clean = {}
        for h, m in self.counts.items():
            if m != int(m) or m < 1:
                raise ValueError(f"structure multiplicities must be integers >= 1, got {m!r}")
            clean[_check_history(h, self.n)] = int(m)
        object.__setattr__(self, "counts", clean)

    @property
    def kappa(self):
        return sum(self.counts.values())

    def items_sorted(self):
        """(history, multiplicity) pairs in ascending column order."""
        return sorted(self.counts.items())


def from_array(arr):
    """Collapse a FeatureArray to its label-free structure."""
    if arr.n < 1:
        raise ValueError("from_array needs at least one row")
    return CombStruct(arr.n, dict(Counter(arr.columns)))


def left_order(arr):
    """The canonical representative: columns sorted ascending."""
    return FeatureArray(arr.n, tuple(sorted(arr.columns)))


def uniform_label(struct, rng):
    """A FeatureArray whose column order is uniform over the distinguishable orderings.

    Permuting the expanded column list uniformly does the job: orderings that
    coincide (because equal columns are interchangeable) absorb equally many
    permutations, so each distinguishable ordering is equally likely.
    """
    expanded = []
    for h, m in struct.items_sorted():
        expanded.extend([h] * m)
    order = rng.permutation(len(expanded))
    return FeatureArray(struct.n, tuple(expanded[i] for i in order))


def ordering_count(struct):
    """log of the number of distinguishable column orderings: kappa! / prod m_h!."""
    out = math.lgamma(struct.kappa + 1)
    for m in struct.counts.values():
        out -= math.lgamma(m + 1)
    return out


def project(struct, n):
    """Restrict to the first n rows, dropping histories that become all-zero."""
    if n != int(n) or not 1 <= n <= struct.n:
        raise ValueError(f"project needs integer 1 <= n <= {struct.n}, got {n!r}")
    n = int(n)
    out = Counter()
    for h, m in struct.counts.items():
        head = h[:n]
        if any(head):
            out[head] += m
    return CombStruct(n, dict(out))


def _log_column_factor(h, r, cnr):
    """log of one column's clustering weight under concentration c + n r."""
    s = sum(h)
    out = math.lgamma(s) + math.lgamma(cnr) - math.lgamma(cnr + s)
    for w in h:
        if w:
            out += log_rising_factorial(r, w) - math.lgamma(w + 1)
    return out


def log_pmf_struct(struct, hp):
    """Exact log probability of a combinatorial structure after n rows."""
    n = struct.n
    cnr = hp.c + n * hp.r
    rate = hp.c * hp.T * (digamma_fn(cnr) - digamma_fn(hp.c))
    log_ct = math.log(hp.c * hp.T)
    out = -rate
    for h, m in struct.counts.items():
        out += m * (log_ct + _log_column_factor(h, hp.r, cnr)) - math.lgamma(m + 1)
    return out


def log_pmf_array(arr, hp):
    """Exact log probability of an ordered array under uniform column labeling.

    Equals log_pmf_struct of the collapsed structure minus the log ordering
    count, and is invariant to column order.
    """
    if arr.n < 1:
        raise ValueError("log_pmf_array needs at least one row")
    n = arr.n
    cnr = hp.c + n * hp.r
    rate = hp.c * hp.T * (digamma_fn(cnr) - digamma_fn(hp.c))
    out = arr.kappa * math.log(hp.c * hp.T) - math.lgamma(arr.kappa + 1) - rate
    for col in arr.columns:
        out += _log_column_factor(col, hp.r, cnr)
    return out


# ---------------------------------------------------------------------------
# serialization


def array_to_json(arr):
    return json.dumps(
        {"kind": "array", "n": arr.n, "columns": [list(col) for col in arr.columns]},
        sort_keys=True,
        separators=(",", ":"),
    )


def array_from_json(text):
    doc = json.loads(text)
    if doc.get("kind") != "array":
        raise ValueError(f"expected kind 'array', got {doc.get('kind')!r}")
    return FeatureArray(doc["n"], tuple(tuple(col) for col in doc["columns"]))


def struct_to_json(struct):
    return json.dumps(
        {
            "kind": "struct",
            "n": struct.n,
            "counts": [[list(h), m] for h, m in struct.items_sorted()],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def struct_from_json(text):
    doc = json.loads(text)
    if doc.get("kind") != "struct":
        raise ValueError(f"expected kind 'struct', got {doc.get('kind')!r}")
    counts = {}
    for h, m in doc["counts"]:
        h = tuple(h)
        if h in counts:
            raise ValueError(f"duplicate history {h!r} in serialized structure")
        counts[h] = m
    return CombStruct(doc["n"], counts)
