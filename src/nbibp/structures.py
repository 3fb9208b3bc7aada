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
from scipy.special import betaln

from .numerics import digamma_fn

__all__ = [
    "Hyperparams",
    "FeatureArray",
    "CombStruct",
    "from_array",
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


def _log_pmf_of(n, columns):
    """hp -> log p.m.f. of the ordered n-row array with these columns.

    The p.m.f. depends on the array only through n, its column sums and the
    counts of its distinct nonzero entry values, so these are taken once and
    each call costs O(kappa + distinct values).  Each column contributes its
    clustering weight under concentration c + n r, log B(s, c + n r) for its
    sum s, and each nonzero entry w adds log (r)_w - log w!, which is
    -log B(r, w + 1) - log(r + w).  Beta functions stay accurate at huge
    entries (10**12 and up), where differences of log-gammas lose digits.
    """
    sums = np.array([float(sum(col)) for col in columns])
    hist = sorted(Counter(w for col in columns for w in col if w).items())
    values, counts = np.array(hist, dtype=np.float64).reshape(-1, 2).T

    def log_pmf(hp):
        r, cnr = hp.r, hp.c + n * hp.r
        rate = hp.c * hp.T * (digamma_fn(cnr) - digamma_fn(hp.c))
        out = sums.size * math.log(hp.c * hp.T) - math.lgamma(sums.size + 1) - rate
        out += float(np.sum(betaln(sums, cnr)))
        return out - float(counts @ (betaln(r, values + 1.0) + np.log(r + values)))

    return log_pmf


def log_pmf_struct(struct, hp):
    """Exact log probability of a combinatorial structure after n rows: the
    array p.m.f. of any of its orderings plus the log ordering count."""
    cols = [h for h, m in struct.counts.items() for _ in range(m)]
    return _log_pmf_of(struct.n, cols)(hp) + ordering_count(struct)


def log_pmf_array(arr, hp):
    """Exact log probability of an ordered array under uniform column labeling.

    Depends on the array only through n, its column sums and its entry
    histogram, so it is invariant to column order.
    """
    if arr.n < 1:
        raise ValueError("log_pmf_array needs at least one row")
    return _log_pmf_of(arr.n, arr.columns)(hp)


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
