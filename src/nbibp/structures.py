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

Arrays are checked where they enter: FeatureArray(n, columns), from_matrix
and array_from_json refuse any n, length or entry that is not a valid array.
Columns the package draws or derives itself (the buffet and the truncated
oracle, and the chain's W from its int64 count matrix) are already tuples of
Python ints, so those build through FeatureArray._unchecked and skip the
check.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln

from .distributions import _log_rising_over_factorial
from .numerics import harmonic_gap

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
    """Count shape r, concentration c and base mass T, each finite and > 0.

    The base measure is diffuse with total mass T, as the buffet, the p.m.f.s
    and the MCMC assume; fixed atoms enter only the finitary construction,
    as an argument of bnbp_sample_finitary.
    """

    r: float
    c: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.r < math.inf and 0.0 < self.c < math.inf and 0.0 < self.T < math.inf):
            raise ValueError(f"Hyperparams needs finite r, c, T > 0, got {self!r}")


def _check_history(h, n):
    """h as a tuple of Python ints, after checking its length, that every
    entry is an integer >= 0 and that some entry is positive."""
    if len(h) != n:
        raise ValueError(f"history length {len(h)} does not match n={n}")
    try:
        ints = tuple(map(int, h))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != tuple(h) or min(ints) < 0:
        raise ValueError(f"history entries must be integers >= 0, got {h!r}")
    if not any(ints):
        raise ValueError("all-zero history: a feature nobody expresses cannot be observed")
    return ints


@dataclass(frozen=True)
class FeatureArray:
    """An ordered tuple of feature columns over n >= 1 rows.

    Column order is meaningful here (simulators emit creation order); the
    order-free object is CombStruct.
    """

    n: int
    columns: tuple = ()

    def __post_init__(self):
        if self.n != int(self.n) or self.n < 1:
            raise ValueError(f"FeatureArray needs integer n >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        cols = tuple(_check_history(col, self.n) for col in self.columns)
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _unchecked(cls, n, columns):
        """The array of a Python int n >= 1 and a tuple of columns that are
        tuples of n Python ints >= 0, none all zero, built without
        __post_init__: only for columns the package drew or derived itself."""
        arr = object.__new__(cls)
        object.__setattr__(arr, "n", n)
        object.__setattr__(arr, "columns", columns)
        return arr

    @property
    def kappa(self):
        return len(self.columns)

    @classmethod
    def from_matrix(cls, mat):
        mat = np.asarray(mat)
        if mat.ndim != 2:
            raise ValueError(f"from_matrix needs a 2-d array, got shape {mat.shape}")
        return cls(mat.shape[0], tuple(map(tuple, mat.T.tolist())))

    def to_matrix(self):
        return np.array([list(col) for col in self.columns], dtype=np.int64).T.reshape(
            self.n, self.kappa
        )


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


def _log_pmf_of(n, pairs):
    """(r, c, T) -> log p.m.f. of an n-row array given as (column,
    multiplicity) pairs, each column standing for that many equal columns.

    The p.m.f. depends on the array only through n, its column sums and the
    counts of its distinct nonzero entry values.  These are taken once, in
    one pass over the given columns whatever their multiplicities, and each
    call costs O(pairs + distinct values).  Each column contributes its
    clustering weight under concentration c + n r, log B(s, c + n r) for its
    sum s, and each nonzero entry w adds log (r)_w / w!, in the log-beta
    form the NB and BNB laws share.  The feature count kappa, the sum of the
    multiplicities, is Poisson with rate c T harmonic_gap(n r, c).

    The evaluator keeps the entry term of the last r it saw, so a run of
    calls at one r (a slice move in c) computes it once, and the last
    (r, c, T) with its value, so a repeat of the last point does no work.
    Both are the values a fresh evaluator returns, bit for bit.
    """
    sums, mults, hist = [], [], Counter()
    for col, m in pairs:
        sums.append(float(sum(col)))
        mults.append(m)
        if m == 1:  # an array's columns: counted in C
            hist.update(filter(None, col))
        else:
            for w in filter(None, col):
                hist[w] += m
    kappa, sums, mults = sum(mults), np.array(sums), np.array(mults, dtype=np.float64)
    values, counts = np.array(sorted(hist.items()), dtype=np.float64).reshape(-1, 2).T
    entry_r = entry = point = value = None

    def log_pmf(r, c, T):
        nonlocal entry_r, entry, point, value
        if point == (r, c, T):
            return value
        cnr = c + n * r
        rate = c * T * harmonic_gap(n * r, c)
        if entry_r != r:
            entry_r, entry = r, float(counts @ _log_rising_over_factorial(r, values))
        # log c + log T, since c T can underflow to 0.0 where neither factor does
        out = kappa * (math.log(c) + math.log(T)) - math.lgamma(kappa + 1) - rate
        out += float(np.add.reduce(mults * betaln(sums, cnr)))
        point, value = (r, c, T), out + entry
        return value

    return log_pmf


def log_pmf_struct(struct, hp):
    """Exact log probability of a combinatorial structure after n rows: the
    array p.m.f. of any of its orderings plus the log ordering count, each
    distinct history taken once with its multiplicity."""
    return _log_pmf_of(struct.n, struct.counts.items())(hp.r, hp.c, hp.T) + ordering_count(struct)


def log_pmf_array(arr, hp):
    """Exact log probability of an ordered array under uniform column labeling.

    Depends on the array only through n, its column sums and its entry
    histogram, so it is invariant to column order.
    """
    return _log_pmf_of(arr.n, ((col, 1) for col in arr.columns))(hp.r, hp.c, hp.T)


# ---------------------------------------------------------------------------
# serialization


def _columns_to_json(n, columns):
    """The compact, sorted-key JSON record of the n-row array with these
    columns (tuples or lists), written directly.

    Entries and n are Python ints, whose str is their JSON text, so this is
    byte-for-byte json.dumps(..., sort_keys=True, separators=(",", ":")).
    """
    cols = ",".join([f"[{','.join(map(str, col))}]" for col in columns])
    return f'{{"columns":[{cols}],"kind":"array","n":{n}}}'


def array_to_json(arr):
    """The compact, sorted-key JSON record of arr."""
    return _columns_to_json(arr.n, arr.columns)


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
