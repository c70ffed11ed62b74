"""Dimensions of irreducible GL_N representations and character containers."""

from __future__ import annotations

from itertools import groupby, islice
from math import comb
from operator import eq

from ._record import _Record
from .partitions import Weight, _integer, dominant_weight, pad_weight


def dim_schur(w, N: int) -> int:
    """Dimension of the irreducible GL_N representation with highest weight w.

    w is validated once, by pad_weight, which zero-pads a weight shorter than
    N on the right and so requires a nonnegative tail; _dim_schur computes.
    """
    N = _integer(N, "N", 1)
    return _dim_schur(pad_weight(w, N), N)


def _dim_schur(w: Weight, N: int) -> int:
    """dim_schur of a dominant weight tuple w, read as zero-padded to length
    N. Only the fit is checked: a w longer than N, or shorter with a negative
    tail, is a ValueError; its type and dominance are not.

    Exact product over pairs i < j of (w_i - w_j + j - i) / (j - i), with the
    numerator and denominator accumulated separately and the final division
    checked to be exact.

    With k the number of entries before the trailing zeros, the pairs inside
    the zero tail give 1, and row i < k (where w_i > 0) gives over the tail
    prod_{j=k}^{N-1} (w_i + j - i) / (j - i)
    = C(w_i + N-1-i, N-k) / C(N-1-i, N-k).
    math.comb takes at most N-k factors for each, so a zero tail costs no
    N^2 work and a long row no w_i work.
    """
    k = len(w)
    if k > N or (k < N and w and w[-1] < 0):
        raise ValueError(f"{w} does not fit GL_{N}")
    while k and not w[k - 1]:
        k -= 1
    num = 1
    den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= w[i] - w[j] + j - i
            den *= j - i
        if k < N:
            num *= comb(w[i] + N - 1 - i, N - k)
            den *= comb(N - 1 - i, N - k)
    if num % den:
        raise ArithmeticError(f"dimension product not integral for {w}")
    return num // den


def _dim_schur_factors(w: Weight, N: int) -> int:
    """The work of _dim_schur on the same w and N, counted without doing it:
    k(k - 1)/2 pair factors over the k entries before the zero tail, plus
    min(w_i, N - k) for each row's tail binomials when there is a tail. Each
    binomial of row i takes at most k - 1 - i factors more, row i's pairs,
    so _dim_schur takes at most three times the count."""
    k = len(w)
    while k and not w[k - 1]:
        k -= 1
    return k * (k - 1) // 2 + (sum(min(v, N - k) for v in w[:k]) if k < N else 0)


class IrredTerm(_Record):
    """One summand S_wm(C^m) (x) S_wn(C^n) in a single internal degree.

    wm and wn are dominant weights (stored as the tuples dominant_weight
    returns), degree an integer and multiplicity an integer of at least 1,
    by default 1; anything else is a ValueError.
    """

    __slots__ = ("wm", "wn", "degree", "multiplicity")
    _defaults = {"multiplicity": 1}
    wm: Weight
    wn: Weight
    degree: int
    multiplicity: int

    def _check(self):
        object.__setattr__(self, "wm", dominant_weight(self.wm))
        object.__setattr__(self, "wn", dominant_weight(self.wn))
        object.__setattr__(self, "degree", _integer(self.degree, "degree"))
        object.__setattr__(self, "multiplicity", _integer(self.multiplicity, "multiplicity", 1))


def dim_term(term: IrredTerm, m: int, n: int) -> int:
    """Vector space dimension contributed by one summand."""
    return term.multiplicity * dim_schur(term.wm, m) * dim_schur(term.wn, n)


class EquivariantCharacter:
    """Finite multiset of irreducible summands, keyed by a homological index.

    Entries are stored as (index, degree, wm, wn) -> multiplicity with all
    multiplicities positive; that key layout is the order items() returns.
    One private iterator, _sorted_terms, sorts the entries themselves; items()
    and the Betti json renderer of glinv.cli read it, while dimension_table
    and betti_polynomial read them unsorted: no summand becomes an object on
    the way to a table or to text. Engines build a character whole, without
    add (for library callers): Ext and D_0 from sorted runs of flat terms
    (_runs, _from_runs), which the CLI renders without a character, Betti
    from distinct keys. A character in one cohomological degree uses that
    degree as the index; plain graded characters use index 0.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms: dict[tuple[int, int, Weight, Weight], int] = {}

    def add(self, index: int, wm, wn, degree: int, multiplicity: int = 1) -> "EquivariantCharacter":
        """Add a summand keyed (index, degree, wm, wn) as given: wm and wn must
        be dominant weight tuples, as every engine builds them (pass a raw
        vector through dominant_weight first). Only the multiplicity is
        checked: an integer of at least 1, else a ValueError that names it."""
        multiplicity = _integer(multiplicity, "multiplicity", 1)
        key = (index, degree, wm, wn)
        self._terms[key] = self._terms.get(key, 0) + multiplicity
        return self

    @classmethod
    def _from_runs(cls, runs: dict[int, list[tuple[int, ...]]],
                   m: int) -> "EquivariantCharacter":
        """The character of runs as _runs returns them: each flat term
        (degree, multiplicity, *wm, *wn) of index j, wm of length m, is the
        summand keyed (j, degree, wm, wn). The keys of runs are distinct, so
        nothing merges here."""
        ch = cls()
        ch._terms = {(j, term[0], term[2:2 + m], term[2 + m:]): term[1]
                     for j, terms in runs.items() for term in terms}
        return ch

    def __add__(self, other: "EquivariantCharacter") -> "EquivariantCharacter":
        out = EquivariantCharacter()
        terms = out._terms
        terms.update(self._terms)
        for key, mult in other._terms.items():
            terms[key] = terms.get(key, 0) + mult
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EquivariantCharacter) and self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def _sorted_terms(self) -> list[tuple[tuple[int, int, Weight, Weight], int]]:
        """((index, degree, wm, wn), multiplicity) pairs in key order."""
        return sorted(self._terms.items())

    def items(self) -> list[tuple[int, IrredTerm]]:
        """(index, term) pairs sorted by index, then degree, then wm, then wn."""
        return [(j, IrredTerm(wm, wn, deg, mult))
                for (j, deg, wm, wn), mult in self._sorted_terms()]

    def indices(self) -> list[int]:
        return sorted({key[0] for key in self._terms})

    def multiplicity(self, index: int, wm, wn, degree: int) -> int:
        """Multiplicity of the summand keyed (index, degree, wm, wn), 0 if absent;
        a non-integer or bool index or degree is a ValueError, never truncated."""
        key = (_integer(index, "index"), _integer(degree, "degree"),
               dominant_weight(wm), dominant_weight(wn))
        return self._terms.get(key, 0)

    def dimension_table(self, m: int, n: int) -> dict[tuple[int, int], int]:
        """Total vector space dimension per (index, degree) cell, cells in
        key order. The dimension of each distinct weight and N is computed
        once per call, by the unchecked _dim_schur on the dominant tuples the
        character holds, and kept in a dict per N local to the call. The
        terms are read unsorted; only the cells are sorted."""
        m, n = _integer(m, "m", 1), _integer(n, "n", 1)
        dims_m: dict[Weight, int] = {}
        dims_n: dict[Weight, int] = dims_m if m == n else {}
        out: dict[tuple[int, int], int] = {}
        for (j, deg, wm, wn), mult in self._terms.items():
            dm = dims_m.get(wm)
            if dm is None:
                dm = dims_m[wm] = _dim_schur(wm, m)
            dn = dims_n.get(wn)
            if dn is None:
                dn = dims_n[wn] = _dim_schur(wn, n)
            key = (j, deg)
            out[key] = out.get(key, 0) + mult * dm * dn
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return f"EquivariantCharacter({len(self._terms)} terms)"


def _runs(groups: dict[int, list[tuple[int, ...]]]) -> dict[int, list[tuple[int, ...]]]:
    """Sorted runs of flat terms: for each index j of groups, in ascending
    order, its list of terms (degree, 1, *wm, *wn) sorted in place, with each
    stretch of equal terms merged into one whose multiplicity is the
    stretch's length; an index with no terms is dropped.

    Every term enters with multiplicity 1 and all wm of one character have
    one length, so the flat order of the terms is the order of their keys
    (degree, wm, wn), and equal keys are neighbours after the sort. Merging
    them gives the multiplicities a dict keyed by (j, degree, wm, wn) would
    sum, in key order. One comparison of each pair of neighbours finds
    whether any stretch exists, and the merge pass runs only then."""
    runs = {}
    for j in sorted(groups):
        terms = groups[j]
        if not terms:
            continue
        terms.sort()
        if any(map(eq, terms, islice(terms, 1, None))):
            terms = [(term[0], len(list(same)), *term[2:]) for term, same in groupby(terms)]
        runs[j] = terms
    return runs
