"""Dimensions of irreducible GL_N representations and character containers."""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .partitions import Weight, _integer, dominant_weight, pad_weight


def dim_schur(w, N: int) -> int:
    """Dimension of the irreducible GL_N representation with highest weight w.

    Exact product over pairs i < j of (w_i - w_j + j - i) / (j - i), with the
    numerator and denominator accumulated separately and the final division
    checked to be exact. w is validated once, by pad_weight, which zero-pads a
    weight shorter than N on the right and so requires a nonnegative tail.

    With k the number of entries before the trailing zeros, the pairs inside
    the zero tail give 1, and row i < k (where w_i > 0) gives over the tail
    prod_{j=k}^{N-1} (w_i + j - i) / (j - i)
    = perm(w_i + N-1-i, w_i) / perm(w_i + k-1-i, w_i), a product of 2 w_i
    factors, so a zero tail costs no N^2 work.
    """
    N = _integer(N, "N", 1)
    ww = pad_weight(w, N)
    k = N
    while k and not ww[k - 1]:
        k -= 1
    num = 1
    den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= ww[i] - ww[j] + j - i
            den *= j - i
        if k < N:
            num *= perm(ww[i] + N - 1 - i, ww[i])
            den *= perm(ww[i] + k - 1 - i, ww[i])
    if num % den:
        raise ArithmeticError(f"dimension product not integral for {ww}")
    return num // den


@dataclass(frozen=True)
class IrredTerm:
    """One summand S_wm(C^m) (x) S_wn(C^n) in a single internal degree."""

    wm: Weight
    wn: Weight
    degree: int
    multiplicity: int = 1


def dim_term(term: IrredTerm, m: int, n: int) -> int:
    """Vector space dimension contributed by one summand."""
    return term.multiplicity * dim_schur(term.wm, m) * dim_schur(term.wn, n)


class EquivariantCharacter:
    """Finite multiset of irreducible summands, keyed by a homological index.

    Entries are stored as (index, degree, wm, wn) -> multiplicity with all
    multiplicities positive; that key layout is the order items() returns.
    One private iterator, _sorted_terms, sorts the entries themselves; items()
    and the renderers of glinv.cli read it, while dimension_table and
    betti_polynomial read them unsorted: no summand becomes an object on the
    way to a table or to text. A character in one cohomological degree uses
    that degree as the index; plain graded characters use index 0.
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

    def _add_weights(self, index: int, weights) -> None:
        """Add each (wm, wn, degree) of weights at index with multiplicity 1;
        the weights are dominant tuples, as _lambdas builds them."""
        terms = self._terms
        for wm, wn, degree in weights:
            key = (index, degree, wm, wn)
            terms[key] = terms.get(key, 0) + 1

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
        key order. dim_schur runs once per distinct weight and N in one call:
        the dimensions are kept in a dict per N, local to the call. The terms
        are read unsorted; only the cells are sorted."""
        dims_m: dict[Weight, int] = {}
        dims_n: dict[Weight, int] = dims_m if m == n else {}
        out: dict[tuple[int, int], int] = {}
        for (j, deg, wm, wn), mult in self._terms.items():
            dm = dims_m.get(wm)
            if dm is None:
                dm = dims_m[wm] = dim_schur(wm, m)
            dn = dims_n.get(wn)
            if dn is None:
                dn = dims_n[wn] = dim_schur(wn, n)
            key = (j, deg)
            out[key] = out.get(key, 0) + mult * dm * dn
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return f"EquivariantCharacter({len(self._terms)} terms)"
