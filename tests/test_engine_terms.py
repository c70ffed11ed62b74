"""Every term an engine puts in a character is a pair of dominant weights.

The engines write their keys into a character unchecked, and
EquivariantCharacter.add too stores its weights as given, so the engines
are the only guard of the key format: tuples of ints, weakly decreasing,
the GL_m weight with at most m entries and the GL_n weight with at most n,
both summing to the internal degree.
"""

from glinv import (
    MatrixContext,
    betti_polynomial,
    ext_quotient,
    h_rect,
    power_of_minors,
    saturated_power,
    symbolic_power,
)
from glinv.homology import DegreeWindow
from glinv.loccoh import ds_character


def _dominant(w, length):
    return (type(w) is tuple and len(w) <= length
            and all(type(v) is int for v in w)
            and all(a >= b for a, b in zip(w, w[1:])))


def _check_terms(ch, m, n):
    terms = ch.items()
    for j, term in terms:
        assert type(j) is int and type(term.degree) is int, (j, term)
        assert _dominant(term.wm, m) and _dominant(term.wn, n), (j, term)
        assert term.degree == sum(term.wm) == sum(term.wn), (j, term)
    return len(terms)


def test_ext_quotient_terms_are_dominant():
    count = 0
    for n in range(1, 5):
        for m in (n, n + 1):
            ctx = MatrixContext(m, n)
            for build in (power_of_minors, symbolic_power, saturated_power):
                for p in range(1, n + 1):
                    for d in range(1, 4):
                        window = DegreeWindow(-n * (m + d), 0)
                        count += _check_terms(ext_quotient(build(ctx, p, d), window), m, n)
    assert count > 5000


def test_ds_character_terms_are_dominant():
    count = 0
    for n in range(1, 5):
        for m in (n, n + 1, n + 2):
            window = DegreeWindow(-m * n - 14, -m * n)
            count += _check_terms(ds_character(MatrixContext(m, n), 0, window), m, n)
    assert count > 1000


def test_betti_terms_are_dominant():
    count = 0
    for n in range(1, 5):
        for m in (n, n + 1):
            ctx = MatrixContext(m, n)
            for r in range(1, n + 1):
                for s in range(1, 4):
                    count += _check_terms(h_rect(ctx, r, s), m, n)
            for a in range(1, n + 1):
                for b in range(1, 4):
                    count += _check_terms(betti_polynomial(ctx, a, b), m, n)
    assert count > 1000
