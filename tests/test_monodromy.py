import itertools

from mpmath import mpf

from planarweb.hyperlog.constants import SymConst
from planarweb.hyperlog.monodromy import monodromy
from planarweb.hyperlog.numeric import WordEvaluator
from planarweb.hyperlog.words import HyperlogExpr, STANDARD


def W(*letters):
    return HyperlogExpr.word(letters)


def test_monodromy_examples():
    m = monodromy(W("x0"), "x0")
    assert m == W("x0") + HyperlogExpr.constant(SymConst.monomial(i=1, pi=1, coeff=2))
    assert monodromy(W("x1"), "x0") == W("x1")
    li2 = W("x0", "x1")
    m = monodromy(li2, "x1")
    assert m == li2 - W("x0").scale(SymConst.monomial(i=1, pi=1, coeff=2))


def test_monodromy_at_unrelated_letter_is_identity():
    assert monodromy(W("x0", "x1"), "x0") == W("x0", "x1")
    assert monodromy(W("x0", "x0"), "x1") == W("x0", "x0")


LETTERS = ("x0", "x1", "x-1")


def all_words_weight_le_3():
    words = []
    for wt in (1, 2, 3):
        words += [tuple(w) for w in itertools.product(LETTERS, repeat=wt)]
    return words


def test_symbolic_vs_numeric_continuation_all_weight3_words():
    """The independent oracle for every monodromy normalization: transport
    the whole word family around explicit based loops and compare.  Each
    loop is compared with the values at its own base point: the route to
    -0.7 starts at the mirror -a, so the first x-1 loop is based there; the
    second, based at a, goes over 0 along the rectangle written out."""
    words = all_words_weight_le_3()
    ev = WordEvaluator(STANDARD, words, dps=35)
    mpl = ev.mp
    a, alt = ev.anchor, mpl.mpf("0.35")
    centers = {"x0": 0, "x1": 1, "x-1": -1}
    loops = []
    for letter in LETTERS:
        c = mpl.mpc(centers[letter])
        approach = c + mpl.mpf("0.3") if centers[letter] <= 0.4 else c - mpl.mpf("0.3")
        loops.append((letter, c, ev.route(approach)))
    loops.append(("x-1", mpl.mpc(-1), [a, mpl.mpc(a, alt), mpl.mpc("-0.7", alt), mpl.mpf("-0.7")]))
    assert {eta[0] for _, _, eta in loops} == {a, -a}
    for letter, c, eta in loops:
        base_vals = ev.values_along(eta[:1])
        approach = mpl.mpc(eta[-1])
        circle = [
            c + (approach - c) * mpl.exp(2j * mpl.pi * k / 8) for k in range(1, 8)
        ] + [approach]
        loop = list(eta) + circle + list(reversed(eta))
        cont = ev.values_along(loop)
        for w in words:
            sym = monodromy(W(*w), letter)
            val = mpl.mpc(0)
            for u, coef in sym.terms.items():
                val += coef.numeric(mpl) * base_vals[u]
            assert abs(val - cont[w]) < mpf(10) ** -25, (letter, eta[0], w)
