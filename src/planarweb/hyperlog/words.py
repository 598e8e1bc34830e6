"""Words over a ramification alphabet and the shuffle algebra.

A word is a tuple of letter labels; its hyperlogarithm is defined by the
kernel convention

    d/dz L_{a w}(z) = k_a(z) L_w(z),     k_a(z) = sign_a / (z - point_a)

with the base value fixed by shuffle regularization at the tangential base
point 0 (the pure-letter-0 words are log^k z / k!, everything else vanishes
at 0).  The standard alphabet x0, x1, x-1 carries signs +1, -1, +1, so that
L_{x0} = log, L_{x1} = -log(1-z), L_{x-1} = log(1+z) and L_{x0^{n-1} x1}
equals the classical polylogarithm Li_n exactly.

Coefficients live in the symbolic-constants ring; the shuffle product makes
evaluation multiplicative: eval(L_u) eval(L_v) = eval(shuffle(u, v)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import AlphabetMismatch
from .constants import ONE, SymConst

Word = Tuple[str, ...]


class Alphabet:
    """Distinct ramification points with kernel signs."""

    def __init__(self, letters: Sequence[Tuple[str, Fraction, int]]):
        self.labels: List[str] = []
        self.points: Dict[str, Fraction] = {}
        self.signs: Dict[str, int] = {}
        for label, point, sign in letters:
            if label in self.points:
                raise ValueError(f"duplicate letter {label!r}")
            self.labels.append(label)
            self.points[label] = Fraction(point)
            self.signs[label] = sign
        if len(set(self.points.values())) != len(self.labels):
            raise ValueError("ramification points must be pairwise distinct")

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.labels == other.labels
            and self.points == other.points
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash(tuple((l, self.points[l], self.signs[l]) for l in self.labels))

    def __repr__(self):
        return f"Alphabet({self.labels})"


def standard_alphabet() -> Alphabet:
    return Alphabet(
        [("x0", Fraction(0), 1), ("x1", Fraction(1), -1), ("x-1", Fraction(-1), 1)]
    )

STANDARD = standard_alphabet()


def shuffle_words(u: Word, v: Word) -> Dict[Word, int]:
    """Riffle shuffles of u and v with multiplicities."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: Dict[Word, int] = {}
    for w, m in shuffle_words(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + m
    for w, m in shuffle_words(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + m
    return out


class HyperlogExpr:
    """Linear combination of words with symbolic-constant coefficients."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, terms: Dict[Word, SymConst] | None = None, alphabet: Alphabet = STANDARD):
        self.alphabet = alphabet
        self.terms: Dict[Word, SymConst] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[tuple(w)] = c

    @staticmethod
    def word(letters: Iterable[str], alphabet: Alphabet = STANDARD) -> "HyperlogExpr":
        w = tuple(letters)
        for a in w:
            if a not in alphabet.points:
                raise AlphabetMismatch(f"letter {a!r} not in the alphabet")
        return HyperlogExpr({w: ONE}, alphabet)

    @staticmethod
    def constant(c: SymConst | int | Fraction, alphabet: Alphabet = STANDARD) -> "HyperlogExpr":
        if not isinstance(c, SymConst):
            c = SymConst.rational(c)
        return HyperlogExpr({(): c}, alphabet)

    def _check(self, other: "HyperlogExpr"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("expressions over different alphabets")

    def is_zero(self) -> bool:
        return not self.terms

    def weight(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, HyperlogExpr)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __add__(self, other: "HyperlogExpr") -> "HyperlogExpr":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, SymConst()) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return HyperlogExpr(out, self.alphabet)

    def __neg__(self) -> "HyperlogExpr":
        return HyperlogExpr({w: -c for w, c in self.terms.items()}, self.alphabet)

    def __sub__(self, other: "HyperlogExpr") -> "HyperlogExpr":
        return self + (-other)

    def scale(self, c) -> "HyperlogExpr":
        if not isinstance(c, SymConst):
            c = SymConst.rational(c)
        if not c:
            return HyperlogExpr(alphabet=self.alphabet)
        return HyperlogExpr({w: v * c for w, v in self.terms.items()}, self.alphabet)

    def shuffle_mul(self, other: "HyperlogExpr") -> "HyperlogExpr":
        """Product in the shuffle algebra (matches pointwise multiplication
        of the evaluated functions)."""
        self._check(other)
        out: Dict[Word, SymConst] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                c = cu * cv
                for w, m in shuffle_words(u, v).items():
                    s = out.get(w, SymConst()) + c.scale(m)
                    if s:
                        out[w] = s
                    else:
                        out.pop(w, None)
        return HyperlogExpr(out, self.alphabet)

    def words(self) -> List[Word]:
        return sorted(self.terms, key=lambda w: (len(w), w))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in self.words():
            c = self.terms[w]
            name = "L[" + " ".join(w) + "]" if w else "1"
            parts.append(f"({c})*{name}" if not (c == ONE) else name)
        return " + ".join(parts)


def shuffle(u: Word | Sequence[str], v: Word | Sequence[str], alphabet: Alphabet = STANDARD) -> HyperlogExpr:
    """Shuffle product of two bare words as a HyperlogExpr."""
    u, v = tuple(u), tuple(v)
    for a in u + v:
        if a not in alphabet.points:
            raise AlphabetMismatch(f"letter {a!r} not in the alphabet")
    return HyperlogExpr(
        {w: SymConst.rational(m) for w, m in shuffle_words(u, v).items()}, alphabet
    )
