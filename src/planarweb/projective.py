"""Point configurations in the projective plane and their webs.

A configuration of n points generates a web from the pencils of curves of
degree d through d(d+3)/2 - 1 of its points: for n <= 5 that means one line
pencil per point and one conic pencil per 4-subset in general position.

Line pencils use a fixed reduced basis of the linear forms vanishing at the
point; conic pencils use the two products of opposite connecting lines.
Only the foliation (not the particular integral) is the contract.  No two of
these pencils coincide; `web_from_configuration` gives the reason.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .errors import DegenerateQuadruple, InvalidParameter
from .parse import parse_ratfunc
from .poly import BivarPoly
from .ratfunc import RatFunc
from .web import Foliation, Web, pullback_web, webs_equal_as_foliations


class ProjPoint:
    """Homogeneous [X:Y:Z], first nonzero coordinate scaled to 1, and the
    primitive integer multiple of those coordinates (`ints`)."""

    __slots__ = ("coords", "ints")

    def __init__(self, x, y, z):
        c = (Fraction(x), Fraction(y), Fraction(z))
        if not any(c):
            raise ValueError("all coordinates zero")
        lead = next(v for v in c if v)
        self.coords = tuple(v / lead for v in c)
        # one coordinate is 1, so the lcm of the reduced denominators leaves
        # the integer coordinates without a common factor
        m = lcm(*(v.denominator for v in self.coords))
        self.ints = tuple(v.numerator * (m // v.denominator) for v in self.coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "[" + ":".join(str(v) for v in self.coords) + "]"


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    # scaling a point scales the determinant, so its zero test can read the
    # integer coordinates
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = p.ints, q.ints, r.ints
    det = (
        a1 * (b2 * c3 - b3 * c2)
        - a2 * (b1 * c3 - b3 * c1)
        + a3 * (b1 * c2 - b2 * c1)
    )
    return det == 0


def _join(p: ProjPoint, q: ProjPoint) -> Tuple[Fraction, Fraction, Fraction]:
    """Line through two distinct points (cross product of coordinates)."""
    (a1, a2, a3), (b1, b2, b3) = p.coords, q.coords
    return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


class Configuration:
    """n >= 3 pairwise distinct projective points."""

    def __init__(self, points: Sequence[ProjPoint], name: Optional[str] = None):
        pts = list(points)
        if len(pts) < 3:
            raise InvalidParameter("a configuration needs at least 3 points")
        repeated = next((p for i, p in enumerate(pts) if p in pts[:i]), None)
        if repeated is not None:
            raise InvalidParameter(f"configuration point {repeated} appears twice")
        self.points = pts
        self.name = name

    def __len__(self):
        return len(self.points)

    def collinear_triples(self) -> List[Tuple[int, int, int]]:
        out = []
        for i, j, k in combinations(range(len(self.points)), 3):
            if collinear(self.points[i], self.points[j], self.points[k]):
                out.append((i + 1, j + 1, k + 1))
        return out

    def is_degenerate(self) -> bool:
        return bool(self.collinear_triples())

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Configuration{label}({self.points})"


class Stratum:
    def __init__(self, label: str, witnesses: List[Tuple[int, int, int]], pivot: Optional[int] = None):
        self.label = label
        self.witnesses = witnesses
        self.pivot = pivot

    def __repr__(self):
        extra = f", pivot={self.pivot}" if self.pivot else ""
        return f"Stratum({self.label}, triples={self.witnesses}{extra})"


def classify_stratum(config: Configuration) -> Stratum:
    """Degeneracy stratum of a 5-point configuration (S0 generic, S1 one
    collinear triple, S2 four on a line, S3 unique pivot, S4 all aligned)."""
    if len(config) != 5:
        raise InvalidParameter("stratification is defined for 5 points")
    pts = config.points
    triples = config.collinear_triples()
    if not triples:
        return Stratum("S0", [])
    # maximal number of points on one line
    best_line_count = 0
    for i, j in combinations(range(5), 2):
        on_line = sum(
            1
            for k in range(5)
            if k == i or k == j or collinear(pts[i], pts[j], pts[k])
        )
        best_line_count = max(best_line_count, on_line)
    if best_line_count == 5:
        return Stratum("S4", triples)
    if best_line_count == 4:
        return Stratum("S2", triples)
    pivots = []
    for j in range(5):
        ok = True
        for i in range(5):
            if i == j:
                continue
            if not any(
                collinear(pts[i], pts[j], pts[k])
                for k in range(5)
                if k not in (i, j)
            ):
                ok = False
                break
        if ok:
            pivots.append(j + 1)
    if len(pivots) == 1:
        return Stratum("S3", triples, pivot=pivots[0])
    # one triple, or several but no unique pivot: still reported as S1-like listing
    return Stratum("S1", triples)


def line_pencil(p: ProjPoint) -> Foliation:
    """Pencil of lines through p, as a foliation of the affine chart z = 1."""
    x0, y0, z0 = p.coords
    x, y = parse_ratfunc("x"), parse_ratfunc("y")
    if z0 != 0:
        return Foliation((x - RatFunc.const(x0 / z0)) / (y - RatFunc.const(y0 / z0)))
    # direction point at infinity: parallel lines y0*x - x0*y = const
    return Foliation(RatFunc.const(y0) * x - RatFunc.const(x0) * y)


def conic_pencil(q1: ProjPoint, q2: ProjPoint, q3: ProjPoint, q4: ProjPoint) -> Foliation:
    """Pencil of conics through four points in general position: ratio of
    the two opposite connecting-line products, in the chart z = 1."""
    quad = [q1, q2, q3, q4]
    for a, b, c in combinations(range(4), 3):
        if collinear(quad[a], quad[b], quad[c]):
            raise DegenerateQuadruple("three of the four points are collinear")

    def affine_line(p: ProjPoint, q: ProjPoint) -> Tuple[BivarPoly, int]:
        """(m L, m): the line L = a x + b y + c through p and q, cleared by m."""
        coeffs = _join(p, q)
        m = lcm(*(v.denominator for v in coeffs))
        a, b, c = (v * m for v in coeffs)
        return BivarPoly({(1, 0): a, (0, 1): b, (0, 0): c}), m

    (l12, m12), (l34, m34) = affine_line(q1, q2), affine_line(q3, q4)
    (l13, m13), (l24, m24) = affine_line(q1, q3), affine_line(q2, q4)
    return Foliation(RatFunc((l12 * l34).scale(m13 * m24), (l13 * l24).scale(m12 * m34)))


def web_from_configuration(config: Configuration, name: Optional[str] = None) -> Web:
    """One line pencil per point plus one conic pencil per general-position
    4-subset.  These foliations are pairwise distinct, so the web's own
    pairwise check is the only one: line pencils through distinct points
    differ; a conic pencil through four points, no three collinear, has
    exactly those four base points; and its general member is an irreducible
    conic, so it is no line pencil."""
    fols = [line_pencil(p) for p in config.points]
    for subset in combinations(config.points, 4):
        try:
            fols.append(conic_pencil(*subset))
        except DegenerateQuadruple:
            continue
    return Web(fols, name=name or (config.name and f"web({config.name})"))


def named_configuration(name: str, a=None) -> Configuration:
    """The paper's configurations: b (4 points), q (6), c (5), c_a (5)."""
    b = [
        ProjPoint(1, 0, 0),
        ProjPoint(0, 1, 0),
        ProjPoint(1, 1, 1),
        ProjPoint(0, 0, 1),
    ]
    if name == "b":
        return Configuration(b, name="b")
    if name == "q":
        pts = [
            b[0],
            b[1],
            ProjPoint(-1, -1, 1),
            b[3],
            ProjPoint(-1, 0, 1),
            ProjPoint(0, -1, 1),
        ]
        return Configuration(pts, name="q")
    if name == "c":
        return Configuration(b + [ProjPoint(-1, -1, 1)], name="c")
    if name == "c_a":
        if a is None:
            raise InvalidParameter("c_a needs the parameter a")
        a = Fraction(a)
        if a in (0, 1):
            raise InvalidParameter("c_a requires a not in {0, 1}")
        return Configuration(b + [ProjPoint(a, a, -1)], name=f"c_{a}")
    raise InvalidParameter(f"unknown configuration {name!r}")


def cremona_inverse() -> Tuple[RatFunc, RatFunc]:
    return (parse_ratfunc("(x+1)/x"), parse_ratfunc("(y+1)/y"))


def prop7_check(web_sk: Web, config: Optional[Configuration] = None) -> dict:
    """Does the Cremona image of the given web equal the configuration web?

    The image by C is the pullback by C^{-1}; equality is as unordered sets
    of foliations, and the explicit bijection is returned on success."""
    if config is None:
        config = named_configuration("q")
    image = pullback_web(web_sk, cremona_inverse(), name="C(W)")
    target = web_from_configuration(config)
    if image.size != target.size:
        return {
            "match": False,
            "reason": f"cardinality {image.size} vs {target.size}",
            "bijection": None,
        }
    bij = webs_equal_as_foliations(image, target)
    return {
        "match": bij is not None,
        "bijection": bij,
        "configuration": config.name,
        "web_size": image.size,
    }


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------


def config_to_text(config: Configuration) -> str:
    lines = []
    if config.name:
        lines.append(f"name: {config.name}")
    for p in config.points:
        lines.append(" ".join(str(c) for c in p.coords))
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> Configuration:
    name = None
    pts = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name:"):
            name = line[5:].strip()
            continue
        parts = line.replace(":", " ").split()
        if len(parts) != 3:
            raise InvalidParameter(f"a point needs three coordinates: {line!r}")
        try:
            pts.append(ProjPoint(*(Fraction(v) for v in parts)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameter(f"bad point line {line!r}: {exc}") from None
    return Configuration(pts, name=name)


def load_configuration(path) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())
