import random
from fractions import Fraction
from itertools import combinations

import pytest

from planarweb.errors import DegenerateQuadruple, InvalidParameter
from planarweb.parse import parse_ratfunc as P
from planarweb.projective import (
    Configuration,
    ProjPoint,
    classify_stratum,
    collinear,
    conic_pencil,
    cremona_inverse,
    line_pencil,
    named_configuration,
    prop7_check,
    web_from_configuration,
    config_from_text,
    config_to_text,
)
from planarweb.web import Foliation, pullback_web, same_foliation, webs_equal_as_foliations


def test_collinear_examples():
    assert collinear(ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(1, 1, 0))
    assert not collinear(ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1))
    assert collinear(ProjPoint(1, 1, 1), ProjPoint(-1, -1, 1), ProjPoint(0, 0, 1))


def test_collinear_matches_the_fraction_determinant():
    # random points, some at infinity (z = 0), given by unnormalized
    # coordinates, and triples r = a p + b q on the line pq
    rng = random.Random(7)

    def coord():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def det(p, q, r):
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = p, q, r
        return a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)

    seen = set()
    for trial in range(300):
        raw = []
        while len(raw) < 3:
            c = (coord(), coord(), Fraction(0) if rng.random() < 0.3 else coord())
            if trial % 2 and len(raw) == 2:
                a, b = coord(), coord()
                c = tuple(a * u + b * v for u, v in zip(*raw))
            if any(c):
                raw.append(c)
        got = collinear(*(ProjPoint(*c) for c in raw))
        assert got == (det(*raw) == 0), raw
        seen.add((got, any(c[2] == 0 for c in raw)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_classify_stratum_examples():
    c = named_configuration("c")
    st = classify_stratum(c)
    assert st.label == "S1" and st.witnesses == [(3, 4, 5)]
    aligned = Configuration([ProjPoint(i, 0, 1) for i in range(5)])
    assert classify_stratum(aligned).label == "S4"
    s3 = Configuration(
        [ProjPoint(0, 0, 1), ProjPoint(1, 1, 1), ProjPoint(2, 2, 1),
         ProjPoint(1, -1, 1), ProjPoint(2, -2, 1)]
    )
    st = classify_stratum(s3)
    assert st.label == "S3" and st.pivot == 1


def test_classify_stratum_brute_oracle():
    # oracle: exhaustive triple scan reproduces the witness list
    cfg = named_configuration("c")
    pts = cfg.points
    brute = [
        (i + 1, j + 1, k + 1)
        for i in range(5)
        for j in range(i + 1, 5)
        for k in range(j + 1, 5)
        if collinear(pts[i], pts[j], pts[k])
    ]
    assert classify_stratum(cfg).witnesses == brute


def test_line_pencil_examples():
    for coords, integral in [((1, 0, 0), "y"), ((0, 1, 0), "x"), ((0, 0, 1), "y/x")]:
        f = line_pencil(ProjPoint(*coords))
        assert same_foliation(f, Foliation(P(integral)))


def test_conic_pencil_examples():
    f = conic_pencil(
        ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1), ProjPoint(1, 1, 1)
    )
    assert same_foliation(f, Foliation(P("y*(1-x)/(x*(1-y))")))
    with pytest.raises(DegenerateQuadruple):
        conic_pencil(
            ProjPoint(0, 0, 1), ProjPoint(1, 0, 1), ProjPoint(2, 0, 1), ProjPoint(1, 1, 1)
        )


def test_web_from_frame_is_cauchy(cauchy_web):
    frame = Configuration([ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)])
    web = web_from_configuration(frame)
    assert webs_equal_as_foliations(web, cauchy_web) is not None


def test_web_from_b_is_bol(bol_web):
    web = web_from_configuration(named_configuration("b"))
    assert web.size == 5
    assert webs_equal_as_foliations(web, bol_web) is not None


def test_web_from_c_is_section35_web(configc_web):
    web = web_from_configuration(named_configuration("c"))
    assert webs_equal_as_foliations(web, configc_web) is not None


def test_strata_foliation_counts():
    samples = {
        "S0": [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1), (2, 3, 1)],
        "S1": [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1), (-1, -1, 1)],
        "S2": [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (1, 1, 1)],
        "S3": [(0, 0, 1), (1, 1, 1), (2, 2, 1), (1, -1, 1), (2, -2, 1)],
        "S4": [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (4, 0, 1)],
    }
    expected = {"S0": 10, "S1": 8, "S2": 5, "S3": 6, "S4": 5}
    for label, pts in samples.items():
        cfg = Configuration([ProjPoint(*p) for p in pts])
        assert classify_stratum(cfg).label == label
        assert web_from_configuration(cfg).size == expected[label]


def test_configuration_pencils_are_pairwise_distinct():
    """Small random configurations, with points at infinity and collinear
    triples: the web holds every line pencil and every general-position
    conic pencil, and its pairwise check raises no DegenerateMap."""
    rng = random.Random(7)
    seen_infinity = seen_triple = 0
    for _ in range(40):
        n, points = rng.randrange(4, 7), []
        while len(points) < n:
            coords = [rng.randrange(-2, 4) for _ in range(3)]
            if any(coords) and ProjPoint(*coords) not in points:
                points.append(ProjPoint(*coords))
        cfg = Configuration(points)
        general = [
            quad for quad in combinations(points, 4)
            if not any(collinear(*triple) for triple in combinations(quad, 3))
        ]
        assert web_from_configuration(cfg).size == len(points) + len(general)
        seen_infinity += any(p.coords[2] == 0 for p in points)
        seen_triple += cfg.is_degenerate()
    assert seen_infinity and seen_triple


def test_named_configurations():
    b = named_configuration("b")
    assert len(b) == 4 and not b.is_degenerate()
    c = named_configuration("c")
    assert len(c) == 5 and classify_stratum(c).label == "S1"
    ca = named_configuration("c_a", a=2)
    assert ca.points[4] == ProjPoint(2, 2, -1)
    with pytest.raises(InvalidParameter):
        named_configuration("c_a", a=1)
    with pytest.raises(InvalidParameter):
        named_configuration("nope")


def test_prop7(sk_web):
    rep = prop7_check(sk_web)
    assert rep["match"] and len(rep["bijection"]) == 9
    # negative control: wrong configuration
    neg = prop7_check(sk_web, named_configuration("b"))
    assert not neg["match"]


def test_prop8_pairing(sk_web):
    # the Cremona images of the two equivalent exceptional 6-subwebs are the
    # webs of the two 5-point subconfigurations; the printed pairing swaps
    # them (see the W_689^ check for the printed q1..q5 claim)
    q = named_configuration("q")
    c_12346 = Configuration([q.points[i] for i in (0, 1, 2, 3, 5)])
    c_12345 = Configuration([q.points[i] for i in (0, 1, 2, 3, 4)])
    assert prop7_check(sk_web.subweb_without([6, 7, 9]), c_12346)["match"]
    assert prop7_check(sk_web.subweb_without([6, 8, 9]), c_12345)["match"]
    assert not prop7_check(sk_web.subweb_without([6, 7, 9]), c_12345)["match"]


def test_projective_equivariance():
    rng = random.Random(21)
    cfg = named_configuration("b")
    # random projective map g with rational entries
    while True:
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(3)] for _ in range(3)]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        if det != 0:
            break
    moved = Configuration(
        [
            ProjPoint(
                *(sum(rows[i][j] * p.coords[j] for j in range(3)) for i in range(3))
            )
            for p in cfg.points
        ]
    )
    try:
        web_moved = web_from_configuration(moved)
    except Exception:
        pytest.skip("map sent a pencil to the line at infinity chart")
    # pull back by g: affine coordinates of g applied to (x, y, 1)
    den = P("x").scale(rows[2][0]) + P("y").scale(rows[2][1]) + P(str(rows[2][2]))
    gx = (P("x").scale(rows[0][0]) + P("y").scale(rows[0][1]) + P(str(rows[0][2]))) / den
    gy = (P("x").scale(rows[1][0]) + P("y").scale(rows[1][1]) + P(str(rows[1][2]))) / den
    web0 = web_from_configuration(cfg)
    pulled = pullback_web(web_moved, (gx, gy))
    assert webs_equal_as_foliations(pulled, web0) is not None


def test_classify_invariant_under_reordering():
    cfg = named_configuration("c")
    rng = random.Random(3)
    pts = list(cfg.points)
    for _ in range(5):
        rng.shuffle(pts)
        assert classify_stratum(Configuration(pts)).label == "S1"


def test_config_file_roundtrip():
    cfg = named_configuration("q")
    back = config_from_text(config_to_text(cfg))
    assert back.points == cfg.points and back.name == "q"
