"""Polarization machinery on forms with hand-checkable polarizations, and
the monomial table against inclusion-exclusion over evaluations of Q.

The library takes every vector as its pair (numerators, denominator), so the
tests write their value vectors through ``pair``; the oracle routes keep
taking the values."""

import itertools
import math
from fractions import Fraction

import numpy
import pytest

from jordal import polarization
from jordal.jordan import JordanElement, JordanSpec, char_coeffs, identity, norm_form
from jordal.linalg import clear_row_denominators
from jordal.polarization import (
    ArityError,
    PolarizedForm,
    _contract,
    _grading,
    _Poly,
    _semi_invariant,
    covector_slot,
    full_polarize,
    pair_matrix,
    partial_polarize,
)
from jordal.reconstruction import _pair_matrix, frame
from jordal.rng import sample_coords, stream_rng
from oracles import (derivative_at_zero_weights, inclusion_exclusion_polarize,
                     interpreted_contract, interpreted_pair_matrix, vector_values)


def pair(vec):
    """The value vector vec as the (numerators, denominator) pair the
    library takes."""
    return clear_row_denominators(vec)


def pairs(vecs):
    return [pair(v) for v in vecs]


def cube_form():
    # F(x, y) = x^3 + y^3: full polarization is (x1 x2 x3 + y1 y2 y3)
    return PolarizedForm(3, 2, lambda v: v[0] ** 3 + v[1] ** 3, name="cubes")


def test_known_full_polarization():
    f = cube_form()
    args = [(1, 2), (3, 5), (7, 11)]
    expected = 1 * 3 * 7 + 2 * 5 * 11
    assert full_polarize(f, pairs(args)) == expected


def test_monomial_polarization():
    # F = x y z has full polarization perm(args) / 3!
    f = PolarizedForm(3, 3, lambda v: v[0] * v[1] * v[2], name="xyz")
    a, b, c = (1, 0, 2), (0, 3, 1), (4, 1, 0)
    perm = 0
    for p in [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        perm += p[0][0] * p[1][1] * p[2][2]
    assert full_polarize(f, pairs([a, b, c])) == Fraction(perm, 6)


def test_collapse_to_form_value():
    # all slots equal recovers the plain value, for full and partial routes
    f = cube_form()
    x = pair((2, -3))
    assert full_polarize(f, [x, x, x]) == f(x)
    assert partial_polarize(f, x, 3, []) == f(x)
    assert partial_polarize(f, x, 2, [x]) == f(x)
    assert partial_polarize(f, x, 0, [x, x, x]) == f(x)


def test_partial_matches_full():
    for (k, delta) in [(2, 1), (2, 4), (3, 2)]:
        spec = JordanSpec(k, delta)
        form = norm_form(spec)
        rng = stream_rng(20, "partial", k, delta)
        q = spec.degree
        base = pair(sample_coords(rng, spec.dim))
        rest = [pair(sample_coords(rng, spec.dim)) for _ in range(2)]
        full_args = [base] * (q - 2) + rest
        assert partial_polarize(form, base, q - 2, rest) == \
            full_polarize(form, full_args)


def test_symmetry_and_multilinearity():
    spec = JordanSpec(2, 2)
    form = norm_form(spec)
    rng = stream_rng(21, "multi")
    a, b, c = (sample_coords(rng, spec.dim) for _ in range(3))
    base = full_polarize(form, pairs([a, b, c]))
    assert full_polarize(form, pairs([b, a, c])) == base
    assert full_polarize(form, pairs([c, b, a])) == base
    scaled = tuple(5 * v for v in a)
    assert full_polarize(form, pairs([scaled, b, c])) == 5 * base
    shifted = tuple(x + y for x, y in zip(a, c))
    assert full_polarize(form, pairs([shifted, b, c])) == \
        base + full_polarize(form, pairs([c, b, c]))


def test_covector_slot_matches_partials():
    spec = JordanSpec(2, 1)
    form = norm_form(spec)
    rng = stream_rng(22, "cov")
    a = sample_coords(rng, spec.dim)
    b = sample_coords(rng, spec.dim)
    cov = vector_values(covector_slot(form, pairs([a, b])))
    assert len(cov) == spec.dim
    for c in range(spec.dim):
        e_c = tuple(int(i == c) for i in range(spec.dim))
        assert cov[c] == full_polarize(form, pairs([a, b, e_c]))
    # pairing the covector against a vector equals the trilinear value
    x = sample_coords(rng, spec.dim)
    assert sum(w * v for w, v in zip(cov, x)) == full_polarize(form, pairs([a, b, x]))


def test_rational_arguments():
    f = cube_form()
    x = pair((Fraction(1, 2), Fraction(-1, 3)))
    assert f(x) == Fraction(1, 8) - Fraction(1, 27)
    assert partial_polarize(f, x, 2, [pair((1, 1))]) == \
        full_polarize(f, [x, x, pair((1, 1))])


def test_cache_rescales_to_integers():
    # rational arguments are int numerators over a denominator, F(z/d) =
    # F(z)/d^q, and equal rationals give equal values however they are
    # written, a pair not in lowest terms included
    f = cube_form()
    value = f(pair((Fraction(1, 2), Fraction(3, 2))))
    assert value == f(pair((1, 3))) / 2 ** 3 == Fraction(1 + 27, 8)
    assert f(pair((Fraction(2, 4), Fraction(3, 2)))) == value
    assert f(((2, 6), 4)) == value


@pytest.mark.parametrize("k,delta", [(2, 2), (2, 4)])
def test_float_and_exact_calls_keep_their_types(k, delta):
    # an exact vector is answered exactly and a float vector in floats, in
    # either order, although 1.0 == 1
    norm = norm_form(JordanSpec(k, delta))
    form = PolarizedForm(norm.degree, norm.dim, norm.func, name="fresh")
    ints = tuple(sample_coords(stream_rng(23, "types", k, delta), norm.dim))
    floats = tuple(float(v) for v in ints)
    exact = form(pair(ints))
    assert isinstance(exact, (int, Fraction))
    assert type(form(pair(floats))) is float
    assert form(pair(ints)) == exact and isinstance(form(pair(ints)), (int, Fraction))
    # float subclasses such as numpy's are not exact either
    assert isinstance(form(pair(tuple(numpy.float64(v) for v in ints))), float)
    other = PolarizedForm(norm.degree, norm.dim, norm.func, name="fresh")
    assert type(other(pair(floats))) is float
    assert other(pair(ints)) == exact and isinstance(other(pair(ints)), (int, Fraction))


def test_cache_eviction():
    # many distinct inputs in a row: every value comes from the table, none
    # from an earlier call
    f = PolarizedForm(2, 2, lambda v: v[0] * v[0] + 3 * v[1] * v[1],
                      name="stress")
    inputs = [(i % 13 - 6, (7 * i) % 11 - 5) for i in range(400)]
    for x, y in inputs:
        assert f(pair((x, y))) == x * x + 3 * y * y


def test_table_of_known_forms():
    # sorted variable-index tuples with integer coefficients over one
    # denominator; cancelled terms do not appear
    f = PolarizedForm(2, 2, lambda v: v[0] * v[0] + 3 * v[1] * v[1] - 0 * v[0])
    assert f.terms == (((0, 0), 1), ((1, 1), 3)) and f.denominator == 1
    g = PolarizedForm(3, 3, lambda v: (v[0] - v[2]) ** 2 * v[1] * Fraction(1, 6)
                      + Fraction(1, 3) * v[0] * v[2] * v[1] - v[1] ** 3 + v[1] ** 3)
    assert g.terms == (((0, 0, 1), 1), ((1, 2, 2), 1)) and g.denominator == 6
    with pytest.raises(ArityError):
        PolarizedForm(2, 2, lambda v: v[0] * v[0] + v[1])


def test_derivative_weights():
    # sum w_j p(x_j) = p'(0) exactly for polynomials below the node count
    nodes = (1, 2, 3)
    w = derivative_at_zero_weights(nodes)
    cases = [
        (lambda t: Fraction(5), 0),
        (lambda t: 2 * t - 7, 2),
        (lambda t: t * t - 4 * t + 1, -4),
    ]
    for poly, slope in cases:
        assert sum(wi * poly(u) for wi, u in zip(w, nodes)) == slope
    # second derivative weights from the same nodes
    w2 = derivative_at_zero_weights(nodes, order=2)
    assert sum(wi * (u * u - 4 * u + 1) for wi, u in zip(w2, nodes)) == 2


def test_arity_errors():
    f = cube_form()
    with pytest.raises(ArityError):
        f(pair((1, 2, 3)))
    with pytest.raises(ArityError):
        full_polarize(f, pairs([(1, 0), (0, 1)]))
    with pytest.raises(ArityError):
        partial_polarize(f, pair((1, 0)), 2, pairs([(0, 1), (1, 1)]))
    with pytest.raises(ArityError):
        covector_slot(f, pairs([(1, 0)]))
    # a bare tuple of values is not a pair, whatever its length
    for bare in ((1, 2), (1, 2, 3), ((1, 2),)):
        with pytest.raises(ArityError):
            f(bare)
    with pytest.raises(ArityError):
        partial_polarize(f, pair((1, 0)), 2, [(0, 1)])
    with pytest.raises(ArityError):
        covector_slot(f, [(1, 0), (0, 1)])


def test_linear_form_covector_is_its_coefficients():
    # a degree-1 form takes no fixed argument: its covector is the
    # coefficient covector, over the table's denominator
    f = PolarizedForm(1, 2, lambda v: 3 * v[0] + v[1])
    assert covector_slot(f, []) == ((3, 1), 1)
    g = PolarizedForm(1, 3, lambda v: v[0] * Fraction(1, 2) - v[2])
    assert vector_values(covector_slot(g, [])) == (Fraction(1, 2), 0, -1)


def test_linear_form_has_no_pair_matrix():
    f = PolarizedForm(1, 2, lambda v: 3 * v[0] + v[1])
    with pytest.raises(ArityError):
        pair_matrix(f, pair((1, 2)))


ORACLE_SHAPES = [(2, 1), (2, 8), (3, 4), (4, 1)]
KINDS = ["int", "fraction", "float"]


def oracle_args(spec, kind, count, tag):
    """count sample vectors: ints, Fractions with a different denominator in
    each coordinate, or floats that are exact binary fractions."""
    rng = stream_rng(24, tag, spec.k, spec.delta, kind)
    vecs = [sample_coords(rng, spec.dim) for _ in range(count)]
    if kind == "fraction":
        return [tuple(Fraction(v, 1 + (i + j) % 6) for i, v in enumerate(vec))
                for j, vec in enumerate(vecs)]
    if kind == "float":
        return [tuple(v / 4 for v in vec) for vec in vecs]
    return vecs


def exact(vec):
    return tuple(Fraction(v) for v in vec)


def assert_agrees(got, want, kind):
    """Exact kinds agree exactly; floats agree with the exact value of the
    same (exactly representable) arguments up to rounding."""
    if kind == "float":
        assert type(got) is float
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (got, want)
    else:
        assert got == want


def pairing(cov, x):
    return sum(c * v for c, v in zip(cov, x))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k,delta", ORACLE_SHAPES)
def test_table_matches_inclusion_exclusion(k, delta, kind):
    spec = JordanSpec(k, delta)
    form = norm_form(spec)
    q = form.degree
    args = oracle_args(spec, kind, q + 1, "values")
    base, rest = args[0], args[1:]
    assert_agrees(form(pair(base)), form.func(exact(base)), kind)
    for mult in range(q + 1):
        slots = rest[:q - mult]
        assert_agrees(partial_polarize(form, pair(base), mult, pairs(slots)),
                      inclusion_exclusion_polarize(
                          form, exact(base), mult, [exact(r) for r in slots]),
                      kind)
    # covectors with one repeated base, then with two further slots, paired
    # with a sampled vector and with the last basis vector
    x = rest[-1]
    e_last = tuple(int(i == form.dim - 1) for i in range(form.dim))
    for fixed in ([base] * (q - 2) + [rest[0]],
                  [base] * (q - 3) + [rest[0], rest[1]]):
        cov = vector_values(covector_slot(form, pairs(fixed)))
        mult = fixed.count(base)
        others = [exact(f) for f in fixed[mult:]]
        assert_agrees(pairing(cov, x), inclusion_exclusion_polarize(
            form, exact(base), mult, others + [exact(x)]), kind)
        assert_agrees(cov[-1], inclusion_exclusion_polarize(
            form, exact(base), mult, others + [e_last]), kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k,delta", ORACLE_SHAPES)
def test_every_slot_count_matches_inclusion_exclusion(k, delta, kind):
    # m = 0..q slots, then the covector with m = 0..q-1 slots, paired with a
    # sampled vector; the slots repeat a vector and one has zero entries, and
    # the base is sampled or mostly zero, like the unit
    spec = JordanSpec(k, delta)
    form = norm_form(spec)
    q = form.degree
    base, a, b, x = oracle_args(spec, kind, 4, "slots")
    holed = tuple(v if i % 3 else 0 * v for i, v in enumerate(b))
    pool = [a, a, holed, b, x][:q]
    assert len(pool) == q
    sparse = tuple(v if i % 4 == 0 else 0 * v for i, v in enumerate(base))
    for point, m in itertools.product((base, sparse), range(q + 1)):
        slots = pool[:m]
        want = inclusion_exclusion_polarize(form, exact(point), q - m,
                                            [exact(r) for r in slots])
        assert_agrees(partial_polarize(form, pair(point), q - m, pairs(slots)),
                      want, kind)
        if m == q:
            continue
        cov = vector_values(_contract(form, pair(point), pairs(slots), gradient=True))
        assert len(cov) == form.dim
        assert_agrees(pairing(cov, x), inclusion_exclusion_polarize(
            form, exact(point), q - 1 - m, [exact(r) for r in slots] + [exact(x)]),
            kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k,delta", ORACLE_SHAPES)
def test_zero_base_and_repeated_base_match_inclusion_exclusion(k, delta, kind):
    spec = JordanSpec(k, delta)
    form = norm_form(spec)
    q = form.degree
    base, a, x = oracle_args(spec, kind, 3, "repeats")
    # a zero base: every slot is an argument, one of them twice
    args = [a, a] + [base] * (q - 2)
    assert_agrees(full_polarize(form, pairs(args)), inclusion_exclusion_polarize(
        form, (0,) * form.dim, 0, [exact(v) for v in args]), kind)
    cov = vector_values(_contract(form, pair((0,) * form.dim), pairs(args[1:]),
                                  gradient=True))
    assert_agrees(pairing(cov, x), inclusion_exclusion_polarize(
        form, (0,) * form.dim, 0, [exact(v) for v in args[1:]] + [exact(x)]), kind)
    # fixed arguments that repeat the base apart from its first place
    fixed = [base, a] + [base] * (q - 3)
    assert_agrees(pairing(vector_values(covector_slot(form, pairs(fixed))), x),
                  inclusion_exclusion_polarize(form, exact(base), q - 2,
                                               [exact(a), exact(x)]), kind)


def pair_values(fr, m):
    """The pair matrix at m as values: its int rows over their denominator,
    or its floats over 1."""
    rows, den = _pair_matrix(fr, pair(m))
    return [[v if den == 1 else Fraction(v, den) for v in row] for row in rows]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k,delta", ORACLE_SHAPES + [(3, 8)])
def test_pair_matrix_matches_inclusion_exclusion(k, delta, kind):
    spec = JordanSpec(k, delta)
    fr = frame(spec)
    m, x, y = oracle_args(spec, kind, 3, "pairs")
    # the unit too, the base of the Gram: most monomials vanish there
    unit = tuple(float(v) if kind == "float" else v for v in identity(spec).coords())
    e = [tuple(int(i == c) for i in range(spec.dim)) for c in (0, spec.dim - 1)]
    for base in (m, unit):
        w = pair_values(fr, base)
        assert all(w[i][j] == w[j][i] for i in range(spec.dim) for j in range(i))
        assert_agrees(pairing([pairing(row, y) for row in w], x),
                      inclusion_exclusion_polarize(fr.form, exact(base), fr.q - 2,
                                                   [exact(x), exact(y)]), kind)
        # one diagonal and one off-diagonal entry on their own
        for i, j in ((0, 0), (0, 1)):
            assert_agrees(w[i * (spec.dim - 1)][j * (spec.dim - 1)],
                          inclusion_exclusion_polarize(fr.form, exact(base), fr.q - 2,
                                                       [e[i], e[j]]), kind)
        # row by row, the covector slots Q(B,..,B,e_i,.)
        for i, row in enumerate(w):
            e_i = tuple(int(c == i) for c in range(spec.dim))
            for got, want in zip(row, vector_values(
                    covector_slot(fr.form, pairs([base] * (fr.q - 2) + [e_i])))):
                assert_agrees(got, want, kind)


class CountingTable:
    """A monomial table that counts how often it is iterated."""

    def __init__(self, terms):
        self.terms = terms
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return iter(self.terms)


def test_pair_matrix_reads_the_table_once(monkeypatch):
    fr = frame(JordanSpec(3, 8))
    table = CountingTable(fr.form.terms)
    monkeypatch.setattr(fr.form, "terms", table)
    m = sample_coords(stream_rng(25, "sweep"), fr.spec.dim)
    _pair_matrix(fr, pair(m))
    assert table.passes == 1


# ---------------------------------------------------------------------------
# the table expanded modulo its index weights

TRUNCATED_SHAPES = [(2, 1), (2, 8), (3, 1), (3, 2), (3, 4), (3, 8), (4, 1), (4, 2)]


def index_weights(spec):
    """Per canonical coordinate, its weight at each matrix index: 2 at i for
    the diagonal (i, i), 1 at i and 1 at j for each unit of block (i, j)."""
    out = [tuple(2 * (t == i) for t in range(spec.size)) for i in range(spec.size)]
    for i, j in spec.pairs:
        out += [tuple((t == i) + (t == j) for t in range(spec.size))] * spec.delta
    return out


def trace_norm(spec):
    """Q on a coordinate vector through char_coeffs, building no table."""
    return lambda vec: char_coeffs(JordanElement(spec, vec))[-1]


@pytest.mark.parametrize("k,delta", TRUNCATED_SHAPES)
def test_truncated_table_equals_full_expansion(k, delta):
    norm = norm_form(JordanSpec(k, delta))
    full = PolarizedForm(norm.degree, norm.dim, norm.func)
    assert norm.terms == full.terms and norm.denominator == full.denominator


@pytest.mark.parametrize("k,delta", TRUNCATED_SHAPES + [(4, 4), (5, 2), (6, 1)])
def test_every_monomial_weighs_two_at_every_index(k, delta):
    spec = JordanSpec(k, delta)
    weights = index_weights(spec)
    for mono, _ in norm_form(spec).terms:
        assert tuple(map(sum, zip(*(weights[i] for i in mono)))) == (2,) * spec.size


def test_semi_invariance_holds_at_3_8_and_not_at_4_8(monkeypatch):
    # norm_form passes index_weights and the bound 2, and the check lets it
    # truncate at (3,8); at (4,8) the trace-defined Q has monomials of other
    # weights, which the check sees without building the table
    seen = []

    def recording(func, dim, weights, bound):
        seen.append((weights, bound, _semi_invariant(func, dim, weights, bound)))
        return seen[-1][2]

    monkeypatch.setattr(polarization, "_semi_invariant", recording)
    spec = JordanSpec(3, 8)
    assert norm_form.__wrapped__(spec).terms == norm_form(spec).terms
    assert seen == [(index_weights(spec), 2, True)]
    assert _semi_invariant(trace_norm(spec), spec.dim, index_weights(spec), 2)
    spec = JordanSpec(4, 8)
    assert not _semi_invariant(trace_norm(spec), spec.dim, index_weights(spec), 2)


def test_weighted_forms_truncate_only_when_semi_invariant():
    weights = [(1, 1), (2, 0)]
    x0, x1 = (_Poly({(i,): 1}, _grading(weights, 2)) for i in range(2))
    # x1^2 weighs (4, 0) and x0 x1 weighs (3, 1): both are dropped
    assert (x0 * x0).terms == {(0, 0): 1}
    assert (x1 * x1).terms == {} and (x0 * x1).terms == {}
    x1 = _Poly({(1,): 1}, _grading([(), ()], 0))
    assert (x1 * x1).terms == {(1, 1): 1}
    # x0^2 + x0 x1 + x1^2 is not semi-invariant: its full table
    f = PolarizedForm(2, 2, lambda v: v[0] * v[0] + v[0] * v[1] + v[1] * v[1],
                      weights=weights, bound=2)
    assert f.terms == (((0, 0), 1), ((0, 1), 1), ((1, 1), 1))
    # (x0 + x1)(x0 - x1) + x1^2 = x0^2 is: its cross terms are dropped on
    # the way and the table is still exact
    g = PolarizedForm(2, 2, lambda v: (v[0] + v[1]) * (v[0] - v[1]) + v[1] * v[1],
                      weights=weights, bound=2)
    assert g.terms == (((0, 0), 1),)
    with pytest.raises(ValueError):
        _grading([(3, 0), (0, 1)], 2)
    with pytest.raises(ArityError):
        PolarizedForm(2, 2, lambda v: v[0] * v[1], weights=weights)


# ---------------------------------------------------------------------------
# the compiled passes against the interpreter they replaced

def hand_built_form(q, n, tag):
    """A degree-q form over n variables: a dozen random monomials with
    coefficients over 1, 2 and 3, so the table has a denominator."""
    rng = stream_rng(26, "hand-built", q, n, tag)
    monos = [sorted(rng.randrange(n) for _ in range(q)) for _ in range(12)]
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in monos]

    def func(v):
        total = 0
        for c, mono in zip(coeffs, monos):
            term = c
            for i in mono:
                term = term * v[i]
            total = total + term
        return total
    return PolarizedForm(q, n, func, name=f"hand-built-{q}-{n}")


def pass_args(n, kind, rng):
    """A base with no zero coordinate, one with some, one that is 0 but at one
    coordinate, and slots with zeros and a repeat, as pairs: int numerators
    over a denominator, or floats over 1 that are not binary fractions, so a
    sum taken in another order rounds otherwise."""
    def draw(zero_every):
        return tuple(0 if zero_every and i % zero_every == 0 else
                     rng.choice((-1, 1)) * rng.randint(1, 7) for i in range(n))
    dense, holed = draw(0), draw(2)
    sparse = tuple(v if i == n - 1 else 0 for i, v in enumerate(dense))
    slots = [draw(3), draw(0), draw(2)]
    slots += [slots[0]] + [draw(0) for _ in range(4)]
    if kind == "float":
        def as_pair(vec):
            return tuple(v / 7 for v in vec), 1
    else:
        def as_pair(vec):
            return vec, rng.randint(1, 5)
    return [as_pair(b) for b in (dense, holed, sparse)], [as_pair(s) for s in slots]


def same(got, want, kind):
    """Equal exact values, or floats with the same bits."""
    if kind == "float":
        assert repr(got) == repr(want)
    else:
        assert got == want


@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize("q", range(1, 9))
def test_compiled_passes_match_the_interpreter(q, kind):
    # every value, covector and pair pass of degree q against the table
    # interpreter, on the same operands, over 3 to 5 variables
    for n in (3, 4, 5):
        form = hand_built_form(q, n, kind)
        bases, slots = pass_args(n, kind, stream_rng(26, "operands", q, n, kind))
        for base in bases:
            for m in range(q + 1):
                same(_contract(form, base, slots[:m]),
                     interpreted_contract(form, base, slots[:m]), kind)
                if m < q:
                    same(_contract(form, base, slots[:m], gradient=True),
                         interpreted_contract(form, base, slots[:m], gradient=True),
                         kind)
            if q > 1:
                same(pair_matrix(form, base), interpreted_pair_matrix(form, base), kind)
