"""Recovering the product from the norm form alone."""

from fractions import Fraction

import pytest

from jordal.jordan import (
    JordanElement,
    JordanSpec,
    basis_element,
    identity,
    jordan_mul,
    mult_operator,
    quadratic_rep,
    random_element,
)
from jordal.linalg import exact_det, mat_mul
from jordal.polarization import covector_slot
from jordal.reconstruction import (
    SingularPoint,
    derivative_product_oracle,
    frame,
    inner,
    orbit_map_derivative,
    reconstructed_product,
    sharp,
    structural_map,
    tau,
    tau_covector,
    unit_pairing,
)
from jordal.rng import stream_rng
from oracles import (closed_form_inner, closed_form_tau_covector, diagonal_element,
                     gauss_inverse, interpolated_line_derivative, is_symmetric,
                     transpose, values, vector_values)

JORDAN_SPECS = [(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4),
                (4, 1), (4, 2), (5, 1)]


def test_frame_basics():
    fr = frame(JordanSpec(2, 2))
    assert fr.q == 3
    assert fr.norm(identity(fr.spec)) == 1
    # the gram operator of the unit pairing is symmetric and invertible
    g = fr.gram
    assert is_symmetric(values(g))
    assert fr.det_gram != 0
    assert g.domain == "V" and g.codomain == "V*"


def test_unit_pairing_is_normalized_trace():
    # phi(A) = T(A) / (k+1); phi(I) = 1
    for (k, delta) in [(2, 1), (2, 8), (3, 4), (5, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(30, "phi", k, delta)
        a = random_element(spec, rng)
        assert unit_pairing(fr, a) == Fraction(
            sum(a.grid()[i][i][0] for i in range(k + 1)), k + 1)
        assert unit_pairing(fr, identity(spec)) == 1


def test_inner_is_trace_pairing():
    # <A, B> built from second derivatives of Q equals phi(A*B)
    for (k, delta) in [(2, 1), (2, 4), (3, 2), (4, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(31, "inner", k, delta)
        for _ in range(3):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            ab = jordan_mul(a, b)
            # independent route: entry grid trace of the symmetrized product
            tr = sum(ab.grid()[i][i][0] for i in range(spec.size))
            assert inner(fr, a, b) == Fraction(tr, spec.size)
            assert inner(fr, a, b) == unit_pairing(fr, ab)
            assert inner(fr, a, b) == inner(fr, b, a)


def test_sharp_flat_round_trip():
    spec = JordanSpec(2, 4)
    fr = frame(spec)
    rng = stream_rng(32, "sharp")
    a = random_element(spec, rng)
    cov = fr.gram.apply(*a.cleared)
    assert sharp(fr, cov) == a


def test_reconstructed_product_matches_matrix_product():
    for (k, delta) in JORDAN_SPECS:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(33, "recon", k, delta)
        for _ in range(3):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            want = jordan_mul(a, b)
            assert reconstructed_product(fr, a, b) == want
            assert derivative_product_oracle(fr, a, b) == want


def test_reconstruction_exact_even_without_jordan_identity():
    # the formula only differentiates Q; it works on the 4x4 octonion shape
    spec = JordanSpec(3, 8)
    fr = frame(spec)
    rng = stream_rng(34, "recon-38")
    a, b = (JordanElement(
        spec, tuple(rng.randint(-4, 4) for _ in range(spec.dim))) for _ in range(2))
    assert reconstructed_product(fr, a, b) == jordan_mul(a, b)


def test_unit_reconstruction():
    for (k, delta) in [(2, 2), (3, 1), (4, 2)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(35, "unitrec", k, delta)
        a = random_element(spec, rng)
        e = identity(spec)
        assert reconstructed_product(fr, e, a) == a
        assert reconstructed_product(fr, a, e) == a


def test_orbit_map_derivative():
    for (k, delta) in [(2, 1), (2, 8), (3, 4)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(36, "orbit", k, delta)
        a = random_element(spec, rng)
        assert orbit_map_derivative(fr, a) == a.scale(-2)


@pytest.mark.parametrize("k,delta", [(2, 1), (2, 8), (3, 4), (4, 1)])
def test_product_rule_derivatives_match_interpolation(k, delta):
    # the closed t-derivatives of the derivative route against Lagrange
    # interpolation of the same pieces sampled along I + tA
    spec = JordanSpec(k, delta)
    fr = frame(spec)
    rng = stream_rng(37, "line-derivative", k, delta)
    a = random_element(spec, rng)
    b = random_element(spec, rng)
    assert derivative_product_oracle(fr, a, b) == \
        interpolated_line_derivative(fr, a, b).scale(Fraction(-1, 2))
    assert orbit_map_derivative(fr, a) == \
        interpolated_line_derivative(fr, a, fr.unit)


def test_trace_of_mult_operator():
    # tr M(A) = dim(V) phi(A)
    for (k, delta) in [(2, 1), (2, 4), (3, 2)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(37, "trlem", k, delta)
        a = random_element(spec, rng)
        assert mult_operator(a).trace() == spec.dim * unit_pairing(fr, a)


def test_sharp_of_unit_slot_covector():
    # Q(I,..,I,A,x) as a covector in x raises to [(k+1) phi(A) I - A] / k
    for (k, delta) in [(2, 2), (3, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(38, "slot", k, delta)
        a = random_element(spec, rng)
        cov = covector_slot(fr.form, [fr.unit.cleared] * (fr.q - 2) + [a.cleared])
        lhs = sharp(fr, cov)
        e = identity(spec)
        rhs = (e.scale((k + 1) * unit_pairing(fr, a)) - a).scale(Fraction(1, k))
        assert lhs == rhs


def test_gradient_map_at_unit():
    # the gradient covector of Q at I is the unit pairing itself
    spec = JordanSpec(2, 1)
    fr = frame(spec)
    e = identity(spec)
    # G(M) = Q(M,...,M,.)/Q(M), and Q(I) = 1
    grad = vector_values(covector_slot(fr.form, [e.cleared] * (fr.q - 1)))
    rng = stream_rng(39, "grad")
    x = random_element(spec, rng)
    paired = sum(g * c for g, c in zip(grad, x.coords()))
    assert paired == unit_pairing(fr, x)


def test_tau_properties():
    for (k, delta) in [(2, 2), (3, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(40, "tau", k, delta)
        m = fr.random_invertible(rng)
        t = tau(fr, m)
        assert t.domain == "V" and t.codomain == "V*"
        assert is_symmetric(values(t))
        # the operator agrees with the closed covector formula
        x = random_element(spec, rng)
        assert vector_values(tau_covector(fr, m, x)) == closed_form_tau_covector(fr, m, x)
        # normalized determinant law det(tau_M)/det(tau_I) = Q(M)^-(2+k delta)
        power = 2 + k * delta
        assert exact_det(values(t)) / fr.det_gram == Fraction(1, fr.norm(m) ** power)


def test_structural_map_norm_factor():
    # Q(H_A B) = Q(A)^-2 Q(B)
    for (k, delta) in [(2, 1), (2, 4), (3, 2)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(41, "hmap", k, delta)
        a = fr.random_invertible(rng)
        b = random_element(spec, rng)
        hb = JordanElement(spec, vector_values(structural_map(fr, a).apply(*b.cleared)))
        assert fr.norm(hb) * fr.norm(a) ** 2 == fr.norm(b)


def test_structural_inverts_quadratic_rep():
    # H_A composed with P(A) is the identity operator
    for (k, delta) in [(2, 2), (3, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(42, "hp", k, delta)
        a = fr.random_invertible(rng)
        comp = structural_map(fr, a).compose(quadratic_rep(a))
        n = spec.dim
        assert all(values(comp)[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))


def test_operators_match_the_fraction_route():
    # the int operators against Fraction matrices built without them: the
    # Gram matrix from the closed formula of <e_i, e_j>, tau_M column by
    # column from the closed formula of tau_M(e_j), the Gauss-Jordan inverse
    # and plain Fraction matrix products
    for (k, delta) in [(2, 1), (2, 8), (3, 4), (4, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(44, "route", k, delta)
        basis = [basis_element(spec, i) for i in range(spec.dim)]
        gram = tuple(tuple(closed_form_inner(fr, ei, ej) for ej in basis)
                     for ei in basis)
        assert values(fr.gram) == gram
        gram_inv = gauss_inverse(gram)
        assert values(fr.gram_inv) == gram_inv
        for _ in range(2):
            a = fr.random_invertible(rng)
            t = tau(fr, a)
            assert values(t) == transpose([closed_form_tau_covector(fr, a, e)
                                           for e in basis])
            h = structural_map(fr, a)
            assert values(h) == mat_mul(gram_inv, values(t))
            m, m2 = values(mult_operator(a)), values(mult_operator(jordan_mul(a, a)))
            p = tuple(tuple(2 * x - y for x, y in zip(r1, r2))
                      for r1, r2 in zip(mat_mul(m, m), m2))
            assert values(quadratic_rep(a)) == p
            assert values(h.compose(quadratic_rep(a))) == mat_mul(values(h), p)
    # float mode: a float tau composes with the exact Gram inverse and
    # applies to floats, in floats
    spec = JordanSpec(2, 2)
    fr = frame(spec)
    a = JordanElement(spec, tuple(float(c) for c in
                                  fr.random_invertible(stream_rng(45, "float")).coords()))
    h = structural_map(fr, a)
    assert h.denominator == 1
    assert all(type(v) is float for row in h.numerators for v in row)
    b = tuple(float(c) for c in random_element(spec, stream_rng(46, "b")).coords())
    for image, den in (h.apply(b, 1), fr.gram_inv.apply(b, 1)):
        assert den == 1
        assert all(type(v) is float for v in image)
    exact = structural_map(fr, JordanElement(spec, tuple(int(c) for c in a.coords())))
    assert max(abs(x - float(y)) for r1, r2 in zip(values(h), values(exact))
               for x, y in zip(r1, r2)) < 1e-12


def test_singular_point_rejected():
    spec = JordanSpec(2, 1)
    fr = frame(spec)
    singular = diagonal_element(spec, [1, 1, 0])
    assert fr.norm(singular) == 0
    with pytest.raises(SingularPoint):
        tau(fr, singular)
    with pytest.raises(SingularPoint):
        structural_map(fr, singular)


def test_random_invertible_is_invertible():
    spec = JordanSpec(2, 8)
    fr = frame(spec)
    rng = stream_rng(43, "inv")
    for _ in range(5):
        assert fr.norm(fr.random_invertible(rng)) != 0
