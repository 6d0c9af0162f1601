"""Rank-one points, tangent spaces, secant dimensions, duality."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from jordal.backend import FloatBackend
from jordal.geometry import (
    DegenerateFrame,
    DegenerateIntersection,
    RankOnePoint,
    SingularConfiguration,
    cone_vertex_stack,
    dual_point,
    expected_mult_kernel_dim,
    expected_tangent_rank,
    homogeneity_witness,
    mult_kernel_dim,
    product_projection,
    rank_one_double_slot,
    sample_rank_one,
    tangent_frame,
    tangent_intersection,
    tangent_intersection_dim,
    terracini_dim,
    terracini_expected,
)
from jordal.jordan import (
    JordanElement,
    JordanSpec,
    SpecMismatch,
    from_entries,
    identity,
    jordan_mul,
    jordan_rank,
    outer_kernel,
    random_element,
)
from jordal.linalg import LinearOperator, exact_rank
from jordal.polarization import PolarizedForm
from jordal.reconstruction import NormFrame, frame
from jordal.rng import sample_coords, stream_rng
from oracles import (_outer_sym, diagonal_element, rank_one_element, tangent_rows,
                     vector_values)

JORDAN_SPECS = [(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4),
                (4, 1), (4, 2), (5, 1)]


def test_rank_one_point_construction():
    spec = JordanSpec(2, 1)
    x = RankOnePoint(spec, [(1,), (2,), (3,)])
    assert jordan_rank(x.element) == 1
    assert x.element.grid()[0][1] == (2,)
    assert x.element.grid()[2][2] == (9,)


def test_rank_one_point_validation():
    spec = JordanSpec(2, 1)
    with pytest.raises(ValueError):
        RankOnePoint(spec, [(0,), (0,), (0,)])  # zero vector
    with pytest.raises(ValueError):
        RankOnePoint(spec, [(1,), (2,)])  # wrong length
    bad = JordanSpec(3, 8)
    # three generic octonion coordinates fail to associate: v v^H jumps rank
    with pytest.raises(ValueError):
        RankOnePoint(bad, [
            tuple(1 if i == 1 else 0 for i in range(8)),
            tuple(1 if i == 2 else 0 for i in range(8)),
            tuple(1 if i == 4 else 0 for i in range(8)),
            (1, 0, 0, 0, 0, 0, 0, 0)])


def test_rank_one_point_rejects_entries_of_another_length():
    # flattened, a short entry would shift every later coordinate
    spec = JordanSpec(2, 8)
    with pytest.raises(ValueError, match="delta = 8"):
        RankOnePoint(spec, [(1,) + (0,) * 8, (2,) + (0,) * 6, (3,) + (0,) * 7])


# the Jordan shapes whose points and frames are checked against the
# entry-by-entry oracle: (5,1) aside, every shape of JORDAN_SPECS
ORACLE_SPECS = [(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4),
                (4, 1), (4, 2)]


@pytest.mark.parametrize("k,delta", ORACLE_SPECS)
def test_points_and_frames_match_entry_by_entry_oracle(k, delta):
    spec = JordanSpec(k, delta)
    rng = stream_rng(53, "outer", k, delta)
    for _ in range(5):
        x = sample_rank_one(spec, rng)
        assert x.element == rank_one_element(spec, x.v)
        assert tangent_frame(x) == tangent_rows(x)


def test_points_and_frames_with_fraction_coordinates_match_oracle():
    # each row is cleared to int numerators, as the tangent rank reads them
    spec = JordanSpec(2, 2)
    x = RankOnePoint(spec, [(Fraction(1, 2), 0), (1, 1), (0, Fraction(2, 3))])
    assert x.element == rank_one_element(spec, x.v)
    assert tangent_frame(x) == tangent_rows(x)
    assert tangent_frame(x)[0] == [3, 0, 0, 3, -3, 0, -2, 0, 0]


@pytest.mark.parametrize("k,delta", ORACLE_SPECS)
def test_outer_kernel_matches_oracle_off_the_cone(k, delta):
    # general u and v, off the rank-one cone: no coordinate is kept scalar
    # and u differs from v
    spec = JordanSpec(k, delta)
    rng = stream_rng(54, "outer", k, delta)
    n = spec.size * delta
    for _ in range(5):
        u, v = sample_coords(rng, n), sample_coords(rng, n)
        want = _outer_sym(spec, *([w[i:i + delta] for i in range(0, n, delta)]
                                  for w in (u, v)))
        assert JordanElement(spec, outer_kernel(spec)(u, v)) == want


def test_sample_rank_one():
    for (k, delta) in JORDAN_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(50, "sample", k, delta)
        x = sample_rank_one(spec, rng)
        assert jordan_rank(x.element) == 1


def test_sample_rank_one_rejects_octonion_four_by_four():
    rng = stream_rng(50, "bad")
    with pytest.raises(SpecMismatch):
        sample_rank_one(JordanSpec(3, 8), rng)


def test_point_without_scalar_chart():
    # v may be rank one without any scalar coordinate, but chart-based
    # tangent computations need one and must say so
    spec = JordanSpec(2, 2)
    x = RankOnePoint(spec, [(0, 1), (0, 2), (0, 3)])
    assert jordan_rank(x.element) == 1
    assert x.scalar_slot is None
    with pytest.raises(DegenerateFrame):
        tangent_frame(x)


def test_tangent_rank():
    for (k, delta) in JORDAN_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(51, "tangent", k, delta)
        x = sample_rank_one(spec, rng)
        rows = tangent_frame(x)
        assert exact_rank(rows) == expected_tangent_rank(spec) == k * delta + 1
        assert len(rows) == k * delta + 1


def test_terracini_expected_values():
    spec = JordanSpec(2, 1)
    # quadric Veronese of the plane: affine cone dims 3, 5, 6
    assert [terracini_expected(spec, l) for l in range(3)] == [3, 5, 6]
    spec8 = JordanSpec(2, 8)
    assert terracini_expected(spec8, 0) == 17
    assert terracini_expected(spec8, 2) == 27
    # hypersurface case: codimension one at l = k - 1
    for (k, delta) in JORDAN_SPECS:
        s = JordanSpec(k, delta)
        assert terracini_expected(s, k - 1) == s.dim - 1
        assert terracini_expected(s, k) == s.dim


def test_terracini_measured():
    for (k, delta) in JORDAN_SPECS:
        spec = JordanSpec(k, delta)
        rng = stream_rng(52, "terr", k, delta)
        for l in range(k + 1):
            assert terracini_dim(spec, l, rng) == terracini_expected(spec, l)
        # l counts the secants 0..k; any other l is rejected
        for l in (-1, k + 1):
            with pytest.raises(ValueError, match=rf"l must lie in \[0, {k}\]"):
                terracini_dim(spec, l, rng)


def test_secant_membership():
    spec = JordanSpec(3, 2)
    a = diagonal_element(spec, [3, -1, 0, 0])
    # on the first secant locus (rank <= 2) but not on the cone (rank <= 1)
    assert jordan_rank(a) == 2
    rng = stream_rng(53, "secant")
    # sum of l+1 rank ones lies on the l-th secant locus
    for l in range(4):
        pts = [sample_rank_one(spec, rng).element for _ in range(l + 1)]
        total = pts[0]
        for p in pts[1:]:
            total = total + p
        assert jordan_rank(total) <= l + 1


def test_double_slot_vanishes_on_cone():
    for (k, delta) in [(2, 2), (3, 1), (4, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(54, "double", k, delta)
        x = sample_rank_one(spec, rng)
        fillers = [random_element(spec, rng) for _ in range(spec.degree - 2)]
        assert rank_one_double_slot(fr, x, fillers) == 0
        # generic points do not share the property
        y = random_element(spec, rng)
        vals = []
        for _ in range(4):
            fillers = [random_element(spec, rng) for _ in range(spec.degree - 2)]
            args = [y.cleared, y.cleared] + [f.cleared for f in fillers]
            from jordal.polarization import full_polarize
            vals.append(full_polarize(fr.form, args))
        assert any(v != 0 for v in vals)


def test_dual_point():
    for (k, delta) in [(2, 1), (2, 4), (3, 2)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(55, "dual", k, delta)
        x = sample_rank_one(spec, rng)
        a = fr.random_invertible(rng)
        xp, cov = dual_point(fr, x, a)
        # the shifted point lands on the norm hypersurface
        assert fr.norm(xp) == 0
        # the covector annihilates the tangent space of {Q = 0} at xp:
        # pairing with the gradient direction of Q at xp is zero on the
        # nullspace of the gradient, i.e. cov kills every direction u with
        # Q(xp, ..., xp, u) = 0
        from jordal.linalg import exact_nullspace
        from jordal.polarization import covector_slot
        grad = vector_values(covector_slot(fr.form, [xp.cleared] * (fr.q - 1)))
        for u in exact_nullspace([list(grad)]):
            assert sum(c * v for c, v in zip(vector_values(cov), u)) == 0


def test_dual_point_needs_invertible():
    spec = JordanSpec(2, 1)
    fr = frame(spec)
    rng = stream_rng(56, "dualsing")
    x = sample_rank_one(spec, rng)
    singular = diagonal_element(spec, [1, 1, 0])
    with pytest.raises(SingularConfiguration):
        dual_point(fr, x, singular)


def test_dual_point_needs_a_nonzero_pairing():
    # A = [[0,1,0],[1,0,0],[0,0,1]] has Q(A) = -1, but its (1,1) cofactor,
    # 3 Q(E_11, A, A), is 0, so x' has no value
    spec = JordanSpec(2, 1)
    a = from_entries(spec, lambda i, j: int(i == 2) if i == j else (int(i + j == 1),))
    fr = frame(spec)
    assert fr.norm(a) == -1
    with pytest.raises(SingularConfiguration, match=r"Q\(x, A, \.\.\., A\) = 0"):
        dual_point(fr, x=RankOnePoint(spec, [(1,), (0,), (0,)]), a=a)


def test_dual_point_rejects_a_singular_hypersurface_point():
    # no input reaches this guard through the norm: Q(A - t x) is linear in
    # t for rank-one x, so the gradient at x' pairs with x to q Q(x, A, ..,
    # A) != 0. The stand-in cubic F = (v1 - v0)^2 (v1 + v0) reaches it: with
    # A = E_22 and x = E_11, x' = A + x is a double root of F(A - t x),
    # where the gradient vanishes
    spec = JordanSpec(2, 1)
    form = PolarizedForm(3, spec.dim, lambda v: (v[1] - v[0]) ** 2 * (v[1] + v[0]),
                         name="double-root")
    fr = SimpleNamespace(q=3, form=form, norm=lambda e: form(e.cleared))
    with pytest.raises(SingularConfiguration, match="singular hypersurface point"):
        dual_point(fr, RankOnePoint(spec, [(1,), (0,), (0,)]),
                   diagonal_element(spec, [0, 1, 0]))


def test_homogeneity_witness():
    for (k, delta) in [(2, 2), (3, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(57, "homow", k, delta)
        x = sample_rank_one(spec, rng)
        a = fr.random_invertible(rng)
        b = fr.random_invertible(rng)
        y = homogeneity_witness(fr, a, b, x)
        assert jordan_rank(y) == 1
    singular = diagonal_element(JordanSpec(2, 1), [1, 1, 0])
    fr2 = frame(JordanSpec(2, 1))
    rng = stream_rng(57, "homow", 2, 1)
    x2 = sample_rank_one(fr2.spec, rng)
    with pytest.raises(SingularConfiguration):
        homogeneity_witness(fr2, singular, identity(fr2.spec), x2)


def test_tangent_intersection_dimension():
    # two generic rank-one tangent spaces meet in dimension delta
    for (k, delta) in [(2, 1), (2, 2), (2, 8), (3, 2), (4, 1)]:
        spec = JordanSpec(k, delta)
        rng = stream_rng(58, "meet", k, delta)
        xa = sample_rank_one(spec, rng)
        xb = sample_rank_one(spec, rng)
        try:
            basis = tangent_intersection(xa, xb)
        except DegenerateIntersection:
            continue
        assert len(basis) == delta
        assert exact_rank(basis) == delta
        assert tangent_intersection_dim(xa, xb) == delta


def test_float_backend_runs_the_exact_constructions():
    # float mode has no constructions of its own: each function run on the
    # float backend must give the exact dimensions and, within rounding,
    # the exact points
    fb = FloatBackend(1e-8)
    for (k, delta) in [(2, 2), (2, 8), (3, 1), (4, 1)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(61, "float", k, delta)
        x, y = sample_rank_one(spec, rng), sample_rank_one(spec, rng)
        a, b = fr.random_invertible(rng), fr.random_invertible(rng)
        for l in range(k + 1):
            assert (terracini_dim(spec, l, stream_rng(62, k, delta, l), fb)
                    == terracini_dim(spec, l, stream_rng(62, k, delta, l)))
        assert mult_kernel_dim(x, fb) == mult_kernel_dim(x)
        assert tangent_intersection_dim(x, y, fb) == tangent_intersection_dim(x, y)
        total = x.element + y.element
        assert jordan_rank(total, fb) == jordan_rank(total) == 2
        for exact, floats in [(dual_point(fr, x, a)[0], dual_point(fr, x, a, fb)[0]),
                              (homogeneity_witness(fr, a, b, x),
                               homogeneity_witness(fr, a, b, x, fb))]:
            assert all(isinstance(v, float) for v in floats.coords())
            err = max(abs(float(u) - v) for u, v in zip(exact.coords(), floats.coords()))
            assert err <= 1e-9 * (1 + float(exact.max_abs()))
        assert jordan_rank(homogeneity_witness(fr, a, b, x, fb), fb) == 1


def test_product_projection_is_the_product():
    for (k, delta) in [(2, 1), (2, 2), (2, 4), (2, 8), (3, 2)]:
        spec = JordanSpec(k, delta)
        fr = frame(spec)
        rng = stream_rng(59, "proj", k, delta)
        for _ in range(3):
            xa = sample_rank_one(spec, rng)
            xb = sample_rank_one(spec, rng)
            try:
                p = product_projection(fr, xa, xb)
            except (DegenerateIntersection, SingularConfiguration):
                continue
            assert p == jordan_mul(xa.element, xb.element)


def test_product_projection_needs_a_nondegenerate_pairing():
    # the trace form is positive definite, so the frame's own Gram matrix
    # never reaches this guard; a zero one does, on a pair that projects
    spec = JordanSpec(2, 1)
    rng = stream_rng(59, "proj", 2, 1)
    xa, xb = sample_rank_one(spec, rng), sample_rank_one(spec, rng)
    assert product_projection(frame(spec), xa, xb) == jordan_mul(xa.element, xb.element)
    fr = NormFrame(spec)
    fr._gram = LinearOperator(((0,) * spec.dim,) * spec.dim, 1, "V", "V*")
    with pytest.raises(DegenerateIntersection, match="orthogonal space"):
        product_projection(fr, xa, xb)


def test_product_projection_fixed_case():
    # E_11 * E_11 = E_11: projection of the unit multiple onto the
    # intersection of the two equal tangent spaces
    spec = JordanSpec(2, 1)
    fr = frame(spec)
    e11 = RankOnePoint(spec, [(1,), (0,), (0,)])
    assert jordan_mul(e11.element, e11.element) == e11.element


def test_mult_kernel_dimension():
    for (k, delta) in [(2, 1), (2, 2), (2, 8), (3, 2), (4, 1)]:
        spec = JordanSpec(k, delta)
        rng = stream_rng(60, "kernel", k, delta)
        x = sample_rank_one(spec, rng)
        want = expected_mult_kernel_dim(spec)
        assert want == k + delta * k * (k - 1) // 2
        assert mult_kernel_dim(x) == want
    assert expected_mult_kernel_dim(JordanSpec(2, 8)) == 10


def test_cone_vertex():
    # the norm hypersurface of a simple algebra has no vertex
    from jordal.jordan import norm_form
    spec = JordanSpec(2, 2)
    rng = stream_rng(61, "vertex")
    assert exact_rank(cone_vertex_stack(norm_form(spec), rng)) == spec.dim
    # control: a form that ignores its last coordinate is a cone over it
    degenerate = PolarizedForm(3, 4, lambda v: v[0] * v[1] * v[2], name="cone")
    assert exact_rank(cone_vertex_stack(degenerate, rng)) < degenerate.dim
