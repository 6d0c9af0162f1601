"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity by a route different from the library:
pair-indexed recursion for the doubled products, the Cayley-Dickson basis
multiplication table (the rule the library's unrolled kernel encodes),
Leibniz determinants, Freudenthal's closed cubic norm and adjoint,
Fraction-based Gaussian elimination, classical cofactor adjugates, Newton's
identities over Fractions on the traces of iterated Jordan products,
polarization by inclusion-exclusion over black-box evaluations of a form,
the interpreted loop over a form's monomial table that the library's
generated passes replaced, t-derivatives by exact Lagrange interpolation,
the closed polarized formulas of the pairing and of tau_M(x) that the
library reads from the one operator tau instead, the rank-one points v v^H
and the tangent-frame rows w v^H + v w^H assembled entry by entry, which the
library reads from jordan's generated outer kernel instead, and the standard
library's randint for the coordinate draws the library reads from
getrandbits words.
It also holds the small matrix, vector and element helpers that only tests
use. None of it is imported by the package itself.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, gcd

from jordal.jordan import JordanElement, from_entries, identity, jordan_mul
from jordal.linalg import (LinearOperator, clear_row_denominators, common_denominator,
                           over, value)
from jordal.polarization import covector_slot, partial_polarize
from jordal.rng import COORD_HI, COORD_LO


@lru_cache(maxsize=None)
def basis_table(delta: int):
    """table[i][j] = (k, sign) with e_i e_j = sign e_k, by doubling."""
    if delta == 1:
        return (((0, 1),),)
    n = delta // 2
    sub = basis_table(n)
    table = [[None] * delta for _ in range(delta)]
    for i in range(delta):
        for j in range(delta):
            if i < n and j < n:
                k, s = sub[i][j]
                table[i][j] = (k, s)
            elif i < n:  # (e_i, 0)(0, e_b) = (0, e_b e_i)
                b = j - n
                k, s = sub[b][i]
                table[i][j] = (k + n, s)
            elif j < n:  # (0, e_a)(e_j, 0) = (0, e_a conj(e_j))
                a = i - n
                k, s = sub[a][j]
                table[i][j] = (k + n, s if j == 0 else -s)
            else:  # (0, e_a)(0, e_b) = (-conj(e_b) e_a, 0)
                a, b = i - n, j - n
                k, s = sub[b][a]
                table[i][j] = (k, -s if b == 0 else s)
    return tuple(tuple(row) for row in table)


def doubled_mul(x, y):
    """(a,b)(c,d) = (ac - d~b, da + b c~) on explicit halves, recursively."""
    n = len(x)
    if n == 1:
        return (x[0] * y[0],)
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    ac = doubled_mul(a, c)
    db = doubled_mul(conj_half(d), b)
    da = doubled_mul(d, a)
    bc = doubled_mul(b, conj_half(c))
    return tuple(p - q for p, q in zip(ac, db)) + tuple(p + q for p, q in zip(da, bc))


def conj_half(x):
    if len(x) == 1:
        return x
    return (x[0],) + tuple(-v for v in x[1:])


def sign(perm) -> int:
    s = 1
    p = list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            s = -s
    return s


def leibniz_det(entries, size: int, delta: int):
    """Sum over permutations of entry products, real part; delta <= 2 only.

    For real and complex Hermitian matrices this is the honest determinant;
    beyond delta = 2 the naive permutation sum is not well defined.
    """
    if delta > 2:
        raise ValueError("permutation determinant needs commutative entries")
    total = Fraction(0)
    for perm in permutations(range(size)):
        term = (1,) + (0,) * (delta - 1)
        for i in range(size):
            term = doubled_mul(term, entries[i][perm[i]])
        total += sign(perm) * term[0]
    return total


def freudenthal_norm(a: JordanElement):
    """Freudenthal's cubic norm of a 3 x 3 Hermitian matrix,

        N = alpha beta gamma - alpha n(x) - beta n(y) - gamma n(z) + 2 Re((z x) y),

    with diagonal alpha, beta, gamma, z = A_01, x = A_12 and y = A_20, n the
    sum of squares and the products by doubled_mul: a closed formula, with no
    trace, no Newton recursion and no table. It holds for every delta, the
    octonions too, since Re((z x) y) = Re(z (x y))."""
    g = a.grid()
    if len(g) != 3:
        raise ValueError("Freudenthal's norm is defined on 3 x 3 matrices")
    alpha, beta, gamma = (g[i][i][0] for i in range(3))
    z, x, y = g[0][1], g[1][2], g[2][0]

    def n(v):
        return sum(c * c for c in v)
    return (alpha * beta * gamma - alpha * n(x) - beta * n(y) - gamma * n(z)
            + 2 * doubled_mul(doubled_mul(z, x), y)[0])


def freudenthal_adjoint(a: JordanElement) -> JordanElement:
    """Freudenthal's adjoint (cross product) of a 3 x 3 Hermitian matrix:
    diagonal beta gamma - n(x), gamma alpha - n(y) and alpha beta - n(z),
    and conj(x y) - gamma z at (0, 1), conj(y z) - alpha x at (1, 2) and
    conj(z x) - beta y at (2, 0), with z = A_01, x = A_12, y = A_20 and the
    products by doubled_mul: a closed formula, with no polarization, no
    table and no Gram matrix."""
    g = a.grid()
    if len(g) != 3:
        raise ValueError("Freudenthal's adjoint is defined on 3 x 3 matrices")
    alpha, beta, gamma = (g[i][i][0] for i in range(3))
    z, x, y = g[0][1], g[1][2], g[2][0]

    def n(v):
        return sum(c * c for c in v)

    def minus(u, t, v):
        """u - t v."""
        return tuple(p - t * w for p, w in zip(u, v))
    adj = {(0, 0): beta * gamma - n(x), (1, 1): gamma * alpha - n(y),
           (2, 2): alpha * beta - n(z),
           (0, 1): minus(conj_half(doubled_mul(x, y)), gamma, z),
           (1, 2): minus(conj_half(doubled_mul(y, z)), alpha, x),
           # the conjugate of the (2, 0) entry
           (0, 2): minus(doubled_mul(z, x), beta, conj_half(y))}
    return from_entries(a.spec, lambda i, j: adj[i, j])


def _outer_sym(spec, u, v) -> JordanElement:
    """The Hermitian element u v^H + v u^H from two columns of coordinate
    tuples, one doubled_mul per entry."""
    def outer(i, j):
        a = doubled_mul(u[i], conj_half(v[j]))
        if i == j:  # a + conj(a)
            return 2 * a[0]
        b = doubled_mul(v[i], conj_half(u[j]))
        return tuple(x + y for x, y in zip(a, b))
    return from_entries(spec, outer)


def rank_one_element(spec, v) -> JordanElement:
    """v v^H entry by entry: N(v_i) on the diagonal, v_i conj(v_j) above it."""
    return from_entries(spec, lambda i, j: sum(c * c for c in v[i]) if i == j
                        else doubled_mul(v[i], conj_half(v[j])))


def tangent_rows(x):
    """The numerator rows of w v^H + v w^H at the rank-one point x, by
    _outer_sym, for w = e_s at coordinate p over the chart directions: every
    (p, s) but s > 0 at the scalar slot, p-major."""
    spec = x.spec
    size, delta = spec.size, spec.delta
    rows = []
    for p in range(size):
        for s in range(delta):
            if p == x.scalar_slot and s > 0:
                continue
            w = [(0,) * delta] * size
            w[p] = tuple(int(t == s) for t in range(delta))
            rows.append(list(_outer_sym(spec, w, x.v).cleared[0]))
    return rows


def gauss_rank(rows) -> int:
    """Row reduction over Fraction, no cleverness."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def gauss_solve(rows, rhs):
    """Unique solution over Fraction or ValueError."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


def gauss_inverse(rows):
    """Gauss-Jordan inverse over Fraction; ValueError when singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [v / pv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return tuple(tuple(r[n:]) for r in aug)


def gauss_det(rows):
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def classical_adjugate(spec, a: JordanElement) -> JordanElement:
    """Cofactor matrix of a 3x3 symmetric matrix with scalar entries."""
    assert spec.size == 3 and spec.delta == 1
    g = [[x[0] for x in row] for row in a.grid()]
    adj = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [x for x in range(3) if x != j]
            c = [x for x in range(3) if x != i]
            minor = g[r[0]][c[0]] * g[r[1]][c[1]] - g[r[0]][c[1]] * g[r[1]][c[0]]
            adj[i][j] = (-1) ** (i + j) * minor
    return from_entries(spec, lambda i, j: adj[i][j] if i == j else (adj[i][j],))


def dense_symmetric_product(a: JordanElement, b: JordanElement) -> JordanElement:
    """(AB + BA)/2 assembled entry by entry from the matrix grids; a
    product with a zero entry is skipped, so basis elements are cheap."""
    spec = a.spec
    ga, gb = a.grid(), b.grid()
    size, delta = spec.size, spec.delta
    prod = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc = [0] * delta
            for l in range(size):
                for x, y in ((ga[i][l], gb[l][j]), (gb[i][l], ga[l][j])):
                    if any(x) and any(y):
                        acc = [p + q for p, q in zip(acc, doubled_mul(x, y))]
            prod[i][j] = tuple(Fraction(v, 2) for v in acc)
    return from_entries(spec, lambda i, j: prod[i][j][0] if i == j else prod[i][j])


def jordan_power(a: JordanElement, m: int) -> JordanElement:
    """Left-iterated power, A^0 = I, A^{m+1} = A * A^m."""
    if m < 0:
        raise ValueError("negative power")
    result = identity(a.spec)
    for _ in range(m):
        result = jordan_mul(a, result)
    return result


def power_traces(a: JordanElement, upto: int):
    """[p_1, ..., p_upto] with p_m = T(A^m), A^m the iterated Jordan product."""
    return [sum(row[i][0] for i, row in enumerate(jordan_power(a, m).grid()))
            for m in range(1, upto + 1)]


def newton_coeffs(p, degree: int):
    """sigma_1..sigma_degree from power sums via Newton's identities."""
    e = [1]
    for j in range(1, degree + 1):
        acc = 0
        sign = 1
        for i in range(1, j + 1):
            acc = acc + sign * e[j - i] * p[i - 1]
            sign = -sign
        e.append(acc * Fraction(1, j))
    return tuple(e[1:])


def diagonal_element(spec, values) -> JordanElement:
    """The diagonal element with the given k+1 diagonal values."""
    values = tuple(values)
    if len(values) != spec.size:
        raise ValueError(f"expected {spec.size} diagonal values")
    return JordanElement(spec, values + (0,) * (spec.dim - spec.size))


def identity_matrix(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def transpose(rows):
    return tuple(zip(*rows))


def vector_values(pair):
    """The vector nums / den of a (numerators, denominator) pair, as covector
    slots and operator images come, as values: Fractions over den, or the
    numerators as they are (ints or floats) when den is 1."""
    nums, den = pair
    return nums if den == 1 else tuple(Fraction(v, den) for v in nums)


def values(op: LinearOperator):
    """The entries of op as values: Fractions over its denominator, or its
    numerators as they are (ints or floats) when that is 1."""
    den = op.denominator
    if den == 1:
        return op.numerators
    return tuple(tuple(Fraction(v, den) for v in row) for row in op.numerators)


def operator(rows, domain="V", codomain="V") -> LinearOperator:
    """The operator whose entries are the values rows (ints, Fractions or
    floats), cleared to int numerators over one denominator."""
    rows = tuple(tuple(row) for row in rows)
    n = len(rows[0]) if rows else 1
    flat, den = clear_row_denominators(v for row in rows for v in row)
    return LinearOperator(tuple(flat[i:i + n] for i in range(0, len(flat), n)),
                          den, domain, codomain)


def transpose_op(op: LinearOperator) -> LinearOperator:
    """The dual operator: transposed matrix, tags swapped and dualized."""
    flip = {"V": "V*", "V*": "V"}
    return operator(transpose(values(op)), flip[op.codomain], flip[op.domain])


def is_symmetric(rows) -> bool:
    n = len(rows)
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))


def proportional(u, v) -> bool:
    """True when nonzero u and v span the same line, by cross-multiplying.

    When either vector is zero, True exactly when both are.
    """
    nu = any(x != 0 for x in u)
    nv = any(x != 0 for x in v)
    if not nu or not nv:
        return nu == nv
    p = next(i for i, x in enumerate(u) if x != 0)
    if v[p] == 0:
        return False
    return all(u[p] * v[j] == v[p] * u[j] for j in range(len(u)))


def closed_form_inner(fr, a: JordanElement, b: JordanElement):
    """<A,B> = q Q(I,..,I,A) Q(I,..,I,B) - (q-1) Q(I,..,I,A,B)."""
    q, unit = fr.q, fr.unit.cleared
    a, b = a.cleared, b.cleared
    return (q * partial_polarize(fr.form, unit, [a])
            * partial_polarize(fr.form, unit, [b])
            - (q - 1) * partial_polarize(fr.form, unit, [a, b]))


def closed_form_tau_covector(fr, m: JordanElement, x: JordanElement):
    """tau_M(x) = q Q(M,..,M,x) Q(M,..,M,.) / Q(M)^2
    - (q-1) Q(M,..,M,x,.) / Q(M), over Fractions."""
    q, qm = fr.q, Fraction(fr.norm(m))
    m, x = m.cleared, x.cleared
    s = partial_polarize(fr.form, m, [x])
    g = vector_values(covector_slot(fr.form, [m] * (q - 1)))
    w = vector_values(covector_slot(fr.form, [m] * (q - 2) + [x]))
    return tuple(q * s * gc / qm ** 2 - (q - 1) * wc / qm for gc, wc in zip(g, w))


def primitive_integer_vector(vec):
    """Clear denominators and divide by content; zero vector maps to itself."""
    d = common_denominator(vec)
    ints = [int(v * d) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        return tuple(ints)
    return tuple(v // g for v in ints)


@lru_cache(maxsize=None)
def derivative_at_zero_weights(nodes: tuple, order: int = 1) -> tuple:
    """Weights w with sum w_j p(x_j) = p^(order)(0) for deg(p) < len(nodes).

    Computed by expanding each Lagrange basis polynomial exactly.
    """
    n = len(nodes)
    ws = []
    for j, xj in enumerate(nodes):
        # expand prod_{l != j} (x - x_l)
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for l, xl in enumerate(nodes):
            if l == j:
                continue
            denom *= xj - xl
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for p, c in enumerate(coeffs):
                nxt[p + 1] += c
                nxt[p] -= c * xl
            coeffs = nxt
        w = coeffs[order] * factorial(order) / denom if order < n else Fraction(0)
        ws.append(w)
    return tuple(ws)


def inclusion_exclusion_polarize(form, base, mult: int, rest):
    """F~(base^mult, rest_1..rest_m) from black-box evaluations of form.func.

    h(u) = sum_{S subset {1..m}} (-1)^(m-|S|) F(B + u sum_{i in S} r_i) has
    valuation >= m, and its u^m coefficient, recovered by interpolating
    h(u)/u^m at u = 1..q-m+1, is q!/(q-m)! times the mixed-linear term.
    """
    q = form.degree
    rest = [tuple(r) for r in rest]
    m = len(rest)
    if mult + m != q:
        raise ValueError(f"multiplicity {mult} plus {m} slots must equal degree {q}")
    base = tuple(base)
    if m == 0:
        return form.func(base)
    nodes = tuple(range(1, q - m + 2))
    weights = derivative_at_zero_weights(nodes, 0)
    sign_base = -1 if m % 2 else 1
    dirs = [(0,) * form.dim]
    for mask in range(1, 1 << m):
        low = mask & -mask
        dirs.append(tuple(a + b for a, b in
                          zip(dirs[mask ^ low], rest[low.bit_length() - 1])))
    base_value = form.func(base)
    acc = 0
    for u, w in zip(nodes, weights):
        h = sign_base * base_value
        for mask in range(1, 1 << m):
            value = form.func(tuple(b + u * d for b, d in zip(base, dirs[mask])))
            h = h - value if (m - mask.bit_count()) % 2 else h + value
        acc = acc + w * h / u ** m
    return acc * Fraction(factorial(q - m), factorial(q))


def _subset_steps(m: int):
    """The recurrence of _multilinear for m slots: for each nonempty subset
    S of slots, largest first, the pairs (slot column, S without the slot)."""
    return tuple((S, tuple((s + 1, S ^ (1 << s)) for s in range(m) if S >> s & 1))
                 for S in range((1 << m) - 1, 0, -1))


def _multilinear(factors, mono, steps):
    """[t_1 ... t_m] prod_{i in mono} (f_i[0] + sum_s t_s f_i[s]), f_i = factors[i].

    poly[S] holds the coefficient of prod_{s in S} t_s in the product so far;
    each position updates the subsets in place, largest first.
    """
    poly = [1] + [0] * len(steps)
    for i in mono:
        f = factors[i]
        b = f[0]
        for S, moves in steps:
            v = poly[S] * b
            for s, T in moves:
                v += poly[T] * f[s]
            poly[S] = v
        poly[0] *= b
    return poly[-1]


def interpreted_contract(form, base, rest, gradient: bool = False):
    """polarization._contract as a loop over the table that interprets each
    monomial: the same operations in the same order as the compiled passes,
    so exact results agree and floats agree bit for bit."""
    q = form.degree
    m = len(rest)
    free = q - m - gradient
    base, den = base
    den = form.denominator * den ** free
    columns = [base]
    for r, d in rest:
        den *= d
        columns.append(r)
    num = factorial(free)
    den *= factorial(q)
    if not (m or gradient):
        total = 0
        for mono, c in form.terms:
            for i in mono:
                c *= base[i]
            total += c
        return value(total * num, den)
    factors = tuple(zip(*columns))
    steps = _subset_steps(m)
    base_zero = [b == 0 for b in base]
    zeros = base_zero.__getitem__ if any(base_zero) else None
    if not gradient:
        total = 0
        for mono, c in form.terms:
            if zeros is None or sum(map(zeros, mono)) <= m:
                total += c * _multilinear(factors, mono, steps)
        return value(total * num, den)
    out = [0] * form.dim
    for mono, c in form.terms:
        n = 0 if zeros is None else sum(map(zeros, mono))
        if n > m + 1:
            continue
        for p, i in enumerate(mono):
            if n > m and n - base_zero[i] > m:
                continue
            others = mono[:p] + mono[p + 1:]
            if m:
                out[i] += c * _multilinear(factors, others, steps)
            else:
                v = c
                for j in others:
                    v *= base[j]
                out[i] += v
    return over(tuple([t * num for t in out]), den)


def interpreted_pair_matrix(form, base):
    """polarization.pair_matrix as a loop over the table that interprets each
    monomial, with the same operations in the same order."""
    q, dim = form.degree, form.dim
    base, d = base
    rows = [[0] * dim for _ in range(dim)]
    pairs = [(p, p2, [o for o in range(q) if o != p and o != p2])
             for p, p2 in combinations(range(q), 2)]
    base_zero = [b == 0 for b in base]
    zeros = base_zero.__getitem__ if any(base_zero) else None
    for mono, c in form.terms:
        if zeros is not None and sum(map(zeros, mono)) > 2:
            continue
        vals = [base[i] for i in mono]
        for p, p2, others in pairs:
            v = c
            for o in others:
                v *= vals[o]
            if v:
                i, j = mono[p], mono[p2]
                rows[i][j] += v
                rows[j][i] += v
    flat, den = over(tuple([v for row in rows for v in row]),
                     form.denominator * d ** (q - 2) * q * (q - 1))
    return [flat[i:i + dim] for i in range(0, dim * dim, dim)], den


def interpolated_line_derivative(fr, a: JordanElement, b: JordanElement):
    """d/dt [tau_I^{-1} tau_{I+tA}(B)] at t = 0, by exact interpolation in t.

    The pieces c1(t) = Q(M,..,M,B,.), c2(t) = Q(M,..,M,B), c3(t) = Q(M,..,M,.)
    and c4(t) = Q(M), M = I + tA, are sampled at integer nodes and their
    derivatives at 0 recovered with exact Lagrange weights.
    """
    q, dim = fr.q, fr.spec.dim
    a_coords, b_pair = a.coords(), b.cleared

    def m_at(t):
        """I + tA as the pair the library takes."""
        return clear_row_denominators(
            tuple(u + t * x for u, x in zip(fr.unit.coords(), a_coords)))

    d1 = derivative_at_zero_weights(tuple(range(q - 1)))
    d2 = derivative_at_zero_weights(tuple(range(q)))
    d4 = derivative_at_zero_weights(tuple(range(q + 1)))
    c1 = [vector_values(covector_slot(fr.form, [m_at(t)] * (q - 2) + [b_pair]))
          for t in range(q - 1)]
    c2 = [partial_polarize(fr.form, m_at(t), [b_pair]) for t in range(q)]
    c3 = [vector_values(covector_slot(fr.form, [m_at(t)] * (q - 1))) for t in range(q)]
    c4 = [fr.form(m_at(t)) for t in range(q + 1)]
    c1_d = [sum(w * s[c] for w, s in zip(d1, c1)) for c in range(dim)]
    c2_d = sum(w * s for w, s in zip(d2, c2))
    c3_d = [sum(w * s[c] for w, s in zip(d2, c3)) for c in range(dim)]
    c4_d = sum(w * s for w, s in zip(d4, c4))
    phi_d = tuple(
        -(q - 1) * (c1_d[c] - c1[0][c] * c4_d)
        + q * (c2_d * c3[0][c] + c2[0] * c3_d[c] - 2 * c2[0] * c3[0][c] * c4_d)
        for c in range(dim))
    return JordanElement(fr.spec, vector_values(
        fr.gram_inv.apply(*clear_row_denominators(phi_d))))


def randint_coords(rng, n: int) -> tuple:
    """n coordinates drawn by rng.randint, the route rng.sample_coords
    writes out on getrandbits words."""
    return tuple(rng.randint(COORD_LO, COORD_HI) for _ in range(n))
