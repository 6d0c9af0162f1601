"""The arithmetic of a run: exact rationals, or floats against a tolerance.

Every check has one body and leaves each step that depends on the mode to a
backend: lifting sampled coordinates, zero tests and comparisons, rank,
solve and determinant ratios. ``EXACT`` keeps ints and Fractions, compares
with zero tolerance and calls the exact routines of ``linalg``.
``FloatBackend(tol)`` lifts coordinates to floats, so everything built from
them is computed in floats; it reads a value as zero when it is at most
tol * (1 + the size of what is compared), and does linear algebra with the
float routines of ``linalg``, whose zero pivot rule does not read tol.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import linalg


TrialOutcome = namedtuple("TrialOutcome", "ok err witness", defaults=(None, None))


class ExactBackend:
    """Zero tolerance over ints and Fractions."""

    def lift(self, coords):
        return tuple(coords)

    def is_zero(self, value, scale) -> bool:
        return value == 0

    def small(self, value, scale) -> TrialOutcome:
        err = abs(value)
        return TrialOutcome(err == 0, err)

    def close_scalars(self, lhs, rhs) -> TrialOutcome:
        return self.small(lhs - rhs, None)

    def close_elements(self, lhs, rhs) -> TrialOutcome:
        # equal elements give what the subtraction would: err the int 0
        if lhs == rhs:
            return TrialOutcome(True, 0)
        return self.small((lhs - rhs).max_abs(), None)

    # linalg is read at call time, so a tracer that patches it sees the calls
    def rank(self, rows) -> int:
        return linalg.exact_rank(rows)

    def solve(self, rows, rhs):
        return linalg.exact_solve(rows, rhs)

    def det_ratio(self, rows, den, base, power) -> TrialOutcome:
        """Whether det(rows) / den = base ** power."""
        return self.close_scalars(linalg.exact_det(rows) / den,
                                  Fraction(base) ** power)


EXACT = ExactBackend()


class FloatBackend(namedtuple("FloatBackend", "tol")):
    """Floats; zero means at most tol * (1 + scale)."""

    __slots__ = ()

    def lift(self, coords):
        return tuple(float(c) for c in coords)

    def is_zero(self, value, scale) -> bool:
        return abs(float(value)) <= self.tol * (1 + float(scale))

    def small(self, value, scale) -> TrialOutcome:
        return TrialOutcome(self.is_zero(value, scale), float(abs(value)))

    def close_scalars(self, lhs, rhs) -> TrialOutcome:
        return self.small(lhs - rhs, max(abs(float(lhs)), abs(float(rhs))))

    def close_elements(self, lhs, rhs) -> TrialOutcome:
        return self.small((lhs - rhs).max_abs(),
                          max(float(lhs.max_abs()), float(rhs.max_abs())))

    def rank(self, rows) -> int:
        return linalg.float_rank(rows)

    def solve(self, rows, rhs):
        return linalg.float_solve(rows, rhs)

    def det_ratio(self, rows, den, base, power) -> TrialOutcome:
        """det(rows) / den against base ** power, compared in log space.

        The determinant of a float matrix and the power both leave the
        float range on larger shapes; their logarithms do not. The signs
        must match and the logarithms agree within 1e-6 per row.
        """
        sign, log_det = linalg.float_slogdet(rows)
        want_sign = math.copysign(1, den) * math.copysign(1, base) ** power
        err = abs(log_det - math.log(abs(den)) - power * math.log(abs(float(base))))
        return TrialOutcome(sign == want_sign and err <= 1e-6 * len(rows), err)
