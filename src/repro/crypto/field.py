"""Prime-field arithmetic used by the threshold signature scheme.

The scheme in :mod:`repro.crypto.threshold` is linear over GF(p) for a
fixed 256-bit prime ``PRIME`` (the secp256k1 base-field prime).  This
module provides the few field operations the scheme needs: modular
inverse, polynomial evaluation (for Shamir share dealing) and Lagrange
interpolation at zero (for share combination).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from repro.errors import ThresholdError

PRIME = 2**256 - 2**32 - 977
"""The secp256k1 base-field prime; any 256-bit prime would do."""


def normalize(x: int) -> int:
    """Reduce ``x`` into ``[0, PRIME)``."""
    return x % PRIME


def add(a: int, b: int) -> int:
    return (a + b) % PRIME


def sub(a: int, b: int) -> int:
    return (a - b) % PRIME


def mul(a: int, b: int) -> int:
    return (a * b) % PRIME


def inv(a: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``PRIME``.

    Uses CPython's native extended-Euclid path (``pow(a, -1, PRIME)``),
    which is several times faster than the Fermat exponentiation
    ``pow(a, PRIME - 2, PRIME)`` for a 256-bit modulus.

    Raises
    ------
    ThresholdError
        If ``a`` is congruent to zero (zero has no inverse).
    """
    a = a % PRIME
    if a == 0:
        raise ThresholdError("zero has no multiplicative inverse")
    return pow(a, -1, PRIME)


_HORNER_CHUNK = 32
"""Horner steps between reductions in :meth:`Polynomial.evaluate`."""


@dataclass(frozen=True)
class Polynomial:
    """A polynomial over GF(p), ``coefficients[i]`` multiplying ``x**i``."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", tuple(c % PRIME for c in self.coefficients)
        )

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: int) -> int:
        """Horner evaluation of the polynomial at ``x``, reduced once per
        ``_HORNER_CHUNK`` steps: the exact intermediate stays a few
        hundred bits for small ``x`` (share dealing evaluates at
        ``pid + 1``), which is cheaper than reducing at every step and,
        unlike never reducing, does not grow with the degree."""
        coefficients = self.coefficients
        result = 0
        for stop in range(len(coefficients), 0, -_HORNER_CHUNK):
            for coefficient in reversed(
                coefficients[max(0, stop - _HORNER_CHUNK) : stop]
            ):
                result = result * x + coefficient
            result %= PRIME
        return result


_LAGRANGE_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}
_LAGRANGE_CACHE_CAP = 4096
"""Signer-set tuple -> coefficient tuple.  Quorums repeat across phases
and runs (the same ``k`` signers combine certificate after certificate),
so the O(k^2) coefficient computation would otherwise be redone
thousands of times for identical inputs."""


def _lagrange_uncached(points: tuple[int, ...]) -> tuple[int, ...]:
    """The memo-free computation.  ``lambda_i`` is the product of the
    other points over the product of their differences from ``x_i``;
    both are exact integer products taken at C speed (the numerator as
    the product of all points divided by ``x_i``) and reduced once.  All
    k denominators share one batched inversion (Montgomery's trick:
    invert the running product once, then unfold)."""
    everything = math.prod(points)
    numerators = [everything // x_i % PRIME for x_i in points]
    denominators = [
        math.prod(map(operator.sub, points[:i], repeat(x_i)))
        * math.prod(map(operator.sub, points[i + 1 :], repeat(x_i)))
        % PRIME
        for i, x_i in enumerate(points)
    ]
    prefix = [1]
    for denominator in denominators:
        prefix.append(mul(prefix[-1], denominator))
    inverse = inv(prefix[-1])
    coefficients = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        coefficients[i] = mul(numerators[i], mul(inverse, prefix[i]))
        inverse = mul(inverse, denominators[i])
    return tuple(coefficients)


def lagrange_coefficients_at_zero(xs: Sequence[int]) -> list[int]:
    """Lagrange basis coefficients ``lambda_i`` such that for any
    polynomial ``f`` of degree ``< len(xs)``:

        ``f(0) == sum(lambda_i * f(xs[i]))  (mod PRIME)``

    The ``xs`` must be distinct and non-zero.  Results are memoized by
    the signer-set tuple; :func:`_lagrange_uncached` computes a miss.
    """
    points = tuple(x % PRIME for x in xs)
    if len(set(points)) != len(points):
        raise ThresholdError(f"interpolation points must be distinct: {xs}")
    if any(x == 0 for x in points):
        raise ThresholdError("interpolation points must be non-zero")
    coefficients = _LAGRANGE_CACHE.get(points)
    if coefficients is None:
        if len(_LAGRANGE_CACHE) >= _LAGRANGE_CACHE_CAP:
            _LAGRANGE_CACHE.clear()
        coefficients = _lagrange_uncached(points)
        _LAGRANGE_CACHE[points] = coefficients
    return list(coefficients)


def interpolate_at_zero(points: Iterable[tuple[int, int]]) -> int:
    """Interpolate ``f(0)`` from ``(x, f(x))`` pairs with distinct ``x``."""
    pairs = list(points)
    coefficients = lagrange_coefficients_at_zero([x for x, _ in pairs])
    return sum(c * y for c, (_, y) in zip(coefficients, pairs)) % PRIME


def clear_caches() -> None:
    """Drop the Lagrange memo (tests and long-lived services)."""
    _LAGRANGE_CACHE.clear()
