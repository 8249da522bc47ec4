"""Prime-field arithmetic used by the threshold signature scheme.

The scheme in :mod:`repro.crypto.threshold` is linear over GF(p) for a
fixed 256-bit prime ``PRIME`` (the secp256k1 base-field prime).  This
module provides the few field operations the scheme needs: modular
inverse, polynomial evaluation (for Shamir share dealing) and Lagrange
interpolation at zero (for share combination).
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Horner evaluation of the polynomial at ``x``."""
        result = 0
        for coefficient in reversed(self.coefficients):
            result = (result * x + coefficient) % PRIME
        return result


_LAGRANGE_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}
_LAGRANGE_CACHE_CAP = 4096
"""Signer-set tuple -> coefficient tuple.  Quorums repeat across phases
and runs (the same ``k`` signers combine certificate after certificate),
so the O(k^2) coefficient computation would otherwise be redone
thousands of times for identical inputs."""


def _lagrange_uncached(points: tuple[int, ...]) -> tuple[int, ...]:
    """The reference computation, one batched inversion for all k
    denominators (Montgomery's trick: invert the running product once,
    then unfold) instead of one modular inversion per coefficient."""
    denominators = []
    for i, x_i in enumerate(points):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(points):
            if i == j:
                continue
            numerator = mul(numerator, x_j)
            denominator = mul(denominator, sub(x_j, x_i))
        denominators.append((numerator, denominator))
    prefix = [1]
    for _, denominator in denominators:
        prefix.append(mul(prefix[-1], denominator))
    inverse = inv(prefix[-1])
    coefficients = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        numerator, denominator = denominators[i]
        coefficients[i] = mul(numerator, mul(inverse, prefix[i]))
        inverse = mul(inverse, denominator)
    return tuple(coefficients)


def lagrange_coefficients_at_zero(xs: Sequence[int]) -> list[int]:
    """Lagrange basis coefficients ``lambda_i`` such that for any
    polynomial ``f`` of degree ``< len(xs)``:

        ``f(0) == sum(lambda_i * f(xs[i]))  (mod PRIME)``

    The ``xs`` must be distinct and non-zero.  Results are memoized by
    the signer-set tuple; :func:`_lagrange_uncached` is the reference.
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
