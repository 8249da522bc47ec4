"""Unit tests for prime-field arithmetic and Lagrange interpolation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import field
from repro.errors import ThresholdError

PRIME = field.PRIME
CHUNK = field._HORNER_CHUNK


def reference_evaluate(coefficients, x: int) -> int:
    """Horner reduced at every step: the oracle for
    ``Polynomial.evaluate``, which reduces once per chunk."""
    result = 0
    for coefficient in reversed(coefficients):
        result = (result * x + coefficient) % PRIME
    return result


def reference_lagrange(points) -> tuple[int, ...]:
    """O(k^2) modular products and one batched inversion: the oracle
    for ``field._lagrange_uncached``, which takes exact products."""
    denominators = []
    for i, x_i in enumerate(points):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(points):
            if i == j:
                continue
            numerator = field.mul(numerator, x_j)
            denominator = field.mul(denominator, field.sub(x_j, x_i))
        denominators.append((numerator, denominator))
    prefix = [1]
    for _, denominator in denominators:
        prefix.append(field.mul(prefix[-1], denominator))
    inverse = field.inv(prefix[-1])
    coefficients = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        numerator, denominator = denominators[i]
        coefficients[i] = field.mul(numerator, field.mul(inverse, prefix[i]))
        inverse = field.mul(inverse, denominator)
    return tuple(coefficients)


def _coefficients(k: int, fill: str, seed: int) -> tuple[int, ...]:
    if fill == "max":  # the largest unreduced intermediates
        return (PRIME - 1,) * k
    rng = random.Random(seed)
    return tuple(rng.randrange(PRIME) for _ in range(k))


# Polynomial sizes: anything in [1, 800], plus both sides of every
# reduction boundary (k = 0 and 1 mod the chunk size).
sizes = st.one_of(
    st.integers(1, 800),
    st.builds(
        lambda m, r: CHUNK * m + r, st.integers(0, 800 // CHUNK), st.integers(0, 1)
    ).filter(lambda k: 1 <= k <= 800),
)


class TestBasicOps:
    def test_prime_is_prime_small_witnesses(self):
        # Fermat tests with a few bases — PRIME is the secp256k1 field prime.
        for base in (2, 3, 5, 7, 11):
            assert pow(base, field.PRIME - 1, field.PRIME) == 1

    def test_add_sub_roundtrip(self):
        a, b = 12345, field.PRIME - 7
        assert field.sub(field.add(a, b), b) == a % field.PRIME

    def test_mul_inv_roundtrip(self):
        for a in (1, 2, 17, field.PRIME - 1, 123456789):
            assert field.mul(a, field.inv(a)) == 1

    def test_inv_of_zero_rejected(self):
        with pytest.raises(ThresholdError):
            field.inv(0)
        with pytest.raises(ThresholdError):
            field.inv(field.PRIME)

    def test_normalize(self):
        assert field.normalize(field.PRIME + 5) == 5
        assert field.normalize(-1) == field.PRIME - 1


class TestPolynomial:
    def test_constant(self):
        poly = field.Polynomial((42,))
        assert poly.evaluate(0) == 42
        assert poly.evaluate(99999) == 42

    def test_linear(self):
        poly = field.Polynomial((3, 2))  # 3 + 2x
        assert poly.evaluate(0) == 3
        assert poly.evaluate(10) == 23

    def test_degree(self):
        assert field.Polynomial((1, 2, 3)).degree == 2

    def test_coefficients_reduced(self):
        poly = field.Polynomial((field.PRIME + 1,))
        assert poly.coefficients == (1,)

    @settings(max_examples=150, deadline=None)
    @given(
        k=sizes,
        x=st.integers(0, 1002),
        fill=st.sampled_from(["random", "max"]),
        seed=st.integers(0, 2**32),
    )
    def test_chunked_horner_matches_per_step_reference(self, k, x, fill, seed):
        coefficients = _coefficients(k, fill, seed)
        poly = field.Polynomial(coefficients)
        assert poly.evaluate(x) == reference_evaluate(coefficients, x)

    @pytest.mark.parametrize("k", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 800])
    def test_chunk_boundaries_and_large_x(self, k):
        coefficients = _coefficients(k, "random", k)
        poly = field.Polynomial(coefficients)
        for x in (0, 1, 1002, PRIME - 1, PRIME + 5, -3):
            assert poly.evaluate(x) == reference_evaluate(coefficients, x)


class TestLagrange:
    def test_recovers_secret_from_any_k_shares(self):
        poly = field.Polynomial((777, 13, 99))  # degree 2, secret 777
        shares = [(x, poly.evaluate(x)) for x in range(1, 8)]
        for subset in [shares[:3], shares[2:5], [shares[0], shares[3], shares[6]]]:
            assert field.interpolate_at_zero(subset) == 777

    def test_coefficients_sum_correctly(self):
        xs = [1, 2, 3, 4]
        coefficients = field.lagrange_coefficients_at_zero(xs)
        # For the constant polynomial f == 1: sum of coefficients is 1.
        assert sum(coefficients) % field.PRIME == 1

    def test_duplicate_points_rejected(self):
        with pytest.raises(ThresholdError):
            field.lagrange_coefficients_at_zero([1, 1, 2])

    def test_zero_point_rejected(self):
        with pytest.raises(ThresholdError):
            field.lagrange_coefficients_at_zero([0, 1, 2])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 1002), min_size=1, max_size=96, unique=True))
    def test_kernel_matches_reference_on_signer_subsets(self, signers):
        """Any subset of the signer ids ``1 .. 1002``, gaps included, in
        any order."""
        points = tuple(signers)
        reference = reference_lagrange(points)
        assert field._lagrange_uncached(points) == reference
        assert tuple(field.lagrange_coefficients_at_zero(points)) == reference

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(1, PRIME - 1), min_size=1, max_size=12))
    def test_kernel_matches_reference_on_wide_points(self, points):
        points = tuple(points)
        assert field._lagrange_uncached(points) == reference_lagrange(points)

    def test_kernel_matches_reference_at_800_signers(self):
        points = tuple(sorted(random.Random(800).sample(range(1, 1003), 800)))
        assert field._lagrange_uncached(points) == reference_lagrange(points)

    def test_too_few_shares_give_wrong_secret(self):
        """Information-theoretic security: k-1 shares interpolate to a
        value unrelated to the secret."""
        poly = field.Polynomial((555, 7, 21))  # degree 2, needs 3 points
        shares = [(x, poly.evaluate(x)) for x in (1, 2)]
        assert field.interpolate_at_zero(shares) != 555
