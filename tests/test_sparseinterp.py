"""Prime-field primitives of the sparse interpolation: primality, the
smooth prime and its discrete logs, Berlekamp-Massey, root finding and the
transposed Vandermonde solve, each against a planted answer or a direct
computation (trial division, ``pow``, brute-force search)."""

import random

import pytest

from sdres.sparseinterp import (
    COFACTOR_BOUND,
    LinearGenerator,
    discrete_log,
    is_prime,
    next_prime,
    roots_mod,
    smooth_prime,
    transposed_vandermonde,
)

P61 = (1 << 61) - 1


def trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def odd_part(m):
    while m % 2 == 0:
        m //= 2
    return m


def prime_factors(m):
    out, d = set(), 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    return out | ({m} if m > 1 else set())


def poly_from_roots(roots, p):
    """Monic prod (z - r) over GF(p), lowest degree first."""
    f = [1]
    for r in roots:
        f = [0] + f
        for i in range(len(f) - 1):
            f[i] = (f[i] - r * f[i + 1]) % p
    return f


def test_is_prime_matches_trial_division_below_10_5():
    sieve = [True] * 100_000
    sieve[0] = sieve[1] = False
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 100_000, i))
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if sieve[n]]
    assert all(is_prime(n) == trial_division_prime(n)
               for n in range(99_000, 100_000))


def test_is_prime_on_large_known_values():
    assert is_prime(P61)
    assert not is_prime(P61 * 3)
    # Carmichael numbers and a strong pseudoprime to the bases up to 23
    assert not any(is_prime(n) for n in (561, 41041, 825265,
                                         3825123056546413051))
    assert next_prime(P61 - 1) == P61


@pytest.mark.parametrize("terms", [1, 5, 17])
def test_linear_generator_finds_a_planted_recurrence(terms):
    # a_j = sum_t w_t m_t^j has minimal generator prod (z - m_t)
    rng = random.Random(terms)
    roots = rng.sample(range(1, P61), terms)
    weights = [rng.randrange(1, P61) for _ in roots]
    gen = LinearGenerator(P61)
    for j in range(2 * terms + 4):
        gen.add(sum(w * pow(m, j, P61) for w, m in zip(weights, roots)))
    assert gen.length == terms
    assert gen.generator() == poly_from_roots(roots, P61)
    assert roots_mod(gen.generator(), P61, rng) == sorted(roots)
    assert transposed_vandermonde(sorted(roots), gen.seq, P61) == [
        w for _, w in sorted(zip(roots, weights))]


def test_linear_generator_on_a_recurrence_with_repeated_roots():
    # a_j = j * 2^j: generator (z - 2)^2, not squarefree
    gen = LinearGenerator(P61)
    for j in range(8):
        gen.add(j * pow(2, j, P61))
    assert gen.length == 2
    assert gen.generator() == [4, P61 - 4, 1]
    assert roots_mod(gen.generator(), P61, random.Random(0)) is None


@pytest.mark.parametrize("p", [101, 65537, P61])
def test_roots_mod_splits_a_planted_product(p):
    rng = random.Random(p)
    roots = rng.sample(range(p), min(p, 12))
    assert roots_mod(poly_from_roots(roots, p), p, rng) == sorted(roots)
    assert roots_mod([1], p, rng) == []


@pytest.mark.parametrize("p", [101, 65537, P61])
def test_roots_mod_rejects_an_irreducible_quadratic(p):
    rng = random.Random(p)
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    assert roots_mod([-a % p, 0, 1], p, rng) is None          # z^2 - a
    # a split factor times the irreducible one does not split either
    f = [(-a * 5) % p, (-a) % p, 5, 1]                        # (z+5)(z^2-a)
    assert roots_mod(f, p, rng) is None


SMOOTH62 = smooth_prime(1 << 61)                 # 531 * 2^52 + 1


class QueuedRng(random.Random):
    """A Random whose first randrange calls return queued values."""

    def __init__(self, queue, seed=0):
        super().__init__(seed)
        self.queue = list(queue)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return self.queue.pop(0) if self.queue else super().randrange(*args)


def two_power_unit(p, order):
    """An element of multiplicative order 2^order in GF(p)."""
    x = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    return pow(x, (p - 1) >> order, p)


@pytest.mark.parametrize("p", [65537, SMOOTH62.p])
def test_roots_mod_splits_roots_sharing_their_top_two_adic_levels(p):
    # m, m zeta, m zeta^2 for zeta of order 2^10, m and -m, and 0
    rng = random.Random(p)
    m = rng.randrange(1, p)
    zeta = two_power_unit(p, 10)
    roots = {m, m * zeta % p, m * zeta * zeta % p, p - m, 0}
    roots |= set(rng.sample(range(1, p), 20))
    for seed in range(4):
        f = poly_from_roots(sorted(roots), p)
        assert roots_mod(f, p, random.Random(seed)) == sorted(roots)


@pytest.mark.parametrize("p", [101, 65537, SMOOTH62.p, P61])
def test_roots_mod_survives_a_draw_at_minus_a_root(p):
    # the first draw a is minus a root, where every chain member vanishes
    rng = random.Random(p)
    roots = sorted(rng.sample(range(1, p), 6))
    queued = QueuedRng([p - roots[2]], seed=p)
    assert roots_mod(poly_from_roots(roots, p), p, queued) == roots
    assert queued.draws >= 1 and not queued.queue


@pytest.mark.parametrize("p", [101, 65537, SMOOTH62.p])
def test_roots_mod_redraws_for_a_factor_left_unsplit(p):
    # a quadratic's chain has depth J = min(v2(p - 1), 4); at a = 0 its
    # first member z^((p-1)/2^J) is 1 at both 1 and a 2^J-th power, so
    # the chain cannot split them and a second a is drawn
    depth = min(((p - 1) & (1 - p)).bit_length() - 1, 4)
    roots = sorted([1, pow(3, 1 << depth, p)])
    queued = QueuedRng([0], seed=p)
    assert roots_mod(poly_from_roots(roots, p), p, queued) == roots
    assert queued.draws >= 2


@pytest.mark.parametrize("terms", [1, 4, 30])
def test_transposed_vandermonde_round_trips(terms):
    rng = random.Random(terms)
    p = next_prime(1 << 62)
    roots = rng.sample(range(1, p), terms)
    weights = [rng.randrange(p) for _ in roots]
    seq = [sum(w * pow(m, j, p) for w, m in zip(weights, roots)) % p
           for j in range(terms)]
    assert transposed_vandermonde(roots, seq, p) == weights


@pytest.mark.parametrize("n", [0, 2, 100, 297073, (1 << 45) + 7, 1 << 61,
                               (1 << 61) << 64, (1 << 61) << 128])
def test_smooth_prime_factors_as_stated_with_a_full_order_generator(n):
    field = smooth_prime(n)
    p, k, c, g = field
    assert p > n and is_prime(p) and p % 2 == 1
    assert p - 1 == c << k and c % 2 == 1 and c < COFACTOR_BOUND
    orders = prime_factors(c) | {2}
    # g has order p - 1, and no smaller h >= 2 does
    assert all(pow(g, (p - 1) // q, p) != 1 for q in orders)
    assert all(any(pow(h, (p - 1) // q, p) == 1 for q in orders)
               for h in range(2, g))


@pytest.mark.parametrize("n", [0, 2, 17, 100, 1000, 4099, 30000])
def test_smooth_prime_is_the_smallest_of_its_form(n):
    p = smooth_prime(n).p
    assert not any(
        trial_division_prime(m + 1) and odd_part(m) < COFACTOR_BOUND
        for m in range(max(n, 2), p - 1))


def test_smooth_prime_stays_word_size_above_2_61():
    assert smooth_prime(1 << 61).p < 1 << 63


@pytest.mark.parametrize("n", [0, 1000, 297073, 1 << 61, (1 << 61) << 64])
def test_discrete_log_inverts_pow(n):
    field = smooth_prime(n)
    p, g = field.p, field.generator
    rng = random.Random(n)
    exps = [0, 1, p - 2, (p - 1) // 2] + [rng.randrange(p - 1)
                                          for _ in range(40)]
    for e in exps:
        assert discrete_log(pow(g, e, p), field) == e


def test_discrete_log_of_zero_raises():
    field = smooth_prime(1000)
    with pytest.raises(ValueError):
        discrete_log(field.p, field)


def test_discrete_log_is_exhaustive_on_a_small_field():
    field = smooth_prime(1000)
    p, g = field.p, field.generator
    assert [discrete_log(pow(g, e, p), field) for e in range(p - 1)] == list(
        range(p - 1))
