"""Prime-field primitives for sparse (Ben-Or--Tiwari) interpolation.

A polynomial with T terms, evaluated at the powers q^0, q^1, ... of one
point, gives a sequence a_j = sum_t w_t m_t^j whose minimal linear
generator has the term values m_t as its roots.  When every coordinate of
q is a power of one generator of GF(p)*, each m_t is a power of it too,
and the discrete log of m_t is the term's index (Kaltofen-Lakshman-Wiley
1990).  This module holds the steps that recover the m_t, their indices
and the w_t over GF(p):

* ``next_prime``: a prime, by Miller-Rabin on fixed bases;
* ``smooth_prime``: the smallest prime p above a bound with p - 1 a small
  odd cofactor times a power of two, and a generator of GF(p)*;
* ``LinearGenerator``: Berlekamp-Massey, fed one term at a time, so the
  caller can stop early (Kaltofen-Lee 2003);
* ``roots_mod``: the generator's roots, from one power chain per
  polynomial;
* ``discrete_log``: a root's exponent to the generator, by Pohlig-Hellman
  on the smooth p - 1;
* ``transposed_vandermonde``: the weights w_t from the first T terms.

Polynomials over GF(p) are lists of ints, lowest degree first, with no
trailing zeros.
"""

from typing import NamedTuple

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
COFACTOR_BOUND = 1 << 10  # the odd part of p - 1 in smooth_prime is below this


def is_prime(n):
    """Miller-Rabin on the 13 primes up to 41: exact below 3.3 * 10^24
    (Sorenson-Webster 2015); above, a composite must be a strong
    pseudoprime to all 13 bases."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    """Smallest prime above n."""
    n += 1
    while not is_prime(n):
        n += 1
    return n


class SmoothPrime(NamedTuple):
    """A prime p = cofactor * 2^twos + 1, the cofactor odd, and a
    generator of the multiplicative group GF(p)*."""

    p: int
    twos: int
    cofactor: int
    generator: int


def smooth_prime(n):
    """The smallest odd prime p > n with p - 1 = c * 2^k, c odd and below
    COFACTOR_BOUND, and the smallest generator of GF(p)*.

    The candidates p - 1 in [lo, 2 lo) are listed for each k and tested in
    increasing order; the window doubles until one is prime.  Near n they
    lie at most 4n / COFACTOR_BOUND apart, so p usually exceeds n by a few
    percent (2^61: 531 * 2^52 + 1, 3.7 % above).
    """
    lo = max(n, 2)
    while True:
        hi = 2 * lo
        candidates = []
        for k in range(hi.bit_length()):
            first = -(-lo >> k) | 1   # smallest odd c with c * 2^k >= lo
            last = min(COFACTOR_BOUND, -(-hi >> k))
            candidates += [c << k for c in range(first, last, 2)]
        for m in sorted(candidates):
            if is_prime(m + 1):
                k = (m & -m).bit_length() - 1
                return SmoothPrime(m + 1, k, m >> k,
                                   _generator(m + 1, m >> k))
        lo = hi


def _generator(p, cofactor):
    """Smallest g >= 2 whose order is p - 1: g^((p-1)/q) != 1 for every
    prime q dividing p - 1 = cofactor * 2^k."""
    factors, rest, q = [2], cofactor, 3
    while rest > 1:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 2
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


def discrete_log(x, field):
    """The e in [0, p - 1) with generator^e == x mod p, for x nonzero mod
    p, by Pohlig-Hellman on p - 1 = c * 2^k.

    x^c lies in the subgroup of order 2^k, where the bits of e mod 2^k are
    read lowest first, one power of x^c per bit (about k^2 / 2 squarings
    in all); x^(2^k) lies in the subgroup of order c, where e mod c is
    found by search (at most c products).  The Chinese remainder theorem
    joins the two.
    """
    p, k, c, g = field
    if x % p == 0:
        raise ValueError("0 has no discrete log")
    y = pow(x, c, p)
    step = pow(g, -c, p)      # generator^(-c * 2^i) at bit i
    low = 0
    for i in range(k):
        if pow(y, 1 << (k - 1 - i), p) != 1:
            low |= 1 << i
            y = y * step % p
        step = step * step % p
    target, base = pow(x, 1 << k, p), pow(g, 1 << k, p)
    high, acc = 0, 1
    while acc != target:
        acc = acc * base % p
        high += 1
    return low + ((high - low) * pow(1 << k, -1, c) % c << k)


class LinearGenerator:
    """Berlekamp-Massey over GF(p), fed one sequence term at a time.

    After each ``add``, ``conn`` = 1 + c_1 z + ... + c_L z^L is a shortest
    connection polynomial of the terms seen: sum_i c_i a_(n-i) = 0 for all
    L <= n < len(seq), with L = ``length``.  Once len(seq) >= 2L the
    generator of that length is unique; every later term that leaves L
    unchanged had zero discrepancy, since a nonzero one would raise L.
    """

    def __init__(self, p):
        self.p = p
        self.seq = []
        self.conn = [1]
        self.length = 0
        self._prev = [1]
        self._prev_disc = 1
        self._shift = 1

    def add(self, value):
        p = self.p
        self.seq.append(value % p)
        n = len(self.seq) - 1
        disc = sum(c * self.seq[n - i] for i, c in enumerate(self.conn)) % p
        if disc == 0:
            self._shift += 1
            return
        coef = disc * pow(self._prev_disc, -1, p) % p
        new = self.conn + [0] * (len(self._prev) + self._shift - len(self.conn))
        for i, b in enumerate(self._prev):
            new[i + self._shift] = (new[i + self._shift] - coef * b) % p
        while len(new) > 1 and new[-1] == 0:
            new.pop()
        if 2 * self.length <= n:
            self._prev, self._prev_disc = self.conn, disc
            self.length = n + 1 - self.length
            self._shift = 1
        else:
            self._shift += 1
        self.conn = new

    def generator(self):
        """Monic z^L * conn(1/z), whose roots are the term values."""
        padded = self.conn + [0] * (self.length + 1 - len(self.conn))
        return padded[::-1]


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b over GF(p)."""
    rem = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % p
        if c:
            quot[i - db] = c
            for j, v in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - c * v) % p
    return _trim(quot), _trim(rem[:db])


class _Residues:
    """Arithmetic in GF(p)[z] / (f), f monic of degree n >= 1, residues as
    lists of n ints.  Products go through Kronecker substitution: each
    polynomial packed into one int, one slot per coefficient, wide enough
    that n products of two residues cannot carry; the high half of a
    product is reduced with the table z^(n+k) mod f."""

    def __init__(self, f, p):
        self.f, self.p, self.n = f, p, len(f) - 1
        self.slot = (2 * p.bit_length() + self.n.bit_length() + 8) // 8
        self.table = []
        r = [0] * (self.n - 1) + [1]
        for _ in range(self.n - 1):
            r = self.times_linear(r, 0)
            self.table.append(self._pack(r))

    def _pack(self, a):
        return int.from_bytes(
            b"".join(c.to_bytes(self.slot, "little") for c in a), "little")

    def _unpack(self, x, count):
        data, s, p = x.to_bytes(count * self.slot, "little"), self.slot, self.p
        return [int.from_bytes(data[i:i + s], "little") % p
                for i in range(0, count * s, s)]

    def mul(self, a, b):
        n = self.n
        prod = self._unpack(self._pack(a) * self._pack(b), 2 * n - 1)
        acc = self._pack(prod[:n])
        for c, t in zip(prod[n:], self.table):
            acc += c * t
        return self._unpack(acc, n)

    def times_linear(self, a, c):
        """(z + c) * a."""
        p, top = self.p, a[-1]
        shifted = [0] + a[:-1]
        return [(v - top * fv + c * av) % p
                for v, fv, av in zip(shifted, self.f, a)]

    def power_of_linear(self, c, e):
        """(z + c)^e, e >= 1, by left-to-right square and multiply."""
        r = self.times_linear([1] + [0] * (self.n - 1), c)
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.times_linear(r, c)
        return _trim(r)


def _gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim(out)


def roots_mod(f, p, rng):
    """Sorted roots of the monic f over GF(p), an odd prime, when f splits
    into distinct linear factors; None otherwise.

    One power per polynomial both tests and splits f (Moenck 1977).  With
    p - 1 = c 2^v, c odd, and J = min(v, 2 bitlen(deg f)), the power
    r = (z + a)^((p - 1) / 2^J) mod f, for a random a, is squared J times:
    r, r^2, ..., r^(2^J) = (z + a)^(p - 1).  The last member times z + a
    is z + a exactly when f divides z^p - z, that is, when f splits into
    distinct linear factors, so None is always right.  At a root m other
    than -a, r^(2^J)(m) = 1 and r^(2^i)(m) is a power of one omega of
    order 2^J, so walking down the chain splits f level by level: a
    factor whose roots all take the value omega^e at one level splits,
    one level lower, by its gcd with the member minus omega^(e/2); the
    rest take -omega^(e/2).  Every gcd is a true factor, so a root -a,
    where all members vanish and which therefore always goes with the
    rest, can only leave a factor unsplit.

    Two roots m, m' stay together to the chain's end only when
    (m + a) / (m' + a) is a 2^J-th power, which has probability below
    2^-J over a.  So a factor of degree d stays unsplit with probability
    below d^2 / 2^(J+1): under 1/2 when J = 2 bitlen(d), and 1/2 per pair
    of roots when J = v = 1, as in Cantor-Zassenhaus.  That costs only
    time: the factor draws a new a and a chain of its own.
    """
    if len(f) <= 2:
        return [-f[0] % p] if len(f) == 2 else []
    v = ((p - 1) & (1 - p)).bit_length() - 1
    nonresidue = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) != 1)
    roots, todo = [], [f]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        depth = min(v, 2 * (len(g) - 1).bit_length())
        a = rng.randrange(p)
        residues = _Residues(g, p)
        chain = [residues.power_of_linear(a, (p - 1) >> depth)]
        for _ in range(depth):
            chain.append(residues.mul(chain[-1], chain[-1]))
        if g is f and _trim(residues.times_linear(chain[-1], a)) != [a, 1]:
            return None
        omega = pow(nonresidue, (p - 1) >> depth, p)   # order 2^depth
        nodes = [(g, 0)]   # factors whose roots share the value omega^e
        for member in reversed(chain[:-1]):
            split = []
            for h, e in nodes:
                if len(h) == 2:
                    roots.append(-h[0] % p)
                    continue
                rest = _divmod(member, h, p)[1]
                low = _gcd(h, _sub(rest, [pow(omega, e // 2, p)], p), p)
                if len(low) > 1:
                    split.append((low, e // 2))
                if len(low) < len(h):
                    split.append((_divmod(h, low, p)[0],
                                  e // 2 + (1 << (depth - 1))))
            nodes = split
        todo += [h for h, _ in nodes]
    return sorted(roots)


def transposed_vandermonde(roots, seq, p):
    """Weights w with sum_t w_t roots[t]^j == seq[j] mod p for j < T, the
    roots distinct and T = len(roots).

    With L(z) = prod (z - m_t) and L_t = L / (z - m_t) = sum_k b_k z^k,
    sum_k b_k seq[k] = w_t L_t(m_t), since L_t vanishes at every other
    root.
    """
    full = [1]
    for m in roots:
        full = [0] + full
        for i in range(len(full) - 1):
            full[i] = (full[i] - m * full[i + 1]) % p
    weights = []
    for m in roots:
        # synthetic division of L by z - m, top coefficient first
        quot = [0] * len(roots)
        acc = 0
        for k in range(len(roots), 0, -1):
            acc = (full[k] + acc * m) % p
            quot[k - 1] = acc
        num = sum(b * a for b, a in zip(quot, seq)) % p
        den = 0
        for b in reversed(quot):
            den = (den * m + b) % p
        weights.append(num * pow(den, -1, p) % p)
    return weights
