"""Prime-field primitives for sparse (Ben-Or--Tiwari) interpolation.

A polynomial with T terms, evaluated at the powers q^0, q^1, ... of one
point, gives a sequence a_j = sum_t w_t m_t^j whose minimal linear
generator has the term values m_t as its roots.  When every coordinate of
q is a power of one omega of order 2^k in GF(p)*, each m_t is a power of
omega too, and its discrete log is the term's index
(Kaltofen-Lakshman-Wiley 1990).  This module holds the steps that recover
the m_t, their indices and the w_t over GF(p):

* ``next_prime``: a prime, by Miller-Rabin on fixed bases;
* ``two_adic_field``: the smallest prime above a bound with 2^k dividing
  p - 1, and an omega of order 2^k;
* ``LinearGenerator``: Berlekamp-Massey, fed one term at a time, so the
  caller can stop early (Kaltofen-Lee 2003);
* ``roots_mod``: the generator's roots among the 2^k-th roots of unity,
  from one power chain of z, with no random draw;
* ``discrete_log``: a root's exponent to omega, bit by bit;
* ``transposed_vandermonde``: the weights w_t from the first T terms;
* ``crt``: residues modulo a product of primes, one prime more.

Polynomials over GF(p) are lists of ints, lowest degree first, with no
trailing zeros.
"""

from typing import NamedTuple

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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


class TwoAdicField(NamedTuple):
    """A prime p = m * 2^k + 1 and an omega of order exactly 2^k in
    GF(p)*."""

    p: int
    k: int
    omega: int


def two_adic_field(n, k):
    """The smallest prime p > n with 2^k dividing p - 1, k >= 1, and omega
    = x^((p - 1) / 2^k) for the smallest quadratic nonresidue x.

    omega^(2^(k-1)) = x^((p-1)/2) = -1, so omega has order exactly 2^k.
    The candidates m 2^k + 1 are tried for m = ceil(n / 2^k), m + 1, ...
    (2^29 at k = 15 gives 16385 * 2^15 + 1 and at k = 19, 1031 * 2^19 + 1,
    both below 2^30; at k = 27, 15 * 2^27 + 1, 31 bits, since no prime
    below 2^30 has 2^27 dividing p - 1; at k = 45, 35 * 2^45 + 1).
    """
    m = max(1, -(-n >> k))
    while not is_prime((m << k) + 1):
        m += 1
    p = (m << k) + 1
    x = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    return TwoAdicField(p, k, pow(x, (p - 1) >> k, p))


def discrete_log(x, field):
    """The e in [0, 2^k) with omega^e == x mod p; ValueError when x is not
    a 2^k-th root of unity, 0 included.

    The bits of e are read lowest first (Pohlig-Hellman on the group of
    order 2^k): once bits below i are divided out, y = omega^(e') with
    2^i | e', and y^(2^(k-1-i)) is -1 exactly when bit i of e' is set.
    About k^2 / 2 squarings in all.  For x outside the group, y never
    reaches 1.
    """
    p, k, omega = field
    y, e, step = x % p, 0, pow(omega, -1, p)   # step = omega^(-2^i) at bit i
    for i in range(k):
        if pow(y, 1 << (k - 1 - i), p) != 1:
            e |= 1 << i
            y = y * step % p
        step = step * step % p
    if y != 1:
        raise ValueError(f"{x} is not a 2^{k}-th root of unity mod {p}")
    return e


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
        self._prev_inv = 1     # inverse of the discrepancy that made _prev
        self._shift = 1

    def add(self, value):
        p = self.p
        self.seq.append(value % p)
        n = len(self.seq) - 1
        disc = sum(c * self.seq[n - i] for i, c in enumerate(self.conn)) % p
        if disc == 0:
            self._shift += 1
            return
        coef = disc * self._prev_inv % p
        new = self.conn + [0] * (len(self._prev) + self._shift - len(self.conn))
        for i, b in enumerate(self._prev):
            new[i + self._shift] = (new[i + self._shift] - coef * b) % p
        while len(new) > 1 and new[-1] == 0:
            new.pop()
        if 2 * self.length <= n:
            self._prev, self._prev_inv = self.conn, pow(disc, -1, p)
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
            r = self.times_z(r)
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

    def times_z(self, a):
        """z * a."""
        p, top = self.p, a[-1]
        return [(v - top * fv) % p for v, fv in zip([0] + a[:-1], self.f)]


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


def roots_mod(f, field):
    """Sorted roots of the monic f over GF(p) when they are distinct 2^k-th
    roots of unity; None otherwise.

    One power chain both tests and splits f (Moenck 1977): z, z^2, ...,
    z^(2^k) mod f.  The last member is 1 exactly when f divides z^(2^k) -
    1, whose roots are the 2^k distinct powers of omega, so None is always
    right: a repeated root, a root outside that group (0 included) or an
    irreducible factor each leave it unequal to 1.  Walking down the chain
    then splits f level by level with no random draw: a factor whose roots
    m all have m^(2^(i+1)) = omega^e takes its gcd with z^(2^i) -
    omega^(e/2), and the rest take -omega^(e/2).  Two roots omega^i and
    omega^j part at the lowest bit where i and j differ, so after k levels
    every factor is linear.
    """
    p, k, omega = field
    if len(f) == 1:
        return []
    residues = _Residues(f, p)
    chain = [residues.times_z([1] + [0] * (residues.n - 1))]
    for _ in range(k):
        chain.append(residues.mul(chain[-1], chain[-1]))
    if _trim(chain.pop()) != [1]:
        return None
    roots = []
    nodes = [(f, 0)]   # factors whose roots share the value omega^e
    for member in reversed(chain):
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
                split.append((_divmod(h, low, p)[0], e // 2 + (1 << (k - 1))))
        nodes = split
    return sorted(roots + [-h[0] % p for h, _ in nodes])


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


def crt(residues, modulus, more, p):
    """The residues modulo modulus * p that are ``residues`` modulo
    ``modulus`` and ``more`` modulo the prime p, p not dividing modulus;
    each lies in [0, modulus * p) when its ``residues`` entry lies in
    [0, modulus)."""
    inv = pow(modulus, -1, p)
    return [r + modulus * ((s - r) * inv % p) for r, s in zip(residues, more)]
