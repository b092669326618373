"""Exact arithmetic on integer-coefficient polynomials.

Polynomials are plain lists of Python ints in little-endian order
(``p[i]`` is the coefficient of ``x**i``).  The zero polynomial is the
empty list.  Everything here is exact; no floats enter these routines.

Products run in CPython's big-integer arithmetic by Kronecker substitution
(Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 2009): a polynomial is packed as its
value at ``x = 2^s``, one slot of ``s`` bits per coefficient, and one
integer product is the packed polynomial product.  The slot is whole bytes
wide, ``s = 8 * slot_bytes(bound)``, with room for every coefficient of
magnitude up to ``bound`` and a sign bit, so each coefficient ``c`` lies in
``[-2^(s-1), 2^(s-1))``.  A packed value is the exact sum of its signed
slots, with borrows between them, so it is read with an offset: adding
``2^(s-1)`` to every slot makes each slot ``c + 2^(s-1)``, nonnegative and
below ``2^s``, so the bytes of the sum are the slots, and each one read
unsigned less ``2^(s-1)`` is its coefficient (the balanced unpack).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError


def normalize(p) -> list:
    """Strip trailing zero coefficients."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def degree(p) -> int:
    """Degree of ``p``; -1 for the zero polynomial."""
    return len(p) - 1


def neg(p) -> list:
    return [-c for c in p]


def slot_bytes(bound: int) -> int:
    """Bytes per slot for signed values of magnitude at most ``bound``."""
    return bound.bit_length() // 8 + 1


def _offsets(nb: int, length: int) -> int:
    """``2^(s-1)`` in each of ``length`` slots of ``s = 8 * nb`` bits."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * length, "little")


def pack(p, nb: int) -> int:
    """``p(2^s)`` for ``s = 8 * nb``; every ``|p[i]| < 2^(s-1)``."""
    half = 1 << 8 * nb - 1
    raw = b"".join([(c + half).to_bytes(nb, "little") for c in p])
    return int.from_bytes(raw, "little") - _offsets(nb, len(p))


def unpack(v: int, nb: int, length: int) -> list:
    """The ``length`` coefficients of the polynomial packed in ``v``, with
    ``nb`` bytes per slot (the balanced unpack of the module docstring)."""
    half = 1 << 8 * nb - 1
    raw = (v + _offsets(nb, length)).to_bytes(nb * length, "little")
    return [int.from_bytes(raw[i:i + nb], "little") - half
            for i in range(0, nb * length, nb)]


def mul(p, q) -> list:
    """``p * q``, normalized, by one integer product (Kronecker substitution).

    A coefficient of the product is a sum of at most ``min(len(p),
    len(q))`` products of one coefficient of each, which sizes the slots;
    with neither factor zero, the slots hold the factors' coefficients too."""
    top_p, top_q = max(map(abs, p), default=0), max(map(abs, q), default=0)
    if not top_p or not top_q:
        return []
    nb = slot_bytes(top_p * top_q * min(len(p), len(q)))
    return normalize(unpack(pack(p, nb) * pack(q, nb), nb, len(p) + len(q) - 1))


def derivative(p) -> list:
    return normalize([i * p[i] for i in range(1, len(p))])


def content(p) -> int:
    """Greatest common divisor of the coefficients; 0 for the zero polynomial."""
    return gcd(*p)


def primitive(p) -> list:
    """Divide out the (positive) content; preserves sign."""
    p = normalize(p)
    g = content(p)
    return p if g <= 1 else [c // g for c in p]


def eval_homogeneous(p, num: int, den: int) -> int:
    """Return ``den**deg(p) * p(num/den)`` as an exact integer.

    ``den`` must be positive, so the sign of the result equals the sign of
    ``p(num/den)``.  This avoids all rational reductions on the hot path.
    """
    if not p:
        return 0
    acc = p[-1]
    pw = 1
    for i in range(len(p) - 2, -1, -1):
        pw *= den
        acc = acc * num + p[i] * pw
    return acc


def sign_at(p, q: Fraction) -> int:
    v = eval_homogeneous(p, q.numerator, q.denominator)
    return (v > 0) - (v < 0)


def exact_div(p, d) -> list:
    """Exact quotient ``p / d`` in Z[x]; raises if the division is not exact.

    Integer-only: by Gauss's lemma every step divides evenly when ``d`` is
    primitive and divides ``p``."""
    p = normalize(p)
    d = normalize(d)
    if not d:
        raise DomainError("division by the zero polynomial")
    rem = list(p)
    lead = d[-1]
    dd = degree(d)
    out = [0] * max(len(p) - dd, 0)
    for i in range(len(p) - 1, dd - 1, -1):
        if rem[i]:
            q, r = divmod(rem[i], lead)
            if r:
                raise DomainError("quotient is not an integer polynomial")
            out[i - dd] = q
            for j, dc in enumerate(d):
                rem[i - dd + j] -= q * dc
    if any(rem):
        raise DomainError("inexact polynomial division")
    return normalize(out)


def pseudo_rem_positive(f, g) -> list:
    """Primitive part of a *positive* rational multiple of ``rem(f, g)``.

    Classical pseudo-division multiplies ``f`` by ``lc(g)**steps`` before each
    elimination; when that multiplier is negative the result is negated so the
    returned polynomial always has the same signs as the true remainder.
    Each step cancels the top coefficient, so it is popped rather than
    computed, and the zeros below it are stripped in place.
    """
    r = normalize(f)
    low = normalize(g)
    if not low:
        raise DomainError("pseudo-remainder by the zero polynomial")
    lc = low.pop()
    dg = len(low)
    steps = 0
    while len(r) > dg:
        coef = r.pop()
        r = [lc * c for c in r]
        for j, gc in enumerate(low, len(r) - dg):
            r[j] -= coef * gc
        while r and not r[-1]:
            r.pop()
        steps += 1
    if lc < 0 and steps % 2 == 1:
        r = neg(r)
    return primitive(r)


def trailing_zeros(p) -> int:
    """Multiplicity of the root at 0 (index of the first nonzero coefficient)."""
    for i, c in enumerate(p):
        if c:
            return i
    return len(p)


def cauchy_root_bound(p) -> Fraction:
    """A bound B with every real root of ``p`` in [-B, B] (Cauchy's bound)."""
    p = normalize(p)
    if degree(p) < 1:
        raise DomainError("root bound needs degree >= 1")
    lead = abs(p[-1])
    m = max(abs(c) for c in p[:-1])
    return 1 + Fraction(m, lead)
