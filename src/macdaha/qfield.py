"""Exact coefficient arithmetic in the rational-function field Q(q, t).

Everything downstream is computed over this field: Laurent polynomials in
(q, t) with arbitrary-precision integer coefficients, reduced fractions of
those, q-numbers [a] = (q^a - q^-a)/(q - q^-1), q-factorials, falling
q-factorials, and finite Pochhammer ratios.

Canonical form of a fraction: gcd(num, den) = 1, the denominator is a
genuine polynomial (no negative exponents, no monomial factor) whose
leading coefficient under graded lex order (q before t) is positive.  The
canonical form is unique per value, so equality is plain structural
equality and string rendering is deterministic.

Arithmetic runs a gcd only where the reduced form is not known by
construction.  Adding zero, a/b + c with c a Laurent polynomial (that is
(a + cb)/b, reduced since gcd(a + cb, b) = gcd(a, b) = 1), a product with
a monomial and an inverse run none.  rat_sum adds many fractions with one
reduction: the numerators of equal denominators are added as term maps,
the distinct denominators are folded into an lcm, and the total is
reduced once.  rat_dot does the same for a sum of products x * y,
optionally divided by a Laurent polynomial: each product is formed
unreduced, num * num over den * den, and the division joins the one
reduction.  common_den returns each of a list of fractions as a
numerator over their lcm, so that the exact division of the traces runs
on Laurent polynomials alone; it and _sum_once fold the lcm in
_lcm_fold, one gcd per distinct denominator.  qfall and qfact multiply
their q-numbers in a balanced product tree.

Term maps with a single t exponent (every scalar of a one-variable Q(q)
computation, and many t-contents) take an exact kernel over Z[q] built on
Kronecker substitution: a polynomial u is packed into the one integer
u(2^s), and two polynomials whose coefficients all lie inside
(-2^(s-1), 2^(s-1)) are equal exactly when their values at 2^s are.
- A product is one integer product, at a width s above the product's
  coefficient bound.  Large maps in both variables are first sent into
  Z[q] by t -> q^D, with D above the q-degree span of the product.
- A quotient is one integer division.  It is kept only when its digits
  bound every coefficient of quotient * divisor below 2^(s-1), which
  proves the division exact; a wider quotient is divided again at doubled
  widths, and after a few widths long division decides.
- The gcd is GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
  1989).  With 2^s > 2 min(|u|, |v|) + 2 for primitive u and v, the
  primitive part of the balanced base-2^s digits of gcd(u(2^s), v(2^s))
  is gcd(u, v) as soon as it divides both.  The candidate is returned
  only after both exact divisions (trivial for the candidate 1), whose
  quotients are the cofactors.
  After a few widths the pseudo-remainder gcd decides.
Maps in both variables take the same gcd one level up (Liao and Fateman,
ISSAC 1995): with their integer contents removed, t is evaluated at 2^s
with 2^(s-1) > 2 min(|A|, |B|) + 2, the Z[q] kernel gives the gcd g of the
two images and both cofactors, and G, the primitive part of the balanced
base-2^s digits in t of g, is gcd(A, B) as soon as it divides both.  The
cofactors are read from digits too.  Each is accepted only when |A| and
its product bound with G lie below 2^(s-1), so that G * cofactor and A,
equal at t = 2^s, are equal (else an exact division decides); the
candidate 1 needs no check.  After a few widths the recursive
pseudo-remainder gcd over Z[q][t] decides.  An exact division in Z[q, t]
is one in Z[q], through t -> q^D for D above the dividend's q-degree.

Products of binomials prod (1 - q^a t^b)^e (the branching coefficients
and the Pochhammer ratios) take binomial_ratio, which runs no gcd.  So do
ratios of falling q-factorials prod [x]_L^s (the branching coefficient at
t = q^k and the evaluation-symmetry ratio), by qfall_ratio: with
[c] = sgn(c) q^(1-|c|) (1 - q^(2|c|)) / (1 - q^2), such a ratio is a unit
monomial times a product of binomials.
- With g = gcd(a, b) and z = q^(a/g) t^(b/g) turned lexicographically
  positive, 1 - q^a t^b is a unit monomial times z^g - 1, and
  z^g - 1 = prod_{d | g} Phi_d(z) over the cyclotomic polynomials.
- z is primitive, so a monomial change of variables makes it a variable:
  each Phi_d(z) is irreducible and primitive in Z[q^+-1, t^+-1], and
  distinct (d, z) are not associates.  Once the exponents are summed per
  (d, z), numerator and denominator share no factor but integers, and
  expanding each once gives the reduced fraction.
- The exponents are cancelled formally, in (q, t), before q -> shift and
  t -> t2 are substituted: a substitution can send two factors that
  cancel to zero, or to one constant, and CoeffRat.subst likewise
  substitutes into the reduced fraction.  A surviving Phi_d(z) goes to
  Phi_d(y), y a signed monomial, which Moebius inversion
  Phi_d(y) = prod_{e | d} (y^e - 1)^mu(d/e) turns back into binomials
  (with -w - 1 = -(1 - w^2)/(1 - w)); those are factored and cancelled
  again.  A factor sent to a constant becomes the integer Phi_d(+-1):
  zero in the numerator gives 0, zero in the denominator raises.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache, reduce


class DomainViolationError(ZeroDivisionError):
    """An operation divided by a vanishing q-number or rational function."""


# ---------------------------------------------------------------------------
# Term-map cores.  A Laurent polynomial is {(q_exp, t_exp): coeff} with no
# stored zero coefficients; {} is zero.

def _add(A, B):
    return _add_into(dict(A), B)


def _add_into(C, B):
    """C + B, written into C."""
    for k, v in B.items():
        w = C.get(k, 0) + v
        if w:
            C[k] = w
        else:
            C.pop(k, None)
    return C


def _neg(A):
    return {k: -v for k, v in A.items()}


def _scale(A, c):
    if c == 0:
        return {}
    return {k: c * v for k, v in A.items()}


def _mul(A, B):
    if not A or not B:
        return {}
    if len(A) > len(B):
        A, B = B, A
    if len(A) == 1:
        ((a1, b1), c1), = A.items()
        if c1 == 1 and not (a1 or b1):
            return dict(B)
        return {(a1 + a2, b1 + b2): c1 * c2 for (a2, b2), c2 in B.items()}
    if len(A) >= 4 and len(A) * len(B) >= _KRON_TERMS:
        C = _kron_mul(A, B)
        if C is not None:
            return C
    C = {}
    for (a1, b1), c1 in A.items():
        for (a2, b2), c2 in B.items():
            k = (a1 + a2, b1 + b2)
            w = C.get(k, 0) + c1 * c2
            if w:
                C[k] = w
            else:
                del C[k]
    return C


def _kron_mul(A, B):
    """A * B as one integer product, or None when the packed operands
    would hold more digits than the schoolbook product has steps.

    With both maps shifted to exponent minima 0 and D above the q-degree
    of the product, t -> q^D maps them into Z[q] injectively on the
    product's terms (as in _poly_divexact), and the Z[q] product is one
    integer product.
    """
    qa, ma, ta, sa = _exp_box(A)
    qb, mb, tb, sb = _exp_box(B)
    D = ma - qa + mb - qb + 1
    if D * (sa - ta + sb - tb + 1) > len(A) * len(B):
        return None
    u = {a - qa + D * (b - ta): c for (a, b), c in A.items()}
    v = {a - qb + D * (b - tb): c for (a, b), c in B.items()}
    q0, t0 = qa + qb, ta + tb
    return {(e % D + q0, e // D + t0): c for e, c in _q_kron_mul(u, v).items()}


def _product(maps):
    """The product of a list of term maps as a new term map, multiplied in
    pairs of similar size so that the large products go to the packed
    kernel."""
    if len(maps) < 2:
        return dict(maps[0] if maps else _ONE_D)
    while len(maps) > 1:
        maps = [_mul(*maps[i:i + 2]) if i + 1 < len(maps) else maps[i]
                for i in range(0, len(maps), 2)]
    return maps[0]


def _shift(A, da, db):
    if da == 0 and db == 0:
        return dict(A)
    return {(a + da, b + db): c for (a, b), c in A.items()}


def _min_exps(A):
    qs, ts = zip(*A)
    return min(qs), min(ts)


def _exp_box(A):
    """(least, greatest q exponent, least, greatest t exponent) of A."""
    qs, ts = zip(*A)
    return min(qs), max(qs), min(ts), max(ts)


def _glex_key(k):
    a, b = k
    return (a + b, a, b)


def _lead_coeff(A):
    return A[max(A, key=_glex_key)]


_ONE_D = {(0, 0): 1}


# ---------------------------------------------------------------------------
# Schoolbook arithmetic in Z[q], as {q_exp: coeff}: the pseudo-remainder
# gcd and long division are the fallbacks of the exact kernel below and
# the oracles of its tests.

def _q_sub(u, v):
    w = dict(u)
    for a, c in v.items():
        x = w.get(a, 0) - c
        if x:
            w[a] = x
        else:
            w.pop(a, None)
    return w


def _q_mul(u, v):
    w = {}
    for a, c in u.items():
        for b, d in v.items():
            k = a + b
            x = w.get(k, 0) + c * d
            if x:
                w[k] = x
            else:
                del w[k]
    return w


def _q_scale(u, c):
    return {a: c * v for a, v in u.items()} if c else {}


def _q_int_content(u):
    return math.gcd(*u.values())


def _q_divexact_int(u, c):
    if c == 1:
        return u
    return {a: v // c for a, v in u.items()}


def _q_prem(u, v):
    """Sloppy pseudo-remainder of u by v in Z[q]; exact up to lc(v) powers."""
    dv = max(v)
    lcv = v[dv]
    r = dict(u)
    while r:
        dr = max(r)
        if dr < dv:
            break
        lcr = r.pop(dr)
        r = {a: c * lcv for a, c in r.items()}
        for a, c in v.items():
            if a == dv:
                continue
            k = a + dr - dv
            x = r.get(k, 0) - lcr * c
            if x:
                r[k] = x
            else:
                r.pop(k, None)
    return r


def _q_gcd(u, v):
    """gcd in Z[q] including integer content, leading coefficient > 0."""
    if not u:
        u, v = v, u
    if not v:
        if not u:
            return {}
        c = _q_int_content(u)
        u = _q_divexact_int(u, c)
        if u[max(u)] < 0:
            u = {a: -x for a, x in u.items()}
        return _q_scale(u, c)
    cu, cv = _q_int_content(u), _q_int_content(v)
    c = math.gcd(cu, cv)
    u = _q_divexact_int(u, cu)
    v = _q_divexact_int(v, cv)
    while v:
        r = _q_prem(u, v)
        if r:
            r = _q_divexact_int(r, _q_int_content(r))
        u, v = v, r
    if u[max(u)] < 0:
        u = {a: -x for a, x in u.items()}
    return _q_scale(u, c)


def _q_longdiv(u, v):
    """Exact long division in Z[q]; None if v does not divide u."""
    if not u:
        return {}
    dv = max(v)
    lcv = v[dv]
    quo = {}
    r = dict(u)
    while r:
        dr = max(r)
        if dr < dv:
            return None
        c, rem = divmod(r[dr], lcv)
        if rem:
            return None
        quo[dr - dv] = c
        del r[dr]
        for a, d in v.items():
            if a == dv:
                continue
            k = a + dr - dv
            x = r.get(k, 0) - c * d
            if x:
                r[k] = x
            else:
                r.pop(k, None)
    return quo


# ---------------------------------------------------------------------------
# The exact Z[q] kernel (see the module docstring).  A polynomial
# {q_exp: coeff} is packed from its lowest exponent lo with w-byte digits,
# w a power of two, at s = 8w bits.

_DIGIT_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}  # little-endian struct codes
_KRON_TERMS = 128       # term-count product from which operands are packed
_HEU_TRIES = 4          # widths tried by GCDHEU and packed division before
                        # the pseudo-remainder gcd and long division


def _width(bound):
    """The least power-of-two byte count w with 2^(8w - 1) > bound."""
    w = 1
    while bound >> (8 * w - 1):
        w *= 2
    return w


def _norm(u):
    return max(map(abs, u.values()))


def _offset(w, n):
    """The integer with n digits 2^(8w-1): it makes balanced digits
    non-negative."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * n, "little")


def _pack(u, lo, w):
    """sum c 2^(8w (a - lo)) over the terms c q^a of u; |c| < 2^(8w-1)."""
    half = 1 << (8 * w - 1)
    n = max(u) - lo + 1
    digits = [half] * n
    for a, c in u.items():
        digits[a - lo] = half + c
    if w in _DIGIT_FORMAT:
        data = struct.pack(f"<{n}{_DIGIT_FORMAT[w]}", *digits)
    else:
        data = b"".join(d.to_bytes(w, "little") for d in digits)
    return int.from_bytes(data, "little") - _offset(w, n)


def _unpack(x, lo, w):
    """The polynomial, exponents from lo, whose balanced base-2^(8w)
    digits (each in [-2^(8w-1), 2^(8w-1))) make up the integer x."""
    half = 1 << (8 * w - 1)
    n = abs(x).bit_length() // (8 * w) + 2
    data = (x + _offset(w, n)).to_bytes(n * w, "little")
    if w in _DIGIT_FORMAT:
        digits = struct.unpack(f"<{n}{_DIGIT_FORMAT[w]}", data)
    else:
        digits = [int.from_bytes(data[i:i + w], "little") for i in range(0, n * w, w)]
    return {lo + i: d - half for i, d in enumerate(digits) if d != half}


def _q_kron_mul(u, v):
    """u * v in Z[q] as one integer product."""
    w = _width(_norm(u) * _norm(v) * min(len(u), len(v)))
    lu, lv = min(u), min(v)
    return _unpack(_pack(u, lu, w) * _pack(v, lv, w), lu + lv, w)


def _q_divexact(u, v):
    """Exact division in Z[q]; None if v does not divide u.

    A non-zero remainder of u(2^s) by v(2^s) disproves divisibility.  The
    quotient Q read from the integer quotient satisfies
    Q(2^s) v(2^s) = u(2^s), so when |Q| |v| min(#Q, #v) < 2^(s-1) bounds
    every coefficient of Q v, Q v = u holds exactly.  A quotient too wide
    for that bound is divided again at doubled widths, and after
    _HEU_TRIES widths long division decides.

    Long division takes about #quotient * #v steps.  While #v <= #u, the
    term counts (#u - #v + 1) * #u estimate them; a divisor with more
    terms than the dividend (a sparse u over a dense v) can still have a
    long quotient, so there the quotient's exponent span times #v does.
    """
    if u and len(v) > len(u):
        steps = (max(u) - min(u) - max(v) + min(v) + 1) * len(v)
    else:
        steps = (len(u) - len(v) + 1) * len(u)
    if steps < _KRON_TERMS:
        return _q_longdiv(u, v)
    lu, lv = min(u), min(v)
    if lu < lv or max(u) - lu < max(v) - lv:
        return None
    nv = _norm(v)
    w = _width(_norm(u) * nv * min(len(u), len(v)))  # Q about as wide as u
    for _ in range(_HEU_TRIES):
        quo, rem = divmod(_pack(u, lu, w), _pack(v, lv, w))
        if rem:
            return None
        Q = _unpack(quo, lu - lv, w)
        if _norm(Q) * nv * min(len(Q), len(v)) < 1 << (8 * w - 1):
            return Q
        w *= 2
    return _q_longdiv(u, v)


def _q_gcd_cofactors(u, v):
    """(g, u/g, v/g) for non-zero u, v in Z[q], with g = _q_gcd(u, v).

    Negative exponents are allowed: g carries the power of q at the lower
    of the two lowest exponents.
    """
    lu, lv = min(u), min(v)
    cu, cv = _q_int_content(u), _q_int_content(v)
    c, m = math.gcd(cu, cv), min(lu, lv)
    g, f, h = _q_gcd_primitive(_q_rescale(u, -lu, 1, cu), _q_rescale(v, -lv, 1, cv))
    return (_q_rescale(g, m, c, 1), _q_rescale(f, lu - m, cu // c, 1),
            _q_rescale(h, lv - m, cv // c, 1))


def _q_rescale(u, k, a, b):
    """q^k u a / b (b divides every coefficient)."""
    if not k and a == b:
        return u
    return {e + k: x * a // b for e, x in u.items()}


def _q_gcd_primitive(u, v):
    """(g, u/g, v/g) for primitive u, v in Z[q] with non-zero constant
    terms: GCDHEU at growing widths, then the pseudo-remainder gcd."""
    if len(u) == 1 or len(v) == 1:
        return {0: 1}, u, v
    if u == v:
        s = 1 if u[max(u)] > 0 else -1
        return _q_scale(u, s), {0: s}, {0: s}
    w = _width(2 * max(_norm(u), _norm(v)) + 2)
    for _ in range(_HEU_TRIES):
        # The top balanced digit of a positive integer is positive.
        g = _unpack(math.gcd(_pack(u, 0, w), _pack(v, 0, w)), 0, w)
        g = _q_divexact_int(g, _q_int_content(g))
        if g == {0: 1}:             # divides both: u and v are coprime
            return g, u, v
        f = _q_divexact(u, g)
        h = f and _q_divexact(v, g)
        if h:
            return g, f, h
        w *= 2
    g = _q_gcd(u, v)
    return g, _q_divexact(u, g), _q_divexact(v, g)


# ---------------------------------------------------------------------------
# gcd machinery over Z[q, t] (non-negative exponents).  Recursive primitive
# pseudo-remainder sequences, main variable t and coefficients in Z[q]: the
# fallback of the heuristic gcd below and the oracle of its tests.

def _to_t(A):
    D = {}
    for (a, b), c in A.items():
        D.setdefault(b, {})[a] = c
    return D


def _from_t(D):
    return {(a, b): c for b, u in D.items() for a, c in u.items()}


def _t_primitive(F):
    """(c, F / c) with c the gcd in Z[q] of the t-coefficients of F; each
    gcd step's cofactors make up the quotient."""
    terms = iter(F.items())
    b, c = next(terms)
    P = {b: {0: 1}}
    for b, u in terms:
        c, f, P[b] = _q_gcd_cofactors(c, u)
        if f != {0: 1}:
            P = {b1: _q_mul(x, f) if b1 != b else x for b1, x in P.items()}
    return c, P


def _t_prem(F, G):
    """Sloppy pseudo-remainder in (Z[q])[t]."""
    dG = max(G)
    lcG = G[dG]
    R = dict(F)
    while R:
        dR = max(R)
        if dR < dG:
            break
        lcR = R.pop(dR)
        R = {b: _q_mul(u, lcG) for b, u in R.items()}
        for b, u in G.items():
            if b == dG:
                continue
            k = b + dR - dG
            w = _q_sub(R.get(k, {}), _q_mul(u, lcR))
            if w:
                R[k] = w
            else:
                R.pop(k, None)
    return R


def _poly_gcd(A, B):
    """gcd in Z[q, t] of non-zero term maps with non-negative exponents.

    Includes the integer content; normalized so the graded-lex leading
    coefficient is positive.
    """
    if A == B:
        C = A
        if _lead_coeff(C) < 0:
            C = _neg(C)
        return dict(C)
    if len(A) == 1 or len(B) == 1:
        # Against a monomial the gcd is the per-variable minimum exponent
        # together with the integer content gcd.
        qa = min(min(a for a, _ in A), min(a for a, _ in B))
        tb = min(min(b for _, b in A), min(b for _, b in B))
        c = reduce(math.gcd, (abs(v) for v in A.values()))
        c = reduce(math.gcd, (abs(v) for v in B.values()), c)
        return {(qa, tb): c}
    FA, FB = _to_t(A), _to_t(B)
    ca, U = _t_primitive(FA)
    cb, V = _t_primitive(FB)
    cont = _q_gcd_cofactors(ca, cb)[0]
    if max(U) < max(V):
        U, V = V, U
    while V:
        R = _t_prem(U, V)
        if R:
            R = _t_primitive(R)[1]
        U, V = V, R
    G = _from_t({b: _q_mul(u, cont) for b, u in U.items()})
    if _lead_coeff(G) < 0:
        G = _neg(G)
    return G


def _poly_divexact(A, B):
    """Exact division in Z[q, t] of maps with non-negative exponents;
    None if B does not divide A.

    With D above the q-degree of A, t -> q^D maps both maps into Z[q],
    injectively on q-degrees below D.  The quotient there, read back with
    base-D exponents, is the quotient in Z[q, t] when its q-degree and
    B's add up to less than D, since then its product with B is A.
    """
    if not A:
        return {}
    if B == _ONE_D:
        return dict(A)
    D = max(a for a, _ in A) + 1
    Q = _q_divexact({a + D * b: c for (a, b), c in A.items()},
                    {a + D * b: c for (a, b), c in B.items()})
    if Q is None:
        return None
    Q = {(e % D, e // D): c for e, c in Q.items()}
    if max(a for a, _ in Q) + max(a for a, _ in B) >= D:
        return None
    return Q


# ---------------------------------------------------------------------------
# The bivariate heuristic gcd (see the module docstring).  t is evaluated
# at 2^s, s = 8w, and term maps are read back from balanced base-2^s
# digits in t.

def _t_eval(A, s):
    """A(q, 2^s) in Z[q] for a map A with non-negative t exponents."""
    u = {}
    for (a, b), c in A.items():
        u[a] = u.get(a, 0) + (c << s * b)
    return {a: c for a, c in u.items() if c}


def _t_interp(u, w):
    """The map whose balanced base-2^(8w) digits in t make up every
    coefficient of u in Z[q]."""
    return {(a, b): c for a, x in u.items() for b, c in _unpack(x, 0, w).items()}


def _t_cofactor(X, G, Y, w):
    """X / G, or None if G does not divide X.

    Y is read from digits with G(q, 2^s) Y(q, 2^s) = X(q, 2^s).  When |X|
    and the coefficient bound |G| |Y| min(#G, #Y) of G Y lie below
    2^(s-1), both sides are their own balanced digits, so G Y = X;
    otherwise exact division decides.
    """
    half = 1 << (8 * w - 1)
    if _norm(X) < half and _norm(G) * _norm(Y) * min(len(G), len(Y)) < half:
        return Y
    return _poly_divexact(X, G)


def _qt_heu_gcd(A, B):
    """(g, A/g, B/g) for non-monomial A, B in Z[q, t] with exponent minima
    0, g normalized as _poly_gcd normalizes it; None after _HEU_TRIES
    widths without a proven candidate."""
    ca, cb = _q_int_content(A), _q_int_content(B)
    A, B = _q_divexact_int(A, ca), _q_divexact_int(B, cb)
    w = _width(2 * min(_norm(A), _norm(B)) + 2)
    for _ in range(_HEU_TRIES):
        u, v = _t_eval(A, 8 * w), _t_eval(B, 8 * w)
        if u and v:
            g, f, h = _q_gcd_cofactors(u, v)
            G = _t_interp(g, w)
            cg = _q_int_content(G)
            G = _q_divexact_int(G, cg)
            if G == _ONE_D:         # divides both: A and B are coprime
                F, H = A, B
            else:
                F = _t_cofactor(A, G, _t_interp(_q_scale(f, cg), w), w)
                H = F and _t_cofactor(B, G, _t_interp(_q_scale(h, cg), w), w)
            if H:
                c = math.gcd(ca, cb)
                s = 1 if _lead_coeff(G) > 0 else -1
                return _scale(G, s * c), _scale(F, s * ca // c), _scale(H, s * cb // c)
        w *= 2
    return None


def _gcd_cofactors(A, B):
    """(g, A/g, B/g) for non-zero Laurent term maps A and B.

    Monomials are units in the Laurent ring: g has exponent minimum 0 in
    each variable, a positive graded-lex leading coefficient and the
    integer content, and A/g and B/g keep the monomial parts of A and B.
    Two maps with one t exponent each take the Z[q] kernel, other
    non-monomial maps the heuristic gcd, and the pseudo-remainder gcd
    decides when that gives up.
    """
    FA, FB = _to_t(A), _to_t(B)
    if len(FA) == 1 and len(FB) == 1:
        (ta, u), = FA.items()
        (tb, v), = FB.items()
        g, f, h = _q_gcd_cofactors(u, v)
        m = min(g)
        return ({(a - m, 0): c for a, c in g.items()},
                {(a + m, ta): c for a, c in f.items()},
                {(a + m, tb): c for a, c in h.items()})
    qa, ta = _min_exps(A)
    qb, tb = _min_exps(B)
    A0, B0 = _shift(A, -qa, -ta), _shift(B, -qb, -tb)
    r = _qt_heu_gcd(A0, B0) if len(A0) > 1 and len(B0) > 1 else None
    g = r[0] if r else _poly_gcd(A0, B0)
    if g == _ONE_D:
        return g, A, B
    if r is None:
        r = g, _poly_divexact(A0, g), _poly_divexact(B0, g)
    return g, _shift(r[1], qa, ta), _shift(r[2], qb, tb)


# ---------------------------------------------------------------------------
# Public wrappers.

class LaurentQT:
    """Laurent polynomial in (q, t) over Z, stored as a sparse term map."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def _raw(cls, terms):
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def const(cls, c):
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def mono(cls, a, b, c=1):
        return cls._raw({(a, b): c} if c else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentQT) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return LaurentQT._raw(_add(self.terms, other.terms))

    def __sub__(self, other):
        return LaurentQT._raw(_add(self.terms, _neg(other.terms)))

    def __neg__(self):
        return LaurentQT._raw(_neg(self.terms))

    def __mul__(self, other):
        return LaurentQT._raw(_mul(self.terms, other.terms))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a Laurent polynomial")
        r = {(0, 0): 1}
        base = self.terms
        while e:
            if e & 1:
                r = _mul(r, base)
            e >>= 1
            if e:
                base = _mul(base, base)
        return LaurentQT._raw(r)

    def subst_mono(self, q_image, t_image):
        """Apply the monomial substitution q -> q_image, t -> t_image."""
        out = {}
        for (a, b), c in self.terms.items():
            s = c
            if a and q_image.sign < 0 and a % 2:
                s = -s
            if b and t_image.sign < 0 and b % 2:
                s = -s
            k = (a * q_image.a + b * t_image.a, a * q_image.b + b * t_image.b)
            w = out.get(k, 0) + s
            if w:
                out[k] = w
            else:
                del out[k]
        return LaurentQT._raw(out)

    def __str__(self):
        return _render_poly(self.terms)

    def __repr__(self):
        return f"LaurentQT({self})"


L_ZERO = LaurentQT._raw({})
L_ONE = LaurentQT._raw({(0, 0): 1})


class UnitMono:
    """An invertible monomial +-q^a t^b."""

    __slots__ = ("sign", "a", "b")

    def __init__(self, sign, a, b):
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        self.sign = sign
        self.a = a
        self.b = b

    @classmethod
    def q(cls, a=1):
        return cls(1, a, 0)

    @classmethod
    def t(cls, b=1):
        return cls(1, 0, b)

    @classmethod
    def one(cls):
        return cls(1, 0, 0)

    def __mul__(self, other):
        if not isinstance(other, UnitMono):
            return NotImplemented       # CoeffRat.__rmul__ answers
        return UnitMono(self.sign * other.sign, self.a + other.a, self.b + other.b)

    def inv(self):
        return UnitMono(self.sign, -self.a, -self.b)

    def __pow__(self, e):
        s = self.sign if e % 2 else 1
        return UnitMono(s, self.a * e, self.b * e)

    def __eq__(self, other):
        return (isinstance(other, UnitMono)
                and (self.sign, self.a, self.b) == (other.sign, other.a, other.b))

    def __hash__(self):
        return hash((self.sign, self.a, self.b))

    def as_laurent(self):
        return LaurentQT.mono(self.a, self.b, self.sign)

    def as_coeffrat(self):
        return CoeffRat._raw(self.as_laurent(), L_ONE)

    def __repr__(self):
        return f"UnitMono({self.sign:+d}, q^{self.a}, t^{self.b})"


def _canonical(num, den):
    """Reduce a term-map fraction to canonical form; returns (num, den)."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, dict(_ONE_D)
    # Move the denominator's monomial content into the numerator.
    da, db = _min_exps(den)
    if da or db:
        den = _shift(den, -da, -db)
        num = _shift(num, -da, -db)
    if den == _ONE_D:
        return num, dict(_ONE_D)
    _, num, den = _gcd_cofactors(num, den)
    if _lead_coeff(den) < 0:
        num = _neg(num)
        den = _neg(den)
    return num, den


def _scalar(x):
    """x as a CoeffRat when it is an int or a UnitMono, else x itself."""
    if isinstance(x, int):
        return CoeffRat.from_int(x)
    if isinstance(x, UnitMono):
        return x.as_coeffrat()
    return x


def _mono_mul(x, key, c):
    """x * c q^a t^b, (a, b) = key, without a polynomial gcd.

    The numerator is shifted and scaled; only g = gcd(c, content of the
    denominator) can cancel, and it leaves the fraction reduced."""
    a, b = key
    den = x.den
    g = 1 if c == 1 or c == -1 else math.gcd(c, *den.terms.values())
    if g != 1:
        c //= g
        den = LaurentQT._raw({k: v // g for k, v in den.terms.items()})
    num = {(p + a, r + b): c * v for (p, r), v in x.num.terms.items()}
    return CoeffRat._raw(LaurentQT._raw(num), den)


class CoeffRat:
    """Reduced fraction of Laurent polynomials in (q, t): the scalar field.

    Operands may be ints and UnitMonos.  The arithmetic skips every gcd
    whose answer the operands' reduced forms already fix: a zero operand,
    a/b + c with c a Laurent polynomial (gcd(a + cb, b) = gcd(a, b) = 1),
    a product with a monomial or of two Laurent polynomials, a square, and
    inv(), which only moves the monomial content and the sign.  rat_sum
    and rat_dot reduce a many-term sum once.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=L_ONE):
        n, d = _canonical(num.terms, den.terms)
        self.num = LaurentQT._raw(n)
        self.den = LaurentQT._raw(d)

    @classmethod
    def _raw(cls, num, den):
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_int(cls, c):
        return cls._raw(LaurentQT.const(c), L_ONE)

    @classmethod
    def from_laurent(cls, p):
        return cls._raw(LaurentQT._raw(dict(p.terms)), L_ONE)

    def is_zero(self):
        return not self.num.terms

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = CoeffRat.from_int(other)
        return (isinstance(other, CoeffRat)
                and self.num.terms == other.num.terms
                and self.den.terms == other.den.terms)

    def __hash__(self):
        return hash((frozenset(self.num.terms.items()),
                     frozenset(self.den.terms.items())))

    def __neg__(self):
        return CoeffRat._raw(-self.num, self.den)

    def __add__(self, other):
        other = _scalar(other)
        a, b = self.num.terms, self.den.terms
        c, d = other.num.terms, other.den.terms
        if not c:
            return self
        if not a:
            return other
        if b == d:
            if b == _ONE_D:
                return CoeffRat._raw(LaurentQT._raw(_add(a, c)), L_ONE)
            n, dd = _canonical(_add(a, c), b)
            return CoeffRat._raw(LaurentQT._raw(n), LaurentQT._raw(dd))
        # a/b + c = (a + cb)/b, reduced: gcd(a + cb, b) = gcd(a, b) = 1.
        if d == _ONE_D:
            return CoeffRat._raw(LaurentQT._raw(_add(a, _mul(c, b))), self.den)
        if b == _ONE_D:
            return CoeffRat._raw(LaurentQT._raw(_add(c, _mul(a, d))), other.den)
        g, b1, d1 = _gcd_cofactors(b, d)
        if g == _ONE_D:
            num = _add(_mul(a, d), _mul(c, b))
            den = _mul(b, d)
            if not num:
                return CR_ZERO
            if _lead_coeff(den) < 0:
                num, den = _neg(num), _neg(den)
            return CoeffRat._raw(LaurentQT._raw(num), LaurentQT._raw(den))
        tnum = _add(_mul(a, d1), _mul(c, b1))
        if not tnum:
            return CR_ZERO
        # The sum is tnum / (b1 d1 g) and only g can share a factor with
        # tnum; with g = g2 h it reduces to tnum' / (b1 d1 h).
        g2, tnum, h = _gcd_cofactors(tnum, g)
        den = _mul(b1, d) if g2 == _ONE_D else _mul(b1, _mul(d1, h))
        if _lead_coeff(den) < 0:
            tnum, den = _neg(tnum), _neg(den)
        return CoeffRat._raw(LaurentQT._raw(tnum), LaurentQT._raw(den))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-_scalar(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, UnitMono):
            return _mono_mul(self, (other.a, other.b), other.sign)
        a, b = self.num.terms, self.den.terms
        if other is self:
            # gcd(a, b) = 1 gives gcd(a^2, b^2) = 1, and b^2 keeps b's
            # exponent minima 0 and a positive lead coefficient.
            if not a:
                return CR_ZERO
            return CoeffRat._raw(LaurentQT._raw(_mul(a, a)), LaurentQT._raw(_mul(b, b)))
        other = _scalar(other)
        c, d = other.num.terms, other.den.terms
        if not a or not c:
            return CR_ZERO
        if d == _ONE_D and len(c) == 1:
            (key, v), = c.items()
            return _mono_mul(self, key, v)
        if b == _ONE_D and len(a) == 1:
            (key, v), = a.items()
            return _mono_mul(other, key, v)
        if b == _ONE_D and d == _ONE_D:
            return CoeffRat._raw(LaurentQT._raw(_mul(a, c)), L_ONE)
        if d != _ONE_D:
            _, a, d = _gcd_cofactors(a, d)
        if b != _ONE_D:
            _, c, b = _gcd_cofactors(c, b)
        num = _mul(a, c)
        den = _mul(b, d)
        if _lead_coeff(den) < 0:
            num, den = _neg(num), _neg(den)
        return CoeffRat._raw(LaurentQT._raw(num), LaurentQT._raw(den))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self):
        """1/x: the reduced b/a of x = a/b, with a's monomial content moved
        into the numerator and the sign fixed; no gcd runs."""
        a, b = self.num.terms, self.den.terms
        if not a:
            raise ZeroDivisionError("inverse of zero")
        qa, tb = _min_exps(a)
        num, den = _shift(b, -qa, -tb), _shift(a, -qa, -tb)
        if _lead_coeff(den) < 0:
            num, den = _neg(num), _neg(den)
        return CoeffRat._raw(LaurentQT._raw(num), LaurentQT._raw(den))

    def __truediv__(self, other):
        return self.__mul__(_scalar(other).inv())

    def __rtruediv__(self, other):
        return self.inv().__mul__(other)

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        r = CR_ONE
        base = self
        while e:
            if e & 1:
                r = r * base
            e >>= 1
            if e:
                base = base * base
        return r

    def subst(self, q_image=None, t_image=None):
        """Ring homomorphism q -> q_image, t -> t_image (unit monomials)."""
        if q_image is None:
            q_image = UnitMono.q()
        if t_image is None:
            t_image = UnitMono.t()
        num = self.num.subst_mono(q_image, t_image)
        den = self.den.subst_mono(q_image, t_image)
        if den.is_zero():
            raise DomainViolationError("denominator vanishes under substitution")
        return CoeffRat(num, den)

    def __str__(self):
        if self.den.terms == _ONE_D:
            return _render_poly(self.num.terms)
        return "({})/({})".format(_render_poly(self.num.terms),
                                  _render_poly(self.den.terms))

    def __repr__(self):
        return f"CoeffRat({self})"


def _lcm_fold(dens):
    """The lcm L of a non-empty list of term-map denominators, folded with
    one gcd per denominator after the first, and the cofactors (a, b) of
    each of those fold steps: with L0 the lcm of the denominators before d
    and L0 = a g, d = b g for g = gcd(L0, d), the lcm with d is
    L0 b = a d."""
    den = dens[0]
    steps = []
    for d in dens[1:]:
        _, a, b = _gcd_cofactors(den, d)
        steps.append((a, b))
        den = _mul(den, b)
    return den, steps


def _sum_once(fractions, divisor=None):
    """The sum of non-zero term-map fractions (num, den), divided by the
    Laurent term map divisor if given, as one reduced CoeffRat.

    The numerators of equal denominators are added as term maps; the
    distinct denominators are folded into their lcm L by _lcm_fold, the
    running numerator taken along each step (N/L0 + n/d = (N b + n a)/L),
    and the total is reduced by one _canonical.
    """
    groups = {}
    for n, d in fractions:
        key = None if d == _ONE_D else frozenset(d.items())
        if key in groups:
            _add_into(groups[key][1], n)
        else:
            groups[key] = [d, dict(n)]
    live = [(d, n) for d, n in groups.values() if n]
    if not live:
        return CR_ZERO
    den, num = live[0]
    if len(live) > 1:
        den, steps = _lcm_fold([d for d, _ in live])
        for (_, n), (a, b) in zip(live[1:], steps):
            num = _add(_mul(num, b), _mul(n, a))
        if not num:
            return CR_ZERO
    if divisor is not None:
        den = _mul(den, divisor)
    num, den = _canonical(num, den)
    return CoeffRat._raw(LaurentQT._raw(num), LaurentQT._raw(den))


def rat_sum(values):
    """The sum of an iterable of CoeffRats (or ints), reduced once by
    _sum_once; a left fold of + would reduce after every term instead."""
    live = [x for x in map(_scalar, values) if x.num.terms]
    if len(live) == 1:
        return live[0]
    return _sum_once((x.num.terms, x.den.terms) for x in live)


def rat_dot(pairs, divisor=None):
    """sum x * y over an iterable of CoeffRat pairs (x, y), divided by the
    non-zero Laurent term map divisor if given, reduced once.

    Each product is formed unreduced, num * num over den * den, and the
    products are summed by _sum_once, so the divisor joins the one
    reduction.  A single product without a divisor is x * y, whose
    cofactor gcds are smaller.
    """
    live = [(x, y) for x, y in pairs if x.num.terms and y.num.terms]
    if len(live) == 1 and divisor is None:
        x, y = live[0]
        return x * y

    def product(x, y):
        b, d = x.den.terms, y.den.terms
        den = d if b == _ONE_D else b if d == _ONE_D else _mul(b, d)
        return _mul(x.num.terms, y.num.terms), den

    return _sum_once((product(x, y) for x, y in live), divisor)


def common_den(values):
    """A non-empty list of CoeffRats over one common denominator:
    (L, nums), with L the lcm of their denominators as a LaurentQT and
    nums[i] the Laurent polynomial values[i] * L as a CoeffRat over 1.

    L is folded by _lcm_fold, one gcd per distinct denominator after the
    first.  L / d for the i-th distinct denominator d is the product of
    the cofactor a of its fold step and the cofactors b of every later
    step, so no division runs.  Over one L two numerators are equal
    exactly when the values are, and nums[i] over L reduces to values[i].
    """
    keys = [frozenset(x.den.terms.items()) for x in values]
    dens = {}
    for key, x in zip(keys, values):
        dens.setdefault(key, x.den.terms)
    den, steps = _lcm_fold(list(dens.values()))
    scales, tail = {}, _ONE_D
    for key, (a, b) in zip(reversed(dens), reversed([(_ONE_D, _ONE_D)] + steps)):
        scales[key] = _mul(a, tail)
        tail = _mul(tail, b)
    return LaurentQT._raw(den), [CoeffRat._raw(LaurentQT._raw(_mul(x.num.terms, scales[key])),
                                              L_ONE) for key, x in zip(keys, values)]


CR_ZERO = CoeffRat._raw(L_ZERO, L_ONE)
CR_ONE = CoeffRat._raw(L_ONE, L_ONE)


def _render_poly(A):
    if not A:
        return "0"
    parts = []
    for (a, b) in sorted(A, key=_glex_key, reverse=True):
        c = A[(a, b)]
        mono = []
        if a:
            mono.append("q" if a == 1 else f"q^{a}")
        if b:
            mono.append("t" if b == 1 else f"t^{b}")
        mono = "*".join(mono)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# The package's memo caches.  Every module memoizes through cached(), so
# that clear_caches() reaches all of them.

_CACHES = []


def cached(fn):
    """fn under an unbounded functools.lru_cache, registered for clear_caches."""
    cache = lru_cache(maxsize=None)(fn)
    _CACHES.append(cache)
    return cache


def clear_caches():
    """Empty every memo cache of the package."""
    for cache in _CACHES:
        cache.cache_clear()


# ---------------------------------------------------------------------------
# q-numbers and friends.

_QNUM_DEN = LaurentQT._raw({(1, 0): 1, (-1, 0): -1})


@cached
def qnum(a):
    """[a] = (q^a - q^-a)/(q - q^-1), expanded as a Laurent polynomial."""
    if a == 0:
        return CR_ZERO
    if a < 0:
        return -qnum(-a)
    return CoeffRat._raw(
        LaurentQT._raw({(a - 1 - 2 * i, 0): 1 for i in range(a)}), L_ONE)


@cached
def qfact(a):
    """[a]! = [a][a-1]...[1] = [a]_a; defined for a >= 0 only."""
    if a < 0:
        raise ValueError("q-factorial of a negative integer")
    return qfall(a, a)


@cached
def qfall(a, m):
    """Falling q-factorial [a]_m = [a][a-1]...[a-m+1], zero when a factor
    is [0], else the product of the q-numbers by _product."""
    if m < 0:
        raise ValueError("falling q-factorial with negative length")
    if 0 <= a < m:
        return CR_ZERO
    return CoeffRat._raw(LaurentQT._raw(_product([qnum(a - i).num.terms for i in range(m)])),
                         L_ONE)


def _qnum_binomial(c):
    """(sign, a, x) with [c] = sign q^a (1 - q^x) / (1 - q^2), c != 0: the
    sign of c, 1 - |c| and 2|c|."""
    return (1 if c > 0 else -1), 1 - abs(c), 2 * abs(c)


def qfall_ratio(runs):
    """prod [x]_L^s over runs (x, L, s) as a canonical CoeffRat, with no gcd:
    each [c] is a unit monomial times (1 - q^(2|c|)) / (1 - q^2), and
    binomial_ratio reduces the binomials.  A run holding [0] (0 <= x < L)
    makes the product 0 when s > 0 and raises DomainViolationError when
    s < 0, whatever the other runs hold."""
    if any(s < 0 and 0 <= x < L for x, L, s in runs):
        raise DomainViolationError("[0] in the denominator of a q-factorial ratio")
    if any(s > 0 and 0 <= x < L for x, L, s in runs):
        return CR_ZERO
    sign, qa, factors = 1, 0, {}
    for x, L, s in runs:
        factors[2, 0] = factors.get((2, 0), 0) - s * L
        for c in range(x - L + 1, x + 1):
            cs, ca, key = _qnum_binomial(c)
            if cs < 0 and s % 2:
                sign = -sign
            qa += ca * s
            factors[key, 0] = factors.get((key, 0), 0) + s
    return _mono_mul(binomial_ratio(factors, UnitMono.q(), UnitMono.t()), (qa, 0), sign)


@cached
def poch_ratio(a, d, tpow):
    """prod_{m=a}^{a+d-1} (1 - q^m t^tpow), the gap-d Pochhammer ratio
    (0 when tpow = 0 and the range holds m = 0)."""
    if d < 0:
        raise ValueError("negative Pochhammer gap")
    return binomial_ratio({(m, tpow): 1 for m in range(a, a + d)},
                          UnitMono.q(), UnitMono.t())


# ---------------------------------------------------------------------------
# Products of binomials (see the module docstring).

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius_divisors(d):
    """(e, mu(d/e)) for the divisors e of d with mu(d/e) != 0: d/e runs
    over the squarefree divisors of d."""
    out = [(d, 1)]
    n, p = d, 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            while n % p == 0:
                n //= p
            out += [(e // p, -m) for e, m in out]
        p += 1
    return out


@cached
def _cyclotomic(d):
    """The coefficients (c_0, ..., c_phi(d)) of the cyclotomic polynomial
    Phi_d(x) = prod_{e | d} (x^e - 1)^mu(d/e)."""
    c, divs = [1], []
    for e, m in _moebius_divisors(d):
        if m < 0:
            divs.append(e)
            continue
        c = [(c[k - e] if k >= e else 0) - (c[k] if k < len(c) else 0)
             for k in range(len(c) + e)]
    for e in divs:      # exact: Q (x^e - 1) = c gives Q_k = Q_(k-e) - c_k
        quo = []
        for k in range(len(c) - e):
            quo.append((quo[k - e] if k >= e else 0) - c[k])
        c = quo
    return tuple(c)


def _add_binomial(counts, unit, a, b, e):
    """Multiply (1 - q^a t^b)^e, (a, b) != (0, 0), into counts and unit.

    With g = gcd(a, b) and z = q^(a/g) t^(b/g) turned lexicographically
    positive, 1 - q^a t^b is -(z^g - 1) or q^a t^b (z^g - 1), and
    z^g - 1 = prod_{d | g} Phi_d(z): counts[(d, u, v)] is the exponent of
    Phi_d(q^u t^v), unit = [sign, q exponent, t exponent].
    """
    g = math.gcd(a, b)
    u, v = a // g, b // g
    if u > 0 or (u == 0 and v > 0):
        if e % 2:
            unit[0] = -unit[0]
    else:
        u, v = -u, -v
        unit[1] += a * e
        unit[2] += b * e
    for d in _divisors(g):
        key = (d, u, v)
        counts[key] = counts.get(key, 0) + e


def binomial_ratio(factors, shift, t2):
    """prod (1 - q^a t^b)^e over a map {(a, b): e}, under q -> shift and
    t -> t2 (unit monomials), as a canonical CoeffRat, with no gcd.

    A factor with (a, b) = (0, 0) is zero: in the numerator it makes the
    product 0, in the denominator it raises DomainViolationError, as does
    a denominator that vanishes under the substitution.
    """
    zero = factors.get((0, 0), 0)
    if zero < 0:
        raise DomainViolationError("zero binomial in the denominator")
    if zero > 0:
        return CR_ZERO
    unit, formal = [1, 0, 0], {}
    for (a, b), e in factors.items():
        if e:
            _add_binomial(formal, unit, a, b, e)
    sign, qa, tb = unit
    y = shift ** qa * t2 ** tb
    unit, counts = [sign * y.sign, y.a, y.b], {}
    cnum = cden = 1
    vanishes = False
    for (d, u, v), c in formal.items():
        if not c:
            continue
        y = shift ** u * t2 ** v
        if not (y.a or y.b):
            val = sum(x * y.sign ** k for k, x in enumerate(_cyclotomic(d)))
            if not val:
                if c < 0:
                    raise DomainViolationError("denominator vanishes under substitution")
                vanishes = True
            elif c > 0:
                cnum *= val ** c
            else:
                cden *= val ** -c
            continue
        # Phi_d(y) = prod_{e | d} (y^e - 1)^mu(d/e), and with w = |y^e|
        # y^e - 1 is -(1 - w) or -(1 + w) = -(1 - w^2) / (1 - w).
        for e, m in _moebius_divisors(d):
            m *= c
            if m % 2:
                unit[0] = -unit[0]
            if y.sign > 0 or e % 2 == 0:
                _add_binomial(counts, unit, e * y.a, e * y.b, m)
            else:
                _add_binomial(counts, unit, 2 * e * y.a, 2 * e * y.b, m)
                _add_binomial(counts, unit, e * y.a, e * y.b, -m)
    if vanishes:
        return CR_ZERO
    # Distinct (d, z) are non-associate irreducibles and each Phi_d(z) is
    # primitive, so the expansion is reduced once the integers are.
    if cden < 0:
        cnum, cden = -cnum, -cden
    g = math.gcd(cnum, cden)
    nums = [{(unit[1], unit[2]): unit[0] * cnum // g}]
    dens = [{(0, 0): cden // g}]
    for (d, u, v), c in counts.items():
        if c:
            phi = {(u * k, v * k): x for k, x in enumerate(_cyclotomic(d)) if x}
            (nums if c > 0 else dens).extend([phi] * abs(c))
    num, den = _product(nums), _product(dens)
    da, db = _min_exps(den)
    if _lead_coeff(den) < 0:
        num, den = _neg(num), _neg(den)
    return CoeffRat._raw(LaurentQT._raw(_shift(num, -da, -db)),
                         LaurentQT._raw(_shift(den, -da, -db)))


def subst(x, q_image=None, t_image=None):
    """The ring homomorphism q -> q_image, t -> t_image applied to x."""
    return x.subst(q_image, t_image)
