"""Monomial orders on exponent vectors and their extensions to free modules.

Orders are frozen, hashable values: MonomialOrder on the ring, ModuleOrder
on a free module.  Each ring order has one implementation, its order code
(MonomialCode, from MonomialOrder.code, one per order and number of
variables): encode maps an exponent tuple to an int that compares the way
the order does (bigger code = bigger monomial), and a product of
monomials is the sum of their codes.  Exponents sit in fixed-width fields
with a guard bit on top, so divisibility, and the bound on every exponent,
is one test on the difference of two codes.

Everything that orders monomials uses the code: a PolyRing keeps the code
of its order (PolyRing.code, with PolyRing.key its encode), and every
Polynomial and Vec holds its monomials as codes, so printing, leading
terms and sorted monomial lists go by it; a ModuleOrder keys a term
(comp, m) by its component and its code m; and inside the Groebner
kernel every monomial is its code.  An exponent past EXP_BOUND has no
code: encode raises UnsupportedInputError, so such an input is refused
where a polynomial or vector holding it is made.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import mul

from .values import Frozen


class UnsupportedInputError(ValueError):
    """Input the engine does not handle, such as an exponent past the
    bound of the order codes (EXP_BOUND)."""


class MonomialOrder(Frozen):
    """One of lex, degrevlex, weighted degrevlex (positive weights), or the
    elimination order: block degrevlex with the first nelim variables
    dominant.  The weights are kept as a tuple, and the hash is computed
    once: every order-code lookup takes it."""

    # kind: "lex" | "degrevlex" | "wdegrevlex" | "elim"
    __slots__ = ("kind", "weights", "nelim", "_hash")
    _fields = ("kind", "weights", "nelim")

    def __init__(self, kind: str, weights=(), nelim: int = 0):
        if kind not in ("lex", "degrevlex", "wdegrevlex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        weights = tuple(weights)
        if kind == "wdegrevlex":
            if not weights or any(w <= 0 for w in weights):
                raise ValueError("wdegrevlex needs positive weights")
        if (kind == "elim") != (nelim > 0):
            raise ValueError("elim, and only elim, needs nelim > 0")
        self._set_slots(kind, weights, nelim, hash((kind, weights, nelim)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return MonomialOrder, (self.kind, self.weights, self.nelim)

    def code(self, nvars) -> "MonomialCode":
        """The order code of this order on nvars variables."""
        return _monomial_code(self, nvars)

    def describe(self) -> str:
        if self.kind == "wdegrevlex":
            return "wdegrevlex[" + ",".join(str(w) for w in self.weights) + "]"
        return self.kind


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


def wdegrevlex(weights) -> MonomialOrder:
    return MonomialOrder("wdegrevlex", tuple(weights))


def elimination(nelim) -> MonomialOrder:
    return MonomialOrder("elim", nelim=nelim)


# --- order codes -------------------------------------------------------------

FIELD_BITS = 32
# the largest exponent a field holds with its guard (top) bit clear
EXP_BOUND = (1 << FIELD_BITS - 1) - 1


class MonomialCode:
    """The order code of a ring order on a number of variables.

    encode maps an exponent tuple to an int that compares the way the
    order does, with encode(a) + encode(b) == encode(a * b); it raises
    UnsupportedInputError for an exponent past EXP_BOUND.  decode inverts
    it, and lcm(a, b) is the code of the lcm of two monomials.

    Exponents sit in FIELD_BITS-bit fields.  For lex the code is x, the
    exponents with the first variable in the top field.  For degrevlex and
    wdegrevlex it is wdeg * B - x, with the first variable in the bottom
    field of x and B = 2 ** (bits of x): equal degrees go by -x, so the
    monomial with the smaller last exponent is bigger.  For elim(k) it is
    the degrevlex code of the first k variables on top of the degrevlex
    code of the rest, which has a spare degree field.

    For codes a and b of exponents within the bound, the fields of
    ((b - a) ^ xor) + add are 2 ** (FIELD_BITS - 1) - 1 + a_i - b_i, and no
    field borrows from the next, so a guard bit is set exactly where
    a_i > b_i: a divides b iff not (((b - a) ^ xor) + add) & guard.  With
    a = 1 (code 0) the same test says whether every exponent of b is within
    the bound.  lcm(a, b) adds to b the code of the fields where a is the
    larger, which those guard bits select.
    """

    __slots__ = ("encode", "decode", "lcm", "xor", "add", "guard")

    def __init__(self, encode, decode, lcm, xor, add, guard):
        self.encode, self.decode, self.lcm = encode, decode, lcm
        self.xor, self.add, self.guard = xor, add, guard


def _out_of_range(e, nvars):
    """The error of exponents e that have no code on nvars variables."""
    e = tuple(e)
    if len(e) != nvars:
        return UnsupportedInputError(
            f"exponents {e} of length {len(e)} in an order on {nvars} "
            f"variables")
    return UnsupportedInputError(
        f"exponents {e} out of range: monomial orders take exponents up to "
        f"{EXP_BOUND}")


def _field_bits(k):
    """(ones, guards): the bottom bit, and the guard bit, of each of k
    fields."""
    ones = int.from_bytes(struct.pack(f"<{k}I", *[1] * k), "little")
    return ones, ones << FIELD_BITS - 1


def _revlex_block(k, weights):
    """(encode, decode, lift, bits of x) of the degrevlex code wdeg * B - x
    of k exponents, the degree weighted by the first k weights when given;
    lift(x) is the code of the exponents that the fields of x hold."""
    st = struct.Struct(f"<{k}I")
    pack, unpack, frombytes = st.pack, st.unpack, int.from_bytes
    nbits, nbytes = FIELD_BITS * k, 4 * k
    mask = (1 << nbits) - 1
    guards = _field_bits(k)[1]
    weights = (1,) * k if weights is None else tuple(weights[:k])
    # with one weight the degree is a multiple of the sum
    w = weights[0] if k and weights == weights[:1] * k else None

    def degree(e):
        return sum(e) * w if w else sum(map(mul, weights, e))

    # encode runs on every monomial that is ordered or enters the kernel:
    # it packs, checks and computes the degree inline
    def encode(e):
        try:
            x = frombytes(pack(*e), "little")
        except struct.error:
            x = guards
        if x & guards:
            raise _out_of_range(e, k)
        d = sum(e) * w if w else sum(map(mul, weights, e))
        return (d << nbits) - x

    def lift(x):
        return (degree(unpack(x.to_bytes(nbytes, "little"))) << nbits) - x

    def decode(m):
        return unpack(((-m) & mask).to_bytes(nbytes, "little"))

    return encode, decode, lift, nbits


@lru_cache
def _monomial_code(order: MonomialOrder, nvars: int) -> MonomialCode:
    """The order code of order on nvars variables."""
    ones, guards = _field_bits(nvars)
    per = guards - ones      # 2 ** (FIELD_BITS - 1) - 1 in every field
    top = FIELD_BITS - 1
    if order.kind == "lex":
        st = struct.Struct(f">{nvars}I")
        pack, unpack, frombytes = st.pack, st.unpack, int.from_bytes
        nbytes = 4 * nvars

        def encode(e):
            try:
                x = frombytes(pack(*e), "big")
            except struct.error:
                x = guards
            if x & guards:
                raise _out_of_range(e, nvars)
            return x

        def decode(m):
            return unpack(m.to_bytes(nbytes, "big"))

        def lcm(a, b):
            u = a - b + per
            t = u & guards
            if not t:
                return b
            sel = (t << 1) - (t >> top)
            return b + (u & sel) - (per & sel)

        # -(b - a) == ((b - a) ^ -1) + 1
        return MonomialCode(encode, decode, lcm, -1, per + 1, guards)
    if order.kind != "elim":
        weights = order.weights if order.kind == "wdegrevlex" else None
        encode, decode, lift, _bits = _revlex_block(nvars, weights)

        def lcm(a, b):
            u = b - a + per
            t = u & guards
            if not t:
                return b
            sel = (t << 1) - (t >> top)
            return b + lift((u & sel) - (per & sel))

        return MonomialCode(encode, decode, lcm, 0, per, guards)
    k = min(order.nelim, nvars)
    enc1, dec1, lift1, _bits1 = _revlex_block(k, None)
    enc2, dec2, lift2, bits2 = _revlex_block(nvars - k, None)
    # the lower code stays below 2 ** shift, and a difference of two lower
    # degrees within half its field, for fields up to 2 ** FIELD_BITS
    dbits = FIELD_BITS + (nvars - k).bit_length()
    shift = bits2 + dbits
    low = (1 << shift) - 1

    def encode(e):
        try:
            return (enc1(e[:k]) << shift) + enc2(e[k:])
        except UnsupportedInputError:
            raise _out_of_range(e, nvars) from None

    def decode(m):
        return dec1(m >> shift) + dec2(m & low)

    ones1, guards1 = _field_bits(k)
    ones2, guards2 = _field_bits(nvars - k)
    guards = guards1 << shift | guards2
    per = (guards1 - ones1) << shift | (guards2 - ones2)
    # the offset in the lower degree field keeps a difference of two lower
    # codes from borrowing from the upper one
    add = per + (1 << dbits - 1 << bits2)

    def lcm(a, b):
        u = b - a + add
        t = u & guards
        if not t:
            return b
        sel = (t << 1) - (t >> top)
        x = (u & sel) - (per & sel)
        return b + (lift1(x >> shift) << shift) + lift2(x & low)

    return MonomialCode(encode, decode, lcm, 0, add, guards)


def _top_term_key(t):
    return (t[1], -t[0])


class ModuleOrder(Frozen):
    """A term order on the terms (component, exponents) of P^s.

    With nreal None it is TOP (term over position): the ring monomials are
    compared first, and ties are broken by position, earlier components
    winning.  With nreal set it is the block order of preimage, syzygy
    and certificate runs: TOP, with every term in a component >= nreal
    strictly below every term in the first nreal components, which hold
    the actual module element.

    A term is keyed as (comp, m), m the order code of its monomial under
    ring_order, and term_key gives its key: (m, -comp) for TOP,
    (comp < nreal, m, -comp) for the block order.  Equal orders compare and hash equal; the
    term key is held outside eq and hash, and the hash is computed once.
    """

    __slots__ = ("ring_order", "nreal", "term_key", "_hash")
    _fields = ("ring_order", "nreal")

    def __init__(self, ring_order: MonomialOrder, nreal: int | None = None):
        if nreal is None:
            term_key = _top_term_key
        else:
            def term_key(t):
                return (t[0] < nreal, t[1], -t[0])
        # one is built per Buchberger run: its slots are set without
        # _set_slots's loop
        set_slot = object.__setattr__
        set_slot(self, "ring_order", ring_order)
        set_slot(self, "nreal", nreal)
        set_slot(self, "term_key", term_key)
        set_slot(self, "_hash", hash((ring_order, nreal)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return ModuleOrder, (self.ring_order, self.nreal)
