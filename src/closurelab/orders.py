"""Monomial orders on exponent vectors and their extensions to free modules.

Orders are frozen, hashable values: MonomialOrder on the ring, ModuleOrder
on a free module.  MonomialOrder.key() gives a key function mapping an
exponent tuple to a tuple that compares the way the order does (bigger key
= bigger monomial); a ModuleOrder is itself the key function on
(component, exponents) pairs.  For degrevlex the key is (degree, negated
reversed exponents): ties in degree are broken so that the monomial whose
last nonzero exponent difference is negative wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul, neg


def lex_key(exps):
    return exps


def degrevlex_key(exps):
    return (sum(exps), tuple(map(neg, reversed(exps))))


def make_wdegrevlex_key(weights):
    w = tuple(weights)

    def key(exps):
        return (sum(map(mul, w, exps)), tuple(map(neg, reversed(exps))))

    return key


def make_elim_key(nelim):
    def key(exps):
        return (degrevlex_key(exps[:nelim]), degrevlex_key(exps[nelim:]))

    return key


@dataclass(frozen=True)
class MonomialOrder:
    """One of lex, degrevlex, weighted degrevlex (positive weights), or the
    elimination order: block degrevlex with the first nelim variables
    dominant."""

    kind: str  # "lex" | "degrevlex" | "wdegrevlex" | "elim"
    weights: tuple = ()
    nelim: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "degrevlex", "wdegrevlex", "elim"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "wdegrevlex":
            if not self.weights or any(w <= 0 for w in self.weights):
                raise ValueError("wdegrevlex needs positive weights")
        if (self.kind == "elim") != (self.nelim > 0):
            raise ValueError("elim, and only elim, needs nelim > 0")

    def key(self):
        if self.kind == "lex":
            return lex_key
        if self.kind == "degrevlex":
            return degrevlex_key
        if self.kind == "elim":
            return make_elim_key(self.nelim)
        return make_wdegrevlex_key(self.weights)

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


@dataclass(frozen=True)
class ModuleOrder:
    """A term order on the free module P^s, keyed on (component, exponents).

    With nreal None it is TOP (term over position): the ring monomials are
    compared first, and ties are broken by position, earlier components
    winning.  With nreal set it is the block order of preimage, syzygy
    and certificate runs: TOP, with every term in a component >= nreal
    strictly below every term in the first nreal components, which hold
    the actual module element.

    Calling the order on (comp, exps) gives a key that compares the way the
    order does.  Equal orders compare and hash equal; the ring key function
    is cached outside eq and hash.
    """

    ring_order: MonomialOrder
    nreal: int | None = None
    _ring_key: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_ring_key", self.ring_order.key())

    def __call__(self, comp, exps):
        if self.nreal is None:
            return (self._ring_key(exps), -comp)
        return (1 if comp < self.nreal else 0, self._ring_key(exps), -comp)
