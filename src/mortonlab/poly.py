"""Exact two-variable integer Laurent arithmetic for skein calculations.

Both polynomial types are one private term-map base class: a map from
exponent keys to nonzero integer coefficients, the zero polynomial being
the empty map.  Coefficients are plain Python ints, so intermediate skein
sums never overflow silently.  LaurentPoly2 lives in Z[v, v^-1, z, z^-1]
with keys (e_v, e_z) and does the skein arithmetic.  LaurentPoly1 holds
Alexander polynomials in t^(1/2): exponents are stored doubled (the key
e stands for t^(e/2)) so they stay integers.
"""

from __future__ import annotations

import json
import re
from math import comb

from .errors import NegativeZDegreeError, ParseError

__all__ = [
    "LaurentPoly2",
    "LaurentPoly1",
    "alexander_specialize",
    "delta_factor",
]


def _fold(out, pairs):
    """Add (key, coefficient) pairs into the term map out, dropping zero
    sums; returns out."""
    for k, c in pairs:
        nc = out.get(k, 0) + c
        if nc:
            out[k] = nc
        elif k in out:
            del out[k]
    return out


_DIGITS = re.compile(r"-?[0-9]+")


def _json_int(value, text=False):
    """int(value) for a JSON integer (not a bool) or, with text, a string
    of an optional minus and ASCII digits; else int's error or ValueError."""
    n = int(value)
    if type(value) is int or text and isinstance(value, str) and _DIGITS.fullmatch(value):
        return n
    raise ValueError(f"not an integer: {value!r}")


class _TermMap:
    """Immutable map from exponent keys to nonzero int coefficients, built from
    a dict or (key, coefficient) pairs: repeated keys add up, zero sums drop."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            _fold(t, terms.items() if isinstance(terms, dict) else terms)
        self._terms = t

    @classmethod
    def _of(cls, terms):
        """Wrap a term map with no zero coefficients, without copying it."""
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @property
    def terms(self):
        """Term map copy; values nonzero ints."""
        return dict(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self):
        return f"{type(self).__name__}({self._terms!r})"


class LaurentPoly2(_TermMap):
    """Immutable integer Laurent polynomial in v and z; keys (e_v, e_z)."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    # -- basic protocol ----------------------------------------------

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        return f"LaurentPoly2({self.pretty()!r})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        return LaurentPoly2._of(_fold(dict(a), b.items()))

    def __neg__(self):
        return LaurentPoly2._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._terms.items(), other._terms.items()
        return LaurentPoly2._of(_fold({}, (((ev1 + ev2, ez1 + ez2), c1 * c2)
                                           for (ev1, ez1), c1 in a for (ev2, ez2), c2 in b)))

    def mono_mul(self, coeff, ev=0, ez=0):
        """Fast multiply by a single term coeff * v^ev * z^ez."""
        if coeff == 0:
            return LaurentPoly2.zero()
        return LaurentPoly2._of({(a + ev, b + ez): c * coeff for (a, b), c in self._terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial is not defined here")
        acc = LaurentPoly2.one()
        for _ in range(n):
            acc = acc * self
        return acc

    # -- degrees and substitutions -------------------------------------

    def maxdeg_z(self):
        """Largest z-exponent, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(ez for (_, ez) in self._terms)

    def mirror(self):
        """Substitute v -> v^-1, z -> -z: P(D*)(v, z) = P(D)(v^-1, -z) for the
        mirror image D* under this skein convention (an involution; z-degrees
        untouched).  On knots every z-exponent is even and only v flips."""
        return LaurentPoly2._of({(-ev, ez): -c if ez % 2 else c
                                 for (ev, ez), c in self._terms.items()})

    # -- serialization -------------------------------------------------

    def _json_order(self):
        return sorted(self._terms, key=lambda k: (-k[1], -k[0]))

    def to_json_obj(self):
        """Array of term records ordered by (e_z desc, e_v desc)."""
        return [{"ev": ev, "ez": ez, "c": str(self._terms[(ev, ez)])}
                for ev, ez in self._json_order()]

    def to_json(self):
        """to_json_obj as compact JSON text, formatted term by term."""
        terms = self._terms
        return "[%s]" % ",".join(['{"ev":%d,"ez":%d,"c":"%d"}' % (ev, ez, terms[ev, ez])
                                  for ev, ez in self._json_order()])

    @classmethod
    def from_json_obj(cls, obj):
        """An array of term records {"ev": int, "ez": int, "c": int or digit
        string}; [] is the zero polynomial."""
        if not isinstance(obj, list):
            raise ParseError("bad polynomial JSON: not an array of term records")
        try:
            return cls([((_json_int(t["ev"]), _json_int(t["ez"])), _json_int(t["c"], text=True))
                        for t in obj])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad polynomial record: {exc}") from exc

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except ValueError as exc:  # also an integer of more digits than int() takes
            raise ParseError(f"bad polynomial JSON: {exc}") from exc
        return cls.from_json_obj(obj)

    def pretty(self):
        """Human form grouped by z-degree, e.g. "(v^2+6v^-2)z^6 + ...". """
        if not self._terms:
            return "0"
        by_z = {}
        for (ev, ez), c in self._terms.items():
            by_z.setdefault(ez, {})[ev] = c
        chunks = []
        for ez in sorted(by_z, reverse=True):
            vpoly = by_z[ez]
            parts = []
            for ev in sorted(vpoly, reverse=True):
                c = vpoly[ev]
                sign = "-" if c < 0 else ("+" if parts else "")
                mag = abs(c)
                if ev == 0:
                    body = str(mag)
                else:
                    vs = "v" if ev == 1 else f"v^{ev}"
                    body = vs if mag == 1 else f"{mag}{vs}"
                parts.append(f"{sign}{body}")
            vtxt = "".join(parts)
            if ez == 0:
                chunks.append(vtxt if len(parts) == 1 else f"({vtxt})")
            else:
                zs = "z" if ez == 1 else f"z^{ez}"
                if len(parts) == 1 and not vtxt.startswith("-"):
                    chunks.append(f"{vtxt}{zs}" if vtxt != "1" else zs)
                else:
                    chunks.append(f"({vtxt}){zs}")
        return " + ".join(chunks)


class LaurentPoly1(_TermMap):
    """Integer Laurent polynomial in t^(1/2); key e means t^(e/2)."""

    __slots__ = ()

    def evaluate_at_one(self):
        """Value at t = 1 (every t^(e/2) becomes 1)."""
        return sum(self._terms.values())

    def half_degree_span(self):
        """(min e, max e) over stored doubled exponents; None if zero."""
        if not self._terms:
            return None
        return (min(self._terms), max(self._terms))

    def degree_t(self):
        """Degree in t of the symmetric normal form: exponent breadth / 4.

        Alexander polynomials of knots are symmetric up to a unit, so the
        breadth is the invariant quantity; for them it is divisible by 4.
        """
        span = self.half_degree_span()
        if span is None:
            return None
        breadth = span[1] - span[0]
        if breadth % 4:
            raise ValueError(f"breadth {breadth} not divisible by 4; not a knot polynomial")
        return breadth // 4

    def symmetric_up_to_unit(self):
        """True if p(t^-1) = ±t^(k/2) * p(t) for some integer k."""
        if not self._terms:
            return True
        lo, hi = self.half_degree_span()
        # p(t^-1) has the exponents -e; shift its top degree -lo onto hi
        shifted = {hi + lo - e: c for e, c in self._terms.items()}
        if shifted == self._terms:
            return True
        return {e: -c for e, c in shifted.items()} == self._terms


# -- module-level operation surface -----------------------------------


def delta_factor() -> LaurentPoly2:
    """The split-union / unlink factor (v^-1 - v) z^-1."""
    return LaurentPoly2({(-1, -1): 1, (1, -1): -1})


def _skein_step(sign, p_sw, p_sm):
    """P at a crossing of this sign from its children's polynomials:
    v^(2s) P(switched) + s v^s z P(smoothed).  With v^(2s) and v^s divided
    out the two weights are 1 and s z, with which the braid module
    multiplies by its Hecke generators g_i = v^-1 T_i."""
    return p_sw.mono_mul(1, ev=2 * sign) + p_sm.mono_mul(sign, ev=sign, ez=1)


def alexander_specialize(p: LaurentPoly2) -> LaurentPoly1:
    """Substitute v = 1 and z = t^(1/2) - t^(-1/2).

    Rejects negative z-exponents: z^-1 has no Laurent expansion in t^(1/2),
    and a HOMFLY with z^-1 terms belongs to a link, not a knot.
    """
    for _, ez in p._terms:
        if ez < 0:
            raise NegativeZDegreeError(
                f"z-exponent {ez} < 0: not a knot polynomial, cannot specialize"
            )
    # (s - s^-1)^b expands to sum_k (-1)^k C(b,k) s^(b-2k), s = t^(1/2)
    return LaurentPoly1((ez - 2 * k, c * (-1) ** k * comb(ez, k))
                        for (_, ez), c in p._terms.items() for k in range(ez + 1))
