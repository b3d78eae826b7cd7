"""Output checks.  Each returns a list of failure messages (empty = pass).

References are SHA-256 digests of exact polynomials, stored in
``reference.json`` for every catalogue presentation a seed can pick, so the
regression check holds on any seed, not only the default one.  The
invariant checks (degree bound, Alexander value, skein recurrence, naive
oracle) need no stored data.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
ORACLE_LIMIT = 10


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def poly_digest(p):
    terms = sorted((ev, ez, c) for (ev, ez), c in p.terms.items())
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()[:16]


def mirror_law(p):
    """P(D*)(v, z) = P(D)(v^-1, -z)."""
    from mortonlab.poly import LaurentPoly2

    return LaurentPoly2({(-ev, ez): -c if ez % 2 else c for (ev, ez), c in p.terms.items()})


def check_reference(item, p, expected):
    got = poly_digest(mirror_law(p) if item.mirrored else p)
    if expected is None:
        return [f"{item.name}: no reference for {item.ref}"]
    if got != expected:
        return [f"{item.name}: polynomial digest {got} != reference {expected}"]
    return []


def check_invariants(name, d, p):
    """Degree bound on connected diagrams, Delta(1) = +-1 on knots."""
    from mortonlab.morton import morton_bound_diagram
    from mortonlab.poly import alexander_specialize

    out = []
    m = p.maxdeg_z()
    if m is None:
        return [f"{name}: zero polynomial"]
    if d.is_connected():
        bound = morton_bound_diagram(d)
        if m > bound:
            out.append(f"{name}: maxdeg_z {m} > c - s + 1 = {bound}")
    if d.num_components() == 1:
        a1 = alexander_specialize(p).evaluate_at_one()
        if a1 not in (1, -1):
            out.append(f"{name}: Alexander Delta(1) = {a1}")
    return out


def check_family(base, d, crossing, n_max, report, engine, expected):
    """Rows of one audit against the polynomials the audit's engine holds:
    reference digests, reported degrees, the degree bound, the three-term
    skein recurrence between consecutive n, and the naive oracle on rows
    that simplify to at most ORACLE_LIMIT crossings."""
    from mortonlab.family import insert_parallel_bands
    from mortonlab.homfly import naive_homfly

    name = base.name
    rows = report.rows
    if report.incomplete or [r.n for r in rows] != list(range(n_max + 1)):
        return [f"{name}: report rows {[r.n for r in rows]} incomplete={report.incomplete}"]
    out = []
    polys = []
    for r in rows:
        dn = insert_parallel_bands(d, crossing, r.n)
        p = engine.homfly(dn)
        polys.append(p)
        tag = f"{name} n={r.n}"
        got = poly_digest(mirror_law(p) if base.mirrored else p)
        if expected is None or got != expected[r.n]:
            out.append(f"{tag}: polynomial digest {got} does not match the reference")
        if p.maxdeg_z() != r.m:
            out.append(f"{tag}: report M={r.m}, polynomial maxdeg_z={p.maxdeg_z()}")
        out += check_invariants(tag, dn, p)
        small = dn.simplify()
        if len(small.crossings) <= ORACLE_LIMIT and naive_homfly(small) != p:
            out.append(f"{tag}: engine differs from the naive oracle")
    positive = d.crossings[crossing].sign > 0
    for n in range(1, len(polys) - 1):
        up, down = (polys[n + 1], polys[n - 1]) if positive else (polys[n - 1], polys[n + 1])
        if up.mono_mul(1, ev=-1) + down.mono_mul(-1, ev=1) != polys[n].mono_mul(1, ez=1):
            out.append(f"{name}: skein recurrence fails between n={n - 1}..{n + 1}")
    return out
