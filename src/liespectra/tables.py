"""Reference data for the verification checks: expected level sets for the
classical families and the expected almost-simple module lists and
multiplicity caps for the classification sweep.  The caps are stated once
per family rule, and B2's are not mirrored from C2's by hand: the B rule
gives its dimension-5 cap 4, and on its dimension-4 module the C/D rule's
cap 2n - 2 = 2 is the rank, the cap of every module no rule names.

Level cells are given as coordinate tuples.  For rank 1 the two-column
pattern of the general A row degenerates: the level-2 set there is
{(2,), (3,)} (the chain 3*w1 > w1 > nothing has length two), which the
generic entries 2*w1 = 2*w_n = w1 + w_n all collapse onto (2,).
"""

from __future__ import annotations


def _unit(n, i, j=None):
    v = [0] * n
    v[i] += 1
    if j is not None:
        v[j] += 1
    return tuple(v)


def level_reference(family: str, rank: int):
    """Expected level-1 and level-2 sets and, where known, the radical part
    of level 3.  Returns dict with keys 'L1', 'L2', 'L3_radical' (the last
    may be None when no reference is available)."""
    n = rank
    zero = (0,) * n
    if family == "A":
        l1 = {zero} | {_unit(n, i) for i in range(n)}
        if n == 1:
            return {"L1": l1, "L2": {(2,), (3,)}, "L3_radical": None}
        l2 = {_unit(n, 0, 0), _unit(n, n - 1, n - 1), _unit(n, 0, n - 1)}
        for i in range(1, n - 1):
            l2.add(_unit(n, 0, i))
            l2.add(_unit(n, i, n - 1))
        return {"L1": l1, "L2": l2, "L3_radical": None}
    if family == "B":
        return {
            "L1": {zero, _unit(n, n - 1)},
            "L2": {_unit(n, 0), _unit(n, 0, n - 1)},
            # omega2 of B2 is the spin weight; its radical multiple is 2 omega2.
            "L3_radical": {_unit(n, 1, 1) if n == 2 else _unit(n, 1)},
        }
    if family == "C":
        if n == 2:
            return {
                "L1": {zero, (1, 0)},
                "L2": {(0, 1), (1, 1)},
                "L3_radical": {(2, 0)},
            }
        l3 = {_unit(n, 0, 0)} if n == 3 else {_unit(n, 0, 0), _unit(n, 3)}
        return {
            "L1": {zero, _unit(n, 0)},
            "L2": {_unit(n, 1), _unit(n, 2)},
            "L3_radical": l3,
        }
    if family == "D":
        l1 = {zero, _unit(n, 0), _unit(n, n - 2), _unit(n, n - 1)}
        if n == 4:
            l2 = {_unit(n, 1), _unit(n, 0, 2), _unit(n, 0, 3), _unit(n, 2, 3)}
        else:
            l2 = {_unit(n, 1), _unit(n, 2), _unit(n, 0, n - 2), _unit(n, 0, n - 1)}
        return {"L1": l1, "L2": l2, "L3_radical": None}
    return None


# Permitted modules beyond omega1 (and omega_n on A), by 0-based index: the
# natural module of an isomorphic type (A3 = D3, B2 = C2) and D4's triality
# images of its natural module.
_OTHER_NATURAL = {"A3": (1,), "B2": (1,), "C2": (1,), "D4": (2, 3)}


def permitted_almost_simple(datum):
    """Fundamental-weight coordinate tuples of the modules on which a
    non-regular non-central semisimple element can have almost simple
    spectrum (characteristic 0)."""
    fam, n = datum.family, datum.rank
    if fam not in "ABCD" or datum.name == "A1":
        return set()
    indices = {0, n - 1} if fam == "A" else {0}
    return {_unit(n, i) for i in indices.union(_OTHER_NATURAL.get(datum.name, ()))}


def root_pair_almost_simple(datum):
    """The permitted modules whose almost-simple witnesses all hold two roots
    in their kernel: the natural module of D_n (A3's L(omega2) is that of
    D3) and, on D4, its two triality images.  On the natural module the
    eigenvalues are the t_i^(+-1); a root e_i -+ e_j in the kernel makes
    t_i = t_j^(+-1), so t_i and t_i^-1 each occur at least twice, and an
    almost simple spectrum forces t_i = t_j = +-1, which puts e_i +- e_j in
    the kernel too.  A depth-1 sweep therefore finds no witness on them.
    On D_n these are all the permitted modules."""
    if datum.family == "D":
        return permitted_almost_simple(datum)
    return {(0, 1, 0)} if datum.name == "A3" else set()


def multiplicity_cap(datum, dim):
    """Cap on eigenvalue multiplicities of an almost-simple outcome on a
    module of the given dimension: 2n - 2 on the 2n-dimensional modules of
    C_n and D_n (A3's 6-dimensional L(omega2) is the natural module of D3;
    on B2's 4-dimensional spin module, the natural module of C2, 2n - 2 is
    the rank), 2n on the (2n + 1)-dimensional modules of B_n (C2's
    5-dimensional L(omega2) is the natural module of B2), and the rank
    otherwise."""
    n = datum.rank
    if dim == 2 * n and (datum.family in "CD" or datum.name == "A3"):
        return 2 * n - 2
    if dim == 2 * n + 1 and (datum.family == "B" or datum.name == "C2"):
        return 2 * n
    return n
