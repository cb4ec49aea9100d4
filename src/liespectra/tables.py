"""Reference data for the verification checks: expected level sets for the
classical families and the expected almost-simple module lists and
multiplicity caps for the classification sweep.

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
        if n == 2:
            # Rank-2 case, mirror of C2 under the diagram swap.
            return {
                "L1": {zero, (0, 1)},
                "L2": {(1, 0), (1, 1)},
                "L3_radical": {(0, 2)},
            }
        return {
            "L1": {zero, _unit(n, n - 1)},
            "L2": {_unit(n, 0), _unit(n, 0, n - 1)},
            "L3_radical": {_unit(n, 1)},
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


def permitted_almost_simple(datum):
    """Fundamental-weight coordinate tuples of the modules on which a
    non-regular non-central semisimple element can have almost simple
    spectrum (characteristic 0)."""
    fam, n = datum.family, datum.rank

    def unit(i):
        return _unit(n, i)

    if fam == "A":
        if n == 1:
            return set()
        out = {unit(0), unit(n - 1)}
        if n == 3:
            out.add(unit(1))
        return out
    if fam == "B":
        if n == 2:
            return {unit(0), unit(1)}
        return {unit(0)}
    if fam == "C":
        out = {unit(0)}
        if n == 2:
            out.add(unit(1))
        return out
    if fam == "D":
        out = {unit(0)}
        if n == 4:
            out.update({unit(2), unit(3)})
        return out
    return set()


def root_pair_almost_simple(datum):
    """The permitted modules whose almost-simple witnesses all hold two roots
    in their kernel: the natural module of D_n (A3's L(omega2) is that of
    D3) and, on D4, its two triality images.  On the natural module the
    eigenvalues are the t_i^(+-1); a root e_i -+ e_j in the kernel makes
    t_i = t_j^(+-1), so t_i and t_i^-1 each occur at least twice, and an
    almost simple spectrum forces t_i = t_j = +-1, which puts e_i +- e_j in
    the kernel too.  A depth-1 sweep therefore finds no witness on them."""
    fam, n = datum.family, datum.rank
    if fam == "A" and n == 3:
        return {_unit(n, 1)}
    if fam == "D":
        out = {_unit(n, 0)}
        if n == 4:
            out.update({_unit(n, 2), _unit(n, 3)})
        return out
    return set()


def multiplicity_cap(datum, dim):
    """Cap on eigenvalue multiplicities of an almost-simple outcome on a
    module of the given dimension."""
    fam, n = datum.family, datum.rank
    if fam == "A" and n == 3 and dim == 6:
        return 4
    if fam == "B":
        if n == 2:
            # Rank-2 mirror of the C2 caps.
            if dim == 5:
                return 4
            if dim == 4:
                return 2
        elif dim == 2 * n + 1:
            return 2 * n
    if fam == "C":
        if dim == 2 * n:
            return 2 * n - 2
        if n == 2 and dim == 5:
            return 4
    if fam == "D" and dim == 2 * n:
        return 2 * n - 2
    return datum.rank
