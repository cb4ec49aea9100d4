import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_helpers as oh
import liespectra.torus as torus_module
from liespectra import (
    ResourceLimitError,
    StratumSpec,
    UnsupportedRootSystemError,
    ValueGroupElement,
    build_root_datum,
    canonical_root_strata,
    evaluate,
    generic_regular_element,
    generic_stratum_element,
    is_central,
    is_regular,
    parse_group,
    premet_weight_set,
    separates_weights,
    spectrum,
    torus_element,
    torus_from_epsilon,
    torus_from_epsilon_text,
    torus_from_json,
    weyl_dimension,
)
from liespectra.rootdata import RootDatum
from liespectra.spectra import SpectrumKind, classify
from liespectra.torus import (
    EpsilonToken, TorusElement, parse_epsilon_shorthand, stratum_torsion_decorations,
)
from liespectra.verify import _sample_epsilon_tokens, sweep_elements


def val(torsion, free):
    return ValueGroupElement.make(Fraction(torsion), free)


def weight_set(lam):
    """premet_weight_set(lam) as sorted Weights, for the torus functions
    that take them."""
    return [lam.datum.weight(c) for c in sorted(premet_weight_set(lam))]


def test_value_group_arithmetic():
    a = val("1/2", (1, 0))
    b = val("3/4", (0, 2))
    assert (a + b).torsion == Fraction(1, 4)
    assert (a + b).free == (1, 2)
    assert oh.is_identity(a - a)
    assert (-b).torsion == Fraction(1, 4)
    assert val(0, ()).render() == "1"
    assert val("1/2", (0,)).render() == "-1"
    assert val("1/2", (2, -1)).render() == "-a^2*b^-1"


def test_identity_assignments_are_central():
    a2 = build_root_datum("A", 2)
    s = torus_element(a2, [val(0, (0,)), val(0, (0,))])
    assert is_central(s)
    assert not is_regular(s)
    # Central elements act trivially on radical weights.
    assert oh.is_identity(evaluate(s, a2.weight((1, 1))))


def test_central_nonidentity_element_is_not_regular():
    a2 = build_root_datum("A", 2)
    s = torus_element(a2, [val("1/3", ()), val("2/3", ())])
    assert is_central(s)
    assert not is_regular(s)
    assert not oh.is_identity(evaluate(s, a2.fundamental_weight(1)))


def test_split_pair_element_of_sl4():
    a3 = build_root_datum("A", 3)
    s = torus_element(a3, [val(0, (1,)), val(0, (2,)), val(0, (1,))])
    # alpha_1 = 2w1 - w2 evaluates to the identity.
    assert oh.is_identity(evaluate(s, a3.simple_roots[0]))
    assert not is_regular(s)
    assert not is_central(s)
    assert evaluate(s, a3.fundamental_weight(2)) == val(0, (2,))
    # The natural module's weights are not separated (two epsilons agree).
    assert not separates_weights(s, weight_set(a3.fundamental_weight(1)))


def test_sign_twisted_element_assignments():
    a3 = build_root_datum("A", 3)
    s = torus_from_epsilon_text(a3, "a,a,-1/a,-1/a")
    assert [(v.torsion, v.free) for v in s.assignments] == [
        (Fraction(0), (1,)),
        (Fraction(0), (2,)),
        (Fraction(1, 2), (1,)),
    ]


def test_evaluate_is_linear():
    c3 = build_root_datum("C", 3)
    rng = random.Random(4)
    s = torus_element(
        c3,
        [val(Fraction(rng.randrange(4), 4), (rng.randrange(-2, 3), rng.randrange(-2, 3)))
         for _ in range(3)],
    )
    assert oh.is_identity(evaluate(s, c3.zero()))
    for _ in range(20):
        mu = c3.weight(tuple(rng.randrange(-3, 4) for _ in range(3)))
        nu = c3.weight(tuple(rng.randrange(-3, 4) for _ in range(3)))
        assert evaluate(s, mu + nu) == evaluate(s, mu) + evaluate(s, nu)


def test_is_regular_direct_example():
    a2 = build_root_datum("A", 2)
    s = torus_element(a2, [val(0, (1,)), val(0, (3,))])
    assert is_regular(s)
    # alpha_1 -> -1, alpha_2 -> 5, highest root -> 4 in the free exponent.
    assert evaluate(s, a2.simple_roots[0]) == val(0, (-1,))
    assert evaluate(s, a2.simple_roots[1]) == val(0, (5,))


def test_b3_minus_ones_are_not_central():
    b3 = build_root_datum("B", 3)
    s = torus_from_epsilon_text(b3, "-1,-1,-1")
    # epsilon_i - epsilon_j vanishes but the short root epsilon_3 gives -1.
    assert oh.is_identity(evaluate(s, b3.simple_roots[0]))
    assert not is_central(s)
    assert not is_regular(s)


def test_equal_epsilon_values_kill_the_difference_character():
    c2 = build_root_datum("C", 2)
    s = torus_from_epsilon_text(c2, "a,a")
    # epsilon_1 - epsilon_2 is the first simple root here.
    assert oh.is_identity(evaluate(s, c2.simple_roots[0]))
    assert not is_regular(s)


def test_separates_weights_trivially_on_singletons():
    a2 = build_root_datum("A", 2)
    s = torus_element(a2, [val(0, (0,)), val(0, (0,))])
    assert separates_weights(s, {a2.rho})


def test_generic_regular_element_separates_everything():
    a2 = build_root_datum("A", 2)
    s = generic_regular_element(a2)
    assert is_regular(s)
    assert separates_weights(s, weight_set(a2.fundamental_weight(1)))
    assert separates_weights(s, weight_set(a2.weight((2, 2))))


def _pushed_forward(s, rng, k):
    """s followed by a homomorphism of the value group that keeps the
    torsion and sends each free generator of s to a random value with
    torsion denominator up to 997 and k free exponents in [-50, 50]: every
    character trivial at s stays trivial, and the free rank becomes k."""
    images = []
    for _ in range(s.free_rank):
        den = rng.randint(1, 997)
        images.append((Fraction(rng.randrange(den), den),
                       [rng.randint(-50, 50) for _ in range(k)]))
    return torus_element(s.datum, [
        (v.torsion + sum(x * t for x, (t, _) in zip(v.free, images)),
         tuple(sum(x * f[j] for x, (_, f) in zip(v.free, images)) for j in range(k)))
        for v in s.assignments
    ])


def _oracle_elements(datum, rng, draws):
    """Battery draws, the identity and torsion-only elements (free rank 0),
    for B and D an epsilon element whose symbols are squares of the
    internal generators (gen_denoms 2), and elements with torsion
    denominators up to 997 and free exponents up to 50 in size at free
    ranks 0 and 3: drawn directly (mostly regular), and pushed forward from
    root-kernel stratum elements (never regular)."""
    elements = [oh.sample_torus_element(datum, rng) for _ in range(draws)]
    elements.append(torus_element(datum, [(0, ())] * datum.rank))
    for _ in range(draws // 3):
        elements.append(torus_element(
            datum, [(Fraction(rng.randrange(12), rng.choice((1, 2, 3, 4, 6))), ())
                    for _ in range(datum.rank)],
        ))
    if datum.family in "BD":
        tokens = {"B": ["-1", "a", "1/a^3"], "D": ["i", "-a", "b", "-1/b"]}[datum.family]
        tokens = (tokens + ["1"] * datum.rank)[:datum.rank]  # cut or padded to the rank
        elements.append(torus_from_epsilon_text(datum, ",".join(tokens)))
    strata = canonical_root_strata(datum, 1)  # empty on A1 only
    for k in (0, 3):
        dens = [rng.randint(1, 997) for _ in range(datum.rank)]
        elements.append(torus_element(datum, [
            (Fraction(rng.randrange(den), den), tuple(rng.randint(-50, 50) for _ in range(k)))
            for den in dens
        ]))
        if strata:
            spec = StratumSpec(datum, rng.choice(strata))
            elements.append(_pushed_forward(generic_stratum_element(spec, rng.randrange(1 << 30)),
                                            rng, k))
    return elements


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_character_evaluation_matches_the_fraction_oracle(name):
    datum = parse_group(name)
    rng = random.Random(f"evaluate:{name}")
    roots = datum.positive_roots
    weights = (
        list(roots) + [-r for r in roots] + [datum.zero()]
        + [datum.fundamental_weight(i) for i in range(1, datum.rank + 1)]
        + [datum.weight([rng.randrange(-4, 5) for _ in range(datum.rank)]) for _ in range(20)]
    )
    # The weights of the smallest fundamental module (the natural one on
    # A3, B3, C3 and D4) and of the adjoint module (the roots and 0).
    smallest = min((datum.fundamental_weight(i) for i in range(1, datum.rank + 1)),
                   key=weyl_dimension)
    weight_sets = [weight_set(smallest), weight_set(datum.highest_root)]
    # 30 battery draws up to 24 positive roots (F4), fewer above, down to 6
    # on E8: each element is checked on every root.
    draws = min(30, max(6, 720 // len(roots)))
    seen = set()
    for s in _oracle_elements(datum, rng, draws):
        oracle = {w: oh.evaluate_oracle(s, w) for w in {*weights, *weight_sets[0], *weight_sets[1]}}
        for w in weights:
            value = evaluate(s, w)
            assert value == oracle[w] and type(value.torsion) is Fraction, (s, w)
        regular = not any(oh.is_identity(oracle[r]) for r in roots)
        central = all(oh.is_identity(oracle[a]) for a in datum.simple_roots)
        assert is_regular(s) == regular and is_central(s) == central, s
        for ws in weight_sets:
            separates = len({oracle[w] for w in ws}) == len(ws)
            assert separates_weights(s, ws) == separates, s
            seen.add(("separates", separates))
        seen.update([("regular", regular), ("central", central), ("free rank", s.free_rank > 0)])
        seen.add(("large denominator", max(v.torsion.denominator for v in s.assignments) > 12))
        if 2 in s.gen_denoms:
            seen.add("gen_denoms 2")
    # Both outcomes of every predicate, both free ranks, and both small and
    # large torsion denominators were exercised.
    assert {(key, flag) for key in ("regular", "central", "separates", "free rank",
                                    "large denominator")
            for flag in (True, False)} <= seen
    assert ("gen_denoms 2" in seen) == (datum.family in "BD")


@pytest.mark.parametrize("name", oh.RANK_AT_MOST_8)
def test_root_batches_are_the_root_columns_under_their_coordinate_bound(name):
    datum = parse_group(name)
    coords = [r.coords for r in datum.positive_roots]
    assert datum.root_coordinate_bound == max(abs(x) for c in coords for x in c)
    assert datum.positive_root_columns == tuple(zip(*coords))
    # Row i of the Cartan matrix holds coordinate i of every simple root, so
    # is_central reads the Cartan rows as its root batch.
    assert datum.cartan == tuple(zip(*(a.coords for a in datum.simple_roots)))


def test_g2_root_residues_need_the_coordinate_bound_3():
    # The positive roots (2, -1) and (-3, 2) of G2 differ by (5, -3).  At
    # free exponents (200, -8) their values are 408 and -616, and a base
    # sized for coordinates up to 2 is B = 1024 (h = 2 * 208 + 1): the two
    # residues alias.  The bound 3 gives B = 2048, where residues are equal
    # exactly where values are, and decode to them.
    g2 = parse_group("G2")
    assert g2.root_coordinate_bound == 3 and (3, -1) in g2.positive_root_coords
    s = torus_element(g2, [(0, (200,)), (0, (-8,))])
    values = [oh.evaluate_oracle(s, r) for r in g2.positive_roots]

    def residues(c):
        b, rs = s.residues(c, g2.positive_root_columns)
        return b, list(rs)

    b, rs = residues(g2.root_coordinate_bound)
    assert [s.decode({r: 1}, b)[0][0] for r in rs] == values
    assert len(set(rs)) == len(set(values)) == 6
    assert len(set(residues(2)[1])) == 5
    assert is_regular(s) and not is_central(s)


def test_root_and_separation_questions_build_no_values(monkeypatch):
    # Regularity, centrality and separation are read off residues: no
    # value is built, and the per-character key path is gone.
    for name in ("value_key", "key_value", "identity_key"):
        assert not hasattr(TorusElement, name)
    cases = []
    for name in ("A3", "B3", "D4", "G2"):
        datum = parse_group(name)
        rng = random.Random(f"no values:{name}")
        cases += [(s, weight_set(datum.highest_root)) for s in _oracle_elements(datum, rng, 30)]
    answers = [(is_regular(s), is_central(s), separates_weights(s, ws)) for s, ws in cases]
    init, made = ValueGroupElement.__init__, [0]

    def counting_init(self, torsion, free):
        made[0] += 1
        init(self, torsion, free)

    monkeypatch.setattr(ValueGroupElement, "__init__", counting_init)
    assert [(is_regular(s), is_central(s), separates_weights(s, ws)) for s, ws in cases] == answers
    assert made[0] == 0 and len(set(answers)) > 2


def test_single_root_stratum_of_sl4():
    a3 = build_root_datum("A", 3)
    spec = StratumSpec(a3, (a3.simple_roots[0],))
    s = generic_stratum_element(spec, seed=1)
    assert oh.is_identity(evaluate(s, a3.simple_roots[0]))
    assert not is_regular(s)
    assert not is_central(s)
    # Forced coincidences on the natural module are exactly the pairs whose
    # difference lies in the rational span of the kernel (trivial torsion).
    kernel_rows = [a3.simple_roots[0].coords]
    weights = weight_set(a3.fundamental_weight(1))
    for i, mu in enumerate(weights):
        for nu in weights[i + 1:]:
            collide = evaluate(s, mu) == evaluate(s, nu)
            diff = tuple(a - b for a, b in zip(mu.coords, nu.coords))
            assert collide == oh.in_rational_span_oracle(kernel_rows, diff)


def test_exact_order_torsion_forces_the_stated_kernel():
    c2 = build_root_datum("C", 2)
    long_root = c2.simple_roots[1]  # (-2, 2), index 2 quotient generator
    spec = StratumSpec(c2, (long_root,), {0: Fraction(1, 2)})
    s = generic_stratum_element(spec, seed=0)
    weights = weight_set(c2.weight((1, 1)))
    for i, mu in enumerate(weights):
        for nu in weights[i + 1:]:
            collide = evaluate(s, mu) == evaluate(s, nu)
            diff = tuple(a - b for a, b in zip(mu.coords, nu.coords))
            assert collide == oh.in_lattice_span_oracle([long_root.coords], diff)


def test_pair_stratum_with_sign_gives_the_twisted_family():
    a3 = build_root_datum("A", 3)
    kernel = (a3.simple_roots[0], a3.simple_roots[2])
    spec = StratumSpec(a3, kernel, {1: Fraction(1, 2)})
    s = generic_stratum_element(spec, seed=0)
    for w in kernel:
        assert oh.is_identity(evaluate(s, w))
    assert not is_regular(s) and not is_central(s)
    sp = spectrum(s, a3.fundamental_weight(2))
    cls = classify(sp)
    assert cls.kind is SpectrumKind.ALMOST_SIMPLE
    assert cls.max_multiplicity == 4
    assert cls.heavy_value == ValueGroupElement(Fraction(1, 2), (0,) * s.free_rank)


def test_stratum_rejections():
    a2 = build_root_datum("A", 2)
    with pytest.raises(ValueError, match="full character lattice"):
        StratumSpec(a2, (a2.fundamental_weight(1), a2.fundamental_weight(2)))
    spec = StratumSpec(a2, (a2.simple_roots[0], a2.simple_roots[1]))
    with pytest.raises(ValueError, match="central/finite"):
        generic_stratum_element(spec)
    with pytest.raises(ValueError, match="torsion choice"):
        c2 = build_root_datum("C", 2)
        generic_stratum_element(
            StratumSpec(c2, (c2.simple_roots[1],), {0: Fraction(1, 3)})
        )


def test_generic_stratum_is_deterministic():
    b3 = build_root_datum("B", 3)
    spec = StratumSpec(b3, (b3.positive_roots[0],))
    s1 = generic_stratum_element(spec, seed=9)
    s2 = generic_stratum_element(spec, seed=9)
    assert s1.assignments == s2.assignments


def test_canonical_root_strata_counts():
    a3 = build_root_datum("A", 3)
    assert len(canonical_root_strata(a3, 1)) == 1  # single length
    c2 = build_root_datum("C", 2)
    assert len(canonical_root_strata(c2, 1)) == 2  # short and long
    # Rank-2 pairs are full rank, so depth 2 adds nothing for C2.
    assert len(canonical_root_strata(c2, 2)) == 2
    b3 = build_root_datum("B", 3)
    assert len(canonical_root_strata(b3, 1)) == 2
    assert len(canonical_root_strata(b3, 2)) > 2


def test_canonical_root_strata_are_memoized_per_depth(monkeypatch):
    datum = RootDatum("B", 3)
    first = canonical_root_strata(datum, 2)
    assert isinstance(first, tuple) and all(isinstance(k, tuple) for k in first)
    calls = 0
    hnf = torus_module.hermite_normal_form

    def counting(rows):
        nonlocal calls
        calls += 1
        return hnf(rows)

    monkeypatch.setattr(torus_module, "hermite_normal_form", counting)
    assert canonical_root_strata(datum, 2) is first and calls == 0
    canonical_root_strata(datum, 1)
    assert calls > 0  # another depth is its own search


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", ["A3", "A4", "B3", "C3", "G2", "D4", "D5", "F4"])
def test_canonical_root_strata_match_the_per_generator_oracle(name, depth):
    datum = parse_group(name)
    got = [tuple(w.coords for w in kernel) for kernel in canonical_root_strata(datum, depth)]
    assert got == oh.canonical_root_strata_oracle(datum, depth)


@pytest.mark.parametrize("name,count", [
    ("D4", 5), ("D5", 4), ("D6", 4), ("F4", 7), ("B3", 6), ("C3", 6),
    ("E6", 3), ("E7", 3), ("E8", 3),
])
def test_depth_two_strata_counts(name, count):
    assert len(canonical_root_strata(parse_group(name), 2)) == count


def test_strata_reject_too_many_generator_sets_before_any_lattice_key(monkeypatch):
    # A17 has 153 positive roots: 153 + 153*152/2 = 11,781 sets at depth 2.
    datum = RootDatum("A", 17)

    def fail(rows):
        raise AssertionError("a lattice key was computed")

    monkeypatch.setattr(torus_module, "hermite_normal_form", fail)
    with pytest.raises(ResourceLimitError, match="11781 root generator sets"):
        canonical_root_strata(datum, 2)
    assert 2 not in datum._strata


@pytest.mark.parametrize("name", ["D6", "F4", "E6", "E8"])
def test_strata_lattice_keys_scale_with_generator_sets(name, monkeypatch):
    # One key per generator set plus rank many per member of each orbit: at
    # most 6.5 keys per set on these groups (E8).  A W-orbit search per
    # generator set makes 121 (F4) to 1060 (E6) keys per set.  A fresh,
    # uncached datum, so the strata memo of an earlier test cannot hide the
    # search.
    datum = RootDatum(name[0], int(name[1:]))
    p = len(datum.positive_roots)
    limit = 10 * (p + p * (p - 1) // 2)
    calls = 0
    hnf = torus_module.hermite_normal_form

    def counting(rows):
        nonlocal calls
        calls += 1
        # Fail at the limit rather than wait for a search that may take hours.
        assert calls <= limit, f"more than {limit} lattice keys"
        return hnf(rows)

    monkeypatch.setattr(torus_module, "hermite_normal_form", counting)
    canonical_root_strata(datum, 2)
    assert calls > 0


def test_torsion_decorations_for_the_long_root_stratum():
    c2 = build_root_datum("C", 2)
    spec = StratumSpec(c2, (c2.simple_roots[1],))
    decs = stratum_torsion_decorations(spec)
    assert decs == [{0: Fraction(0)}, {0: Fraction(1, 2)}]


def test_epsilon_shorthand_parsing_errors():
    with pytest.raises(ValueError, match="position 2"):
        parse_epsilon_shorthand("a,,b")
    with pytest.raises(ValueError, match="exponent"):
        parse_epsilon_shorthand("a^x,b")
    with pytest.raises(ValueError, match="bad epsilon entry"):
        parse_epsilon_shorthand("a,2b")
    a3 = build_root_datum("A", 3)
    with pytest.raises(ValueError, match="determinant one"):
        torus_from_epsilon_text(a3, "a,a,a,a")
    with pytest.raises(ValueError, match="needs 4 epsilon"):
        torus_from_epsilon_text(a3, "a,a")
    g2 = build_root_datum("G", 2)
    with pytest.raises(UnsupportedRootSystemError):
        torus_from_epsilon_text(g2, "a,b")


def test_epsilon_shorthand_supports_torsion_marks():
    c2 = build_root_datum("C", 2)
    s = torus_from_epsilon_text(c2, "i,-1")
    assert evaluate(s, c2.fundamental_weight(1)).torsion == Fraction(1, 4)
    spin = torus_from_epsilon_text(build_root_datum("B", 3), "-1,a,b")
    # The spin assignment is the canonical half of the total torsion.
    assert spin.assignments[2].torsion == Fraction(1, 4)


EPSILON_GROUPS = [f"{f}{n}" for f, ranks in (("A", range(1, 6)), ("B", range(2, 6)),
                                              ("C", range(2, 6)), ("D", (4, 5))) for n in ranks]
EPSILON_SYMBOLS = ("a", "b", "c", "x1", "t_2")


@st.composite
def epsilon_cases(draw):
    """(datum, [(torsion, powers)], shorthand text): epsilon values as
    EpsilonToken fields, and one rendering of them.  Symbol-free entries
    take torsion 0, 1/2, 1/4 or 3/4 (1, -1, i, -i); an entry with a symbol
    takes torsion 0 or 1/2.  Half the draws pair each value with its inverse
    (padded with 1), so family A also gets inputs of product 1."""
    datum = parse_group(draw(st.sampled_from(EPSILON_GROUPS)))
    count = datum.rank + (datum.family == "A")

    def value():
        if draw(st.booleans()):
            return Fraction(draw(st.integers(0, 3)), 4), {}
        return (Fraction(draw(st.integers(0, 1)), 2),
                {draw(st.sampled_from(EPSILON_SYMBOLS)): draw(st.integers(-3, 3))})

    if draw(st.booleans()):
        values = [value() for _ in range(count)]
    else:
        half = [value() for _ in range(count // 2)]
        values = half + [(-t % 1, {k: -e for k, e in powers.items()}) for t, powers in half]
        values += [(Fraction(0), {})] * (count % 2)
        values = draw(st.permutations(values))

    def render(torsion, powers):
        if not powers:
            return draw(st.sampled_from({0: ["1", "+1"], Fraction(1, 2): ["-1"],
                                         Fraction(1, 4): ["i", "+i"], Fraction(3, 4): ["-i"]}[torsion]))
        [(name, e)] = powers.items()
        forms = [f"{name}^{e}", f"1/{name}^{-e}"]
        forms += {1: [name], -1: [f"1/{name}"]}.get(e, [])
        sign = "-" if torsion else draw(st.sampled_from(["", "+"]))
        return sign + draw(st.sampled_from(forms))

    separator = draw(st.sampled_from([",", ", ", " , "]))
    return datum, values, separator.join(render(*v) for v in values)


@settings(max_examples=150, deadline=None)
@given(epsilon_cases())
def test_epsilon_text_builds_the_element_of_its_tokens(case):
    datum, values, text = case

    def outcome(build):
        try:
            s = build()
        except ValueError as err:
            return "ValueError", str(err)
        return s.assignments, s.gen_names, s.gen_denoms

    tokens = [EpsilonToken(t, powers) for t, powers in values]
    assert outcome(lambda: torus_from_epsilon_text(datum, text)) == outcome(
        lambda: torus_from_epsilon(datum, tokens)), text


EPSILON_ROW_GROUPS = [f"{f}{n}" for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                      for n in range(lo, 9)]


def _epsilon_row_tokens(datum, seed, sampled):
    """Epsilon tokens for the row property: ``_sample_epsilon_tokens``, or
    tokens with random torsion of order <= 12 and up to two of three
    symbols; family A's last token is the inverse of the others' product."""
    rng = random.Random(seed)
    if sampled:
        return _sample_epsilon_tokens(datum, rng)
    width = datum.rank + (datum.family == "A")
    tokens = []
    for _ in range(width):
        order = rng.randint(1, 12)
        powers = {rng.choice("abc"): rng.randint(-3, 3) for _ in range(rng.randrange(3))}
        tokens.append(EpsilonToken(Fraction(rng.randrange(order), order), powers))
    if datum.family == "A":
        total = {}
        for tok in tokens[:-1]:
            for name, e in tok.powers.items():
                total[name] = total.get(name, 0) - e
        tokens[-1] = EpsilonToken(-sum(tok.torsion for tok in tokens[:-1]), total)
    return tokens


def _d_spin_branches_agree(tokens):
    """True iff the [0, 1/2) halves of the torsions of e_1 + ... + e_(n-1)
    -+ e_n, which D_n takes for its two spin weights, add up to the torsion
    of e_1 + ... + e_(n-1)."""
    a, u = sum(tok.torsion for tok in tokens[:-1]), tokens[-1].torsion
    return ((a - u) % 1 / 2 + (a + u) % 1 / 2 - a) % 1 == 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EPSILON_ROW_GROUPS), st.integers(0, 2**32), st.booleans())
@example("A32", 1, True)
@example("B32", 2, False)
@example("C32", 3, True)
@example("D32", 4, True)
def test_epsilon_elements_take_the_values_of_the_epsilon_realization(group, seed, sampled):
    # The epsilon-vectors come from the oracle, not from the datum: every
    # positive root and every e_k is worth sum_k x_k token_k (torsion mod 1,
    # free exponents doubled on B and D, whose symbols are squares of the
    # generators), and twice a spin weight is worth the value of twice its
    # epsilon-vector, its own value taking the torsion branch in [0, 1/2).
    datum = parse_group(group)
    family, n = datum.family, datum.rank
    tokens = _epsilon_row_tokens(datum, seed, sampled)
    s = torus_from_epsilon(datum, tokens)
    names = []
    for tok in tokens:
        names += [name for name in tok.powers if name not in names]
    scale = 2 if family in "BD" else 1
    assert s.gen_names == tuple(names) and s.gen_denoms == (scale,) * len(names)

    def expected(x):
        return ValueGroupElement(
            sum(c * tok.torsion for c, tok in zip(x, tokens)) % 1,
            tuple(scale * sum(c * tok.powers.get(name, 0) for c, tok in zip(x, tokens))
                  for name in names))

    # Twice each spin weight: e_1 + ... + e_n, and e_1 + ... + e_(n-1) - e_n on D.
    doubled = {"B": [[1] * n], "D": [[1] * (n - 1) + [-1], [1] * n]}.get(family, [])
    for x, coords in zip(doubled, oh.epsilon_pairings_oracle(family, n, doubled)):
        assert all(c % 2 == 0 for c in coords)
        v = evaluate(s, datum.weight([c // 2 for c in coords]))
        assert v + v == expected(x) and v.torsion < Fraction(1, 2), (x, tokens)
    if family == "D" and not _d_spin_branches_agree(tokens):
        return  # test_a_signed_last_epsilon_value_keeps_its_sign_on_d
    width = len(tokens)
    vectors = [[root.get(k, 0) for k in range(width)]
               for root in oh.classical_roots_eps_oracle(family, n)]
    vectors += [[int(k == j) for k in range(width)] for j in range(width)]
    for x, coords in zip(vectors, oh.epsilon_pairings_oracle(family, n, vectors)):
        assert evaluate(s, datum.weight(coords)) == expected(x), (x, tokens)


@pytest.mark.xfail(strict=True, reason="D_n takes the torsion branch of each spin weight "
                                       "on its own, so the two can disagree")
def test_a_signed_last_epsilon_value_keeps_its_sign_on_d():
    # Known defect: on D4, 'a,b,c,-d' gives omega_3 and omega_4 the torsion
    # 1/4 each, whose sum 1/2 is not the value 0 of e_1 + e_2 + e_3.  So
    # e_4 = omega_4 - omega_3 is worth d, not -d, and e_3 is worth -c; the
    # natural module's spectrum moves the sign from d to c.
    d4 = parse_group("D4")
    s = torus_from_epsilon_text(d4, "a,b,c,-d")
    assert evaluate(s, d4.weight((0, 0, -1, 1))) == val(Fraction(1, 2), (0, 0, 0, 2))


def test_torus_json_roundtrip():
    a3 = build_root_datum("A", 3)
    s = torus_from_epsilon_text(a3, "a,a,-1/a,-1/a")
    payload = s.to_json()
    again = torus_from_json(a3, payload)
    assert again.assignments == s.assignments
    with pytest.raises(ValueError, match="bad torus element JSON"):
        torus_from_json(a3, {"wrong": []})
    for item in ({"torsion": float("inf")}, {"free": [float("-inf")]}):
        with pytest.raises(ValueError, match="bad torus element JSON"):
            torus_from_json(a3, {"omega_values": [item, {}, {}]})


@st.composite
def torus_elements(draw):
    datum = parse_group(draw(st.sampled_from(["A1", "A3", "B3", "C2", "D4", "G2", "F4", "E6"])))
    k = draw(st.integers(0, 3))
    assignments = []
    for _ in range(datum.rank):
        den = draw(st.integers(1, 997))
        assignments.append((Fraction(draw(st.integers(0, den - 1)), den),
                            tuple(draw(st.integers(-10**6, 10**6)) for _ in range(k))))
    return torus_element(datum, assignments)


@settings(max_examples=60, deadline=None)
@given(torus_elements())
def test_torus_element_round_trips_through_json(s):
    back = torus_from_json(s.datum, json.loads(json.dumps(s.to_json())))
    assert back.assignments == s.assignments
    roots = s.datum.positive_roots
    assert [evaluate(back, r) for r in roots] == [evaluate(s, r) for r in roots]


@pytest.mark.parametrize("name,calls", [("D4", 13), ("F4", 15), ("G2", 4)])
def test_a_sweep_runs_one_smith_form_per_kernel_and_per_decorated_spec(name, calls, monkeypatch):
    datum = parse_group(name)
    canonical_root_strata(datum, 2)
    count = 0
    snf = torus_module.smith_normal_form

    def counting(rows):
        nonlocal count
        count += 1
        return snf(rows)

    monkeypatch.setattr(torus_module, "smith_normal_form", counting)
    sweep_elements(datum, 2)
    assert count == calls


STRATA_GROUPS = ([f"A{r}" for r in range(1, 8)] + [f"B{r}" for r in range(2, 7)]
                 + [f"C{r}" for r in range(2, 7)] + [f"D{r}" for r in range(4, 8)]
                 + ["E6", "E7", "F4", "G2"])


@pytest.mark.parametrize("name", STRATA_GROUPS)
def test_every_decorated_stratum_element_is_non_regular_and_non_central(name):
    # sweep_elements keeps every element without testing it: its kernel
    # holds a root, and has rank below n, so it cannot hold the root lattice.
    datum = parse_group(name)
    for depth in (1, 2):
        for kernel in canonical_root_strata(datum, depth):
            for decoration in stratum_torsion_decorations(StratumSpec(datum, kernel)):
                s = generic_stratum_element(StratumSpec(datum, kernel, decoration))
                assert not is_regular(s) and not is_central(s), s.label
