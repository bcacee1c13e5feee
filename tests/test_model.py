import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacomp import corpus, modelio
from pacomp.algebra import Box, Polynomial, PolyTable, parse_poly, region_samples
from pacomp.errors import ActionAlphabetClash, AlphabetMismatch
from pacomp.model import (
    DFA,
    WellDefinedness,
    alphabet_extend,
    canonical_form,
    compose,
    dfa_forbid_symbols,
    dfa_product,
    dirac,
    instantiate,
    isomorphic,
    make_ppa,
    sort_key,
    tau_extend,
    tau_parts,
    unit_ppa,
    well_defined,
    well_definedness,
)

from pacomp.robust import pa_reduce

from helpers import (
    random_pa,
    random_parametric_pair,
    random_polytopic_rpa,
    random_safety_dfa,
    well_defined_reference,
)

P = Polynomial.var("p")
Q = Polynomial.var("q")
ONE = Polynomial.const(1)


def test_instantiate_pipeline_entry():
    m2 = corpus.pipeline_component()
    inst = instantiate(m2, {"p": F(1, 10), "q": F(1, 10)})
    assert inst.dist("t0", "t0_a") == {"t1": F(9, 10), "t2": F(1, 10)}
    assert inst.params == frozenset()


def test_instantiate_pa_identity():
    pa = corpus.handoff_fixed()
    again = instantiate(pa, {})
    assert again.trans.keys() == pa.trans.keys()
    assert again.dist("s1", "s1_b") == pa.dist("s1", "s1_b")


def test_instantiate_out_of_range_is_representable():
    m1 = corpus.retry_component()
    inst = instantiate(m1, {"p": 2})
    assert inst.trans[("s0", "s0_a")]["s1"] == F(-1)
    assert well_defined(m1, {"p": 2}) is WellDefinedness.NEITHER


def _rebuild(m, params, entry):
    trans = {key: (m.label[key], {t: entry(p) for t, p in dist.items()})
             for key, dist in m.trans.items()}
    return make_ppa(m.states, m.initial, params, trans, m.alphabet)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 4))
def test_parameters_decide_the_entry_form(seed, k):
    rng = random.Random(seed)
    m1, m2 = random_parametric_pair(rng)
    pa = random_pa(rng, "x", rng.randint(1, 4), ["a", "c"])
    v = {"p": F(k, 4)}
    for m in (m1, m2, compose(m1, m2), compose(m1, pa)):
        inst = instantiate(m, v)
        for model in (inst,) + (inst.composed_of or ()):
            assert all(type(p) is F for d in model.trans.values() for p in d.values())
        assert m.params and not m.is_pa
        assert not inst.params and inst.is_pa
        # a parameter-free model holds the same Fractions however they are passed
        as_poly = _rebuild(inst, (), Polynomial.const)
        as_rational = _rebuild(inst, (), lambda q: q)
        assert as_poly == as_rational == inst
        assert canonical_form(as_poly) == canonical_form(as_rational)
    assert pa.is_pa and instantiate(pa, v) == pa


def test_undeclared_parameters_are_rejected():
    m1 = corpus.retry_component()
    with pytest.raises(ValueError, match=r"undeclared parameters \['p'\]"):
        _rebuild(m1, (), lambda p: p)
    with pytest.raises(ValueError, match=r"undeclared parameters \['p'\]"):
        _rebuild(m1, {"q"}, lambda p: p)
    # constant entries stay polynomials when the model declares parameters
    assert not _rebuild(corpus.handoff_fixed(), {"p"}, lambda p: p).is_pa


def test_well_defined_trichotomy():
    m1 = corpus.retry_component()
    assert well_defined(m1, {"p": F(1, 10)}) is WellDefinedness.GRAPH_PRESERVING
    assert well_defined(m1, {"p": 0}) is WellDefinedness.WELL_DEFINED


def _oracle_models(rng):
    """pPAs over p and q whose compositions have entries of degree 2 and 3
    with negative coefficients, a PA, and a pPA composed with the PA."""
    m1, m2 = random_parametric_pair(rng)
    _, n2 = random_parametric_pair(rng, ("q",))
    pa = random_pa(rng, "x", rng.randint(1, 3), ["a", "c"])
    return [corpus.retry_component(), m1, m2, compose(m1, m2), compose(m1, n2),
            compose(compose(m1, m2), n2), pa, compose(m1, pa)]


# p reaches below 0 and above 1, so every WellDefinedness value occurs
_ORACLE_BOX = Box.of({"p": (F(-1, 2), F(3, 2)), "q": (F(0), F(1, 3))})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_poly_table_vector_matches_evaluate(seed, resolution):
    rng = random.Random(seed)
    entries = [p for m in _oracle_models(rng) for d in m.trans.values() for p in d.values()]
    monos = [(), (("p", 1),), (("q", 1),), (("p", 2),), (("p", 1), ("q", 1)), (("q", 3),)]
    entries += [
        Polynomial({mono: F(rng.randint(-9, 9), rng.randint(1, 12)) for mono in monos})
        for _ in range(3)
    ]
    table = PolyTable()
    slots = [table.slot(p) for p in entries]
    assert len(table.polys) == len(set(slots))
    for v in region_samples(_ORACLE_BOX, resolution):
        den, nums = table.at(v)
        assert type(den) is int and den > 0
        assert len(nums) == len(table.polys) and all(type(n) is int for n in nums)
        for p, k in zip(entries, slots):
            assert F(nums[k], den) == Polynomial.coerce(p).evaluate(v)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_well_defined_matches_entrywise_reference(seed):
    models = _oracle_models(random.Random(seed))
    seen = set()
    for v in region_samples(_ORACLE_BOX, 3):  # p in {-1/2, 0, 1/2, 1, 3/2}
        for m in models:
            want = well_defined_reference(m, v)
            assert well_defined(m, v) is want
            seen.add(want)
        # one table for all models decides their joint kind
        table = PolyTable()
        kind = well_definedness(table, models)(table.at(v))
        kinds = {well_defined_reference(m, v) for m in models}
        if WellDefinedness.NEITHER in kinds:
            assert kind is WellDefinedness.NEITHER
        else:
            assert (kind is WellDefinedness.GRAPH_PRESERVING) == (
                kinds == {WellDefinedness.GRAPH_PRESERVING})
    assert seen == set(WellDefinedness)


def test_constant_rows_are_checked_at_the_first_vector_only():
    pa, m = corpus.handoff_fixed(), corpus.retry_component()
    table = PolyTable()
    kind = well_definedness(table, [pa, m])
    den, nums = table.at({"p": F(1, 10)})
    assert kind((den, nums)) is WellDefinedness.GRAPH_PRESERVING
    # the PA's entries cannot change with the valuation, so a later vector
    # is read only at the parametric rows
    constant = {k for k, p in enumerate(table.polys)
                if not isinstance(p, Polynomial) or p.is_constant()}
    assert constant and len(constant) < len(nums)
    later = table.at({"p": 0})
    broken = [-1 if k in constant else n for k, n in enumerate(later[1])]
    assert kind((later[0], broken)) is WellDefinedness.WELL_DEFINED
    assert kind(table.at({"p": 2})) is WellDefinedness.NEITHER


def test_compose_structure():
    comp = compose(corpus.retry_component(), corpus.pipeline_component())
    assert len(comp.states) == 10
    sync_labels = {comp.label[key] for key in comp.trans if key[1][0] not in comp.alphabet and key[1][1] not in comp.alphabet}
    assert sync_labels == {"a", "c"}


def test_compose_unit_law():
    m1 = corpus.retry_component()
    assert isomorphic(compose(m1, unit_ppa()), m1)
    assert isomorphic(compose(unit_ppa(), m1), m1)


def test_compose_product_entry():
    # synchronized product entry over independent parameters
    left = make_ppa(
        ["s0", "s1"], "s0", {"p"},
        {("s0", "x"): ("a", {"s0": P, "s1": ONE - P})},
        {"a"},
    )
    right = make_ppa(
        ["t0", "t1", "t2"], "t0", {"q"},
        {("t0", "y"): ("a", {"t1": ONE - Q, "t2": Q})},
        {"a"},
    )
    comp = compose(left, right)
    dist = comp.dist(("s0", "t0"), ("x", "y"))
    assert dist[("s1", "t1")] == parse_poly("(1-p)*(1-q)")


def test_compose_action_clash_rejected():
    # the action id "c" is fine for this model alone but collides with the
    # other component's alphabet, which the composition must reject
    bad = make_ppa(["u"], "u", set(), {("u", "c"): ("x", dirac("u"))}, {"x"})
    with pytest.raises(ActionAlphabetClash):
        compose(bad, corpus.retry_component())


def test_instantiate_commutes_with_compose():
    rng = random.Random(5)
    for _ in range(15):
        m1, m2 = random_parametric_pair(rng)
        v = {"p": F(rng.randint(0, 4), 4)}
        left = instantiate(compose(m1, m2), v)
        right = compose(instantiate(m1, v), instantiate(m2, v))
        assert left.trans.keys() == right.trans.keys()
        for key in left.trans:
            assert left.dist(*key) == right.dist(*key)


def test_compose_associative_up_to_renaming():
    rng = random.Random(9)
    for _ in range(10):
        a = random_pa(rng, "a", 2, ["a", "b"])
        b = random_pa(rng, "b", 2, ["a", "c"])
        c = random_pa(rng, "c", 2, ["b", "c"])
        assert isomorphic(compose(compose(a, b), c), compose(a, compose(b, c)))


def test_alphabet_extend_examples():
    m2 = corpus.pipeline_component()
    ext = alphabet_extend(m2, {"a", "b"})
    loops = [key for key in ext.trans if key[1] == ("loop", "b")]
    assert len(loops) == len(m2.states)
    assert all(ext.label[key] == "b" for key in loops)
    # existing transitions untouched
    assert ext.dist("t0", "t0_a") == m2.dist("t0", "t0_a")
    # nothing new for symbols already present
    assert alphabet_extend(m2, {"a", "c"}).trans.keys() == m2.trans.keys()
    # accumulation equals one-shot union
    twice = alphabet_extend(alphabet_extend(m2, {"b"}), {"x"})
    once = alphabet_extend(m2, {"b", "x"})
    assert twice.trans.keys() == once.trans.keys()
    assert twice.alphabet == once.alphabet


def test_tau_extend_structure():
    m1 = corpus.handoff_fixed()
    ext = tau_extend(m1)
    sink, tau_sym, tau_act = tau_parts(ext)
    assert len(ext.states) == 3
    assert len(ext.trans) == len(m1.trans) + 3  # one per original state + sink loop
    assert ext.label[(m1.initial, tau_act)] == tau_sym
    # graph-preservation agrees between the model and its extension
    m = corpus.retry_component()
    for v in ({"p": F(1, 10)}, {"p": 0}, {"p": 1}):
        assert well_defined(m, v) is well_defined(tau_extend(m), v)


def test_dfa_product_counts_and_bad_states():
    comp = instantiate(
        compose(corpus.retry_component(), corpus.pipeline_component()),
        {"p": F(1, 10), "q": F(1, 10)},
    )
    product, bad = dfa_product(comp, corpus.no_fail_dfa())
    assert len(product.states) == len(comp.states) * 2
    assert bad == frozenset((s, "bad") for s in comp.states)
    # a DFA accepting nothing marks no bad states
    product2, bad2 = dfa_product(comp, dfa_forbid_symbols((), comp.alphabet))
    assert bad2 == frozenset()


def test_dfa_product_commutes_with_instantiation():
    m2 = corpus.pipeline_component()
    dfa = dfa_forbid_symbols({"fail"}, {"a", "c", "fail"})
    v = {"p": F(1, 5), "q": F(2, 5)}
    left, _ = dfa_product(m2, dfa)
    left = instantiate(left, v)
    right, _ = dfa_product(instantiate(m2, v), dfa)
    assert isomorphic(left, right)


def test_dfa_product_alphabet_mismatch():
    m1 = corpus.retry_component()
    stray = dfa_forbid_symbols({"z"}, {"a", "z"})
    with pytest.raises(AlphabetMismatch):
        dfa_product(m1, stray)


_IDS = ("z", "a", 0, 3, F(1, 2), F(-2), ("a", 1), ("a", F(1, 3)), ("b",), (("a",), "c"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_enabled_is_the_sort_key_order(seed):
    # `make_ppa` sorts the actions once and `enabled` keeps their rank, so it
    # must list a state's actions as sorting them by `sort_key` would
    rng = random.Random(seed)
    mixed = make_ppa(["s", "t"], "s", set(), {
        (rng.choice("st"), a): ("go", {rng.choice("st"): F(1)})
        for a in rng.sample(_IDS, rng.randint(1, len(_IDS)))
    }, {"go"})
    m1 = random_pa(rng, "x", rng.randint(2, 4), ["a", "b"])
    m2 = random_pa(rng, "y", rng.randint(2, 4), ["a", "c"])
    both = compose(m1, m2)
    product, _ = dfa_product(both, random_safety_dfa(rng, ["a", "b", "c"]))
    reduced = pa_reduce(random_polytopic_rpa(rng, "u", ["a", "b"], rng.randint(2, 4)))
    for m in (mixed, m1, both, product, reduced):
        at = {}
        for s, a in m.trans:
            at.setdefault(s, []).append(a)
        for s in m.states:
            assert m.enabled(s) == sorted(at.get(s, []), key=sort_key)


def test_model_roundtrip_all_bundled():
    for m in (
        corpus.retry_component(),
        corpus.pipeline_component(),
        corpus.handoff_fixed(),
        corpus.handoff_parametric(),
        corpus.split_responder(),
    ):
        doc = modelio.ppa_to_jsonable(m)
        back = modelio.ppa_from_jsonable(doc)
        assert back.trans.keys() == m.trans.keys()
        assert modelio.ppa_to_jsonable(back) == doc
    # composed models round-trip including tuple identifiers
    comp = compose(corpus.retry_component(), corpus.pipeline_component())
    doc = modelio.ppa_to_jsonable(comp)
    assert modelio.ppa_to_jsonable(modelio.ppa_from_jsonable(doc)) == doc


def test_roundtrip_randomized():
    rng = random.Random(21)
    for _ in range(10):
        m = random_pa(rng, "m", 3, ["a", "b", "c"])
        doc = modelio.ppa_to_jsonable(m)
        assert modelio.ppa_to_jsonable(modelio.ppa_from_jsonable(doc)) == doc


def test_dfa_rejects_undeclared_states():
    alphabet = frozenset({"a"})
    with pytest.raises(ValueError, match="initial state"):
        DFA(("ok",), "nowhere", alphabet, {("ok", "a"): "ok"}, frozenset())
    with pytest.raises(ValueError, match="undeclared state"):
        DFA(("ok",), "ok", alphabet, {("ok", "a"): "bad"}, frozenset())
    with pytest.raises(ValueError, match="accepting state not declared: 'bad'"):
        DFA(("ok",), "ok", alphabet, {("ok", "a"): "ok"}, frozenset({"bad"}))
