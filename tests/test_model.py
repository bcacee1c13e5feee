import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacomp import corpus, modelio
from pacomp.algebra import (
    Box,
    FiniteRegion,
    Polynomial,
    PolyTable,
    RegionUnion,
    parse_poly,
    region_samples,
)
from pacomp.errors import ActionAlphabetClash, AlphabetMismatch
from pacomp.model import (
    DFA,
    TAU_ACTION,
    TAU_SINK,
    TAU_SYMBOL,
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
    slotted,
    sort_key,
    tau_extend,
    unit_ppa,
    well_defined,
    well_definedness,
)

from pacomp.robust import conv_compose, make_rpa, pa_reduce
from pacomp.semantics import MemorylessStrategy
from pacomp.verify import ProbObjective, RewardObjective

from helpers import (
    random_dist,
    random_interval_set,
    random_pa,
    random_parametric_pair,
    random_poly,
    random_polytopic_rpa,
    random_safety_dfa,
    random_tabular_strategy,
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


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(0, 4))
def test_parameters_decide_the_entry_form(seed, k):
    rng = random.Random(seed)
    m1, m2 = random_parametric_pair(rng)
    pa = random_pa(rng, "x", rng.randint(1, 4), ["a", "c"])
    v = {"p": F(k, 4)}
    for m in (m1, m2, compose(m1, m2), compose(m1, pa)):
        inst = instantiate(m, v)
        assert all(type(p) is F for d in inst.trans.values() for p in d.values())
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


@settings(max_examples=30)
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


@settings(max_examples=40)
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_poly_table_vector_matches_evaluate_at_every_parameter_count(seed, count):
    """A table over no parameter, one, two or three: `random_poly`'s
    polynomials over p, q, r keep the terms in the first `count` of them,
    beside each such parameter alone and a rational, and every slot's
    nums[k] / D equals `Polynomial.evaluate` at valuations with negative,
    zero and fractional values."""
    rng = random.Random(seed)
    names = ("p", "q", "r")[:count]
    entries = [Polynomial.var(name) for name in names]
    entries += [
        Polynomial({mono: c for mono, c in random_poly(rng).terms.items()
                    if all(var in names for var, _ in mono)})
        for _ in range(rng.randint(1, 6))
    ]
    entries.append(F(rng.randint(-5, 5), rng.randint(1, 7)))
    table = PolyTable()
    slots = [table.slot(p) for p in entries]
    for _ in range(4):
        v = {name: F(rng.randint(-6, 6), rng.randint(1, 5)) for name in names}
        den, nums = table.at(v)
        assert type(den) is int and den > 0
        assert len(nums) == len(table.polys) and all(type(n) is int for n in nums)
        for p, k in zip(entries, slots):
            assert F(nums[k], den) == Polynomial.coerce(p).evaluate(v)


@settings(max_examples=30)
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
        rows = [row for m in models for row in slotted(m, table).values()]
        kind = well_definedness(table, rows)(table.at(v))
        kinds = {well_defined_reference(m, v) for m in models}
        if WellDefinedness.NEITHER in kinds:
            assert kind is WellDefinedness.NEITHER
        else:
            assert (kind is WellDefinedness.GRAPH_PRESERVING) == (
                kinds == {WellDefinedness.GRAPH_PRESERVING})
    assert seen == set(WellDefinedness)


def test_constant_rows_are_checked_at_every_vector():
    pa, m = corpus.handoff_fixed(), corpus.retry_component()
    table = PolyTable()
    kind = well_definedness(table, [row for model in (pa, m)
                                    for row in slotted(model, table).values()])
    den, nums = table.at({"p": F(1, 10)})
    assert kind((den, nums)) is WellDefinedness.GRAPH_PRESERVING
    # a vector that breaks only the PA's constant entries is caught, at a
    # later vector as at the first
    constant = {k for k, p in enumerate(table.polys)
                if not isinstance(p, Polynomial) or p.is_constant()}
    assert constant and len(constant) < len(nums)
    later = table.at({"p": 0})
    assert kind(later) is WellDefinedness.WELL_DEFINED
    broken = [-1 if k in constant else n for k, n in enumerate(later[1])]
    assert kind((later[0], broken)) is WellDefinedness.NEITHER
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
    # other component's alphabet, which the composition must reject; so do
    # a model whose own alphabet names it and an extension by the symbol "c"
    bad = make_ppa(["u"], "u", set(), {("u", "c"): ("x", dirac("u"))}, {"x"})
    for clash in (lambda: compose(bad, corpus.retry_component()),
                  lambda: make_ppa(["u"], "u", set(), {("u", "c"): ("x", dirac("u"))}, {"x", "c"}),
                  lambda: alphabet_extend(bad, {"c"})):
        with pytest.raises(ActionAlphabetClash):
            clash()


@settings(max_examples=15)
@given(st.integers(0, 2**32))
def test_instantiate_commutes_with_compose(seed):
    rng = random.Random(seed)
    m1, m2 = random_parametric_pair(rng)
    v = {"p": F(rng.randint(0, 4), 4)}
    left = instantiate(compose(m1, m2), v)
    right = compose(instantiate(m1, v), instantiate(m2, v))
    assert left.trans.keys() == right.trans.keys()
    for key in left.trans:
        assert left.dist(*key) == right.dist(*key)


@settings(max_examples=10)
@given(st.integers(0, 2**32))
def test_compose_associative_up_to_renaming(seed):
    rng = random.Random(seed)
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
    assert len(ext.states) == 3
    assert len(ext.trans) == len(m1.trans) + 3  # one per original state + sink loop
    assert ext.label[(m1.initial, TAU_ACTION)] == TAU_SYMBOL
    assert ext.trans[(m1.initial, TAU_ACTION)] == {TAU_SINK: 1}
    # graph-preservation agrees between the model and its extension
    m = corpus.retry_component()
    for v in ({"p": F(1, 10)}, {"p": 0}, {"p": 1}):
        assert well_defined(m, v) is well_defined(tau_extend(m), v)


def test_tau_extend_avoids_the_names_a_model_already_uses():
    m = make_ppa([TAU_SINK, "s"], TAU_SINK, set(),
                 {(TAU_SINK, TAU_ACTION): (TAU_SYMBOL, {"s": 1}),
                  ("s", "a"): ("b", {TAU_SINK: 1})},
                 {TAU_SYMBOL, "b"})
    ext = tau_extend(m)
    sink, symbol, action = (TAU_SINK,), TAU_SYMBOL + "'", (TAU_ACTION,)
    assert set(ext.states) == {TAU_SINK, "s", sink}
    assert ext.alphabet == {TAU_SYMBOL, "b", symbol}
    assert ext.trans.keys() == m.trans.keys() | {(s, action) for s in ext.states}
    for key in m.trans:
        assert ext.trans[key] == m.trans[key] and ext.label[key] == m.label[key]
    for s in ext.states:
        assert ext.label[(s, action)] == symbol and ext.trans[(s, action)] == {sink: 1}


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


@settings(max_examples=40)
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
        doc = modelio.dump_document(m)
        back = modelio.load_document(doc)
        assert back.trans.keys() == m.trans.keys()
        assert modelio.dump_document(back) == doc
    # composed models round-trip including tuple identifiers
    comp = compose(corpus.retry_component(), corpus.pipeline_component())
    doc = modelio.dump_document(comp)
    assert modelio.dump_document(modelio.load_document(doc)) == doc


def _documents(rng):
    """One object of every document type `dump_document` writes, drawn at random."""
    rat = lambda: F(rng.randint(-5, 9), rng.randint(1, 6))  # noqa: E731
    m1, m2 = random_parametric_pair(rng, ("p", "q"))
    pa = random_pa(rng, "x", rng.randint(1, 4), ["a", "b"])
    u1 = random_polytopic_rpa(rng, "u", ["a", "b"], rng.randint(1, 3))
    u2 = random_polytopic_rpa(rng, "v", ["a", "c"], rng.randint(1, 3))
    states = ["i0", "i1", "i2"]
    interval = make_rpa(states, "i0", {(s, f"{s}_a"): ("a", random_interval_set(rng, states))
                                       for s in states}, {"a"})
    vertex = conv_compose(u1, u2)  # vertex sets only, over tuple identifiers
    reduced = pa_reduce(vertex)  # actions (a, vertex) with rational entries
    dfa = random_safety_dfa(rng, {"a", "b"}, rng.randint(1, 3))
    cmp = lambda: rng.choice(["<", "<=", ">", ">="])  # noqa: E731
    rewards = (("a", parse_poly(f"{rng.randint(0, 3)}*p + {rng.randint(0, 3)}/7")), ("b", abs(rat())))
    query = (ProbObjective(cmp(), rat(), dfa, rng.choice(["", "safe"])),
             RewardObjective(cmp(), rat(), rewards, rng.choice(["", "cost"])))
    box = Box.of({name: sorted([rat(), rat()]) for name in rng.sample(["p", "q", "r"], 2)})
    finite = FiniteRegion.of([{"p": rat(), "q": rat()} for _ in range(rng.randint(0, 3))])
    memoryless = MemorylessStrategy(
        {s: random_dist(rng, reduced.enabled(s)) for s in reduced.states if reduced.enabled(s)},
        complete=rng.random() < 0.5)
    # horizon 2 over `reduced`: at horizon 3 one draw in a hundred tabulated
    # megabytes of histories, seconds of linear decoding that cover nothing more
    return [m1, compose(m1, m2), pa, reduced, interval, vertex, u1, dfa, query, box, finite,
            RegionUnion.of([box, finite, RegionUnion.of([box])]), memoryless,
            random_tabular_strategy(rng, reduced, 2, complete=rng.random() < 0.5),
            random_tabular_strategy(rng, m1, 2)]


@settings(max_examples=40)
@given(st.integers(0, 2**32))
def test_every_document_type_round_trips(seed):
    # decoding a document gives back the object it was dumped from, and
    # encoding that gives back the document, key order included, for every
    # type `dump_document` writes
    for x in _documents(random.Random(seed)):
        doc = modelio.dump_document(x)
        back = modelio.load_document(doc)
        assert back == x
        assert json.dumps(modelio.dump_document(back)) == json.dumps(doc)


def test_dfa_rejects_undeclared_states():
    alphabet = frozenset({"a"})
    with pytest.raises(ValueError, match="initial state"):
        DFA(("ok",), "nowhere", alphabet, {("ok", "a"): "ok"}, frozenset())
    with pytest.raises(ValueError, match="undeclared state"):
        DFA(("ok",), "ok", alphabet, {("ok", "a"): "bad"}, frozenset())
    with pytest.raises(ValueError, match="accepting state not declared: 'bad'"):
        DFA(("ok",), "ok", alphabet, {("ok", "a"): "ok"}, frozenset({"bad"}))
