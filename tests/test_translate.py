import hashlib
from itertools import product

import pytest

from bindsig import (
    ArrowSort,
    Assignment,
    BaseSort,
    Op,
    ParamRef,
    Placeholder,
    Renaming,
    SortRef,
    TypeMorphism,
    Var,
    XorShift64Star,
    builtin,
    builtin_table,
    enumerate_terms,
    identity_table,
    make_table,
    map_context,
    mk_op,
    parse_table,
    print_term,
    random_term,
    rename,
    sort_of,
    subst,
    translate_term,
)
from bindsig.errors import (
    ArityMismatch,
    IllFormed,
    MalformedSort,
    MissingClause,
    OffsetMismatch,
    ParamArityMismatch,
    ScopeError,
    SortMismatch,
    TypeSystemMismatch,
    UnknownBuiltin,
)
from bindsig.sigdef import _parsed_builtin, sorts_up_to_depth
from bindsig.translate import _parsed_table

STAR = BaseSort("*")
IOTA = BaseSort("iota")
ARR = ArrowSort(IOTA, IOTA)


@pytest.fixture(scope="module")
def fol2ll():
    return builtin_table("fol2ll")


@pytest.fixture(scope="module")
def stlc2ulc():
    return builtin_table("stlc2ulc")


def erase_morphism(stlc, ulc):
    return TypeMorphism.collapse(stlc.types, ulc.types)


# ---------------------------------------------------------------------------
# type morphisms and context images


def test_map_context_collapse(stlc, ulc):
    g = erase_morphism(stlc, ulc)
    assert map_context(g, (ARR, IOTA)) == (STAR, STAR)


def test_map_context_empty(stlc, ulc):
    assert map_context(erase_morphism(stlc, ulc), ()) == ()


def test_map_context_homomorphic_base_swap():
    from bindsig import TypeSystem

    two = TypeSystem(("a", "b"), arrow_enabled=True)
    g = TypeMorphism(two, two, {"a": BaseSort("b"), "b": BaseSort("a")})
    got = map_context(g, (ArrowSort(BaseSort("a"), BaseSort("b")),))
    assert got == (ArrowSort(BaseSort("b"), BaseSort("a")),)


def test_map_context_commutes_with_extension(stlc, ulc):
    g = erase_morphism(stlc, ulc)
    ctx = (IOTA,)
    bound = (ARR, IOTA)
    assert map_context(g, bound + ctx) == map_context(g, bound) + map_context(g, ctx)


def test_homomorphic_needs_target_arrows(stlc, ulc):
    with pytest.raises(TypeSystemMismatch):
        TypeMorphism(stlc.types, ulc.types, {"iota": STAR}, "homomorphic")


def test_collapse_needs_untyped_target(stlc):
    with pytest.raises(TypeSystemMismatch):
        TypeMorphism.collapse(stlc.types, stlc.types)


@pytest.mark.parametrize(
    "target, base_map, mode, message",
    [
        ("stlc", {"iota": IOTA}, "erase", "unknown arrow mode 'erase'"),
        ("stlc", {"iota": IOTA}, "collapse", "collapse mode needs an untyped target"),
        ("stlc", {}, "homomorphic", "base sort 'iota' has no image"),
        ("ulc", {"iota": STAR}, "homomorphic", "homomorphic mode needs arrows in the target"),
    ],
)
def test_type_morphism_validation_messages(stlc, target, base_map, mode, message):
    with pytest.raises(TypeSystemMismatch) as caught:
        TypeMorphism(stlc.types, builtin(target).types, base_map, mode)
    assert str(caught.value) == message


@pytest.mark.parametrize("mode", ["homomorphic", "collapse"])
@pytest.mark.parametrize(
    "sort, message",
    [
        (SortRef(0), "not a sort: SortRef(index=0)"),
        ("iota", "not a sort: 'iota'"),
        (5, "not a sort: 5"),
        (BaseSort("bogus"), "unknown base sort 'bogus'"),
        (ArrowSort(IOTA, BaseSort("bogus")), "unknown base sort 'bogus'"),
    ],
)
def test_type_morphism_apply_checks_its_argument(stlc, ulc, mode, sort, message):
    if mode == "collapse":
        g, image = TypeMorphism.collapse(stlc.types, ulc.types), STAR
    else:
        g, image = TypeMorphism(stlc.types, stlc.types, {"iota": ARR}), ArrowSort(ARR, ARR)
    with pytest.raises(MalformedSort) as caught:
        g.apply(sort)
    assert str(caught.value) == message
    assert g.apply(ARR) == image


# ---------------------------------------------------------------------------
# table validation


def test_fol2ll_is_valid(fol2ll):
    assert set(fol2ll.clauses) == {s.name for s in fol2ll.source.schemas}


def test_missing_clause_rejected(fol, ll):
    clauses = dict(builtin_table("fol2ll").clauses)
    del clauses["imp"]
    with pytest.raises(MissingClause):
        make_table(fol, ll, TypeMorphism.collapse(fol.types, ll.types), clauses)


@pytest.mark.parametrize(
    "table_name, name, clause, error",
    [
        ("fol2ll", "neg", Op("bang", (), (Placeholder(1),)), OffsetMismatch),
        # forall's argument binds one variable: offset 0 and offset 2 both fail
        ("fol2ll", "forall", Placeholder(0), OffsetMismatch),
        ("fol2ll", "forall", Op("forall", (), (Op("forall", (), (Placeholder(0),)),)), OffsetMismatch),
        ("fol2ll", "neg", Op("with", (), (Placeholder(0), Var(0))), ScopeError),
        ("fol2ll", "neg", Op("bang", (), (Placeholder(0), Placeholder(0))), ArityMismatch),
        ("fol2ll", "neg", Op("bang", (), ("ph 0",)), IllFormed),
        # app<a,b>'s arguments swapped: the argument at sort a where a -> b is due
        (
            "identity stlc",
            "app",
            Op("app", (ParamRef(0), ParamRef(1)), (Placeholder(1), Placeholder(0))),
            SortMismatch,
        ),
        # abs<s,t> has two parameters
        (
            "identity stlc",
            "abs",
            Op("abs", (ParamRef(0), ParamRef(5)), (Placeholder(0),)),
            ParamArityMismatch,
        ),
    ],
    ids=[
        "neg-placeholder-out-of-range",
        "forall-too-few-binders",
        "forall-too-many-binders",
        "neg-variable-escapes",
        "neg-argument-count",
        "neg-not-a-term",
        "app-placeholder-at-wrong-sort",
        "abs-parameter-out-of-range",
    ],
)
def test_clause_fault_rejected(table_name, name, clause, error):
    table = builtin_table(table_name) if table_name == "fol2ll" else identity_table(builtin("stlc"))
    clauses = dict(table.clauses)
    clauses[name] = clause
    with pytest.raises(error) as caught:
        make_table(table.source, table.target, table.morphism, clauses)
    assert str(caught.value).startswith(f"{name}: ")


def test_identity_table_is_valid(ulc, fol, stlc):
    for sig in (ulc, fol, stlc):
        table = identity_table(sig)
        assert set(table.clauses) == {s.name for s in sig.schemas}


def test_unknown_builtin_table():
    for name in ("ulc2fol", "mystery"):
        with pytest.raises(UnknownBuiltin):
            builtin_table(name)


@pytest.mark.parametrize("name", ["fol2ll", "stlc2ulc"])
def test_builtin_table_is_fresh(name):
    a, b = builtin_table(name), builtin_table(name)
    assert a is not b and a == b
    assert {id(a.source), id(a.target)}.isdisjoint({id(b.source), id(b.target)})


def test_unknown_names_never_enter_the_builtin_memos():
    names = ("ulc", "nat", "fol", "ll", "stlc", "pcf")
    for name in names:
        builtin(name)
    for name in ("fol2ll", "stlc2ulc"):
        builtin_table(name)
    for name in ("mystery", "fol2ll"):
        with pytest.raises(UnknownBuiltin):
            builtin(name)
    for name in ("mystery", "ulc"):
        with pytest.raises(UnknownBuiltin):
            builtin_table(name)
    assert _parsed_builtin.cache_info().currsize == len(names)
    assert _parsed_table.cache_info().currsize == 2


BUILTIN_TABLE_DIGESTS = [
    ("fol2ll", None, 6777, "2bd06bf0840a9ddc4d65ecc442828c409e9260b54de0cc505f3edf90078b88e8"),
    ("stlc2ulc", 1, 18, "c600015b67fc3ca98c458c38a009e07a706466ba1816ffb488d268c0474593e3"),
]


@pytest.mark.parametrize("name, max_sort_depth, count, digest", BUILTIN_TABLE_DIGESTS)
def test_builtin_table_translations_are_pinned(name, max_sort_depth, count, digest):
    """Every source term of depth <= 3 over contexts of no or one variable,
    at every sort of arrow depth <= max_sort_depth, translated and printed."""
    table = builtin_table(name)
    sorts = sorts_up_to_depth(table.source.types, max_sort_depth or 0)
    lines = [
        print_term(translate_term(table, ctx, t))
        for ctx in [()] + [(s,) for s in sorts]
        for sort in sorts
        for t in enumerate_terms(table.source, ctx, sort, 3, max_sort_depth)
    ]
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("name, max_sort_depth, count, digest", BUILTIN_TABLE_DIGESTS)
def test_builtin_table_checks_its_clauses_once(monkeypatch, name, max_sort_depth, count, digest):
    builtin_table(name)  # reads and checks the text, if no test did before

    def refuse(*args):
        raise AssertionError("make_table ran again")

    monkeypatch.setattr("bindsig.translate.make_table", refuse)
    test_builtin_table_translations_are_pinned(name, max_sort_depth, count, digest)


def test_placeholder_duplication_at_same_offset_allowed(fol, ll):
    clauses = dict(builtin_table("fol2ll").clauses)
    clauses["neg"] = Op("with", (), (Placeholder(0), Placeholder(0)))
    table = make_table(fol, ll, TypeMorphism.collapse(fol.types, ll.types), clauses)
    got = translate_term(table, (STAR,), Op("neg", (), (Var(0),)))
    assert got == Op("with", (), (Var(0), Var(0)))


# ---------------------------------------------------------------------------
# the paper's first-order-to-linear clauses, one constructor at a time


def check_clause(table, src_term, expected, n_vars=0):
    ctx = (STAR,) * n_vars
    got = translate_term(table, ctx, src_term)
    assert got == expected
    assert sort_of(table.target, map_context(table.morphism, ctx), got) == STAR


def test_clause_top(fol2ll):
    check_clause(fol2ll, Op("top"), Op("top"))


def test_clause_bot(fol2ll):
    check_clause(fol2ll, Op("bot"), Op("bot"))


def test_clause_neg(fol2ll):
    # (not A)° = !A° -o 0
    check_clause(
        fol2ll,
        Op("neg", (), (Var(0),)),
        Op("lolli", (), (Op("bang", (), (Var(0),)), Op("zero"))),
        n_vars=1,
    )


def test_clause_and(fol2ll):
    # (A and B)° = A° & B°
    check_clause(
        fol2ll,
        Op("and", (), (Var(0), Var(1))),
        Op("with", (), (Var(0), Var(1))),
        n_vars=2,
    )


def test_clause_or(fol2ll):
    # (A or B)° = !A° (+) !B°
    check_clause(
        fol2ll,
        Op("or", (), (Var(0), Var(1))),
        Op("oplus", (), (Op("bang", (), (Var(0),)), Op("bang", (), (Var(1),)))),
        n_vars=2,
    )


def test_clause_imp(fol2ll):
    # (A => B)° = !A° -o B°
    check_clause(
        fol2ll,
        Op("imp", (), (Op("top"), Op("bot"))),
        Op("lolli", (), (Op("bang", (), (Op("top"),)), Op("bot"))),
    )


def test_clause_exists(fol2ll):
    # (exists x. A)° = exists x. !A° with the binder preserved
    check_clause(
        fol2ll,
        Op("exists", (), (Var(0),)),
        Op("exists", (), (Op("bang", (), (Var(0),)),)),
    )


def test_clause_forall(fol2ll):
    # (forall x. A)° = forall x. A°
    check_clause(
        fol2ll,
        Op("forall", (), (Var(0),)),
        Op("forall", (), (Var(0),)),
    )


# ---------------------------------------------------------------------------
# erasure


def test_erasure_abs(stlc2ulc, stlc):
    t, _ = mk_op(stlc, (), "abs", (IOTA, IOTA), (Var(0),))
    assert translate_term(stlc2ulc, (), t) == Op("abs", (), (Var(0),))


def test_erasure_app_collapses_all_instances(stlc2ulc, stlc):
    for s, t in ((IOTA, IOTA), (ARR, IOTA), (IOTA, ARR)):
        ctx = (ArrowSort(s, t), s)
        node, _ = mk_op(stlc, ctx, "app", (s, t), (Var(0), Var(1)))
        assert translate_term(stlc2ulc, ctx, node) == Op("app", (), (Var(0), Var(1)))


def test_erased_terms_are_well_formed_untyped(stlc2ulc, stlc, ulc):
    for ctx in ((), (IOTA,), (ARR, IOTA)):
        for sort in (IOTA, ARR):
            for t in enumerate_terms(stlc, ctx, sort, 3, max_sort_depth=1):
                erased = translate_term(stlc2ulc, ctx, t)
                assert sort_of(ulc, map_context(stlc2ulc.morphism, ctx), erased) == STAR


# ---------------------------------------------------------------------------
# properties


def test_identity_table_is_identity_translation(ulc, stlc):
    table = identity_table(ulc)
    for t in enumerate_terms(ulc, (STAR,), STAR, 3):
        assert translate_term(table, (STAR,), t) == t
    typed = identity_table(stlc)
    for t in enumerate_terms(stlc, (IOTA,), IOTA, 3, max_sort_depth=1):
        assert translate_term(typed, (IOTA,), t) == t


def test_translation_substitution_square_sampled(fol2ll, fol, ll):
    src, dst = (STAR, STAR), (STAR,)
    pools = [enumerate_terms(fol, dst, STAR, 1) for _ in src]
    for images in product(*pools):
        sigma = Assignment(src, dst, images)
        translated_sigma = Assignment(
            map_context(fol2ll.morphism, src),
            map_context(fol2ll.morphism, dst),
            tuple(translate_term(fol2ll, dst, img) for img in images),
        )
        for t in enumerate_terms(fol, src, STAR, 3):
            lhs = translate_term(fol2ll, dst, subst(fol, t, sigma))
            rhs = subst(ll, translate_term(fol2ll, src, t), translated_sigma)
            assert lhs == rhs


def test_translation_renaming_square(fol2ll, fol, ll):
    src, dst = (STAR, STAR), (STAR, STAR, STAR)
    rho = Renaming(src, dst, (2, 0))
    image_rho = Renaming(
        map_context(fol2ll.morphism, src), map_context(fol2ll.morphism, dst), (2, 0)
    )
    for t in enumerate_terms(fol, src, STAR, 3):
        lhs = translate_term(fol2ll, dst, rename(fol, t, rho))
        rhs = rename(ll, translate_term(fol2ll, src, t), image_rho)
        assert lhs == rhs


def test_sort_coherence_erasure(stlc2ulc, stlc, ulc):
    g = stlc2ulc.morphism
    for ctx in ((), (IOTA,), (IOTA, ARR)):
        for sort in (IOTA, ARR):
            for t in enumerate_terms(stlc, ctx, sort, 3, max_sort_depth=1):
                out = translate_term(stlc2ulc, ctx, t)
                assert sort_of(ulc, map_context(g, ctx), out) == g.apply(sort)


# ---------------------------------------------------------------------------
# table files


FOL2LL_FILE = """
translate fol -> ll erase-types
clause top = (op top)
clause bot = (op bot)
clause neg = (op lolli (op bang (ph 0)) (op zero))
clause and = (op with (ph 0) (ph 1))
clause or = (op oplus (op bang (ph 0)) (op bang (ph 1)))
clause imp = (op lolli (op bang (ph 0)) (ph 1))
clause forall = (op forall (ph 0))
clause exists = (op exists (op bang (ph 0)))
"""


def test_parse_table_matches_builtin(fol2ll):
    parsed = parse_table(FOL2LL_FILE)
    assert parsed.clauses == dict(fol2ll.clauses)
    assert parsed.morphism.mode == "collapse"


def test_parse_table_parameterized_identity(stlc):
    text = (
        "translate stlc -> stlc\n"
        "clause app<s,t> = (op app<s,t> (ph 0) (ph 1))\n"
        "clause abs<s,t> = (op abs<s,t> (ph 0))\n"
    )
    table = parse_table(text)
    t, _ = mk_op(stlc, (), "abs", (IOTA, IOTA), (Var(0),))
    assert translate_term(table, (), t) == t


def test_parse_table_missing_clause():
    with pytest.raises(MissingClause):
        parse_table("translate fol -> ll erase-types\nclause top = (op top)\n")


def test_parse_table_sort_error():
    bad = FOL2LL_FILE.replace("clause top = (op top)", "clause top = (op bang (ph 0))")
    with pytest.raises((SortMismatch, OffsetMismatch)):
        parse_table(bad)


def test_parse_table_map_policy(stlc):
    text = (
        "translate stlc -> stlc map iota => arrow(iota,iota)\n"
        "clause app<s,t> = (op app<s,t> (ph 0) (ph 1))\n"
        "clause abs<s,t> = (op abs<s,t> (ph 0))\n"
    )
    table = parse_table(text)
    assert table.morphism.mode == "homomorphic"
    assert table.morphism.apply(ARR) == ArrowSort(ARR, ARR)
    t = Op("app", (IOTA, IOTA), (Op("abs", (IOTA, IOTA), (Var(0),)), Var(0)))
    got = translate_term(table, (IOTA,), t)
    assert got == Op("app", (ARR, ARR), (Op("abs", (ARR, ARR), (Var(0),)), Var(0)))
    assert sort_of(stlc, map_context(table.morphism, (IOTA,)), got) == ARR


def test_clause_at_the_wrong_root_sort_rejected():
    text = (
        "translate stlc -> stlc\n"
        "clause app<s,t> = (ph 0)\n"
        "clause abs<s,t> = (op abs<s,t> (ph 0))\n"
    )
    with pytest.raises(SortMismatch) as caught:
        parse_table(text)
    assert str(caught.value) == "app: clause has sort arrow(iota,iota), expected iota"


def test_clause_is_checked_at_each_instantiation(stlc):
    # app<iota,t> is well-sorted at the spot check (s = iota) and nowhere else
    text = (
        "translate stlc -> stlc\n"
        "clause app<s,t> = (op app<iota,t> (ph 0) (ph 1))\n"
        "clause abs<s,t> = (op abs<s,t> (ph 0))\n"
    )
    table = parse_table(text)
    ctx = (ArrowSort(ARR, IOTA), ARR)
    t = Op("app", (ARR, IOTA), (Var(0), Var(1)))
    assert sort_of(stlc, ctx, t) == IOTA
    with pytest.raises(SortMismatch):
        translate_term(table, ctx, t)
    # the instantiation the spot check covered still translates
    ok = Op("app", (IOTA, IOTA), (Var(0), Var(1)))
    assert translate_term(table, (ARR, IOTA), ok) == ok


MINI = "signature mini\nop lam : ([*] *) -> *\nop ap : (*, *) -> *\n"
MINI_CLAUSES = "clause lam = (op abs (ph 0))\nclause ap = (op app (ph 0) (ph 1))\n"


def test_table_header_names_signature_files(tmp_path, monkeypatch):
    (tmp_path / "mini.sig").write_text(MINI)
    term = Op("lam", (), (Op("ap", (), (Var(0), Var(0))),))
    expected = Op("abs", (), (Op("app", (), (Var(0), Var(0))),))
    absolute = parse_table(f"translate {tmp_path / 'mini.sig'} -> ulc\n" + MINI_CLAUSES)
    assert translate_term(absolute, (), term) == expected
    monkeypatch.chdir(tmp_path)
    relative = parse_table("translate mini.sig -> ulc\n" + MINI_CLAUSES)
    assert translate_term(relative, (), term) == expected


# ---------------------------------------------------------------------------
# compiled clause builders


def graft_oracle(table, t):
    """Translation by recursive grafting of the table's raw clauses."""
    if type(t) is Var:
        return t
    args = [graft_oracle(table, a) for a in t.args]
    resolved = tuple(p if isinstance(p, int) else table.morphism.apply(p) for p in t.params)

    def graft(template):
        if isinstance(template, Placeholder):
            return args[template.index]
        if type(template) is Var:
            return template
        params = tuple(resolved[p.index] if isinstance(p, ParamRef) else p for p in template.params)
        return Op(template.name, params, tuple(graft(a) for a in template.args))

    return graft(table.clauses[t.name])


# ulc -> ulc, reordering and duplicating placeholders around template variables
SHUFFLE_FILE = """translate ulc -> ulc
clause app = (op app (ph 1) (op app (ph 0) (ph 1)))
clause abs = (op abs (op app (op app (var 0) (ph 0)) (op abs (var 0))))
"""


@pytest.mark.parametrize(
    "table_name, sort, max_sort_depth",
    [
        ("fol2ll", STAR, None),
        ("stlc2ulc", IOTA, 1),
        ("identity pcf", BaseSort("nat"), 1),
        ("shuffle", STAR, None),
    ],
)
def test_compiled_builders_agree_with_a_recursive_graft(table_name, sort, max_sort_depth):
    if table_name == "identity pcf":
        table = identity_table(builtin("pcf"))
    elif table_name == "shuffle":
        table = parse_table(SHUFFLE_FILE)
    else:
        table = builtin_table(table_name)
    rng = XorShift64Star(2024)
    for n in (1, 2):
        ctx = (sort,) * n
        for _ in range(60):
            t = random_term(table.source, ctx, sort, 5, rng, max_sort_depth)
            assert translate_term(table, ctx, t) == graft_oracle(table, t)


def test_placeholder_free_template_parts_are_shared(fol2ll):
    a = translate_term(fol2ll, (STAR,), Op("neg", (), (Var(0),)))
    b = translate_term(fol2ll, (), Op("neg", (), (Op("top"),)))
    assert a.args[0] is not b.args[0]
    assert a.args[1] is b.args[1] == Op("zero")
    assert translate_term(fol2ll, (), Op("top")) is translate_term(fol2ll, (), Op("top"))
    shuffle = parse_table(SHUFFLE_FILE)
    c = translate_term(shuffle, (), Op("abs", (), (Var(0),)))
    d = translate_term(shuffle, (STAR,), Op("abs", (), (Var(1),)))
    assert c.args[0].args[1] is d.args[0].args[1] == Op("abs", (), (Var(0),))
    assert c.args[0].args[0].args[0] is d.args[0].args[0].args[0] == Var(0)
