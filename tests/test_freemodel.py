import pytest

from bindsig import (
    Assignment,
    BaseSort,
    Op,
    OperatorFamily,
    OpLabel,
    Var,
    chain_count,
    enumerate_terms,
    extend_signature,
    fold,
    free_extend,
    fv_model,
    sort_of,
    subst,
    term_model,
    unit,
)
from bindsig.errors import DuplicateName, UnknownLabel

STAR = BaseSort("*")
LAM0 = Op("abs", (), (Var(0),))


@pytest.fixture(scope="module")
def family(ulc):
    return OperatorFamily.untyped(ulc, {"c": 0, "m": 1, "p": 2})


@pytest.fixture(scope="module")
def ext(ulc, family):
    return extend_signature(ulc, family)


def ext_stage_count(k, n):
    # recurrence for ULC plus labels c/0, m/1, p/2
    if k <= 0:
        return 0
    a = ext_stage_count(k - 1, n)
    up = ext_stage_count(k - 1, n + 1)
    return n + a * a + up + 1 + a + a * a


# ---------------------------------------------------------------------------
# extend_signature


def test_extend_adds_schemas(ulc, ext):
    assert len(ext.schemas) == 5
    assert [s.name for s in ext.schemas[:2]] == ["app", "abs"]


def test_extend_with_empty_family_is_identity(ulc):
    assert extend_signature(ulc, OperatorFamily(())) == ulc


def test_extend_name_clash(ulc):
    fam = OperatorFamily.untyped(ulc, {"app": 2})
    with pytest.raises(DuplicateName):
        extend_signature(ulc, fam)


def test_family_rejects_duplicate_labels():
    with pytest.raises(DuplicateName):
        OperatorFamily((OpLabel("c", (), STAR), OpLabel("c", (STAR,), STAR)))


def test_extended_enumeration_with_one_constant(ulc):
    # stage recurrence with the extra constant: a1(0)=1, a1(1)=2, so
    # a2(0) = 0 + 1^2 + 2 + 1 = 4
    ext1 = extend_signature(ulc, OperatorFamily.untyped(ulc, {"c": 0}))
    got = enumerate_terms(ext1, (), STAR, 2)
    c = Op("c")
    assert set(got) == {LAM0, c, Op("abs", (), (c,)), Op("app", (), (c, c))}
    assert len(got) == 4


def test_extended_counts_match_recurrence(ext):
    for n in range(3):
        for k in range(5):
            assert chain_count(ext, (STAR,) * n, STAR, k) == ext_stage_count(k, n)


# ---------------------------------------------------------------------------
# unit


def test_unit_binary(family):
    t, ctx = unit(family, "p")
    assert t == Op("p", (), (Var(0), Var(1)))
    assert ctx == (STAR, STAR)


def test_unit_constant(family):
    t, ctx = unit(family, "c")
    assert t == Op("c") and ctx == ()


def test_unit_sort(ext, family):
    for name in ("c", "m", "p"):
        t, ctx = unit(family, name)
        assert sort_of(ext, ctx, t) == STAR


def test_unit_unknown_label(family):
    with pytest.raises(UnknownLabel):
        unit(family, "ghost")


# ---------------------------------------------------------------------------
# free_extend


def interp_terms(ulc):
    # label interpretations in the ULC term model, over the unit contexts
    return {
        "c": LAM0,
        "m": Op("app", (), (Var(0), Var(0))),
        "p": Op("app", (), (Var(0), Var(1))),
    }


def test_free_extend_one_step(ulc, family):
    m = term_model(ulc)
    t = Op("p", (), (LAM0, LAM0))
    got = free_extend(m, ulc, family, interp_terms(ulc), (), t)
    assert got == Op("app", (), (LAM0, LAM0))


def test_free_extend_triangle_law(ulc, family):
    # extending along the unit gives back the interpretation
    m = term_model(ulc)
    interp = interp_terms(ulc)
    for name in ("c", "m", "p"):
        t, ctx = unit(family, name)
        assert free_extend(m, ulc, family, interp, ctx, t) == interp[name]


def test_free_extend_triangle_law_fv(ulc, family):
    m = fv_model(ulc)
    interp = {"c": frozenset(), "m": frozenset({0}), "p": frozenset({0, 1})}
    for name in ("c", "m", "p"):
        t, ctx = unit(family, name)
        assert free_extend(m, ulc, family, interp, ctx, t) == interp[name]


def test_free_extend_agrees_with_fold_on_label_free_terms(ulc, family):
    m = term_model(ulc)
    interp = interp_terms(ulc)
    for n in range(3):
        ctx = (STAR,) * n
        for t in enumerate_terms(ulc, ctx, STAR, 3):
            assert free_extend(m, ulc, family, interp, ctx, t) == fold(m, ulc, ctx, t)


def test_free_extend_missing_interpretation(ulc, family):
    m = term_model(ulc)
    with pytest.raises(UnknownLabel):
        free_extend(m, ulc, family, {"c": LAM0}, (), Op("c"))


def test_free_extend_is_substitution_safe(ulc, ext, family):
    # the extension is a model morphism: it commutes with substitution on
    # terms of the extended signature
    m = term_model(ulc)
    interp = interp_terms(ulc)
    src, dst = (STAR,), (STAR, STAR)
    pools = enumerate_terms(ext, dst, STAR, 2)
    for img in pools:
        sigma = Assignment(src, dst, (img,))
        img_v = free_extend(m, ulc, family, interp, dst, img)
        for t in enumerate_terms(ext, src, STAR, 3):
            lhs = free_extend(m, ulc, family, interp, dst, subst(ext, t, sigma))
            rhs = subst(
                ulc,
                free_extend(m, ulc, family, interp, src, t),
                Assignment(src, dst, (img_v,)),
            )
            assert lhs == rhs


def test_parse_signature_with_operators(ulc, family):
    text = (
        "signature ulc\n"
        "op app : (*, *) -> *\n"
        "op abs : ([*] *) -> *\n"
        "operators\n"
        "op c : () -> *\n"
        "op m : (*) -> *\n"
        "op p : (*, *) -> *\n"
    )
    from bindsig import parse_signature_with_operators

    sig, fam = parse_signature_with_operators(text)
    assert sig == ulc
    assert fam == family


def test_operators_section_rejects_binders():
    from bindsig import parse_signature_with_operators
    from bindsig.errors import ParseError

    text = "signature s\nop app : (*, *) -> *\noperators\nop q : ([*] *) -> *\n"
    with pytest.raises(ParseError):
        parse_signature_with_operators(text)


def test_operators_section_rejects_clash():
    from bindsig import parse_signature_with_operators

    text = "signature s\nop app : (*, *) -> *\noperators\nop app : () -> *\n"
    with pytest.raises(DuplicateName, match="^operator label 'app' clashes with a schema$"):
        parse_signature_with_operators(text)


def test_operators_section_rejects_a_repeated_label():
    from bindsig import parse_signature_with_operators

    text = "signature s\nop app : (*, *) -> *\noperators\nop pair : (*, *) -> *\nop pair : () -> *\n"
    with pytest.raises(DuplicateName, match="^operator label 'pair' declared twice$"):
        parse_signature_with_operators(text)


def test_free_extend_commutes_with_base_constructors(ulc, ext, family):
    m = term_model(ulc)
    interp = interp_terms(ulc)
    ctx = (STAR,)
    for t in enumerate_terms(ext, ctx, STAR, 3):
        if type(t) is Var or t.name not in ("app", "abs"):
            continue
        arity = ext.arity(t.name, t.params)
        folded_args = tuple(
            free_extend(m, ulc, family, interp, inp.bound + ctx, arg)
            for inp, arg in zip(arity.inputs, t.args)
        )
        assert free_extend(m, ulc, family, interp, ctx, t) == Op(t.name, (), folded_args)
