import dataclasses
import re
from pathlib import Path

import pytest

from bindsig import (
    ArrowSort,
    BaseSort,
    ConstructorSchema,
    Input,
    Op,
    Param,
    SortRef,
    TypeSystem,
    UNTYPED,
    Var,
    builtin,
    enumerate_terms,
    fold,
    instantiate,
    make_signature,
    mk_op,
    parse_context,
    parse_signature,
    parse_sort,
    parse_table,
    parse_term,
    print_signature,
    print_sort,
    sort_of,
    sum_signatures,
    term_model,
)
from bindsig.errors import (
    BindsigError,
    DuplicateName,
    IllFormed,
    MalformedSort,
    ParamArityMismatch,
    ParamKindMismatch,
    ParseError,
    TypeSystemMismatch,
    UnknownBuiltin,
)
from bindsig.sigdef import check_sort, sorts_up_to_depth
from bindsig.term import check_context

STAR = BaseSort("*")
IOTA = BaseSort("iota")


def schema(name, inputs, output=STAR, params=()):
    return ConstructorSchema(
        name, tuple(params), tuple(Input(tuple(b), s) for b, s in inputs), output
    )


# ---------------------------------------------------------------------------
# make_signature


def test_make_signature_ulc_shape(ulc):
    built = make_signature(
        UNTYPED,
        [
            schema("app", [((), STAR), ((), STAR)]),
            schema("abs", [((STAR,), STAR)]),
        ],
    )
    assert built == ulc


def test_variables_only_signature_is_valid():
    sig = make_signature(UNTYPED, [])
    assert sig.schemas == ()


def test_duplicate_schema_name_rejected():
    with pytest.raises(DuplicateName):
        make_signature(UNTYPED, [schema("app", [((), STAR)]), schema("app", [])])


def test_unknown_base_sort_rejected():
    with pytest.raises(MalformedSort):
        make_signature(UNTYPED, [schema("c", [((), BaseSort("missing"))])])


def test_arrow_without_arrow_enabled_rejected():
    with pytest.raises(MalformedSort):
        make_signature(UNTYPED, [schema("c", [((), ArrowSort(STAR, STAR))])])


def test_parameter_reference_is_not_a_sort(stlc):
    with pytest.raises(MalformedSort):
        check_context(stlc.types, (SortRef(0),))
    # a parameter that contains a reference would give the node an unprintable sort
    with pytest.raises(MalformedSort):
        mk_op(stlc, (IOTA,), "abs", (ArrowSort(SortRef(0), IOTA), IOTA), (Var(1),))


ARROWS = TypeSystem(("iota",), arrow_enabled=True)


@pytest.mark.parametrize(
    "check, error, message",
    [
        (lambda: check_sort(UNTYPED, BaseSort("missing")), MalformedSort, "unknown base sort 'missing'"),
        (
            lambda: check_sort(UNTYPED, ArrowSort(STAR, STAR)),
            MalformedSort,
            "arrow sort in a type system without arrows",
        ),
        (
            lambda: make_signature(UNTYPED, [schema("c", [((), ArrowSort(STAR, STAR))])]),
            MalformedSort,
            "c: arrow sort but arrows are disabled",
        ),
        (lambda: check_sort(ARROWS, SortRef(0)), MalformedSort, "not a sort: SortRef(index=0)"),
        (
            lambda: make_signature(ARROWS, [schema("c", [], SortRef(1), [Param("s", "sort")])]),
            MalformedSort,
            "c: parameter reference out of range",
        ),
        (
            lambda: make_signature(
                ARROWS, [schema("c", [((), ArrowSort(IOTA, SortRef(0)))], IOTA, [Param("n", "nat")])]
            ),
            ParamKindMismatch,
            "c: parameter n used as a sort",
        ),
        # the first fault in pre-order is the one reported
        (
            lambda: check_sort(UNTYPED, ArrowSort(BaseSort("bogus"), IOTA)),
            MalformedSort,
            "arrow sort in a type system without arrows",
        ),
        (
            lambda: check_sort(ARROWS, ArrowSort(BaseSort("bogus"), BaseSort("other"))),
            MalformedSort,
            "unknown base sort 'bogus'",
        ),
        (lambda: print_sort(SortRef(0)), MalformedSort, "not a printable sort: SortRef(index=0)"),
    ],
    ids=[
        "unknown-base-sort",
        "arrow-in-sort",
        "arrow-in-template",
        "reference-outside-template",
        "reference-out-of-range",
        "nat-parameter-as-sort",
        "arrow-before-its-leaves",
        "leftmost-leaf-first",
        "reference-not-printable",
    ],
)
def test_sort_validator_messages(check, error, message):
    with pytest.raises(BindsigError) as caught:
        check()
    assert (type(caught.value), str(caught.value)) == (error, message)


# ---------------------------------------------------------------------------
# sum_signatures


def test_sum_counts_add(ulc):
    extra = make_signature(UNTYPED, [schema("c", [])])
    assert len(sum_signatures(ulc, extra).schemas) == 3


def test_sum_with_empty_is_identity(ulc):
    empty = make_signature(UNTYPED, [])
    assert sum_signatures(ulc, empty) == ulc


def test_sum_with_self_clashes(ulc):
    with pytest.raises(DuplicateName):
        sum_signatures(ulc, ulc)


def test_sum_requires_same_types(ulc, stlc):
    with pytest.raises(TypeSystemMismatch):
        sum_signatures(ulc, stlc)


def test_sum_associative_up_to_order(ulc):
    a = make_signature(UNTYPED, [schema("c1", [])])
    b = make_signature(UNTYPED, [schema("c2", [])])
    left = sum_signatures(sum_signatures(ulc, a), b)
    right = sum_signatures(ulc, sum_signatures(a, b))
    assert left.types == right.types
    assert sorted(left.schemas, key=lambda s: s.name) == sorted(right.schemas, key=lambda s: s.name)


# ---------------------------------------------------------------------------
# instantiate


def test_instantiate_stlc_app(stlc):
    arity = instantiate(stlc.schema("app"), (IOTA, IOTA))
    assert arity.inputs == (Input((), ArrowSort(IOTA, IOTA)), Input((), IOTA))
    assert arity.output == IOTA


def test_instantiate_pcf_numeral(pcf):
    arity = instantiate(pcf.schema("k"), (3,))
    assert arity.inputs == ()
    assert arity.output == BaseSort("nat")


def test_instantiate_pcf_fixpoint(pcf):
    nat = BaseSort("nat")
    arity = instantiate(pcf.schema("fix"), (nat,))
    assert arity.inputs == (Input((), ArrowSort(nat, nat)),)
    assert arity.output == nat


def test_instantiate_param_count_checked(stlc):
    with pytest.raises(ParamArityMismatch):
        instantiate(stlc.schema("app"), (IOTA,))


def test_instantiate_param_kind_checked(pcf):
    with pytest.raises(ParamKindMismatch):
        instantiate(pcf.schema("k"), (BaseSort("nat"),))
    with pytest.raises(ParamKindMismatch):
        instantiate(pcf.schema("fix"), (2,))


def test_nat_parameter_is_an_int_never_a_bool(pcf):
    # (op k<True>) would equal (op k<1>) but print as a text that does not parse
    with pytest.raises(ParamKindMismatch, match="^parameter n of k expects a natural$"):
        instantiate(pcf.schema("k"), (True,))
    with pytest.raises(IllFormed, match="^parameter n of k expects a natural$"):
        sort_of(builtin("pcf"), (), Op("k", (True,), ()))


@pytest.mark.parametrize("odd", [True, 1.0])
@pytest.mark.parametrize(
    "text, name, params",
    [
        (None, "k", ()),  # builtin pcf: k<n: nat>
        ("signature s\nsorts iota with arrow\nop num<s: sort, n: nat> : () -> s\n", "num", (IOTA,)),
    ],
    ids=["pcf-k", "sort-and-nat"],
)
def test_nat_parameter_check_does_not_depend_on_earlier_checks(text, name, params, odd):
    # True == 1 and 1.0 == 1, with equal hashes: a memo keyed on the
    # parameter tuple alone answered for them once <1> had been checked
    sig = builtin("pcf") if text is None else parse_signature(text)
    model = term_model(sig)
    good, bad = Op(name, params + (1,), ()), Op(name, params + (odd,), ())
    message = f"^parameter n of {name} expects a natural$"
    for _ in range(2):
        with pytest.raises(ParamKindMismatch, match=message):
            sig.arity(name, params + (odd,))
        with pytest.raises(IllFormed, match=message):
            sort_of(sig, (), bad)
        with pytest.raises(ParamKindMismatch, match=message):
            fold(model, sig, (), Op(name, params + (odd,), ()))
        with pytest.raises(ParamKindMismatch, match=message):
            mk_op(sig, (), name, params + (odd,))
        assert sort_of(sig, (), good) == fold(model, sig, (), good)._cert[2]
        assert sig.arity(name, params + (1,)).output == sort_of(sig, (), good)


def test_instantiate_checks_parameters_the_arity_does_not_mention():
    typed = parse_signature("signature s\nsorts iota with arrow\nop foo<s: sort> : () -> iota\n")
    with pytest.raises(IllFormed, match="^unknown base sort 'bogus'$"):
        sort_of(typed, (), parse_term("(op foo<bogus>)"))
    untyped = parse_signature("signature u\nop bar<s: sort> : () -> *\n")
    with pytest.raises(IllFormed, match="^arrow sort in a type system without arrows$"):
        sort_of(untyped, (), parse_term("(op bar<arrow(*,*)>)"))
    with pytest.raises(MalformedSort):
        instantiate(untyped.schema("bar"), (ArrowSort(STAR, STAR),), untyped.types)
    assert instantiate(untyped.schema("bar"), (STAR,), untyped.types).output == STAR


def test_builtin_parameter_free_schemas_instantiate():
    for name in ("ulc", "fol", "ll", "nat", "stlc", "pcf"):
        sig = builtin(name)
        for s in sig.schemas:
            if not s.params:
                arity = instantiate(s, (), sig.types)
                assert arity.output is not None


# ---------------------------------------------------------------------------
# builtins


def test_builtin_fol_shape(fol):
    by_arity = {}
    for s in fol.schemas:
        binders = sum(len(inp.bound) for inp in s.inputs)
        by_arity.setdefault((len(s.inputs), binders), []).append(s.name)
    assert len(fol.schemas) == 8
    assert sorted(by_arity[(0, 0)]) == ["bot", "top"]
    assert by_arity[(1, 0)] == ["neg"]
    assert sorted(by_arity[(2, 0)]) == ["and", "imp", "or"]
    assert sorted(by_arity[(1, 1)]) == ["exists", "forall"]


def test_builtin_ll_shape(ll):
    assert len(ll.schemas) == 13
    constants = [s.name for s in ll.schemas if not s.inputs]
    unary = [s.name for s in ll.schemas if len(s.inputs) == 1 and not s.inputs[0].bound]
    binary = [s.name for s in ll.schemas if len(s.inputs) == 2]
    binders = [s.name for s in ll.schemas if any(inp.bound for inp in s.inputs)]
    assert len(constants) == 4 and len(unary) == 2 and len(binary) == 5 and len(binders) == 2


def test_builtin_nat_shape(nat_sig):
    assert [s.name for s in nat_sig.schemas] == ["zero", "succ"]
    assert all(not inp.bound for s in nat_sig.schemas for inp in s.inputs)


def test_builtin_unknown():
    with pytest.raises(UnknownBuiltin):
        builtin("mystery")


# The printed text pins each builtin's schemas and their order, which fixes
# enumeration order and so every golden count.
BUILTIN_TEXTS = {
    "ulc": """signature ulc
op app : (*, *) -> *
op abs : ([*] *) -> *
""",
    "nat": """signature nat
op zero : () -> *
op succ : (*) -> *
""",
    "fol": """signature fol
op top : () -> *
op bot : () -> *
op neg : (*) -> *
op and : (*, *) -> *
op or : (*, *) -> *
op imp : (*, *) -> *
op forall : ([*] *) -> *
op exists : ([*] *) -> *
""",
    "ll": """signature ll
op top : () -> *
op bot : () -> *
op zero : () -> *
op one : () -> *
op bang : (*) -> *
op whynot : (*) -> *
op with : (*, *) -> *
op parr : (*, *) -> *
op tensor : (*, *) -> *
op oplus : (*, *) -> *
op lolli : (*, *) -> *
op forall : ([*] *) -> *
op exists : ([*] *) -> *
""",
    "stlc": """signature stlc
sorts iota with arrow
op app<s: sort, t: sort> : (arrow(s,t), s) -> t
op abs<s: sort, t: sort> : ([s] t) -> arrow(s,t)
""",
    "pcf": """signature pcf
sorts nat | bool with arrow
op true : () -> bool
op false : () -> bool
op if_bool : (arrow(bool,arrow(bool,bool))) -> bool
op if_nat : (arrow(bool,arrow(nat,nat))) -> nat
op k<n: nat> : () -> nat
op succ : (nat) -> nat
op pred : (nat) -> nat
op zero_test : (nat) -> bool
op app<s: sort, t: sort> : (arrow(s,t), s) -> t
op abs<s: sort, t: sort> : ([s] t) -> arrow(s,t)
op fix<s: sort> : (arrow(s,s)) -> s
""",
}


@pytest.mark.parametrize("name", BUILTIN_TEXTS)
def test_builtin_prints_as_pinned(name):
    assert print_signature(builtin(name), name) == BUILTIN_TEXTS[name]


@pytest.mark.parametrize("name", BUILTIN_TEXTS)
def test_builtin_returns_a_fresh_signature_with_a_cold_cache(name):
    used = builtin(name)
    enumerate_terms(used, (), sorts_up_to_depth(used.types, 0)[0], 2, 1)
    assert used._cache
    fresh = builtin(name)
    assert fresh is not used and fresh == used
    assert fresh._cache == {}


def test_replaced_copy_starts_a_memo_of_its_own():
    # a dataclasses.replace copy shared the memo, and answered with the old arities
    a = parse_signature("signature a\nop c : () -> *\n")
    b = parse_signature("signature b\nop c : (*) -> *\n")
    assert sort_of(a, (), Op("c")) == STAR
    copy = dataclasses.replace(a, schemas=b.schemas)
    for sig in (b, copy):
        with pytest.raises(IllFormed, match=r"^c expects 1 argument\(s\), got 0$"):
            sort_of(sig, (), Op("c"))
    assert copy == b and copy._cache is not a._cache


def test_readme_signature_example_is_the_builtin_ulc():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```\n(signature ulc\n.*?)```", readme, re.DOTALL).group(1)
    # parse_signature drops the example's operators section
    assert parse_signature(example) == builtin("ulc")


# ---------------------------------------------------------------------------
# parse / print


def test_parse_simple_ulc_file(ulc):
    text = "signature ulc\nop app : (*, *) -> *\nop abs : ([*] *) -> *\n"
    assert parse_signature(text) == ulc


def test_parse_with_comments_and_sorts():
    text = """
signature demo
# a two-sorted system
sorts a | b with arrow
op f : ([a] b, arrow(a,b)) -> a
"""
    sig = parse_signature(text)
    assert sig.types == TypeSystem(("a", "b"), True)
    f = sig.schema("f")
    assert f.inputs[0].bound == (BaseSort("a"),)
    assert f.inputs[1].sort == ArrowSort(BaseSort("a"), BaseSort("b"))


@pytest.mark.parametrize("name", ["ulc", "fol", "ll", "nat", "stlc", "pcf"])
def test_print_parse_roundtrip_builtins(name):
    sig = builtin(name)
    assert parse_signature(print_signature(sig, name)) == sig


STLC_TYPES = TypeSystem(("iota",), arrow_enabled=True)


# Lines and columns are 1-based, a tab is one column, only "\n" breaks a
# line, and an end-of-input error points just past the last character.  A
# character no token starts with is reported before any grammar error.
@pytest.mark.parametrize(
    "parse, text, line, col, message",
    [
        pytest.param(parse_term, "(op app (var 0)", 1, 16,
                     "expected ')', found 'end of input'", id="term-end-of-input"),
        pytest.param(parse_term, "(op app\t(var 0) (vr 1))", 1, 18,
                     "expected 'var' or 'op', found 'vr'", id="term-tab"),
        pytest.param(parse_term, "# comment\r\n(op abs\r\n  (var x))", 3, 8,
                     "expected nat, found 'x'", id="term-comment-crlf"),
        pytest.param(parse_term, "(op app (op) @)", 1, 14,
                     "unexpected character '@'", id="term-bad-character-after-grammar-error"),
        pytest.param(parse_term, "(op abs\n", 2, 1,
                     "expected ')', found 'end of input'", id="term-end-of-input-after-newline"),
        pytest.param(parse_sort, "arrow(iota,\tnat", 1, 16,
                     "expected ')', found 'end of input'", id="sort-end-of-input"),
        pytest.param(parse_sort, "arrow(iota iota)", 1, 12,
                     "expected ',', found 'iota'", id="sort-missing-comma"),
        pytest.param(parse_sort, "arrow(,iota)", 1, 7,
                     "expected a sort, found ','", id="sort-missing-domain"),
        pytest.param(parse_sort, "arrow iota", 1, 7,
                     "expected '(', found 'iota'", id="sort-missing-open"),
        pytest.param(parse_sort, "arrow(iota,nat))", 1, 16,
                     "trailing input ')'", id="sort-trailing-input"),
        pytest.param(parse_sort, "", 1, 1,
                     "expected a sort, found 'end of input'", id="sort-empty"),
        pytest.param(parse_sort, "arrow(arrow(iota,nat) bool)", 1, 23,
                     "expected ',', found 'bool'", id="sort-missing-comma-after-nested"),
        pytest.param(lambda text: parse_context(STLC_TYPES, text), "(ctx iota\r\n arrow(iota,))",
                     2, 13, "expected a sort, found ')'", id="context-crlf"),
        pytest.param(lambda text: parse_context(STLC_TYPES, text), "(ctx iota", 1, 10,
                     "expected a sort, found 'end of input'", id="context-end-of-input"),
        pytest.param(parse_signature, "signature bad\nop app : (* -> *\n", 2, 13,
                     "expected ')', found '->'", id="signature-unclosed-inputs"),
        pytest.param(parse_signature, "signature s\nop f : (*, ) -> *\nop g : () -> * $\n", 3, 16,
                     "unexpected character '$'", id="signature-bad-character-after-grammar-error"),
        pytest.param(parse_signature, "signature s\nop f : (*) -> # no output\n", 3, 1,
                     "expected a sort, found 'end of input'", id="signature-end-of-input"),
        pytest.param(parse_signature,
                     "signature s # c\n\top f : () -> *\noperators\r\n\top g<n: nat> : () -> *\n",
                     4, 2, "operator label g cannot take parameters", id="signature-label-keyword"),
        pytest.param(parse_table,
                     "translate stlc -> ulc erase-types\r\nclause app<s,t> = (op app (ph 0) (ph 1)\n",
                     3, 1, "expected ')', found 'end of input'", id="table-end-of-input"),
        pytest.param(parse_table, "translate ulc -> ulc\n\tclause abs = (op abs (pp 0))\n", 2, 24,
                     "expected 'op', 'var' or 'ph', found 'pp'", id="table-tab"),
        pytest.param(parse_table, "translate ulc -> ulc\nclause abs = (op abs (ph 0)) # é\né", 3, 1,
                     "unexpected character 'é'", id="table-bad-character-after-comment"),
        pytest.param(parse_table,
                     "translate stlc -> ulc erase-types\n  clause app<s> = (op app (ph 0) (ph 1))\n",
                     2, 10, "clause for app binds 1 parameter(s), schema has 2",
                     id="table-clause-parameter-count"),
        pytest.param(parse_table,
                     "translate ulc -> ulc\nclause abs = (op abs (ph 0))\n\tclause abs = (op abs (ph 0))\n",
                     3, 9, "duplicate clause for abs", id="table-duplicate-clause"),
        # a word with '/' or '.' is one token, which only a table header accepts
        pytest.param(parse_term, "(op abs.x (var 0))", 1, 5,
                     "expected ident, found 'abs.x'", id="term-path-token"),
        pytest.param(parse_term, "(op abs (var 0.5))", 1, 14,
                     "expected nat, found '0.5'", id="term-path-token-index"),
        pytest.param(lambda text: parse_context(STLC_TYPES, text), "(ctx iota ~/iota)", 1, 11,
                     "expected a sort, found '~/iota'", id="context-path-token"),
        pytest.param(parse_signature, "signature s\nop f : (a/b) -> *\n", 2, 9,
                     "expected a sort, found 'a/b'", id="signature-path-token"),
        pytest.param(parse_signature, "signature s\nsorts a\nop c : () -> a\n  sorts b\n", 4, 3,
                     "duplicate sorts declaration", id="signature-duplicate-sorts"),
        pytest.param(parse_signature, "signature s\noperators\nop c : () -> *\n\toperators\n", 4, 2,
                     "duplicate operators section", id="signature-duplicate-operators"),
        pytest.param(parse_table, "translate ulc -> ulc\nclause abs.sig = (op abs (ph 0))\n", 2, 8,
                     "expected ident, found 'abs.sig'", id="table-clause-path-token"),
    ],
)
def test_parse_syntax_error_has_position(parse, text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


def test_parse_rejects_sorts_after_op():
    with pytest.raises(ParseError):
        parse_signature("signature bad\nop c : () -> *\nsorts a | b\n")


def test_parse_duplicate_op_is_semantic_error():
    with pytest.raises(DuplicateName):
        parse_signature("signature bad\nop c : () -> *\nop c : () -> *\n")


def test_parameterized_print_roundtrip():
    text = (
        "signature g\n"
        "sorts o with arrow\n"
        "op all<s: sort> : ([s] o) -> o\n"
        "op k<n: nat> : () -> o\n"
    )
    sig = parse_signature(text)
    assert sig.schema("all").output == BaseSort("o")
    assert sig.schema("all").inputs[0].bound == (SortRef(0),)
    assert parse_signature(print_signature(sig)) == sig


def test_sort_print_parse_roundtrip():
    for s in (STAR, IOTA, ArrowSort(IOTA, ArrowSort(IOTA, IOTA))):
        assert parse_sort(print_sort(s)) == s


# sorts_up_to_depth's order is part of the enumeration contract: each level
# appends the new arrows by (domain position, codomain position).
PCF_SORTS_TO_DEPTH_2 = """
nat bool arrow(nat,nat) arrow(nat,bool) arrow(bool,nat) arrow(bool,bool) arrow(nat,arrow(nat,nat))
arrow(nat,arrow(nat,bool)) arrow(nat,arrow(bool,nat)) arrow(nat,arrow(bool,bool))
arrow(bool,arrow(nat,nat)) arrow(bool,arrow(nat,bool)) arrow(bool,arrow(bool,nat))
arrow(bool,arrow(bool,bool)) arrow(arrow(nat,nat),nat) arrow(arrow(nat,nat),bool)
arrow(arrow(nat,nat),arrow(nat,nat)) arrow(arrow(nat,nat),arrow(nat,bool))
arrow(arrow(nat,nat),arrow(bool,nat)) arrow(arrow(nat,nat),arrow(bool,bool))
arrow(arrow(nat,bool),nat) arrow(arrow(nat,bool),bool) arrow(arrow(nat,bool),arrow(nat,nat))
arrow(arrow(nat,bool),arrow(nat,bool)) arrow(arrow(nat,bool),arrow(bool,nat))
arrow(arrow(nat,bool),arrow(bool,bool)) arrow(arrow(bool,nat),nat) arrow(arrow(bool,nat),bool)
arrow(arrow(bool,nat),arrow(nat,nat)) arrow(arrow(bool,nat),arrow(nat,bool))
arrow(arrow(bool,nat),arrow(bool,nat)) arrow(arrow(bool,nat),arrow(bool,bool))
arrow(arrow(bool,bool),nat) arrow(arrow(bool,bool),bool) arrow(arrow(bool,bool),arrow(nat,nat))
arrow(arrow(bool,bool),arrow(nat,bool)) arrow(arrow(bool,bool),arrow(bool,nat))
arrow(arrow(bool,bool),arrow(bool,bool))
""".split()

STLC_SORTS_TO_DEPTH_3 = """
iota arrow(iota,iota) arrow(iota,arrow(iota,iota)) arrow(arrow(iota,iota),iota)
arrow(arrow(iota,iota),arrow(iota,iota)) arrow(iota,arrow(iota,arrow(iota,iota)))
arrow(iota,arrow(arrow(iota,iota),iota)) arrow(iota,arrow(arrow(iota,iota),arrow(iota,iota)))
arrow(arrow(iota,iota),arrow(iota,arrow(iota,iota)))
arrow(arrow(iota,iota),arrow(arrow(iota,iota),iota))
arrow(arrow(iota,iota),arrow(arrow(iota,iota),arrow(iota,iota)))
arrow(arrow(iota,arrow(iota,iota)),iota) arrow(arrow(iota,arrow(iota,iota)),arrow(iota,iota))
arrow(arrow(iota,arrow(iota,iota)),arrow(iota,arrow(iota,iota)))
arrow(arrow(iota,arrow(iota,iota)),arrow(arrow(iota,iota),iota))
arrow(arrow(iota,arrow(iota,iota)),arrow(arrow(iota,iota),arrow(iota,iota)))
arrow(arrow(arrow(iota,iota),iota),iota) arrow(arrow(arrow(iota,iota),iota),arrow(iota,iota))
arrow(arrow(arrow(iota,iota),iota),arrow(iota,arrow(iota,iota)))
arrow(arrow(arrow(iota,iota),iota),arrow(arrow(iota,iota),iota))
arrow(arrow(arrow(iota,iota),iota),arrow(arrow(iota,iota),arrow(iota,iota)))
arrow(arrow(arrow(iota,iota),arrow(iota,iota)),iota)
arrow(arrow(arrow(iota,iota),arrow(iota,iota)),arrow(iota,iota))
arrow(arrow(arrow(iota,iota),arrow(iota,iota)),arrow(iota,arrow(iota,iota)))
arrow(arrow(arrow(iota,iota),arrow(iota,iota)),arrow(arrow(iota,iota),iota))
arrow(arrow(arrow(iota,iota),arrow(iota,iota)),arrow(arrow(iota,iota),arrow(iota,iota)))
""".split()


@pytest.mark.parametrize(
    "name, depth, expected",
    [("pcf", 2, PCF_SORTS_TO_DEPTH_2), ("stlc", 3, STLC_SORTS_TO_DEPTH_3)],
)
def test_sorts_up_to_depth_order_is_pinned(name, depth, expected):
    assert len(expected) == {"pcf": 38, "stlc": 26}[name]
    assert [print_sort(s) for s in sorts_up_to_depth(builtin(name).types, depth)] == expected
