import hashlib
import pickle
import sys
import threading
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindsig import (
    ArrowSort,
    BaseSort,
    Op,
    OpCase,
    ParamRef,
    Placeholder,
    Var,
    VarCase,
    XorShift64Star,
    builtin,
    chain_count,
    ctx_extend,
    enumerate_terms,
    fold,
    lambek_compose,
    lambek_decompose,
    mk_op,
    mk_var,
    parse_context,
    parse_term,
    print_context,
    print_sort,
    print_term,
    random_term,
    sort_of,
    term_model,
)
from bindsig.errors import (
    ArityMismatch,
    BindsigError,
    IllFormed,
    ParseError,
    ScopeError,
    SortMismatch,
    Unbounded,
)
from bindsig import term as term_module
from bindsig.sigdef import Signature, TokenStream, parse_signature, sorts_up_to_depth
from bindsig.term import _printed_stage, _read_plain, _read_term, instantiations, term_depth

from oracles import ulc_stage_count, well_formed_terms

STAR = BaseSort("*")
IOTA = BaseSort("iota")
KAPPA = BaseSort("a")
LAM0 = Op("abs", (), (Var(0),))


# ---------------------------------------------------------------------------
# contexts, variables, operator nodes


def test_ctx_extend_empty():
    assert ctx_extend((), (IOTA,)) == (IOTA,)


def test_ctx_extend_prepends():
    assert ctx_extend((IOTA,), (KAPPA, STAR)) == (KAPPA, STAR, IOTA)


def test_ctx_extend_identity():
    ctx = (IOTA, STAR)
    assert ctx_extend(ctx, ()) == ctx


def test_ctx_extend_validates_when_given_types(ulc):
    from bindsig.errors import MalformedSort

    with pytest.raises(MalformedSort):
        ctx_extend((), (IOTA,), ulc.types)


def test_mk_var_returns_sort():
    assert mk_var((STAR, STAR), 1) == (Var(1), STAR)
    arrow = ArrowSort(IOTA, IOTA)
    assert mk_var((arrow, IOTA), 0) == (Var(0), arrow)


def test_mk_var_out_of_scope():
    with pytest.raises(ScopeError):
        mk_var((), 0)


def test_mk_op_identity_lambda(ulc):
    t, sort = mk_op(ulc, (STAR,), "abs", (), (Var(0),))
    assert t == LAM0 and sort == STAR


def test_mk_op_typed_app(stlc):
    f, _ = mk_var((ArrowSort(IOTA, IOTA), IOTA), 0)
    a, _ = mk_var((ArrowSort(IOTA, IOTA), IOTA), 1)
    t, sort = mk_op(stlc, (ArrowSort(IOTA, IOTA), IOTA), "app", (IOTA, IOTA), (f, a))
    assert sort == IOTA
    assert t == Op("app", (IOTA, IOTA), (Var(0), Var(1)))


def test_mk_op_scope_error_propagates(ulc):
    with pytest.raises(ScopeError):
        mk_op(ulc, (), "app", (), (Var(0), Var(0)))


def test_mk_op_arity_checked(ulc):
    with pytest.raises(ArityMismatch):
        mk_op(ulc, (STAR,), "app", (), (Var(0),))


@pytest.mark.parametrize("index", [True, False, 1.0, 0.0])
def test_variable_index_must_be_an_int(ulc, index):
    # True == 1 and 1.0 == 1 passed as positions: (op abs (var True)) was
    # certified, and its text did not read back; 1.0 raised a TypeError.
    with pytest.raises(ScopeError, match="is not an int"):
        mk_op(ulc, (), "abs", (), (Var(index),))
    with pytest.raises(ScopeError, match="is not an int"):
        mk_var((STAR, STAR), index)
    with pytest.raises(ScopeError, match="is not an int"):
        term_model(ulc).var_op((STAR, STAR), index)
    with pytest.raises(IllFormed, match="is not an int"):
        sort_of(ulc, (STAR, STAR), Var(index))


# mk_op trusts the certificate of a node it built only under the same
# signature and over an equal context, or over any context when the node is
# closed; any other argument is checked again.


def test_certificate_is_not_trusted_under_another_signature(ulc):
    lam, _ = mk_op(ulc, (), "abs", (), (Var(0),))
    flat = parse_signature("signature flat\nop abs : (*) -> *\n")  # abs binds nothing
    with pytest.raises(ScopeError):
        mk_op(flat, (), "abs", (), (lam,))


def test_certificate_is_not_trusted_over_another_context(stlc):
    arrow = ArrowSort(IOTA, IOTA)
    lam, sort = mk_op(stlc, (IOTA,), "abs", (IOTA, IOTA), (Var(1),))
    assert sort == arrow
    # over (arrow(iota,iota)) the body's (var 1) is a function, not an iota
    with pytest.raises(SortMismatch, match="argument 0 of abs: expected iota, found arrow"):
        mk_op(stlc, (arrow,), "app", (IOTA, IOTA), (lam, Var(0)))


def test_closed_certified_node_is_accepted_over_a_larger_context(fol, monkeypatch):
    top, _ = mk_op(fol, (), "top")
    closed, _ = mk_op(fol, (), "neg", (), (top,))

    checked = []

    def spy(scope, node, arity, found):
        checked.append(node)
        return check_args(scope, node, arity, found)

    check_args = term_module._check_args
    monkeypatch.setattr(term_module, "_check_args", spy)
    t, sort = mk_op(fol, (STAR,), "forall", (), (closed,))  # its body is over (*, *)
    assert t == Op("forall", (), (Op("neg", (), (Op("top"),)),)) and sort == STAR
    assert checked == [t]  # the certified closed node is not checked again


def _rebuilt_with_mk_op(sig, ctx, t):
    """``t`` rebuilt bottom-up, each operator node through ``mk_op``."""
    if type(t) is Var:
        return t
    arity = sig.arity(t.name, t.params)
    args = tuple(
        _rebuilt_with_mk_op(sig, ctx_extend(ctx, inp.bound), a) for inp, a in zip(arity.inputs, t.args)
    )
    return mk_op(sig, ctx, t.name, t.params, args)[0]


def _mk_op_outcome(sig, ctx, name, params, args):
    try:
        return print_sort(mk_op(sig, ctx, name, params, args)[1])
    except BindsigError as e:
        return f"{type(e).__name__}: {e}"


def _fold_outcome(model, sig, ctx, t):
    try:
        value = fold(model, sig, ctx, t)
        return f"{print_term(value)} : {print_sort(sort_of(sig, ctx, value))}"
    except BindsigError as e:
        return f"{type(e).__name__}: {e}"


# (signature, depth, max_sort_depth): contexts of 0-2 entries of the first
# base sort and, with a sort-depth bound, one entry of each sort within it
MK_OP_PIN_CELLS = [("ulc", 3, None), ("fol", 2, None), ("stlc", 3, 1), ("pcf", 3, 1)]
MK_OP_PIN = (32527, "6a806f335b9cc42d88e2f01f819dd255e3065d17e62cdae31c77a459caffdf8a")
FOLD_PIN = (32527, "1e814d0ac1d42232e95fc90d7095b15a9f52e89631fc3c1e7e6578c89c3aaf77")


def _pin_cells():
    """Each case of MK_OP_PIN_CELLS in a fixed order: (name, signature, an
    equal but distinct signature, context, its first entry's base sort,
    sort, term)."""
    for name, depth, msd in MK_OP_PIN_CELLS:
        sig = builtin(name)
        twin = builtin(name)  # equal, but another Signature object
        base = BaseSort(sig.types.base_sorts[0])
        sorts = sorts_up_to_depth(sig.types, msd or 0)
        ctxs = [(), (base,), (base, base)] + [(s,) for s in sorts if msd and s != base]
        for ctx, sort in product(ctxs, sorts):
            for t in enumerate_terms(sig, ctx, sort, depth, msd):
                yield name, sig, twin, base, ctx, sort, t


def _single_faults(sig, twin, base, ctx, t, built):
    """The argument tuples of the single-fault nodes over the operator
    ``t``, made afresh on each call, in a fixed order: one argument too
    many, one too few (None when ``t`` has no argument), then each fault
    in the place of each argument."""
    args = built.args
    yield args + (Var(0),)
    yield args[:-1] if args else None
    try:
        other_ctx = _rebuilt_with_mk_op(sig, (base,) + ctx, t)
    except BindsigError:
        other_ctx = t
    for j, inp in enumerate(sig.arity(t.name, t.params).inputs):
        scope = ctx_extend(ctx, inp.bound)
        wrong = [Var(i) for i, s in enumerate(scope) if s != inp.sort][:1]
        for fault in [
            Var(len(scope)),  # out of scope
            *wrong,  # a variable at the wrong sort
            "x",  # not a term
            Op(t.name, t.params, ("x",) * len(args)),  # not a term, one level down
            built,  # certified over ctx: over a larger context when inp binds
            t,  # not certified
            _rebuilt_with_mk_op(twin, ctx, t),  # certified under another signature
            other_ctx,  # certified over another context
        ]:
            yield args[:j] + (fault,) + args[j + 1 :]


def test_mk_op_outcomes_are_pinned():
    """Every term of small cells rebuilt with ``mk_op``, then single-fault
    nodes over it: the sort or (exception class, message) of each, in a
    fixed order, hashes to a pinned digest."""
    lines = []
    for name, sig, twin, base, ctx, sort, t in _pin_cells():
        lines.append(f"{name} {print_context(ctx)} {print_term(t)}")
        if type(t) is Var:
            continue
        built = _rebuilt_with_mk_op(sig, ctx, t)
        assert built == t and built._cert[2] == sort
        for args in _single_faults(sig, twin, base, ctx, t, built):
            lines.append("-" if args is None else _mk_op_outcome(sig, ctx, t.name, t.params, args))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == MK_OP_PIN


def test_term_model_fold_outcomes_are_pinned():
    """The same terms and single-fault nodes folded into the term model: the
    text and sort of each result, or its (exception class, message), in a
    fixed order, hash to a pinned digest.  Each fault node is new, so no
    certificate an earlier fold left on a root can matter."""
    lines, models = [], {}
    for name, sig, twin, base, ctx, sort, t in _pin_cells():
        model = models.get(name) or models.setdefault(name, term_model(sig))
        lines.append(f"{name} {print_context(ctx)} {_fold_outcome(model, sig, ctx, t)}")
        if type(t) is Var:
            continue
        built = _rebuilt_with_mk_op(sig, ctx, t)
        for args in _single_faults(sig, twin, base, ctx, t, built):
            node = None if args is None else Op(t.name, t.params, args)
            lines.append("-" if node is None else _fold_outcome(model, sig, ctx, node))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == FOLD_PIN


# ---------------------------------------------------------------------------
# hashing and equality: an operator hashes on first use


class _Hashed:
    """Stands for an item whose hash is known: a tuple's hash reads only
    its items' hashes."""

    __slots__ = ("h",)

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def formula_hash(t):
    """``hash((Op, name, params, args))``, arguments hashed the same way,
    computed without the library's hashing."""
    if type(t) in (Var, Placeholder):
        return hash((type(t), t.index))
    return hash((Op, t.name, t.params, tuple(_Hashed(formula_hash(a)) for a in t.args)))


HASHED_TERMS = [
    Var(0),
    Var(7),
    Op("zero"),
    LAM0,
    Op("app", (), (LAM0, Op("app", (), (Var(1), Var(0))))),
    Op("app", (IOTA, IOTA), (Var(0), Var(1))),
    Op("abs", (ArrowSort(IOTA, IOTA), IOTA), (Var(0),)),
    Op("k", (3,), ()),
    Op("lolli", (), (Op("bang", (), (Placeholder(0),)), Op("zero"))),
    Op("app", (ParamRef(0), ParamRef(1)), (Placeholder(1), Placeholder(0))),
]


@pytest.mark.parametrize("t", HASHED_TERMS, ids=repr)
def test_hash_is_the_structural_formula(t):
    assert hash(t) == formula_hash(t)
    assert hash(t) == hash(t)
    for a in getattr(t, "args", ()):
        assert hash(a) == formula_hash(a)


def _succs(n, leaf):
    for _ in range(n):
        leaf = Op("succ", (), (leaf,))
    return leaf


ARROW_II = ArrowSort(IOTA, IOTA)
# (left, right, equal?): builders, so that each hashing state starts fresh
EQUALITY_CASES = [
    (
        lambda: parse_term("(op app (op abs (var 0)) (var 1))"),
        lambda: Op("app", (), (LAM0, Var(1))),
        True,
    ),
    (lambda: _succs(200, Var(0)), lambda: _succs(200, Var(0)), True),
    (lambda: _succs(200, Var(0)), lambda: _succs(200, Var(1)), False),
    (lambda: _succs(200, Op("zero")), lambda: _succs(200, Var(0)), False),
    (lambda: _succs(200, Op("k", (2,), ())), lambda: _succs(200, Op("k", (3,), ())), False),
    (
        lambda: Op("app", (IOTA, IOTA), (Var(0), Var(1))),
        lambda: Op("app", (ARROW_II, IOTA), (Var(0), Var(1))),
        False,
    ),
    (lambda: Op("f", (), (Var(0),)), lambda: Op("f", (), (Var(0), Var(0))), False),
    (lambda: _succs(50, Placeholder(0)), lambda: _succs(50, Placeholder(0)), True),
    (lambda: _succs(50, Placeholder(0)), lambda: _succs(50, Placeholder(1)), False),
]


@pytest.mark.parametrize("hashed", ["neither", "left", "right", "both", "left below the root"])
def test_equality_does_not_depend_on_which_sides_were_hashed(hashed):
    for left, right, equal in EQUALITY_CASES:
        a, b = left(), right()
        if hashed in ("left", "both"):
            hash(a)
        if hashed in ("right", "both"):
            hash(b)
        if hashed == "left below the root":
            hash(a.args[0])
        assert (a == b) is equal and (b == a) is equal
        assert (a != b) is not equal and (b != a) is not equal


def test_deep_chain_hashes_equal_to_its_reparsed_twin_after_a_hash_free_comparison():
    t, expected = Var(0), hash((Var, 0))
    for _ in range(100_000):
        t = Op("succ", (), (t,))
        expected = hash((Op, "succ", (), (_Hashed(expected),)))
    twin = parse_term(print_term(t))
    assert t == twin
    assert t._hash is None and twin._hash is None  # comparing computed no hash
    assert hash(twin) == hash(t) == expected


def test_threads_hashing_one_shared_term_agree():
    def ladder():
        nodes = [Var(0)]
        for i in range(20_000):
            nodes.append(Op("app", (), (nodes[-1], Op("abs", (), (Var(i % 3),)))))
        return nodes

    shared, twin = ladder(), ladder()
    expected = [hash(x) for x in twin]
    seen = []

    def work(start):
        # each thread starts at its own depth, so threads meet half-hashed terms
        seen.append((hash(shared[start]), hash(shared[-1])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 5_000,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == sorted((expected[k * 5_000], expected[-1]) for k in range(4))
    assert [hash(x) for x in shared] == expected


def test_op_requires_tuples():
    for params, args in (([], [Var(0)]), ((), [Var(0)]), ([], ())):
        with pytest.raises(TypeError):
            Op("app", params, args)


def test_unhashable_value_inside_a_term_is_reported_at_first_hash_or_walk(ulc):
    # construction checks only that params and args are tuples
    bad_param = Op("app", ({},), (Var(0), Var(0)))
    bad_arg = Op("app", (), (Var(0), [Var(0)]))
    for t in (bad_param, bad_arg, Op("abs", (), (bad_arg,))):
        with pytest.raises(TypeError):
            hash(t)
        with pytest.raises(TypeError):
            {t}
    with pytest.raises(TypeError):
        sort_of(ulc, (STAR,), bad_param)
    with pytest.raises(IllFormed):
        sort_of(ulc, (STAR,), bad_arg)


@pytest.mark.parametrize(
    "t", [Op("f", (), (Op("a"), 0)), Op("f", (), (5,)), Op("f", (), (Op("a"), True, -1, 1.0))]
)
def test_int_leaves_pickle_as_themselves(t):
    # an int argument read back as a position among the pickled nodes:
    # (Op("a"), 0) loaded as (Op("a"), Op("a")), and (5,) raised IndexError
    back = pickle.loads(pickle.dumps(t))
    assert back == t and [type(a) for a in back.args] == [type(a) for a in t.args]


_LEAVES = [0, 1, True, -1, None, "s", Placeholder(0), Var(0), Var(2)]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_pickle_round_trip_keeps_terms_and_their_sharing(data):
    # Built bottom-up, an argument either a leaf or any operator built
    # before, so subterms are shared; printable draws have variables only.
    printable = data.draw(st.booleans())
    leaves = st.sampled_from([Var(0), Var(1), Var(5)] if printable else _LEAVES)
    pool = []
    for _ in range(data.draw(st.integers(1, 12))):
        args = []
        for _ in range(data.draw(st.integers(0, 3))):
            if pool and data.draw(st.booleans()):
                args.append(pool[data.draw(st.integers(0, len(pool) - 1))])
            else:
                args.append(data.draw(leaves))
        params = data.draw(st.sampled_from([(), (2,), (IOTA,), (ARROW_II, 0)]))
        pool.append(Op(data.draw(st.sampled_from("fgh")), params, tuple(args)))
    t = pool[-1]
    back = pickle.loads(pickle.dumps(t))
    assert back is not t and back == t and hash(back) == hash(t)
    if printable:
        assert print_term(back) == print_term(t)
    # the original and its copy have the same shape, node for node: a node
    # shared in one is shared in the other, and leaves keep their types
    there, back_again, todo = {}, {}, [(t, back)]
    while todo:
        x, y = todo.pop()
        if type(x) is not Op:
            assert type(y) is type(x) and y == x
        elif id(x) in there:
            assert there[id(x)] is y and back_again[id(y)] is x
        else:
            assert type(y) is Op and id(y) not in back_again
            there[id(x)], back_again[id(y)] = y, x
            todo += zip(x.args, y.args)


def test_sort_of_var(ulc):
    assert sort_of(ulc, (STAR,), Var(0)) == STAR


def test_sort_of_typed_abs(stlc):
    t, _ = mk_op(stlc, (), "abs", (IOTA, IOTA), (Var(0),))
    assert sort_of(stlc, (), t) == ArrowSort(IOTA, IOTA)


def test_sort_of_ill_formed(ulc):
    with pytest.raises(IllFormed):
        sort_of(ulc, (), Var(0))
    with pytest.raises(IllFormed):
        sort_of(ulc, (), Op("mystery", (), ()))


def test_sort_of_deep_abs_chain(ulc):
    t = Var(0)
    for _ in range(2000):
        t = Op("abs", (), (t,))
    assert sort_of(ulc, (), t) == STAR


def test_sort_of_lets_foreign_errors_through(monkeypatch):
    sig = builtin("ulc")

    def broken_arity(self, name, params):
        raise ValueError("broken arity")

    monkeypatch.setattr(Signature, "arity", broken_arity)
    with pytest.raises(ValueError, match="broken arity"):
        sort_of(sig, (), LAM0)


# ---------------------------------------------------------------------------
# enumeration and the chain


def test_stage_one_empty_context_has_no_terms(ulc):
    assert enumerate_terms(ulc, (), STAR, 1) == ()


def test_stage_two_exactly_identity(ulc):
    assert enumerate_terms(ulc, (), STAR, 2) == (LAM0,)


def test_stage_three_exact_list(ulc):
    got = [print_term(t) for t in enumerate_terms(ulc, (), STAR, 3)]
    assert got == [
        "(op app (op abs (var 0)) (op abs (var 0)))",
        "(op abs (var 0))",
        "(op abs (op app (var 0) (var 0)))",
        "(op abs (op abs (var 0)))",
        "(op abs (op abs (var 1)))",
    ]


def _pinned_cells():
    """(signature name, ctx, sort, depth, max_sort_depth) of 244 cells:
    the untyped builtins over 0-2 variables, and stlc and pcf over contexts
    of 0-1 entries of every sort of depth <= 1."""
    for name, tops in (("ulc", (4, 4, 4)), ("nat", (4, 4, 4)), ("fol", (3, 3, 3)), ("ll", (3, 2, 2))):
        star = builtin(name).types.single_sort()
        for n, top in enumerate(tops):
            for k in range(top + 1):
                yield name, (star,) * n, star, k, None
    for name in ("stlc", "pcf"):
        sorts = sorts_up_to_depth(builtin(name).types, 1)
        for n in range(2):
            for ctx in product(sorts, repeat=n):
                for sort in sorts:
                    for k in range(4):
                        yield name, ctx, sort, k, 1


# One line per cell: the cell, chain_count and the SHA-256 of its printed
# listing, one term a line.  It pins the listing order of every cell.
LISTINGS_SHA256 = "a1c26e434cf075f4a05579bd33626829e363afa2c7a01f9714b17122a10a3e24"


def test_listings_and_counts_are_pinned():
    sigs, digest, cells, terms = {}, hashlib.sha256(), 0, 0
    for name, ctx, sort, k, msd in _pinned_cells():
        sig = sigs.setdefault(name, builtin(name))
        listing = enumerate_terms(sig, ctx, sort, k, msd)
        count = chain_count(sig, ctx, sort, k, msd)
        printed = list(_printed_stage(sig, ctx, sort, k, msd))  # the stage folded into texts
        assert count == len(listing) and printed == list(map(print_term, listing))
        shown = hashlib.sha256("\n".join(printed).encode()).hexdigest()
        line = f"{name} {print_context(ctx)} {print_sort(sort)} {k} {count} {shown}\n"
        digest.update(line.encode())
        cells, terms = cells + 1, terms + count
    assert (cells, terms) == (244, 86061)
    assert digest.hexdigest() == LISTINGS_SHA256


# The repr of the same cells: each cell's context and sort, then its terms,
# one a line.  Sorts are in it three ways: context entries, cell sorts and
# operator parameters, arrows among them.
REPRS_SHA256 = "830bdbe1f1a3faa06db32d48286d528f319503c519ae47dad2793f9837f5a508"


def test_reprs_are_pinned():
    sigs, digest, arrows = {}, hashlib.sha256(), 0
    for name, ctx, sort, k, msd in _pinned_cells():
        sig = sigs.setdefault(name, builtin(name))
        lines = [repr(t) for t in enumerate_terms(sig, ctx, sort, k, msd)]
        arrows += sum("params=(ArrowSort(" in line for line in lines)
        digest.update((f"{name} {ctx!r} {sort!r} {k}\n" + "".join(x + "\n" for x in lines)).encode())
    assert arrows > 0
    assert digest.hexdigest() == REPRS_SHA256


def test_cached_stages_cannot_be_mutated():
    sig, stlc = builtin("ulc"), builtin("stlc")
    for cached in (enumerate_terms(sig, (), STAR, 3), instantiations(stlc, "app", 1)):
        with pytest.raises(AttributeError):
            cached.clear()
    assert len(enumerate_terms(sig, (), STAR, 3)) == chain_count(sig, (), STAR, 3) == 5
    assert len(instantiations(stlc, "app", 1)) == 4


def test_stage_zero_is_empty_everywhere():
    for name in ("ulc", "fol", "ll", "nat"):
        sig = builtin(name)
        star = sig.types.single_sort()
        assert chain_count(sig, (star, star), star, 0) == 0
        assert enumerate_terms(sig, (star,), star, 0) == ()


@pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (3, 5), (4, 51)])
def test_ulc_chain_counts_match_recurrence(ulc, k, expected):
    assert ulc_stage_count(k, 0) == expected
    assert chain_count(ulc, (), STAR, k) == expected


def test_chain_count_matches_recurrence_on_nonempty_contexts(ulc):
    for n in range(3):
        for k in range(5):
            assert chain_count(ulc, (STAR,) * n, STAR, k) == ulc_stage_count(k, n)


def test_counts_match_enumeration_depth4_contexts2(ulc, nat_sig):
    for sig in (ulc, nat_sig):
        star = sig.types.single_sort()
        for n in range(3):
            ctx = (star,) * n
            for k in range(5):
                assert chain_count(sig, ctx, star, k) == len(enumerate_terms(sig, ctx, star, k))


def test_counts_match_enumeration_typed(stlc, pcf):
    for sig, sorts in ((stlc, [IOTA, ArrowSort(IOTA, IOTA)]), (pcf, [BaseSort("nat"), BaseSort("bool")])):
        for ctx in [(), (sorts[0],), (sorts[0], sorts[1])]:
            for sort in sorts:
                for k in range(5):
                    assert chain_count(sig, ctx, sort, k, max_sort_depth=1) == len(
                        enumerate_terms(sig, ctx, sort, k, max_sort_depth=1)
                    )


def test_counts_match_enumeration_fol_ll_depth3(fol, ll):
    # k = 4 over these signatures runs to hundreds of millions of terms,
    # far beyond what enumeration can materialize; the identity is checked
    # where both sides are computable.
    for sig in (fol, ll):
        star = sig.types.single_sort()
        for n in range(3):
            ctx = (star,) * n
            for k in range(4):
                assert chain_count(sig, ctx, star, k) == len(enumerate_terms(sig, ctx, star, k))


def test_enumerated_terms_are_well_formed(fol):
    for n in range(3):
        ctx = (STAR,) * n
        for t in enumerate_terms(fol, ctx, STAR, 3):
            assert sort_of(fol, ctx, t) == STAR


def test_chain_monotone(ulc, fol):
    # stage k embeds in stage k+1; FOL stops at 3 because its stage 4
    # runs to half a billion terms
    for sig, top in ((ulc, 4), (fol, 3)):
        for n in range(3):
            ctx = (STAR,) * n
            for k in range(top):
                smaller = set(enumerate_terms(sig, ctx, STAR, k))
                larger = set(enumerate_terms(sig, ctx, STAR, k + 1))
                assert smaller <= larger


def test_enumeration_is_complete_against_generate_and_filter(ulc, fol):
    # every well-formed term of depth <= k is enumerated at stage k
    for sig in (ulc, fol):
        for n in range(3):
            ctx = (sig.types.single_sort(),) * n
            for k in (2, 3):
                expected = set(well_formed_terms(sig, ctx, STAR, k))
                assert set(enumerate_terms(sig, ctx, STAR, k)) == expected


def test_enumerated_depths_bounded(ulc):
    for t in enumerate_terms(ulc, (STAR,), STAR, 4):
        assert term_depth(t) <= 4


def test_parameterized_enumeration_requires_bound(stlc):
    with pytest.raises(Unbounded):
        enumerate_terms(stlc, (), IOTA, 3)


def test_random_term_seeded_and_well_formed(ulc):
    rng = XorShift64Star(42)
    terms = [random_term(ulc, (STAR,), STAR, 6, rng) for _ in range(50)]
    for t in terms:
        assert sort_of(ulc, (STAR,), t) == STAR
        assert term_depth(t) <= 6
    rng2 = XorShift64Star(42)
    again = [random_term(ulc, (STAR,), STAR, 6, rng2) for _ in range(50)]
    assert terms == again


# The law suites sample their cases with seeded random_term draws, and their
# golden counts depend on exactly which terms are drawn: this pins the draws.
SEEDED_DRAWS_SHA256 = "c0c698a6427f2a1bc86fb807d87a19b99224c2581a343a5fe3d97b5f5959d5f4"


def test_seeded_draws_are_pinned():
    rng = XorShift64Star(7)
    digest = hashlib.sha256()
    for name in ("ulc", "fol", "stlc", "pcf"):
        sig = builtin(name)
        bases = sorts_up_to_depth(sig.types, 0)
        for n in range(3):
            for ctx in product(bases, repeat=n):
                for sort in bases:
                    for _ in range(5):
                        try:
                            t = random_term(sig, ctx, sort, 4, rng, max_sort_depth=1)
                            shown = print_term(t)
                        except ValueError:  # an empty cell draws nothing
                            shown = "empty"
                        line = f"{name} {print_context(ctx)} {print_sort(sort)} {shown}\n"
                        digest.update(line.encode())
    assert digest.hexdigest() == SEEDED_DRAWS_SHA256


# ---------------------------------------------------------------------------
# Lambek decomposition


def test_decompose_var():
    assert lambek_decompose(Var(3)) == VarCase(3)


def test_decompose_op(ulc):
    t = Op("app", (), (LAM0, Var(0)))
    assert lambek_decompose(t) == OpCase("app", (), (LAM0, Var(0)))


def test_compose_var():
    assert lambek_compose(VarCase(0)) == Var(0)


def test_lambek_round_trip_enumerated(ulc):
    for t in enumerate_terms(ulc, (STAR, STAR), STAR, 3):
        assert lambek_compose(lambek_decompose(t)) == t
        case = lambek_decompose(t)
        assert lambek_decompose(lambek_compose(case)) == case


def test_lambek_stage_identity(ulc):
    # |A_{k+1}(G)| = |G| + sum over schemas of the product of input cells
    for n in range(3):
        ctx = (STAR,) * n
        for k in range(4):
            app_part = chain_count(ulc, ctx, STAR, k) ** 2
            abs_part = chain_count(ulc, (STAR,) + ctx, STAR, k)
            assert chain_count(ulc, ctx, STAR, k + 1) == n + app_part + abs_part


# ---------------------------------------------------------------------------
# term grammar


def test_parse_term_basic():
    assert parse_term("(op abs (var 0))") == LAM0


def test_parse_term_with_params():
    t = parse_term("(op app<iota,iota> (var 0) (var 1))")
    assert t == Op("app", (IOTA, IOTA), (Var(0), Var(1)))


def test_parse_term_numeral_param():
    assert parse_term("(op k<3>)") == Op("k", (3,), ())


def test_parse_term_arrow_param():
    t = parse_term("(op abs<arrow(iota,iota),iota> (var 0))")
    assert t.params == (ArrowSort(IOTA, IOTA), IOTA)


def test_parse_term_syntax_error():
    with pytest.raises(ParseError):
        parse_term("(op app (var 0)")
    with pytest.raises(ParseError):
        parse_term("(var x)")


def test_print_parse_roundtrip_enumerated(ulc, pcf):
    for t in enumerate_terms(ulc, (STAR,), STAR, 3):
        assert parse_term(print_term(t)) == t
    for t in enumerate_terms(pcf, (), BaseSort("nat"), 3, max_sort_depth=1):
        assert parse_term(print_term(t)) == t


def test_print_term_prints_each_parameter_tuple_once(monkeypatch):
    # A 451-node stlc abs/app chain: 300 parameterised nodes share two
    # tuples, and one more node has an equal tuple of its own.
    arrow = ArrowSort(IOTA, IOTA)
    p_abs, p_app, p_own = (IOTA, arrow), (arrow, IOTA), (IOTA, arrow)
    t = Op("abs", p_own, (Var(0),))
    for _ in range(150):
        t = Op("abs", p_abs, (Op("app", p_app, (t, Var(0))),))
    expected = (
        "(op abs<iota,arrow(iota,iota)> (op app<arrow(iota,iota),iota> " * 150
        + "(op abs<iota,arrow(iota,iota)> (var 0))"
        + " (var 0)))" * 150
    )
    calls = []

    def counting(sort):
        calls.append(sort)
        return print_sort(sort)

    monkeypatch.setattr(term_module, "print_sort", counting)
    assert print_term(t) == expected
    assert len(calls) == len(p_abs) + len(p_app) + len(p_own)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_print_parse_roundtrip_random(ulc, data):
    rng = XorShift64Star(data.draw(st.integers(min_value=0, max_value=2**63)))
    t = random_term(ulc, (STAR, STAR), STAR, 6, rng)
    assert parse_term(print_term(t)) == t


def _read_tokens(text):
    ts = TokenStream(text)
    t = _read_term(ts)
    ts.expect_eof()
    return t


def _outcome(read, text):
    """The term ``read`` gives, or its exception's class, message and position."""
    try:
        return read(text)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


BLANKS = [" ", "  ", "\t", "\n", "\r\n", " \r\n\t"]
# plain characters, and characters the scanner reads otherwise or rejects
EDIT_CHARS = "()<>, \t\r\n_azAZ0919opvar#./-?*:[]|=\x0c\u00e9\u00b2\u0663"


EDGE_TEXTS = [
    "( var 0 )",
    "(op app<iota,iota>(var 0)(var 1))",
    "(op abs< iota ,\tarrow (iota ,iota) > (var 0))",
    "(op k<007>)",
    "\r\n(op k<0>)\n",
    "(op abs<iota> (var 0))",
    "(op abs<> (var 0))",
    "(op abs<iota,iota,> (var 0))",
    "(op abs<,iota> (var 0))",
    "(op abs<arrow> (var 0))",
    "(op abs<arrow(iota)> (var 0))",
    "(op abs<iota,iota>> (var 0))",
    "(op abs<iota,iota (var 0))",
    "(op abs<iota iota> (var 0))",
    "(op k<1a>)",
    "(var0)",
    "(opabs (var 0))",
    "(op 0bs (var 0))",
    "(op abs (var 0x))",
    "(op abs (var 0)))",
    "(op app (var 0 (var 1))",
    "(var 0) (var 1)",
    "(op abs (var 0)) extra",
    "(op",
    ")",
    "",
    " \t",
    "(ph 0)",
    "(op abs (ph 0))",
    "(var 0)# comment",
    "\x0c(var 0)",
    "(var 0)\x0c",
    "(op abs\x0b(var 0))",
    "(op abs\xa0(var 0))",
    "\u3000(var 0)",
    "(op ab\u00e9 (var 0))",
    "(var \u0663)",
    "(op k<\u0663>)",
    "(op k<\u00b2>)",
    "(op a-b)",
    "(op a? (var 0))",
    "(op *)",
    "(op abs.x (var 0))",
    "(op abs (var 0.5))",
    "(op app (var 0) (var " + "9" * 4301 + "))",
    "(op k<" + "9" * 4301 + ">)",
    "(op k<" + "9" * 4300 + ">)",
]


@pytest.mark.parametrize("text", EDGE_TEXTS, ids=lambda text: repr(text[:40]) + f"-{len(text)}")
def test_parse_term_reads_edge_texts_as_the_token_reader(text):
    assert _outcome(parse_term, text) == _outcome(_read_tokens, text)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_parse_term_reads_what_the_token_reader_reads(ulc, stlc, pcf, data):
    sig, ctx, sort, max_sort_depth = data.draw(
        st.sampled_from(
            [
                (ulc, (STAR, STAR), STAR, None),
                (stlc, (IOTA, ArrowSort(IOTA, IOTA)), IOTA, 1),
                (pcf, (BaseSort("nat"),), BaseSort("nat"), 1),
            ]
        )
    )
    rng = XorShift64Star(data.draw(st.integers(min_value=0, max_value=2**63)))
    t = random_term(sig, ctx, sort, data.draw(st.integers(1, 5)), rng, max_sort_depth)
    # re-space: any blank for each space, and blanks around punctuation
    pieces = [data.draw(st.sampled_from(["", *BLANKS]))]
    for c in print_term(t):
        if c == " ":
            pieces.append(data.draw(st.sampled_from(BLANKS)))
            continue
        if c in "()<>,":
            pieces.append(data.draw(st.sampled_from(["", "", *BLANKS])))
        pieces.append(c)
    text = "".join(pieces) + data.draw(st.sampled_from(["", *BLANKS]))
    assert _read_plain(text) == t and parse_term(text) == t and _read_tokens(text) == t
    # one edit: delete, insert or replace a character
    i = data.draw(st.integers(0, len(text) - 1))
    edit = data.draw(st.sampled_from(["delete", "insert", "replace"]))
    c = data.draw(st.sampled_from(EDIT_CHARS))
    mutant = text[:i] + ("" if edit == "delete" else c) + text[i + (edit != "insert") :]
    assert _outcome(parse_term, mutant) == _outcome(_read_tokens, mutant)


def test_context_print_parse(ulc, stlc):
    assert parse_context(ulc.types, "2") == (STAR, STAR)
    assert parse_context(stlc.types, "0") == ()
    ctx = (ArrowSort(IOTA, IOTA), IOTA)
    assert parse_context(stlc.types, print_context(ctx)) == ctx
