"""Terms and sorts far deeper than the Python stack.

Every layer walks terms on an explicit stack, so a 100 000-deep chain goes
through parse, print, checking, substitution, renaming, folds, translation,
equality and hashing, and a translation clause thousands of nodes deep is
read, checked and compiled.  Expected values are built by plain loops, not
by the library's traversal.  Folds run under 50 000 nested binders too: a
walk enters a binder at the cost of its own group, and a model's context
becomes a tuple only when the model asks for one.  Folding a term into the
term model gives it back, checking each node once.  Sorts have one walk on
an explicit stack, and one reader loop, so a 100 000-deep arrow sort is
read, printed, compared, checked, instantiated and mapped, and a term whose
operator parameters are 20 000-deep sorts is checked, folded and translated.
The chain's cells are filled, and random terms drawn, on explicit stacks
too, so a stage thousands of levels deep is counted, listed and drawn;
a draw reads inhabitation, not counts.  A typed chain's text is read one
node head per regex match.  Terms and sorts copy and deep-copy as
themselves, their ``repr`` is spelled out on explicit stacks, and
``term_depth`` measures each distinct node of a shared term once.  Terms
and sorts pickle flat, a shared term in its distinct nodes, and no stored
hash or cache crosses a pickle, so values load under any hash seed.
"""

import copy
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import bindsig
from bindsig import (
    ArrowSort,
    Assignment,
    BaseSort,
    Op,
    OperatorFamily,
    Renaming,
    TypeMorphism,
    Var,
    XorShift64Star,
    builtin,
    builtin_table,
    chain_count,
    enumerate_terms,
    fold,
    free_extend,
    fv_model,
    identity_table,
    instantiate,
    mk_op,
    parse_sort,
    parse_table,
    parse_term,
    print_sort,
    print_term,
    random_term,
    rename,
    sort_of,
    subst,
    term_model,
    translate_term,
    weaken,
)
from bindsig.cli import main
from bindsig.errors import OffsetMismatch, ScopeError
from bindsig.sigdef import TokenStream, check_sort, parse_signature
from bindsig.term import _read_term, term_depth

N = 100_000
STAR = BaseSort("*")
CTX = (STAR,)
TARGET = (STAR, STAR)


def spine(leaf, binders=N // 2, wrap=False):
    """ulc: ``abs (app <spine> (var 0))``, N deep, N/2 binders above ``leaf``;
    with ``wrap``, each ``<spine>`` sits under the label ``wrap``."""
    t = leaf
    for _ in range(binders):
        t = Op("abs", (), (Op("app", (), (Op("wrap", (), (t,)) if wrap else t, Var(0))),))
    return t


def spine_text(leaf):
    return "(op abs (op app " * (N // 2) + leaf + " (var 0)))" * (N // 2)


def unary(name, leaf):
    t = leaf
    for _ in range(N):
        t = Op(name, (), (t,))
    return t


def succs(leaf):
    return unary("succ", leaf)


def succs_text(leaf):
    return "(op succ " * N + leaf + ")" * N


@pytest.mark.parametrize(
    "sig_name, chain, text, binders, image, weakened",
    [
        (
            "ulc",
            spine,
            spine_text,
            N // 2,
            Op("abs", (), (Op("app", (), (Var(0), Var(2))),)),
            lambda k: Op("abs", (), (Op("app", (), (Var(0), Var(k + 2))),)),
        ),
        (
            "nat",
            succs,
            succs_text,
            0,
            Op("succ", (), (Var(1),)),
            lambda k: Op("succ", (), (Var(k + 1),)),
        ),
    ],
)
def test_deep_chain(sig_name, chain, text, binders, image, weakened):
    sig = builtin(sig_name)
    t = chain(Var(binders))  # the leaf is the free variable 0 of CTX
    twin = chain(Var(binders))
    assert t is not twin and t == twin and hash(t) == hash(twin)
    renamed = chain(Var(binders + 1))
    assert t != renamed

    shown = print_term(t)
    assert shown == text(f"(var {binders})")
    assert parse_term(shown) == t

    assert sort_of(sig, CTX, t) == STAR
    assert subst(sig, t, Assignment(CTX, TARGET, (image,))) == chain(weakened(binders))
    assert rename(sig, t, Renaming(CTX, TARGET, (1,))) == renamed
    assert weaken(sig, CTX, t, TARGET) == chain(Var(binders + 2))


def test_checked_construction_is_linear():
    # each mk_op checks its node against its argument's certificate only
    nat = builtin("nat")
    t = Var(0)
    for _ in range(N):
        t, sort = mk_op(nat, CTX, "succ", (), (t,))
    assert t == succs(Var(0)) and sort == STAR


def test_deep_folds():
    nat = builtin("nat")
    t = succs(Var(0))
    assert fold(fv_model(nat), nat, CTX, t) == {0}
    assert fold(term_model(nat), nat, CTX, t) == t

    family = OperatorFamily.untyped(nat, {"wrap": 1})
    labelled = Var(0)
    for i in range(N):
        labelled = Op("wrap" if i % 2 else "succ", (), (labelled,))
    assert free_extend(fv_model(nat), nat, family, {"wrap": frozenset({0})}, CTX, labelled) == {0}
    # wrap interpreted as the identity: the labels drop out
    unwrapped = Var(0)
    for _ in range(N // 2):
        unwrapped = Op("succ", (), (unwrapped,))
    assert free_extend(term_model(nat), nat, family, {"wrap": Var(0)}, CTX, labelled) == unwrapped

    ulc = builtin("ulc")
    t = spine(Var(N // 2))
    assert fold(fv_model(ulc), ulc, CTX, t) == {0}
    assert fold(term_model(ulc), ulc, CTX, t) == t
    family = OperatorFamily.untyped(ulc, {"wrap": 1})
    labelled = spine(Var(N // 2), wrap=True)
    assert free_extend(term_model(ulc), ulc, family, {"wrap": Var(0)}, CTX, labelled) == t


def test_folds_under_binders_take_linear_memory():
    # Each of 4 000 nested binders used to hand its model a fresh tuple of
    # the whole context: 8 M entries, some 62 MiB at the peak.
    ulc = builtin("ulc")
    family = OperatorFamily.untyped(ulc, {"wrap": 1})
    t = spine(Var(4_000), binders=4_000)
    runs = {
        "fv": lambda: fold(fv_model(ulc), ulc, CTX, t),
        "term": lambda: fold(term_model(ulc), ulc, CTX, t),
        "free_extend": lambda: free_extend(term_model(ulc), ulc, family, {"wrap": Var(0)}, CTX, t),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (name, peak)


def test_variables_of_the_callers_context_are_found_at_once():
    # abs (app <spine> (var L)), where var L names CTX's one entry at every
    # level: looked up through one link per binder, this took seconds at
    # 8 000 levels and grew with the square of the depth.
    ulc = builtin("ulc")
    levels = 20_000
    t = Var(levels)
    for k in range(levels, 0, -1):
        t = Op("abs", (), (Op("app", (), (t, Var(k))),))
    started = time.perf_counter()
    assert sort_of(ulc, CTX, t) == STAR
    assert time.perf_counter() - started < 5
    started = time.perf_counter()
    assert fold(term_model(ulc), ulc, CTX, t) == t
    assert time.perf_counter() - started < 5


def alternating(depth, leaf):
    """ulc with a ``wrap`` label: ``app (wrap <chain>) (var 0)``, depth pairs."""
    t = leaf
    for _ in range(depth):
        t = Op("app", (), (Op("wrap", (), (t,)), Var(0)))
    return t


WRAP = Op("app", (), (Var(0), Op("abs", (), (Var(0),))))


def test_free_extend_checks_label_outputs_once():
    # Each label output sits under a base constructor, so the term model
    # checks it; the check stops at the subterms the model built.
    ulc = builtin("ulc")
    family = OperatorFamily.untyped(ulc, {"wrap": 1})
    depth = 10_000
    expected = Var(0)
    for _ in range(depth):
        expected = Op("app", (), (Op("app", (), (expected, Op("abs", (), (Var(0),)))), Var(0)))
    t = alternating(depth, Var(0))
    assert free_extend(term_model(ulc), ulc, family, {"wrap": WRAP}, CTX, t) == expected


def test_free_extend_still_checks_the_interpretation_under_a_base_constructor():
    ulc = builtin("ulc")
    family = OperatorFamily.untyped(ulc, {"wrap": 1})
    # The negative index passes through substitution unchanged.
    ill_scoped = Op("app", (), (Var(0), Var(-1)))
    with pytest.raises(ScopeError):
        free_extend(term_model(ulc), ulc, family, {"wrap": ill_scoped}, CTX, alternating(3, Var(0)))


def test_deep_translation():
    fol = builtin("fol")
    t = unary("neg", Op("top"))
    expected = Op("top")
    for _ in range(N):
        expected = Op("lolli", (), (Op("bang", (), (expected,)), Op("zero")))

    assert parse_term(print_term(t)) == t
    assert sort_of(fol, (), t) == STAR
    assert subst(fol, t, Assignment((), CTX, ())) == t
    assert weaken(fol, (), t, CTX) == t
    assert fold(fv_model(fol), fol, (), t) == frozenset()
    assert fold(term_model(fol), fol, (), t) == t
    assert translate_term(builtin_table("fol2ll"), (), t) == expected


def test_deep_term_on_the_command_line(capsys):
    depth = 10_000
    text = "(op succ " * depth + "(var 0)" + ")" * depth
    code = main(["fv", "--sig", "nat", "--ctx", "1", text])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "{0}\n", "")


DEEP = 3_000

FOL_CLAUSES = """translate fol -> fol
clause top = (op top)
clause bot = (op bot)
clause and = (op and (ph 0) (ph 1))
clause or = (op or (ph 0) (ph 1))
clause imp = (op imp (ph 0) (ph 1))
clause exists = (op exists (ph 0))
"""


def test_deep_clause(tmp_path, capsys):
    text = FOL_CLAUSES + "clause forall = (op forall (ph 0))\n"
    text += "clause neg = " + "(op neg " * DEEP + "(ph 0)" + ")" * DEEP + "\n"
    expected = Op("top")
    for _ in range(DEEP):
        expected = Op("neg", (), (expected,))
    t = parse_term("(op neg (op top))")
    got = translate_term(parse_table(text), (), t)
    assert got == expected and term_depth(got) == DEEP + 1

    path = tmp_path / "deep.tbl"
    path.write_text(text)
    code = main(["translate", "--table", str(path), "--ctx", "0", "(op neg (op top))"])
    captured = capsys.readouterr()
    shown = "(op neg " * DEEP + "(op top)" + ")" * DEEP + "\n"
    assert (code, captured.out, captured.err) == (0, shown, "")


def test_deep_clause_placeholder_one_binder_too_deep():
    # forall's input binds one variable; the placeholder sits under two
    text = FOL_CLAUSES + "clause neg = (op neg (ph 0))\n"
    text += "clause forall = (op forall " + "(op neg " * (DEEP - 2)
    text += "(op forall (ph 0))" + ")" * (DEEP - 1) + "\n"
    with pytest.raises(OffsetMismatch, match="^forall: placeholder 0 sits under"):
        parse_table(text)


IOTA = BaseSort("iota")


def arrows(depth, leaf=IOTA):
    """A ``depth``-deep arrow sort nesting on alternate sides, ``leaf`` at
    every leaf."""
    sort = leaf
    for i in range(depth):
        sort = ArrowSort(sort, leaf) if i % 2 else ArrowSort(leaf, sort)
    return sort


def arrows_text(depth):
    opens = ["arrow(" if i % 2 else "arrow(iota," for i in range(depth)]
    closes = [",iota)" if i % 2 else ")" for i in range(depth)]
    return "".join(reversed(opens)) + "iota" + "".join(closes)


def test_deep_sort():
    stlc = builtin("stlc")
    d = arrows(N)
    twin = arrows(N)
    assert d is not twin and d == twin and hash(d) == hash(twin)
    assert d != arrows(N, BaseSort("nat"))

    text = print_sort(d)
    assert text == arrows_text(N)
    assert parse_sort(text) == d

    check_sort(stlc.types, d)
    arity = instantiate(stlc.schema("app"), (d, d), stlc.types)
    assert arity.inputs[0].sort == ArrowSort(d, d) and arity.output == d

    assert TypeMorphism.identity(stlc.types).apply(d) == d
    doubled = TypeMorphism(stlc.types, stlc.types, {"iota": ArrowSort(IOTA, IOTA)})
    assert doubled.apply(d) == arrows(N, ArrowSort(IOTA, IOTA))


def test_deep_sort_parameters():
    stlc = builtin("stlc")
    depth = 20_000
    d = arrows(depth)
    t = Op("abs", (d, d), (Var(0),))
    text = f"(op abs<{arrows_text(depth)},{arrows_text(depth)}> (var 0))"
    assert parse_term(text) == t
    assert print_term(t) == text
    assert sort_of(stlc, (), t) == ArrowSort(d, d)
    assert fold(term_model(stlc), stlc, (), t) == t
    assert translate_term(identity_table(stlc), (), t) == t
    assert translate_term(builtin_table("stlc2ulc"), (), t) == Op("abs", (), (Var(0),))


def test_deep_values_repr_without_recursion():
    # repr spells out arguments and arrows on explicit stacks; at 5 000 deep
    # both raised RecursionError.  The texts are the shallow ones, nested.
    iota = repr(IOTA)
    opens = ["ArrowSort(domain=" if i % 2 else f"ArrowSort(domain={iota}, codomain=" for i in range(N)]
    closes = [f", codomain={iota})" if i % 2 else ")" for i in range(N)]
    sort_text = "".join(reversed(opens)) + iota + "".join(closes)
    assert timed(repr, arrows(N)) == sort_text
    assert timed(repr, succs(Var(0))) == "Op('succ', args=(" * N + "Var(0)" + ",))" * N
    t = spine(Op("c", (arrows(N),)))
    expected = (
        "Op('abs', args=(Op('app', args=(" * (N // 2)
        + f"Op('c', params=({sort_text},))"
        + ", Var(0))),))" * (N // 2)
    )
    assert timed(repr, t) == expected


def test_deep_draws_read_inhabitation_not_counts():
    # Draws read each cell's memoised draws, made from whether its input
    # cells are inhabited.  Exact counts took 20 s here, the largest with
    # 27.9 M bits.
    sig = builtin("ulc")
    started = time.perf_counter()
    t = random_term(sig, TARGET, STAR, 25, XorShift64Star(1))
    assert time.perf_counter() - started < 0.05
    assert sort_of(sig, TARGET, t) == STAR and term_depth(t) <= 25
    assert not [key for key in sig._cache if key[0] == "counts"]


def timed(f, *args):
    started = time.perf_counter()
    value = f(*args)
    assert time.perf_counter() - started < 5
    return value


def test_deep_typed_abs_chain_is_read_one_head_at_a_time():
    text = "(op abs<iota,iota> " * N + "(var 0)" + ")" * N
    expected = Var(0)
    for _ in range(N):
        expected = Op("abs", (IOTA, IOTA), (expected,))
    t = timed(parse_term, text)
    ts = TokenStream(text)
    assert t == expected and t == _read_term(ts) and ts.at_eof()
    assert t.args[0].args[0].params is t.params  # one tuple per parameter text


RUNGS = 1200


def ladder():
    """s0 .. s1200, a constant of s0 and an operator from each rung to the
    next: the one term of s1200 is 1 201 deep, and so is its only cell."""
    return parse_signature(
        "signature ladder\nsorts "
        + " | ".join(f"s{i}" for i in range(RUNGS + 1))
        + "\nop c : () -> s0\n"
        + "".join(f"op f{i} : (s{i - 1}) -> s{i}\n" for i in range(1, RUNGS + 1))
    )


def test_deep_stage():
    rungs = RUNGS
    sig = ladder()
    top = BaseSort(f"s{rungs}")
    expected = Op("c")
    for i in range(1, rungs + 1):
        expected = Op(f"f{i}", (), (expected,))
    assert timed(chain_count, sig, (), top, rungs + 1) == 1
    assert timed(enumerate_terms, sig, (), top, rungs + 1) == (expected,)
    assert timed(random_term, sig, (), top, rungs + 1, XorShift64Star(1)) == expected
    assert chain_count(sig, (), top, rungs) == 0 and enumerate_terms(sig, (), top, rungs) == ()
    with pytest.raises(ValueError):
        random_term(sig, (), top, rungs, XorShift64Star(1))


def test_deep_stage_count():
    assert timed(chain_count, builtin("nat"), (), STAR, N) == N


def test_stage_over_many_sorts_reads_each_cells_own_productions():
    # Scanning every schema's instantiations for each of the 1 201 cells
    # took 1.0-1.7 s; the index by output sort leaves each cell its own.
    sig = ladder()
    started = time.perf_counter()
    assert chain_count(sig, (), BaseSort(f"s{RUNGS}"), RUNGS + 1) == 1
    assert time.perf_counter() - started < 0.5


def test_deep_values_copy_as_themselves():
    # Immutable values: copy and deepcopy give the value back, at any depth.
    t, sort = succs(Var(0)), arrows(N)
    for value in (t, Var(3), sort, IOTA):
        assert copy.copy(value) is value and copy.deepcopy(value) is value
    held = copy.deepcopy({"term": t, "sort": sort})
    assert held["term"] is t and held["sort"] is sort


def dag():
    """t_k = app(t_(k-1), t_(k-1)) over Var(0) at k = 40: k + 1 distinct
    nodes, 2^k leaves."""
    t = Var(0)
    for _ in range(40):
        t = Op("app", (), (t, t))
    return t


def test_term_depth_counts_each_shared_node_once():
    # Walked as a tree, k = 20 took 2.4 s.
    t = dag()
    started = time.perf_counter()
    assert term_depth(t) == 41
    assert time.perf_counter() - started < 1
    assert term_depth(Var(7)) == 1 and term_depth(Op("c")) == 1
    assert term_depth(Op("f", (), (Op("c"), Op("g", (), (Var(0),))))) == 3


def test_shared_dag_is_hashed_and_bounded_in_its_distinct_nodes():
    # hash, and the loose bound subst reads first, visit a node once however
    # often it is shared, as term_depth does.
    t = dag()
    closed = Op("abs", (), (t,))
    started = time.perf_counter()
    assert hash(t) == hash(dag())
    assert subst(builtin("ulc"), closed, Assignment(CTX, TARGET, (Var(1),))) is closed
    assert time.perf_counter() - started < 1


def round_trip(value):
    return pickle.loads(pickle.dumps(value))


def test_deep_values_pickle_flat():
    # At 5 000 deep, pickling a term or a sort raised RecursionError.
    for value in (succs(Var(0)), spine(Op("c", (arrows(1000),))), arrows(N)):
        hash(value)
        back = timed(round_trip, value)
        assert back is not value and back == value and hash(back) == hash(value)


def test_shared_dag_pickles_in_its_distinct_nodes():
    data = pickle.dumps(dag())
    assert len(data) < 40 * 40  # a few bytes per distinct node, not per leaf
    t, depth = pickle.loads(data), 41
    assert hash(t) == hash(dag())
    while type(t) is Op:
        assert t.args[0] is t.args[1]
        t, depth = t.args[0], depth - 1
    assert t == Var(0) and depth == 1


def test_used_table_pickles_and_translates_as_before():
    # A used table kept its checked clauses as closures, which do not pickle.
    table = builtin_table("fol2ll")
    terms = enumerate_terms(table.source, CTX, STAR, 2)
    translated = [translate_term(table, CTX, t) for t in terms]
    back = round_trip(table)
    assert back == table and not back._checked
    assert [translate_term(back, CTX, t) for t in terms] == translated


PCF_TERM = "(op if_bool (op abs<bool,arrow(bool,bool)> (op abs<bool,bool> (var 0))))"


def test_values_pickled_under_one_hash_seed_load_under_another():
    # Stored hashes and caches went stale across seeds: pcf's sort_of
    # reported arrow(bool,arrow(bool,bool)) against itself, and a hashed
    # term compared unequal to the same term read afresh.
    env = dict(os.environ, PYTHONPATH=str(Path(bindsig.__file__).parents[1]))
    dump = (
        "import pickle, sys\n"
        "from bindsig import builtin, parse_term, sort_of\n"
        f"sig, t = builtin('pcf'), parse_term({PCF_TERM!r})\n"
        "sort_of(sig, (), t), hash(t)\n"
        "sys.stdout.buffer.write(pickle.dumps((sig, t)))\n"
    )
    load = (
        "import pickle, sys\n"
        "from bindsig import parse_term, print_sort, sort_of\n"
        "sig, t = pickle.load(sys.stdin.buffer)\n"
        f"u = parse_term({PCF_TERM!r})\n"
        "print(print_sort(sort_of(sig, (), u)), hash(t) == hash(u), t == u)\n"
    )
    run = [sys.executable, "-c"]
    data = subprocess.run(
        run + [dump], env={**env, "PYTHONHASHSEED": "1"}, capture_output=True, check=True
    ).stdout
    out = subprocess.run(
        run + [load], env={**env, "PYTHONHASHSEED": "2"}, input=data, capture_output=True, check=True
    ).stdout
    assert out.split() == [b"bool", b"True", b"True"]
