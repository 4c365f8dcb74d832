import dataclasses
import gc
import json
import sys
import threading
import weakref

import pytest

from bindsig import (
    ArrowSort,
    Assignment,
    BaseSort,
    ModelSpec,
    Op,
    Renaming,
    Var,
    builtin,
    check_module_laws,
    check_monoid_laws,
    check_morphism,
    ctx_extend,
    enumerate_terms,
    fold,
    fv_model,
    mk_op,
    print_context,
    print_term,
    rename,
    sample_suite,
    sort_of,
    subst,
    term_model,
)
from bindsig.errors import ArityMismatch, IllFormed, ScopeError, SortMismatch
from bindsig import model as model_module
from bindsig import term as term_module
from bindsig.model import run_law_suites
from bindsig.sigdef import parse_signature

from oracles import direct_free_vars

STAR = BaseSort("*")
IOTA = BaseSort("iota")
ARR = ArrowSort(IOTA, IOTA)
LAM0 = Op("abs", (), (Var(0),))


@pytest.fixture(scope="module")
def suite(ulc):
    return sample_suite(ulc, depth=3, assign_depth=2, seed=5, random_cases=100)


# ---------------------------------------------------------------------------
# fold


def test_fold_into_term_model_is_identity(ulc):
    m = term_model(ulc)
    for n in range(3):
        ctx = (STAR,) * n
        for t in enumerate_terms(ulc, ctx, STAR, 3):
            assert fold(m, ulc, ctx, t) == t


def test_term_model_fold_returns_its_input_certified(ulc, monkeypatch):
    m = term_model(ulc)
    ctx = (STAR,)
    t = Op("abs", (), (Op("app", (), (Var(0), Var(1))),))
    assert fold(m, ulc, ctx, t) is t
    assert t._cert == (ulc._stamp, ctx, STAR)
    v = Var(0)
    assert fold(m, ulc, ctx, v) is v

    checked = []

    def spy(scope, node, arity, found):
        checked.append(node)
        return check_args(scope, node, arity, found)

    check_args = term_module._check_args
    monkeypatch.setattr(term_module, "_check_args", spy)
    # a following mk_op takes it at its certificate: only the new node is checked
    node, sort = mk_op(ulc, ctx, "app", (), (t, Var(0)))
    assert checked == [node] and sort == STAR
    # a fold of a root whose certificate holds does not walk it
    checked.clear()
    assert fold(m, ulc, ctx, t) is t and checked == []
    # one that does not hold over the context is walked again
    assert fold(m, ulc, (STAR, STAR), t) is t and len(checked) == 2
    assert t._cert == (ulc._stamp, (STAR, STAR), STAR)


@pytest.mark.parametrize("kind", ["parts", "replace", "twin"])
def test_fold_into_other_models_builds_an_equal_copy(ulc, kind):
    # only the model term_model made, under the very signature it was made
    # for, returns its input; every other model goes through op_interp
    tm = term_model(ulc)
    if kind == "parts":
        m = ModelSpec(tm.name, tm.var_op, tm.op_interp, tm.msubst, tm.show)
        assert m == tm and hash(m) == hash(tm) and repr(m) == repr(tm)
    elif kind == "replace":
        m = dataclasses.replace(tm, show=repr)
    else:
        m = term_model(builtin("ulc"))
    t = Op("abs", (), (Op("app", (), (Var(0), Var(1))),))
    folded = fold(m, ulc, (STAR,), t)
    assert folded == t and folded is not t and t._cert is None
    assert folded.args[0] is not t.args[0]


def test_fold_fv_example(ulc):
    m = fv_model(ulc)
    t = Op("app", (), (Var(0), Op("abs", (), (Var(1),))))
    assert fold(m, ulc, (STAR, STAR), t) == frozenset({0})


def test_fv_closed_term(ulc):
    m = fv_model(ulc)
    t = Op("abs", (), (Op("abs", (), (Var(1),)),))
    assert fold(m, ulc, (), t) == frozenset()


def test_fv_plain_variable(ulc):
    m = fv_model(ulc)
    assert fold(m, ulc, (STAR,) * 3, Var(2)) == frozenset({2})


def test_models_see_tuple_like_contexts(stlc):
    # (op abs<iota,iota> (op app<iota,iota> (op abs<iota,iota> (var 0)) (var 2))) over (ARR, IOTA)
    inner = Op("abs", (IOTA, IOTA), (Var(0),))
    t = Op("abs", (IOTA, IOTA), (Op("app", (IOTA, IOTA), (inner, Var(2))),))
    root = (ARR, IOTA)
    seen = []
    model = ModelSpec(
        "record",
        lambda ctx, i: seen.append(ctx),
        lambda ctx, name, params, vals: seen.append(ctx),
        lambda src, dst, value, images: None,
    )
    fold(model, stlc, root, t)
    # post-order: var 0, abs, var 2, app, abs, each under its binders
    one = ctx_extend(root, (IOTA,))
    two = ctx_extend(one, (IOTA,))
    expected = [two, one, one, one, root]
    assert len(seen) == len(expected)
    bound = (ARR,)
    for ctx, want in zip(seen, expected):
        assert ctx == want and want == ctx and not ctx != want and hash(ctx) == hash(want)
        assert {want: 1}[ctx] == 1
        assert len(ctx) == len(want)
        assert (ctx[0], ctx[-1], ctx[:1], ctx[1:]) == (want[0], want[-1], want[:1], want[1:])
        assert bound + ctx == bound + want and ctx + bound == want + bound
        assert tuple(ctx) == want and list(ctx) == list(want)
        assert ARR in ctx and IOTA in ctx and STAR not in ctx
        assert print_context(ctx) == print_context(want)
    assert seen[0] != seen[1] and seen[1] != root


@pytest.mark.parametrize("name, depth", [("stlc", 3), ("pcf", 2)])
def test_fv_model_is_lawful_on_typed_signatures(name, depth):
    # sorts play no part in a free-variable set: one model for every signature
    sig = builtin(name)
    samples = sample_suite(sig, depth=depth, max_sort_depth=1)
    for check in (check_monoid_laws, check_module_laws, check_morphism):
        report = check(fv_model(sig), sig, samples)
        assert report.passed and report.cases == check(term_model(sig), sig, samples).cases > 0


def test_fv_agrees_with_direct_recursion_on_stlc(stlc):
    m, folded = fv_model(stlc), 0
    for ctx in ((), (IOTA,), (ARR, IOTA), (IOTA, ARR, IOTA)):
        for sort in (IOTA, ARR):
            for t in enumerate_terms(stlc, ctx, sort, 4, 1):
                assert fold(m, stlc, ctx, t) == frozenset(direct_free_vars(stlc, t))
                folded += 1
    assert folded > 1000


def test_fv_agrees_with_direct_recursion(ulc):
    m = fv_model(ulc)
    for n in range(4):
        ctx = (STAR,) * n
        for t in enumerate_terms(ulc, ctx, STAR, 4):
            assert fold(m, ulc, ctx, t) == frozenset(direct_free_vars(ulc, t))


def test_fv_commutes_with_renaming(ulc):
    m = fv_model(ulc)
    src, dst = (STAR, STAR), (STAR, STAR, STAR)
    rho = Renaming(src, dst, (2, 0))
    for t in enumerate_terms(ulc, src, STAR, 3):
        fv = fold(m, ulc, src, t)
        assert fold(m, ulc, dst, rename(ulc, t, rho)) == frozenset(rho.mapping[i] for i in fv)


def test_fv_substitution_identity(ulc):
    # FV(t[sigma]) is the union of FV(sigma(i)) over i in FV(t)
    m = fv_model(ulc)
    src, dst = (STAR, STAR), (STAR,)
    pool = enumerate_terms(ulc, dst, STAR, 2)
    for img0 in pool:
        for img1 in pool:
            sigma = Assignment(src, dst, (img0, img1))
            fv_images = [fold(m, ulc, dst, img) for img in sigma.images]
            for t in enumerate_terms(ulc, src, STAR, 3):
                expected = frozenset().union(
                    *(fv_images[i] for i in fold(m, ulc, src, t))
                )
                assert fold(m, ulc, dst, subst(ulc, t, sigma)) == expected


@pytest.mark.parametrize(
    "sig_name, ctx, term, cause",
    [
        # a variable escaping under two binders
        ("ulc", (), Op("abs", (), (Op("app", (), (Var(0), Op("abs", (), (Var(2),)))),)), ScopeError),
        # the inner app<arrow(iota,iota),iota> meets an iota -> iota function
        (
            "stlc",
            (ARR,),
            Op(
                "abs",
                (IOTA, IOTA),
                (
                    Op(
                        "app",
                        (IOTA, IOTA),
                        (Var(1), Op("app", (ARR, IOTA), (Var(1), Var(0)))),
                    ),
                ),
            ),
            SortMismatch,
        ),
        ("ulc", (STAR,), Op("abs", (), (Op("app", (), (Var(0),)),)), ArityMismatch),
        # a root variable reaches var_op alone
        ("ulc", (), Var(3), ScopeError),
    ],
)
def test_term_model_fold_rejects_ill_formed_terms_like_sort_of(sig_name, ctx, term, cause):
    sig = builtin(sig_name)
    with pytest.raises(IllFormed) as checked:
        sort_of(sig, ctx, term)
    assert type(checked.value.__cause__) is cause
    with pytest.raises(cause) as folded:
        fold(term_model(sig), sig, ctx, term)
    assert str(folded.value) == str(checked.value.__cause__)


def test_term_model_checks_arguments_it_did_not_build_in_full(ulc):
    # the ill-scoped variable sits below the node's own arguments
    escaped = Op("abs", (), (Var(1),))
    m = term_model(ulc)
    with pytest.raises(ScopeError) as direct:
        m.op_interp((), "app", (), (LAM0, escaped))
    with pytest.raises(ScopeError) as checked:
        mk_op(ulc, (), "app", (), (LAM0, escaped))
    assert str(direct.value) == str(checked.value)
    # a node it built over another context is checked again too
    built = fold(m, ulc, (STAR,), Op("abs", (), (Var(1),)))
    with pytest.raises(ScopeError):
        m.op_interp((), "app", (), (LAM0, built))


def test_term_model_shared_between_threads(ulc):
    # a check certificate is written whole, by mk_op on the node it has
    # just built or by a fold into the term model on the root it returns,
    # and each one holds; a fold over another context may replace a root's
    # certificate, so threads sharing one model and its nodes, folding them
    # over several contexts, cannot see a stale or missing verdict
    m = term_model(ulc)
    cases = [((STAR,) * n, t) for n in range(3) for t in enumerate_terms(ulc, (STAR,) * n, STAR, 3)]
    escaped = Op("abs", (), (Var(1),))
    errors = []

    def work():
        try:
            for _ in range(10):
                for ctx, t in cases:
                    for k in range(len(ctx), 3):
                        assert fold(m, ulc, (STAR,) * k, t) is t
                    assert mk_op(ulc, ctx, "app", (), (t, t))[0] == Op("app", (), (t, t))
                    with pytest.raises(ScopeError):
                        m.op_interp((), "app", (), (fold(m, ulc, (STAR,), escaped), LAM0))
        except BaseException as e:  # noqa: BLE001 - reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


# ---------------------------------------------------------------------------
# law suites on the stock models


def test_term_model_passes_all_suites(ulc, suite):
    m = term_model(ulc)
    for check in (check_monoid_laws, check_module_laws, check_morphism):
        report = check(m, ulc, suite)
        assert report.passed, report.to_lines()[:5]
        assert report.cases > 0


def test_fv_model_passes_all_suites(ulc, suite):
    m = fv_model(ulc)
    for check in (check_monoid_laws, check_module_laws, check_morphism):
        report = check(m, ulc, suite)
        assert report.passed, report.to_lines()[:5]


def test_term_model_typed_passes(stlc):
    samples = sample_suite(stlc, depth=3, assign_depth=2, max_sort_depth=1)
    m = term_model(stlc)
    for check in (check_monoid_laws, check_module_laws, check_morphism):
        assert check(m, stlc, samples).passed


def test_run_law_suites_exit_shape(ulc):
    reports = run_law_suites(ulc, "fv", depth=2, seed=3, cases=25)
    assert [r.suite for r in reports] == ["monoid:fv", "module:fv", "morphism:fv"]
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# broken models: every mutation is caught with a witness


def broken_msubst_identity(ulc):
    # msubst that ignores the assignment: breaks the unit-var law
    m = fv_model(ulc)
    return ModelSpec(
        "fv-broken-msubst",
        m.var_op,
        m.op_interp,
        lambda src, dst, value, images: value,
        m.show,
    )


def broken_fv_abs_identity(ulc):
    # binder interpretation that forgets drop-and-shift: breaks the module square
    m = fv_model(ulc)

    def op_interp(ctx, name, params, vals):
        if name == "abs":
            return vals[0]
        return m.op_interp(ctx, name, params, vals)

    return ModelSpec("fv-broken-abs", m.var_op, op_interp, m.msubst, m.show)


def broken_var_op(ulc):
    # every variable interpreted as index 0: unit-var picks the wrong image
    m = fv_model(ulc)
    return ModelSpec(
        "fv-broken-var",
        lambda ctx, i: frozenset({0}),
        m.op_interp,
        m.msubst,
        m.show,
    )


def broken_term_msubst_no_lift(ulc):
    # substitution that forgets to lift under binders: captures variables
    m = term_model(ulc)

    def msubst(src, dst, value, images):
        def go(t):
            if type(t) is Var:
                return images[t.index] if t.index < len(images) else t
            return Op(t.name, t.params, tuple(go(a) for a in t.args))

        return go(value)

    return ModelSpec("term-broken-nolift", m.var_op, m.op_interp, msubst, m.show)


def test_broken_msubst_fails_monoid(ulc, suite):
    report = check_monoid_laws(broken_msubst_identity(ulc), ulc, suite)
    assert not report.passed
    assert any(f.law == "unit-var" for f in report.failures)
    assert report.failures[0].witness


def test_broken_abs_fails_module(ulc, suite):
    report = check_module_laws(broken_fv_abs_identity(ulc), ulc, suite)
    assert not report.passed
    assert any(f.law.startswith("module:abs") for f in report.failures)


def test_broken_var_fails_monoid(ulc, suite):
    report = check_monoid_laws(broken_var_op(ulc), ulc, suite)
    assert not report.passed


def test_broken_nolift_fails_somewhere(ulc, suite):
    m = broken_term_msubst_no_lift(ulc)
    reports = [
        check_monoid_laws(m, ulc, suite),
        check_module_laws(m, ulc, suite),
        check_morphism(m, ulc, suite),
    ]
    assert any(not r.passed for r in reports)


def test_mutated_fold_fails_defining_equation(ulc, suite):
    # uniqueness, computationally: a map that disagrees with the fold at one
    # enumerated term must break one of the defining equations
    m = term_model(ulc)
    poisoned = LAM0

    def mutated_fold(model, sig, ctx, t):
        if t == poisoned:
            return Op("app", (), (LAM0, LAM0))
        return fold(model, sig, ctx, t)

    report = check_morphism(m, ulc, suite, fold_fn=mutated_fold)
    assert not report.passed


def raising(model, part):
    def boom(*args):
        raise ValueError(f"{part} refused")

    ops = {"op_interp": model.op_interp, "msubst": model.msubst, part: boom}
    return ModelSpec(f"{model.name}-no-{part}", model.var_op, ops["op_interp"], ops["msubst"])


@pytest.mark.parametrize("make", [fv_model, term_model])
def test_reports_of_models_that_raise(ulc, suite, make):
    samples = [s for s in suite if type(s.term) is Op]
    no_op, no_msubst = raising(make(ulc), "op_interp"), raising(make(ulc), "msubst")

    # the sample's own folds fail first: one case and one failure per sample
    report = check_monoid_laws(no_op, ulc, samples)
    assert report.cases == len(samples) == len(report.failures)
    assert {(f.law, f.lhs, f.rhs) for f in report.failures} == {
        ("fold", "<error: op_interp refused>", "")
    }
    assert all(
        f" term={print_term(s.term)} " in f.witness for s, f in zip(samples, report.failures)
    )

    # every instance of these laws needs the failing part: one error each
    for check, model in (
        (check_module_laws, no_op),
        (check_module_laws, no_msubst),
        (check_morphism, no_op),
    ):
        report = check(model, ulc, samples)
        assert report.cases == len(report.failures) > 0
        assert all(f.lhs.startswith("<error: ") and f.rhs == "" for f in report.failures)

    # fold-op needs no msubst and holds; the other morphism laws fail once each
    report = check_morphism(no_msubst, ulc, samples)
    assert report.cases == len(samples) + len(report.failures)
    assert {(f.law, f.lhs) for f in report.failures} == {
        ("fold-subst", "<error: msubst refused>"),
        ("fold-rename", "<error: msubst refused>"),
    }
    assert len(report.failures) == sum(1 + (s.ren is not None) for s in samples)


def test_memoised_fold_errors_keep_short_tracebacks(ulc):
    # A fold that raises is not memoised: it raises afresh at each use, with
    # that use's frames only.  One stored exception raised again on every
    # hit used to gather the frames of each raise (2 203 over this suite).
    m = term_model(ulc)

    def op_interp(ctx, name, params, vals):
        if name == "abs":
            raise ValueError("abs refused")
        return m.op_interp(ctx, name, params, vals)

    kept = []

    def spy_fold(model, sig, ctx, t):
        try:
            return fold(model, sig, ctx, t)
        except ValueError as e:
            kept.append(e)
            raise

    no_abs = ModelSpec("term-no-abs", m.var_op, op_interp, m.msubst)
    report = check_morphism(no_abs, ulc, sample_suite(ulc, depth=3), fold_fn=spy_fold)
    assert not report.passed and kept
    for e in kept:
        entries, tb = 0, e.__traceback__
        while tb is not None:
            entries, tb = entries + 1, tb.tb_next
        assert entries < 20


# ---------------------------------------------------------------------------
# the suites' fold memo, kept on the model


def counting(model):
    """``model`` with a list its op_interp calls are counted in."""
    calls = []

    def op_interp(ctx, name, params, vals):
        calls.append(name)
        return model.op_interp(ctx, name, params, vals)

    return ModelSpec(model.name, model.var_op, op_interp, model.msubst, model.show), calls


def test_suites_fold_each_term_once_per_model(ulc, suite):
    m, calls = counting(term_model(ulc))
    first = check_monoid_laws(m, ulc, suite)
    assert first.passed and calls
    calls.clear()
    assert check_monoid_laws(m, ulc, suite) == first and calls == []

    # the module squares fold only the terms' arguments anew
    memo = m._folds[0][2]
    kept = dict(memo)
    assert all((s.src, s.term) in kept for s in suite)
    assert all((s.mid, x) in kept for s in suite for x in s.sigma.images)
    assert all((s.dst, x) in kept for s in suite for x in s.tau.images)
    assert check_module_laws(m, ulc, suite).passed
    assert all(memo[key] is hit for key, hit in kept.items())

    # a fold function is served once per model too
    folded = []

    def spy(model, sig, ctx, t):
        folded.append((ctx, t))
        return fold(model, sig, ctx, t)

    assert check_morphism(m, ulc, suite, fold_fn=spy).passed
    assert folded and len(folded) == len(set(folded))
    folded.clear()
    assert check_morphism(m, ulc, suite, fold_fn=spy).passed and folded == []


def test_fold_memo_is_dropped_with_the_model(ulc, suite):
    m = fv_model(ulc)
    assert m._folds == [None] and fv_model(ulc)._folds is not m._folds
    check_monoid_laws(m, ulc, suite)
    assert m._folds[0][2]
    gone = weakref.ref(m)
    del m
    gc.collect()
    assert gone() is None


def test_term_model_folds_leave_the_signature_free_of_cycles():
    # the suites fold the terms the signature's own memos hold, and each
    # fold certifies the root it returns; a certificate names the signature
    # by its stamp, so reference counting alone still frees the signature
    gc.collect()
    gc.disable()
    try:
        sig = builtin("ulc")
        model, samples = term_model(sig), sample_suite(sig, depth=2)
        for check in (check_monoid_laws, check_module_laws, check_morphism):
            assert check(model, sig, samples).passed
        assert all(s.term._cert is not None for s in samples if type(s.term) is Op)
        del sig, model, samples, check
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fold_memo_stays_within_its_cap(ulc, monkeypatch):
    # Small suites and a small cap, so that the memo is cleared between and
    # within calls: the reports are those of fresh models all the same.
    monkeypatch.setattr(model_module, "_FOLDS_CAP", 256)
    m, sizes = fv_model(ulc), []
    for seed in range(20):
        samples = sample_suite(ulc, depth=2, seed=seed, random_cases=30)
        for check in (check_monoid_laws, check_module_laws, check_morphism):
            assert check(m, ulc, samples) == check(fv_model(ulc), ulc, samples)
            sizes.append(len(m._folds[0][2]))
    assert max(sizes) <= 256 and any(b < a for a, b in zip(sizes, sizes[1:]))


def ctx_model():
    """Values that show each node's context length, so that a fold under
    ``ulc`` differs from one under ``binds_two()``; not a lawful model."""
    return ModelSpec(
        "ctx",
        lambda ctx, i: (len(ctx), i),
        lambda ctx, name, params, vals: (len(ctx), name, vals),
        lambda src, dst, value, images: (len(dst), value),
    )


def binds_two():
    return parse_signature("signature ulc2\nop app : (*, *) -> *\nop abs : ([*, *] *) -> *\n")


def test_one_model_over_signatures_a_b_a_reports_as_fresh_ones(ulc):
    b = binds_two()
    samples = {id(sig): sample_suite(sig, depth=2, seed=1) for sig in (ulc, b)}
    m = ctx_model()
    for sig in (ulc, b, ulc):
        for check in (check_monoid_laws, check_module_laws, check_morphism):
            report = check(m, sig, samples[id(sig)])
            assert report == check(ctx_model(), sig, samples[id(sig)]) and not report.passed


def test_one_model_shared_between_threads_reports_as_fresh_ones(ulc):
    # Threads running suites on one model over two signatures replace its
    # memo under each other: each call keeps the memo it started with, so a
    # report never mixes in folds under the other signature.
    cases = [(sig, sample_suite(sig, depth=2, seed=1)) for sig in (ulc, binds_two())]
    checks = (check_monoid_laws, check_module_laws, check_morphism)
    expected = [[check(ctx_model(), sig, samples) for check in checks] for sig, samples in cases]
    m, errors = ctx_model(), []

    def work(k):
        try:
            for n in range(6):
                j = (k + n) % 2
                sig, samples = cases[j]
                assert [check(m, sig, samples) for check in checks] == expected[j]
        except BaseException as e:  # noqa: BLE001 - reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


# ---------------------------------------------------------------------------
# report rendering


def test_report_lines_and_records_roundtrip(ulc, suite):
    report = check_monoid_laws(broken_var_op(ulc), ulc, suite)
    lines = report.to_lines()
    assert lines[0].startswith("[monoid:fv-broken-var]")
    assert "FAIL" in lines[0]
    records = report.to_records()
    head = json.loads(records[0])
    assert head["status"] == "fail" and head["cases"] == report.cases
    body = json.loads(records[1])
    assert body["law"] and body["witness"]


def test_report_pass_shape(ulc, suite):
    report = check_monoid_laws(fv_model(ulc), ulc, suite[:40])
    assert report.passed
    assert report.to_lines() == [
        f"[monoid:fv] cases={report.cases} failures=0 PASS"
    ]
