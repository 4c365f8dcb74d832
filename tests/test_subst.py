from itertools import product

import pytest

from bindsig import (
    ArrowSort,
    Assignment,
    BaseSort,
    Op,
    Renaming,
    Var,
    XorShift64Star,
    assignment_of_renaming,
    builtin,
    enumerate_terms,
    id_assignment,
    kleisli_compose,
    lift_assignment,
    lift_renaming,
    make_assignment,
    mk_op,
    print_term,
    random_term,
    rename,
    sort_of,
    subst,
    subst1,
    term_depth,
    weaken,
)
from bindsig.errors import ContextMismatch, IllFormed, ScopeError, SortMismatch
from bindsig.subst import identity_renaming

from oracles import mirror_rename, mirror_subst

STAR = BaseSort("*")
IOTA = BaseSort("iota")
LAM0 = Op("abs", (), (Var(0),))


def contexts(sizes=(0, 1, 2)):
    return [(STAR,) * n for n in sizes]


def all_renamings(src, dst):
    candidates = [[j for j, s in enumerate(dst) if s == entry] for entry in src]
    if any(not c for c in candidates):
        return []
    return [Renaming(src, dst, m) for m in product(*candidates)]


def all_assignments(sig, src, dst, depth=2):
    pools = [enumerate_terms(sig, dst, s, depth) for s in src]
    if any(not p for p in pools):
        return []
    return [Assignment(src, dst, images) for images in product(*pools)]


# ---------------------------------------------------------------------------
# Renaming


def test_renaming_validates_scope_and_sorts():
    with pytest.raises(ScopeError):
        Renaming((STAR,), (), (0,))
    with pytest.raises(SortMismatch):
        Renaming((IOTA,), (STAR,), (0,))
    with pytest.raises(ContextMismatch):
        Renaming((STAR, STAR), (STAR,), (0,))


def test_rename_identity_on_enumerated(ulc):
    for n in range(3):
        ctx = (STAR,) * n
        ident = identity_renaming(ctx)
        for t in enumerate_terms(ulc, ctx, STAR, 3):
            assert rename(ulc, t, ident) == t


def test_rename_swap_under_binder(ulc):
    ctx = (STAR, STAR)
    swap = Renaming(ctx, ctx, (1, 0))
    t = Op("abs", (), (Var(1),))
    assert rename(ulc, t, swap) == Op("abs", (), (Var(2),))


def test_rename_shift_variable(ulc):
    shift = Renaming((STAR,), (STAR, STAR), (1,))
    assert rename(ulc, Var(0), shift) == Var(1)


def test_rename_functor_composition_exhaustive(ulc):
    ctxs = contexts()
    for src in ctxs:
        for mid in ctxs:
            for rho in all_renamings(src, mid):
                for dst in ctxs:
                    for rho2 in all_renamings(mid, dst):
                        composed = Renaming(
                            src, dst, tuple(rho2.mapping[j] for j in rho.mapping)
                        )
                        for t in enumerate_terms(ulc, src, STAR, 3):
                            assert rename(ulc, rename(ulc, t, rho), rho2) == rename(
                                ulc, t, composed
                            )


def test_rename_against_nameful_mirror(ulc):
    for src in contexts((1, 2)):
        for dst in contexts((1, 2)):
            for rho in all_renamings(src, dst):
                for t in enumerate_terms(ulc, src, STAR, 3):
                    assert rename(ulc, t, rho) == mirror_rename(
                        ulc, src, dst, t, rho.mapping
                    )


def test_rename_preserves_sort_typed(stlc):
    from bindsig import ArrowSort

    arr = ArrowSort(IOTA, IOTA)
    ctx = (arr, IOTA)
    swapped = (IOTA, arr)
    rho = Renaming(ctx, swapped, (1, 0))
    for sort in (IOTA, arr):
        for t in enumerate_terms(stlc, ctx, sort, 3, max_sort_depth=1):
            assert sort_of(stlc, swapped, rename(stlc, t, rho)) == sort


# ---------------------------------------------------------------------------
# Weakening


def test_weaken_var(ulc):
    assert weaken(ulc, (STAR,), Var(0), (STAR,)) == Var(1)


def test_weaken_closed_binder_body_untouched(ulc):
    assert weaken(ulc, (), LAM0, (STAR,)) == LAM0


def test_weaken_empty_is_identity(ulc):
    t = Op("app", (), (Var(0), LAM0))
    assert weaken(ulc, (STAR,), t, ()) is t


def test_weaken_equals_shift_renaming(ulc):
    ctx = (STAR, STAR)
    shift = Renaming(ctx, (STAR,) + ctx, (1, 2))
    for t in enumerate_terms(ulc, ctx, STAR, 3):
        assert weaken(ulc, ctx, t, (STAR,)) == rename(ulc, t, shift)


# ---------------------------------------------------------------------------
# Lifting


def test_lift_renaming():
    ren = Renaming((STAR, IOTA), (IOTA, STAR, STAR), (2, 0))
    assert lift_renaming(ren, ()) is ren
    lifted = lift_renaming(ren, (IOTA, STAR))
    assert lifted.mapping == (0, 1, 4, 2)
    assert (lifted.source, lifted.target) == ((IOTA, STAR, STAR, IOTA), (IOTA, STAR, IOTA, STAR, STAR))


def test_lift_identity_assignment_is_identity(ulc):
    ctx = (STAR,)
    lifted = lift_assignment(ulc, id_assignment(ctx), (STAR,))
    assert lifted == id_assignment((STAR,) + ctx)


def test_lift_closed_image(ulc):
    sigma = Assignment((STAR,), (), (LAM0,))
    lifted = lift_assignment(ulc, sigma, (STAR,))
    assert lifted.images == (Var(0), LAM0)


def test_lift_by_nothing_is_same(ulc):
    sigma = Assignment((STAR,), (), (LAM0,))
    assert lift_assignment(ulc, sigma, ()) is sigma


def test_lift_open_image_weakens(ulc):
    sigma = Assignment((STAR,), (STAR,), (Var(0),))
    lifted = lift_assignment(ulc, sigma, (STAR,))
    assert lifted.images == (Var(0), Var(1))


def test_lift_coherence_with_composition(ulc):
    # lift(sigma ; tau) = lift(sigma) ; lift(tau)
    src, mid, dst = (STAR,), (STAR, STAR), (STAR,)
    for sigma in all_assignments(ulc, src, mid):
        for tau in all_assignments(ulc, mid, dst):
            lhs = lift_assignment(ulc, kleisli_compose(ulc, sigma, tau), (STAR,))
            rhs = kleisli_compose(
                ulc,
                lift_assignment(ulc, sigma, (STAR,)),
                lift_assignment(ulc, tau, (STAR,)),
            )
            assert lhs == rhs


def test_subst_under_binder_agrees_with_lift(ulc):
    src, dst = (STAR,), (STAR, STAR)
    for sigma in all_assignments(ulc, src, dst):
        lifted = lift_assignment(ulc, sigma, (STAR,))
        for t in enumerate_terms(ulc, (STAR,) + src, STAR, 3):
            under = subst(ulc, Op("abs", (), (t,)), sigma)
            assert under == Op("abs", (), (subst(ulc, t, lifted),))


# ---------------------------------------------------------------------------
# Substitution


def test_subst_worked_example(ulc):
    t = Op("app", (), (Var(0), Op("abs", (), (Var(1),))))
    sigma = make_assignment(ulc, (STAR,), (), (LAM0,))
    expected = Op("app", (), (LAM0, Op("abs", (), (LAM0,))))
    assert subst(ulc, t, sigma) == expected


def test_subst_identity_on_enumerated(ulc):
    for n in range(3):
        ctx = (STAR,) * n
        ident = id_assignment(ctx)
        for t in enumerate_terms(ulc, ctx, STAR, 3):
            assert subst(ulc, t, ident) == t


def test_subst_on_variables_is_lookup(ulc):
    sigma = Assignment((STAR, STAR), (STAR,), (LAM0, Var(0)))
    assert subst(ulc, Var(0), sigma) == LAM0
    assert subst(ulc, Var(1), sigma) == Var(0)


def test_subst_against_nameful_mirror_exhaustive(ulc):
    for src in contexts((1, 2)):
        for dst in contexts((0, 1)):
            for sigma in all_assignments(ulc, src, dst):
                for t in enumerate_terms(ulc, src, STAR, 3):
                    assert subst(ulc, t, sigma) == mirror_subst(
                        ulc, src, dst, t, sigma.images
                    )


def test_subst_against_nameful_mirror_random(ulc):
    rng = XorShift64Star(20240817)
    checked = 0
    while checked < 300:
        n_src, n_dst = rng.below(4), rng.below(4)
        src, dst = (STAR,) * n_src, (STAR,) * n_dst
        t = random_term(ulc, src, STAR, 6, rng)
        images = tuple(random_term(ulc, dst, STAR, 4, rng) for _ in range(n_src))
        sigma = Assignment(src, dst, images)
        assert subst(ulc, t, sigma) == mirror_subst(ulc, src, dst, t, images)
        checked += 1


def test_subst_preserves_sort_typed(stlc):
    from bindsig import ArrowSort

    arr = ArrowSort(IOTA, IOTA)
    src = (IOTA, arr)
    dst = (arr, IOTA)
    pools = [enumerate_terms(stlc, dst, s, 2, max_sort_depth=1) for s in src]
    for images in product(*pools):
        sigma = Assignment(src, dst, images)
        for sort in (IOTA, arr):
            for t in enumerate_terms(stlc, src, sort, 3, max_sort_depth=1):
                assert sort_of(stlc, dst, subst(stlc, t, sigma)) == sort


# ---------------------------------------------------------------------------
# subst1


def test_subst1_replaces_index_zero(ulc):
    assert subst1(ulc, (), STAR, Var(0), LAM0) == LAM0


def test_subst1_lowers_higher_indices(ulc):
    assert subst1(ulc, (STAR,), STAR, Var(1), LAM0) == Var(0)


def test_subst1_no_free_occurrence(ulc):
    assert subst1(ulc, (), STAR, LAM0, Op("app", (), (LAM0, LAM0))) == LAM0


def test_subst1_checks_sort(stlc):
    body = Var(0)  # over [iota]
    wrong, _ = mk_op(stlc, (), "abs", (IOTA, IOTA), (Var(0),))
    with pytest.raises(SortMismatch):
        subst1(stlc, (), IOTA, body, wrong)


# ---------------------------------------------------------------------------
# Kleisli structure


def test_kleisli_left_unit(ulc):
    src, dst = (STAR,), (STAR, STAR)
    for tau in all_assignments(ulc, src, dst):
        assert kleisli_compose(ulc, id_assignment(src), tau) == tau


def test_kleisli_right_unit(ulc):
    src, dst = (STAR, STAR), (STAR,)
    for sigma in all_assignments(ulc, src, dst):
        assert kleisli_compose(ulc, sigma, id_assignment(dst)) == sigma


def test_kleisli_context_mismatch(ulc):
    sigma = Assignment((STAR,), (STAR, STAR), (Var(0),))
    tau = Assignment((STAR,), (), (LAM0,))
    with pytest.raises(ContextMismatch):
        kleisli_compose(ulc, sigma, tau)


def test_kleisli_associativity_sampled(ulc):
    rng = XorShift64Star(7)
    for _ in range(200):
        sizes = [rng.below(3) for _ in range(4)]
        ctxs = [(STAR,) * n for n in sizes]
        try:
            assigns = [
                Assignment(
                    ctxs[i],
                    ctxs[i + 1],
                    tuple(
                        random_term(ulc, ctxs[i + 1], STAR, 4, rng) for _ in ctxs[i]
                    ),
                )
                for i in range(3)
            ]
        except ValueError:
            continue
        a, b, c = assigns
        left = kleisli_compose(ulc, kleisli_compose(ulc, a, b), c)
        right = kleisli_compose(ulc, a, kleisli_compose(ulc, b, c))
        assert left == right


def test_subst_of_composition_is_sequential_sampled(ulc):
    rng = XorShift64Star(99)
    for _ in range(200):
        n1, n2, n3 = (rng.below(3) for _ in range(3))
        src, mid, dst = (STAR,) * n1, (STAR,) * n2, (STAR,) * n3
        t = random_term(ulc, src, STAR, 5, rng)
        sigma = Assignment(src, mid, tuple(random_term(ulc, mid, STAR, 3, rng) for _ in src))
        tau = Assignment(mid, dst, tuple(random_term(ulc, dst, STAR, 3, rng) for _ in mid))
        assert subst(ulc, subst(ulc, t, sigma), tau) == subst(
            ulc, t, kleisli_compose(ulc, sigma, tau)
        )


# ---------------------------------------------------------------------------
# Renaming / substitution compatibility


def test_id_assignment_of_empty_context():
    assert id_assignment(()).images == ()


def test_assignment_of_identity_renaming_is_id(ulc):
    ctx = (STAR, STAR)
    assert assignment_of_renaming(identity_renaming(ctx)) == id_assignment(ctx)


def test_subst_by_renaming_assignment_equals_rename(ulc):
    for src in contexts((1, 2)):
        for dst in contexts((1, 2)):
            for rho in all_renamings(src, dst):
                eta_rho = assignment_of_renaming(rho)
                for t in enumerate_terms(ulc, src, STAR, 3):
                    assert subst(ulc, t, eta_rho) == rename(ulc, t, rho)


def test_make_assignment_validates(ulc, stlc):
    with pytest.raises(ContextMismatch):
        make_assignment(ulc, (STAR, STAR), (), (LAM0,))
    typed_lam, _ = mk_op(stlc, (), "abs", (IOTA, IOTA), (Var(0),))
    with pytest.raises(SortMismatch):
        make_assignment(stlc, (IOTA,), (), (typed_lam,))


# ---------------------------------------------------------------------------
# Sharing: a subterm whose variables are all bound inside the walk is its
# own image, and comes back as the same object


def subterm_ids(t):
    ids, stack = set(), [t]
    while stack:
        x = stack.pop()
        ids.add(id(x))
        if type(x) is Op:
            stack.extend(x.args)
    return ids


def test_closed_term_comes_back_itself(ulc, fol):
    no_vars = Op("and", (), (Op("top"), Op("neg", (), (Op("bot"),))))
    sigma = Assignment((STAR,), (STAR, STAR), (Var(1),))
    assert subst(fol, no_vars, sigma) is no_vars
    assert rename(fol, no_vars, Renaming((STAR,), (STAR, STAR), (1,))) is no_vars
    assert weaken(fol, (STAR,), no_vars, (STAR,)) is no_vars
    # Variables bound inside the term: closed, though it has variables.
    closed = Op("app", (), (LAM0, Op("abs", (), (Op("app", (), (Var(0), LAM0)),))))
    assert subst(ulc, closed, Assignment((), (STAR,), ())) is closed
    assert rename(ulc, closed, Renaming((), (STAR,), ())) is closed
    assert weaken(ulc, (), closed, (STAR, STAR)) is closed


def test_untouched_arguments_are_shared(ulc, fol):
    top = Op("top")
    t = Op("and", (), (top, Op("neg", (), (Var(0),))))
    out = subst(fol, t, Assignment((STAR,), (STAR,), (Op("bot"),)))
    assert out == Op("and", (), (top, Op("neg", (), (Op("bot"),))))
    assert out.args[0] is top

    # Under abs, app (var 0) (var 0) mentions only the bound variable.
    body = Op("app", (), (Var(0), Var(0)))
    t = Op("abs", (), (Op("app", (), (body, Var(1))),))
    image = Op("app", (), (Var(0), Var(1)))
    out = subst(ulc, t, Assignment((STAR,), (STAR, STAR), (image,)))
    assert out == Op("abs", (), (Op("app", (), (body, Op("app", (), (Var(1), Var(2))))),))
    assert out.args[0].args[0] is body
    renamed = rename(ulc, t, Renaming((STAR,), (STAR, STAR), (1,)))
    assert renamed == Op("abs", (), (Op("app", (), (body, Var(2))),))
    assert renamed.args[0].args[0] is body
    assert weaken(ulc, (STAR,), t, (STAR,)).args[0].args[0] is body


def _random_cases(sig, sorts, max_sort_depth, rng, count):
    """Terms over contexts of 0-3 entries with images and a renaming:
    small contexts give closed and locally closed subterms."""
    for _ in range(count):
        src = tuple(sorts[rng.below(len(sorts))] for _ in range(rng.below(4)))
        dst = tuple(sorts[rng.below(len(sorts))] for _ in range(rng.below(3))) + src
        sort = sorts[rng.below(len(sorts))]
        try:
            t = random_term(sig, src, sort, 5, rng, max_sort_depth)
            images = tuple(random_term(sig, dst, s, 3, rng, max_sort_depth) for s in src)
        except ValueError:  # an empty cell
            continue
        # Renaming into dst: src sits at its end.
        mapping = tuple(range(len(dst) - len(src), len(dst)))
        yield src, dst, t, images, mapping


@pytest.mark.parametrize(
    "name, sorts, max_sort_depth",
    [
        ("ulc", (STAR,), None),
        ("fol", (STAR,), None),
        ("stlc", (IOTA, ArrowSort(IOTA, IOTA)), 1),
    ],
)
def test_sharing_agrees_with_nameful_mirror(name, sorts, max_sort_depth):
    sig = builtin(name)
    rng = XorShift64Star(20261018)
    cases = shared = 0
    for src, dst, t, images, mapping in _random_cases(sig, sorts, max_sort_depth, rng, 400):
        out = subst(sig, t, Assignment(src, dst, images))
        assert out == mirror_subst(sig, src, dst, t, images)
        assert sort_of(sig, dst, out) == sort_of(sig, src, t)
        renamed = rename(sig, t, Renaming(src, dst, mapping))
        assert renamed == mirror_rename(sig, src, dst, t, mapping)
        assert weaken(sig, src, t, dst[: len(dst) - len(src)]) == renamed
        cases += 1
        shared += bool(subterm_ids(t) & (subterm_ids(out) | subterm_ids(renamed)))
    assert cases >= 250
    assert shared >= cases // 4  # the sample does exercise sharing


def test_non_term_argument_is_ill_formed_not_attribute_error(ulc):
    bad = Op("app", (), (1, Var(0)))
    with pytest.raises(IllFormed):
        sort_of(ulc, (STAR,), bad)
    with pytest.raises(IllFormed):
        subst(ulc, Op("abs", (), (bad,)), Assignment((STAR,), (STAR,), (Var(0),)))
    with pytest.raises(IllFormed):
        rename(ulc, bad, identity_renaming((STAR,)))
    for t in (Op("app", (), (Var(0), 5)), Op("abs", (), (bad,)), Op("app", (), (Var(0), ")"))):
        with pytest.raises(IllFormed):
            term_depth(t)
        with pytest.raises(IllFormed):
            print_term(t)
