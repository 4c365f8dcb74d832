"""Renaming, binder lifting, and capture-avoiding simultaneous substitution.

Substitution is structural recursion with an assignment that gets lifted
at every binder: under a binder for ``bound``, position i < |bound| maps to
Var(i) and position i >= |bound| maps to the image of i - |bound| weakened
by |bound|.  Together with variable lookup this is exactly the Kleisli
presentation of the initial model's monoid multiplication, and the law
suites in :mod:`bindsig.model` check it as such.

``rename`` and ``subst`` are one traversal each (:func:`bindsig.term._walk`)
whose environment is the number of binders crossed; a variable applies the
lift by that number when it is reached, so deep binder nesting costs no
lifted copies of the assignment.  :func:`lift_assignment` and
:func:`lift_renaming` build the same lifts as values.

A subterm whose variables are all bound by the binders crossed above it
is its own image, so ``rename``, ``weaken`` and ``subst`` return it as it
is: a closed term comes back itself, and such an argument is shared by the
result, not rebuilt.  The test is each node's bound on its loose indices
(:mod:`bindsig.term`).  A subterm returned this way is not walked, and so
not validated either: input well-formedness is the caller's job
(:func:`bindsig.term.sort_of`, :func:`bindsig.term.mk_op`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Sequence

from .errors import ContextMismatch, ScopeError, SortMismatch
from .sigdef import Signature, Sort, print_sort
from .term import Context, Op, Term, Var, _loose_bound, _walk, sort_of

__all__ = [
    "Renaming",
    "Assignment",
    "rename",
    "weaken",
    "lift_renaming",
    "lift_assignment",
    "subst",
    "subst1",
    "kleisli_compose",
    "id_assignment",
    "assignment_of_renaming",
    "make_assignment",
    "identity_renaming",
]


@dataclass(frozen=True, slots=True)
class Renaming:
    """Sort-preserving map of positions from source to target context."""

    source: Context
    target: Context
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != len(self.source):
            raise ContextMismatch(
                f"renaming maps {len(self.mapping)} positions, source has {len(self.source)}"
            )
        for i, j in enumerate(self.mapping):
            if not (0 <= j < len(self.target)):
                raise ScopeError(f"renaming sends {i} to {j}, outside the target context")
            if self.target[j] != self.source[i]:
                raise SortMismatch(
                    f"renaming sends a {print_sort(self.source[i])} position "
                    f"to a {print_sort(self.target[j])} position"
                )

    def __call__(self, i: int) -> int:
        return self.mapping[i]


@dataclass(frozen=True, slots=True)
class Assignment:
    """Per-position map from a source context to terms over a target context.

    Construction does not validate the images (hot paths build assignments
    that are correct by construction); use :func:`make_assignment` for
    checked construction.
    """

    source: Context
    target: Context
    images: tuple[Term, ...]

    def __call__(self, i: int) -> Term:
        return self.images[i]


def make_assignment(sig: Signature, source, target, images: Sequence[Term]) -> Assignment:
    source = tuple(source)
    target = tuple(target)
    images = tuple(images)
    if len(images) != len(source):
        raise ContextMismatch(
            f"assignment has {len(images)} images, source context has {len(source)}"
        )
    for i, (s, img) in enumerate(zip(source, images)):
        found = sort_of(sig, target, img)
        if found != s:
            raise SortMismatch(
                f"image of position {i} has sort {print_sort(found)}, expected {print_sort(s)}"
            )
    return Assignment(source, target, images)


def identity_renaming(ctx: Context) -> Renaming:
    return Renaming(ctx, ctx, tuple(range(len(ctx))))


def lift_renaming(ren: Renaming, bound: tuple[Sort, ...]) -> Renaming:
    """Identity on the |bound| fresh positions, ren shifted above them."""
    if not bound:
        return ren
    n = len(bound)
    mapping = tuple(range(n)) + tuple(j + n for j in ren.mapping)
    return Renaming(bound + ren.source, bound + ren.target, mapping)


def _rebuild(env, t: Op, arity, args) -> Term:
    # A walk enters only nodes with a variable, so t has an argument.
    if args[0] is t.args[0] and all(map(is_, args, t.args)):
        return t
    return Op(t.name, t.params, tuple(args))


def _under(k: int, bound) -> int:
    return k + len(bound)


def _untouched(k: int, t: Term):
    # Under k binders, a lift fixes every index below k: a subterm whose
    # variables are all below k is its own image.
    return t if t._bound <= k else None


def _rename(sig: Signature, t: Term, mapping) -> Term:
    # The environment is the number k of binders crossed: the lift by k
    # fixes i < k (untouched variables) and sends i >= k to mapping[i - k] + k.
    if _loose_bound(t) <= 0:
        return t

    def var(k, i):
        return Var(mapping[i - k] + k)

    return _walk(sig, t, 0, var, _rebuild, _under, _untouched)


def rename(sig: Signature, t: Term, ren: Renaming) -> Term:
    """Functorial action: reindex free variables, lifting under binders."""
    return _rename(sig, t, ren.mapping)


def weaken(sig: Signature, ctx: Context, t: Term, bound: Sequence[Sort]) -> Term:
    """Shift ``t`` from ctx into bound ++ ctx (rename by i -> i + |bound|)."""
    n = len(tuple(bound))
    if not n:
        return t
    return _rename(sig, t, range(n, n + len(tuple(ctx))))


def id_assignment(ctx: Context) -> Assignment:
    ctx = tuple(ctx)
    return Assignment(ctx, ctx, tuple(Var(i) for i in range(len(ctx))))


def assignment_of_renaming(ren: Renaming) -> Assignment:
    return Assignment(ren.source, ren.target, tuple(Var(j) for j in ren.mapping))


def lift_assignment(sig: Signature, a: Assignment, bound: Sequence[Sort]) -> Assignment:
    """The binder lift: fresh positions map to themselves, the rest weaken."""
    bound = tuple(bound)
    if not bound:
        return a
    fresh = tuple(Var(i) for i in range(len(bound)))
    shifted = tuple(weaken(sig, a.target, img, bound) for img in a.images)
    return Assignment(bound + a.source, bound + a.target, fresh + shifted)


def subst(sig: Signature, t: Term, a: Assignment) -> Term:
    """Capture-avoiding simultaneous substitution of ``a`` into ``t``."""
    if _loose_bound(t) <= 0:
        return t
    images = a.images
    m = len(a.target)
    weakened: dict = {}  # (position, k) -> its image weakened by k

    # The environment is the number k of binders crossed.  The lift of
    # ``a`` by k fixes i < k (untouched variables) and sends i >= k to the
    # image of i - k weakened by k, made once per call and depth.
    def var(k, i):
        if not k:
            return images[i]
        key = (i - k, k)
        hit = weakened.get(key)
        if hit is None:
            hit = weakened[key] = _rename(sig, images[i - k], range(k, k + m))
        return hit

    return _walk(sig, t, 0, var, _rebuild, _under, _untouched)


def subst1(sig: Signature, ctx, sort: Sort, t: Term, u: Term) -> Term:
    """Unary substitution: ``t`` over [sort] ++ ctx, ``u`` for index 0.

    A special case of simultaneous substitution: 0 maps to u and i+1 to
    Var(i), which lowers the remaining free indices by one.
    """
    ctx = tuple(ctx)
    found = sort_of(sig, ctx, u)
    if found != sort:
        raise SortMismatch(
            f"substituted term has sort {print_sort(found)}, expected {print_sort(sort)}"
        )
    a = Assignment((sort,) + ctx, ctx, (u,) + tuple(Var(i) for i in range(len(ctx))))
    return subst(sig, t, a)


def kleisli_compose(sig: Signature, a: Assignment, b: Assignment) -> Assignment:
    """Sequential composition: position i maps to subst(a(i), b)."""
    if a.target != b.source:
        raise ContextMismatch("assignments do not compose: target of first != source of second")
    return Assignment(a.source, b.target, tuple(subst(sig, img, b) for img in a.images))
