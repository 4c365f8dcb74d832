"""Well-scoped, well-sorted de Bruijn term trees.

Index 0 is the innermost binder and context extension prepends, so a
term over ``bound ++ ctx`` sees the freshly bound variables at indices
``0 .. len(bound)-1``.  Terms store only (schema, params, args);
well-formedness is a judgment checked against a signature, a context and
an expected sort, which keeps structural sharing and equality cheap.
Every walk that needs a context (checking, folds, checked construction)
starts from the caller's tuple and enters a binder by linking its group
to the context around it, at the group's cost, so the walks stay linear
under any binder nesting.

``Var`` and ``Op`` are hand-rolled slotted classes.  An operator
computes its structural hash on first use and keeps it, so the walks,
which build many nodes and hash none, do not pay for it, while the law
suites, which compare and hash millions of terms, hash each node once.
``Op`` requires ``params`` and ``args`` to be tuples; an unhashable value
nested inside them is reported when the term is first hashed or walked.
Each node also carries a bound on its loose indices, 1 + the largest
variable index occurring in it (0 when there is none), so that
substitution can return untouched subterms as they are; an operator
computes its bound on first use and keeps it.  Instances are immutable
by contract, so ``copy.copy`` and ``copy.deepcopy`` give them back as
they are; nothing in the library mutates them beyond filling in that
hash and bound, and beyond the check certificate that ``_certify``, its
only writer, puts on an operator after running the term checker on it:
for :func:`mk_op` on the node it has just built, for a fold into the
term model on the root it returns.  ``pickle`` writes none of the three.
The walks that need no signature (hash, bound, ``term_depth``, pickling,
and the translator's template resolution) are loops over one kernel,
``_post_order``: each distinct operator once, after its arguments.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, product
from math import prod
from typing import Union

from .errors import (
    ArityMismatch,
    BindsigError,
    IllFormed,
    ParseError,
    ScopeError,
    SortMismatch,
    Unbounded,
)
from .sigdef import (
    Arity,
    Signature,
    Sort,
    TokenStream,
    TypeSystem,
    _Punct,
    _parse_sort_expr,
    check_sort,
    print_sort,
    sorts_up_to_depth,
)

__all__ = [
    "Context",
    "Term",
    "Var",
    "Op",
    "ctx_extend",
    "check_context",
    "mk_var",
    "mk_op",
    "sort_of",
    "enumerate_terms",
    "chain_count",
    "instantiations",
    "VarCase",
    "OpCase",
    "lambek_decompose",
    "lambek_compose",
    "parse_term",
    "print_term",
    "parse_context",
    "print_context",
    "random_term",
    "term_depth",
]

Context = tuple  # tuple[Sort, ...]


class Term:
    """Abstract term node; concrete nodes are Var and Op."""

    __slots__ = ()

    def __copy__(self):  # immutable: copies, deep ones too, are the value itself
        return self

    def __deepcopy__(self, memo):
        return self


class Var(Term):
    __slots__ = ("index", "_bound")
    __match_args__ = ("index",)

    def __init__(self, index: int):
        self.index = index
        self._bound = index + 1

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Var and other.index == self.index

    def __hash__(self):
        return hash((Var, self.index))

    def __repr__(self):
        return f"Var({self.index})"

    def __reduce__(self):
        return Var, (self.index,)


class Op(Term):
    # _hash and _bound are None until first use; _cert is (signature stamp,
    # context, sort) on a node _certify checked, else None.
    __slots__ = ("name", "params", "args", "_hash", "_bound", "_cert")
    __match_args__ = ("name", "params", "args")

    def __init__(self, name: str, params: tuple = (), args: tuple = ()):
        if type(params) is not tuple or type(args) is not tuple:
            raise TypeError("Op params and args must be tuples")
        self.name = name
        self.params = params
        self.args = args
        self._hash = self._bound = self._cert = None

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Op:
            return False
        # Structural comparison on two explicit stacks: terms may be deeper
        # than the Python stack.  Hashes only reject, and only where both
        # nodes already have one: comparing computes none.
        xs, ys = [self], [other]
        while xs:
            x, y = xs.pop(), ys.pop()
            if x is y:
                continue
            kind = type(x)
            if kind is not type(y):
                return False
            if kind is Op:
                hx, hy = x._hash, y._hash
                if (
                    (hx != hy and hx is not None and hy is not None)
                    or x.name != y.name
                    or x.params != y.params
                    or len(x.args) != len(y.args)
                ):
                    return False
                xs += x.args
                ys += y.args
            elif kind is Var:
                if x.index != y.index:
                    return False
            elif x != y:  # template placeholders
                return False
        return True

    def __hash__(self):
        h = self._hash
        if h is None:
            h = _fill_hash(self)
        return h

    def __reduce__(self):  # flat and by structure: sharing kept, no hash or cache
        nodes, at = [], {}  # id -> position in nodes
        for x in _post_order(self, lambda a: id(a) in at):
            at[id(x)] = len(nodes)
            nodes.append((x.name, x.params, tuple(at.get(id(a), (a,)) for a in x.args)))
        return _rebuilt, (nodes,)

    def __repr__(self):
        # Op(name, params=..., args=...), the arguments spelled out on an
        # explicit stack, between _Punct pieces: terms may be deeper than
        # the Python stack.  A parameter tuple's repr is flat: sorts have
        # their own loop.
        out, todo = [], [self]
        while todo:
            x = todo.pop()
            if type(x) is _Punct:
                out.append(x)
            elif type(x) is not Op:
                out.append(repr(x))
            else:
                head = f"Op({x.name!r}, params={x.params!r}" if x.params else f"Op({x.name!r}"
                if not x.args:
                    out.append(head + ")")
                    continue
                out.append(head)
                pieces = [_ARGS]
                for a in x.args:
                    pieces += (a, _SEP)
                pieces[-1] = _END if len(x.args) > 1 else _END_ONE
                todo += reversed(pieces)
        return "".join(out)


_ARGS, _SEP, _END, _END_ONE = _Punct(", args=("), _Punct(", "), _Punct("))"), _Punct(",))")


def _post_order(t: Op, known):
    """The operators of ``t`` without a kept value, each after its operator
    arguments, ``t`` last: the one signature-free walk, as a generator.
    ``known(x)`` says whether ``x`` has its value, which the caller keeps
    for each node it is given before asking for the next: a node shared
    below ``t`` is given once, and one already known is not entered.  It
    keeps its own stack, so terms may be deeper than the Python stack."""
    stack = [t]
    while stack:
        x = stack.pop()
        if x is None:  # the arguments of the node below are all known
            yield stack.pop()
        elif not known(x):
            stack.append(x)
            stack.append(None)
            for a in x.args:
                if type(a) is Op:
                    stack.append(a)


def _fill_hash(t: Op) -> int:
    """Compute and keep ``hash((Op, name, params, args))`` on ``t`` and on
    every operator below it without one, children first, so hashing a
    node's ``args`` reads kept hashes and never recurses."""
    for x in _post_order(t, lambda a: a._hash is not None):
        x._hash = hash((Op, x.name, x.params, x.args))
    return t._hash


def _rebuilt(nodes: list) -> Op:
    """The term ``Op.__reduce__`` wrote: one (name, params, args) per node,
    post-order, an argument an int position in ``nodes`` or a leaf ``(a,)``."""
    built = []
    for name, params, args in nodes:
        built.append(Op(name, params, tuple(built[a] if type(a) is int else a[0] for a in args)))
    return built[-1]


# ---------------------------------------------------------------------------
# Contexts and checked construction


class _Scope(Sequence):
    """The context ``group ++ outer``: a binder group over a context, a tuple
    or a scope, made at the group's cost.  It compares and hashes equal to
    the tuple it stands for, which it builds when asked, at most once.
    ``root`` is the context at the bottom of its chain, whose entries come
    after the ``inner`` ones its binder groups hold."""

    __slots__ = ("outer", "group", "size", "root", "inner", "_flat")

    def __init__(self, outer: Context | _Scope, group: Context):
        self.outer, self.group, self._flat = outer, group, None
        self.root, inner = (outer.root, outer.inner) if type(outer) is _Scope else (outer, 0)
        self.inner = inner + len(group)
        self.size = self.inner + len(self.root)

    @property
    def flat(self) -> Context:
        if self._flat is None:
            groups, scope = [], self
            while type(scope) is _Scope and scope._flat is None:
                groups.append(scope.group)
                scope = scope.outer
            groups.append(scope if type(scope) is tuple else scope._flat)
            self._flat = tuple(chain.from_iterable(groups))
        return self._flat

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        return _lookup(self, i) if type(i) is int and 0 <= i < self.size else self.flat[i]

    def __iter__(self):
        return iter(self.flat)

    def __eq__(self, other):
        if type(other) is _Scope and self.outer is other.outer:
            return self.group == other.group
        return self.flat == other

    def __hash__(self):
        return hash(self.flat)

    def __add__(self, other):
        return self.flat + other

    def __radd__(self, other):
        return other + self.flat

    def __repr__(self):
        return repr(self.flat)


def _lookup(ctx: Context | _Scope, i: int) -> Sort:
    """Entry ``i`` of a context, down its scope chain or, for an entry of
    the chain's root, in the root at once; ScopeError if none."""
    if type(i) is not int:
        raise ScopeError(f"variable index {i!r} is not an int")
    scope, j = ctx, i
    if type(scope) is _Scope and i >= scope.inner:
        scope, j = scope.root, i - scope.inner
    while type(scope) is _Scope:
        if 0 <= j < len(scope.group):
            return scope.group[j]
        j -= len(scope.group)
        scope = scope.outer
    if 0 <= j < len(scope):
        return scope[j]
    raise ScopeError(f"variable {i} out of scope in a context of size {len(ctx)}")


def check_context(types: TypeSystem, ctx: Sequence[Sort]) -> Context:
    ctx = tuple(ctx)
    for s in ctx:
        check_sort(types, s)
    return ctx


def ctx_extend(ctx: Sequence[Sort], bound: Sequence[Sort], types: TypeSystem | None = None) -> Context:
    """``bound ++ ctx``: the freshly bound sorts take the low indices.

    Pass ``types`` to have the bound sorts validated.
    """
    if types is not None:
        bound = check_context(types, bound)
    return tuple(bound) + tuple(ctx)


def mk_var(ctx: Sequence[Sort], index: int) -> tuple[Term, Sort]:
    return Var(index), _lookup(tuple(ctx), index)


def mk_op(
    sig: Signature,
    ctx: Sequence[Sort],
    name: str,
    params: Sequence = (),
    args: Sequence[Term] = (),
) -> tuple[Term, Sort]:
    """Checked construction of an operator node; returns it with its sort.

    The node is built and then certified by :func:`_certify`, whose walk
    stops at certified arguments: a variable argument's sort is its entry
    in the argument's context, and an operator argument certified under
    ``sig`` has the sort it was checked at, over an equal context, or over
    any context when it is closed.  Any other argument is checked down to
    such subterms.
    """
    t = Op(name, tuple(params), tuple(args))
    return t, _certify(sig, ctx, t, partial(_certified, sig._stamp))


def _certify(sig: Signature, ctx: Sequence[Sort] | _Scope, t: Term, known=None) -> Sort:
    """The sort of ``t`` over ``ctx``: its certificate's if that holds, else
    one term-checker walk's (``known`` as in :func:`_walk`).  An operator ``t``
    then records (``sig``'s stamp, ``ctx``, sort) as its certificate, which
    never goes stale: all are immutable.  Certificates have no other writer."""
    ctx = ctx if type(ctx) is _Scope else tuple(ctx)
    sort = _certified(sig._stamp, ctx, t) or _walk(sig, t, ctx, _lookup, _check_args, known=known)
    if type(t) is Op:
        t._cert = (sig._stamp, ctx, sort)
    return sort


def _certified(stamp: object, scope: Context | _Scope, t: Term) -> Sort | None:
    """The sort on ``t``'s certificate if it holds under the signature of
    ``stamp`` over ``scope``, else None: ``_walk``'s ``known`` for such checks."""
    cert = t._cert if type(t) is Op else None
    if cert is None or cert[0] is not stamp:
        return None
    return cert[2] if cert[1] is scope or cert[1] == scope or _loose_bound(t) == 0 else None


def _loose_bound(t: Term) -> int:
    """1 + the largest variable index occurring in ``t``, 0 if none.

    It bounds the loose indices of ``t`` without a signature, and is exact
    on binder-free terms.  An operator without a bound gets one here, as
    does every node below it still without one, children first.
    """
    try:
        bound = t._bound  # template placeholders carry 0
    except AttributeError:
        raise IllFormed(f"not a term: {t!r}") from None
    if bound is None:
        for x in _post_order(t, lambda a: a._bound is not None):
            bound = 0
            for a in x.args:
                b = getattr(a, "_bound", None)
                if b is None:
                    raise IllFormed(f"not a term: {a!r}")
                bound = b if b > bound else bound
            x._bound = bound
    return bound


def _walk(sig: Signature, t: Term, env, var, node, under=_Scope, known=None):
    """Post-order traversal of ``t``: the one recursion principle.

    ``var(env, i)`` gives the value of variable i; ``node(env, t, arity,
    vals)`` combines the operator ``t`` with its arguments' values, in
    argument order; ``under(env, bound)``, by default the checker's scope,
    gives the environment of an argument that binds ``bound``.
    ``known(env, arg)``, when given, is asked first for each argument: a
    result other than None is the argument's value, and the walk does not
    enter it.  The walk keeps one frame per operator node on an explicit
    stack, so terms may be deeper than the Python stack; variable arguments
    are evaluated in place.
    """
    if type(t) is Var:
        return var(env, t.index)
    cache = sig._cache  # read Signature.arity's memo in place: one call fewer per node
    frames = []  # (node, env, arity, values so far, next argument) per open node
    while True:
        if type(t) is not Op:
            raise IllFormed(f"not a term: {t!r}")
        arity = cache.get(("arity", t.name, t.params)) or sig.arity(t.name, t.params)
        inputs, args = arity.inputs, t.args
        n = len(args)
        if n != len(inputs):
            raise ArityMismatch(f"{t.name} expects {len(inputs)} argument(s), got {n}")
        vals = []
        j = 0
        while True:
            while j < n:
                arg, bound = args[j], inputs[j].bound
                j += 1
                arg_env = under(env, bound) if bound else env
                if known is not None:
                    value = known(arg_env, arg)
                    if value is not None:
                        vals.append(value)
                        continue
                if type(arg) is Var:
                    vals.append(var(arg_env, arg.index))
                    continue
                frames.append((t, env, arity, vals, j))
                t, env = arg, arg_env
                break
            else:
                value = node(env, t, arity, vals)
                if not frames:
                    return value
                t, env, arity, vals, j = frames.pop()
                vals.append(value)
                inputs, args = arity.inputs, t.args
                n = len(args)
                continue
            break  # enter the operator argument t


def _check_args(scope, t: Op, arity, found) -> Sort:
    for j, inp in enumerate(arity.inputs):
        # Most sorts are the signature's own objects: try identity first.
        if found[j] is not inp.sort and found[j] != inp.sort:
            raise SortMismatch(
                f"argument {j} of {t.name}: expected {print_sort(inp.sort)}, "
                f"found {print_sort(found[j])}"
            )
    return arity.output


def sort_of(sig: Signature, ctx: Sequence[Sort], t: Term) -> Sort:
    """The unique sort at which ``t`` checks; IllFormed otherwise."""
    try:
        return _walk(sig, t, tuple(ctx), _lookup, _check_args)
    except BindsigError as e:
        raise IllFormed(str(e)) from e


def term_depth(t: Term) -> int:
    """Constructor depth: variables and constants count 1.

    Each distinct operator is measured once, after its arguments, so a
    shared subterm costs one step however often it occurs."""
    if type(t) is not Op:
        if type(t) is Var:
            return 1
        raise IllFormed(f"not a term: {t!r}")
    depths = {}  # id -> depth of each operator measured in this call
    for x in _post_order(t, lambda a: id(a) in depths):
        deepest = 0
        for a in x.args:
            kind = type(a)
            if kind is not Op and kind is not Var:
                raise IllFormed(f"not a term: {a!r}")
            d = depths[id(a)] if kind is Op else 1
            deepest = d if d > deepest else deepest
        depths[id(x)] = deepest + 1
    return depths[id(t)]


# ---------------------------------------------------------------------------
# Parameter instantiations reachable under a sort-depth bound


def instantiations(
    sig: Signature, schema_name: str, max_sort_depth: int | None
) -> tuple[tuple[tuple, Arity], ...]:
    """All parameter tuples of a schema, paired with their arities.

    Sort parameters range over all sorts of depth <= max_sort_depth in
    canonical order; nat parameters over 0 .. max_sort_depth.  Schemas
    with parameters require the bound; without it they raise Unbounded
    (unless the sort grammar itself is finite and no nat parameter occurs).
    """
    schema = sig.schema(schema_name)
    pools = []
    for p in schema.params:
        if p.kind == "sort":
            if sig.types.arrow_enabled and max_sort_depth is None:
                raise Unbounded(
                    f"schema {schema_name} has sort parameters; pass a sort-depth bound"
                )
            pools.append(sorts_up_to_depth(sig.types, max_sort_depth or 0))
        else:
            if max_sort_depth is None:
                raise Unbounded(
                    f"schema {schema_name} has a nat parameter; pass a sort-depth bound"
                )
            pools.append(list(range(max_sort_depth + 1)))
    return tuple((args, sig.arity(schema_name, args)) for args in product(*pools))


# ---------------------------------------------------------------------------
# Depth-stratified enumeration: A_0 = empty, A_{k+1} = vars + one schema layer


def _productions(sig: Signature, ctx: Context, sort: Sort, max_sort_depth: int | None):
    """The one-step productions of the (ctx, sort) cell, in canonical order:
    its variables, ascending, ``(name, params, ((input context, input
    sort), ...))`` per schema instantiation with that output, and all their
    inputs in one tuple.  Memoised, and read from an index of the
    instantiations by output sort, built once per signature and bound."""
    cache = sig._cache
    by_output = cache.get(("by_output", max_sort_depth))
    if by_output is None:
        by_output = {}
        for schema in sig.schemas:
            for params, arity in instantiations(sig, schema.name, max_sort_depth):
                by_output.setdefault(arity.output, []).append((schema.name, params, arity))
        cache[("by_output", max_sort_depth)] = by_output
    table = cache.setdefault(("productions", max_sort_depth), {})
    key = (ctx, sort)
    hit = table.get(key)
    if hit is None:
        variables = tuple(Var(i) for i, entry in enumerate(ctx) if entry == sort)
        ops = tuple(
            (name, params, tuple((inp.bound + ctx, inp.sort) for inp in arity.inputs))
            for name, params, arity in by_output.get(sort, ())
        )
        hit = table[key] = (variables, ops, tuple(chain.from_iterable(i for _n, _p, i in ops)))
    return hit


def _list_stage(variables, ops, pools) -> tuple[Term, ...]:
    """Listing: the variables, then an Op per tuple of each production's input pools."""
    pools = iter(pools)
    terms = (Op(n, p, args) for n, p, ins in ops for args in product(*islice(pools, len(ins))))
    return (*variables, *terms)


def _count_stage(variables, ops, counts) -> int:  # counting: the same fold into the naturals
    n, counts = len(variables), iter(counts)
    for _name, _params, inputs in ops:
        n += prod(islice(counts, len(inputs)))
    return n


def _draw_stage(variables, ops, draws) -> tuple:
    """Inhabitation: the same fold into the Booleans, kept as its witnesses.
    A cell's draws are its variables and its productions whose input cells
    all have draws; the cell is inhabited when it has any.  Every input is
    read, so that each production takes its own."""
    draws = iter(draws)
    return (*variables, *(op for op in ops if all([*islice(draws, len(op[2]))])))


def _stage(sig: Signature, ctx, sort: Sort, depth: int, max_sort_depth, kind: str, fill):
    """The chain stage A_depth at the (ctx, sort) cell, folded by ``fill(variables,
    ops, values)``: a cell's productions and its input cells' values, in order.
    Memoised per cell under ``(kind, max_sort_depth)``; stage 0 is ``fill((), (),
    ())``.  A cell is filled after its input cells, on an explicit stack."""
    memo = sig._cache.setdefault((kind, max_sort_depth), {})
    empty = fill((), (), ())
    if depth <= 0:
        return empty
    key = (tuple(ctx), sort, depth)
    value = memo.get(key)
    frames = []  # (cell, variables, ops, input depth, inputs to do, values so far) per cell
    while value is None:  # open a frame for the cell ``key``
        variables, ops, inputs = _productions(sig, key[0], key[1], max_sort_depth)
        frames.append((key, variables, ops, key[2] - 1, iter(inputs), []))
        while frames:
            cell, variables, ops, depth, inputs, values = frames[-1]
            for c, s in inputs:
                key = (c, s, depth)
                value = memo.get(key) if depth else empty
                if value is None:
                    break  # open a frame for it
                values.append(value)
            else:  # every input is in: fill the cell
                frames.pop()
                value = memo[cell] = fill(variables, ops, values)
                if frames:
                    frames[-1][5].append(value)
                continue
            break
    return value


def enumerate_terms(
    sig: Signature,
    ctx: Sequence[Sort],
    sort: Sort,
    depth: int,
    max_sort_depth: int | None = None,
) -> tuple[Term, ...]:
    """The chain stage A_depth at the (ctx, sort) cell, in canonical order.

    Order: variables ascending, then schemas in declaration order (their
    instantiations in canonical parameter order), arguments lexicographic
    in the order of the previous stage.  Stage 0 is empty.
    """
    return _stage(sig, ctx, sort, depth, max_sort_depth, "cells", _list_stage)


def chain_count(
    sig: Signature,
    ctx: Sequence[Sort],
    sort: Sort,
    depth: int,
    max_sort_depth: int | None = None,
) -> int:
    """|A_depth| at the cell, via the arity recurrence (exact integers)."""
    return _stage(sig, ctx, sort, depth, max_sort_depth, "counts", _count_stage)


def _text_lines(variables, ops, pools):
    """The texts of ``_list_stage``'s terms, in its order, from the texts of
    the input cells: the same fold into strings."""
    for v in variables:
        yield f"(var {v.index})"
    pools = iter(pools)
    for name, params, inputs in ops:
        head = _head(name, params)
        if not inputs:
            yield head + ")"
            continue
        head += " "
        for args in product(*islice(pools, len(inputs))):
            yield head + " ".join(args) + ")"


def _text_stage(variables, ops, pools) -> tuple[str, ...]:
    # Unpacked, as _list_stage's tuple is: tuple() of a generator regrows the
    # tuple in place, and over many listings that grew the process's heap.
    return (*_text_lines(variables, ops, pools),)


def _printed_stage(sig: Signature, ctx, sort: Sort, depth: int, max_sort_depth):
    """``print_term`` of each term of ``enumerate_terms``'s listing, in order,
    as a generator.  Only the input cells, at ``depth - 1``, are filled and
    memoised; the top cell's texts are made as they are asked for."""
    if depth <= 0:
        return iter(())
    variables, ops, inputs = _productions(sig, tuple(ctx), sort, max_sort_depth)
    pools = [_stage(sig, c, s, depth - 1, max_sort_depth, "texts", _text_stage) for c, s in inputs]
    return _text_lines(variables, ops, pools)


def random_term(sig, ctx, sort, depth, rng, max_sort_depth=None) -> Term:
    """Seeded random well-formed term of constructor depth <= depth.

    Picks uniformly among the productions that stay inhabited at the
    remaining depth, so the draw always succeeds when the cell itself is
    inhabited; raises ValueError otherwise.  Picks are made in pre-order
    on an explicit stack, each one lookup in the cells' memoised draws.
    """
    if not _stage(sig, ctx, sort, depth, max_sort_depth, "draws", _draw_stage):
        raise ValueError("empty cell: no term to draw")
    draws = sig._cache[("draws", max_sort_depth)]
    picks, todo = [], [(tuple(ctx), sort, depth)]
    while todo:
        cell = todo.pop()
        choices = draws[cell]
        pick = choices[rng.below(len(choices))]
        picks.append(pick)
        if type(pick) is not Var:
            todo += ((c, s, cell[2] - 1) for c, s in reversed(pick[2]))
    built = []  # the terms of the later picks, a node's first argument on top
    for pick in reversed(picks):
        if type(pick) is not Var:
            pick = Op(pick[0], pick[1], tuple(built.pop() for _ in pick[2]))
        built.append(pick)
    return built[0]


# ---------------------------------------------------------------------------
# Lambek decomposition: a term is a variable or a top constructor layer


@dataclass(frozen=True, slots=True)
class VarCase:
    index: int


@dataclass(frozen=True, slots=True)
class OpCase:
    name: str
    params: tuple
    args: tuple


def lambek_decompose(t: Term) -> Union[VarCase, OpCase]:
    if type(t) is Var:
        return VarCase(t.index)
    return OpCase(t.name, t.params, t.args)


def lambek_compose(case: Union[VarCase, OpCase]) -> Term:
    if isinstance(case, VarCase):
        return Var(case.index)
    return Op(case.name, case.params, case.args)


# ---------------------------------------------------------------------------
# Concrete syntax: s-expressions


def _read_param(ts: TokenStream, refs: dict | None):
    """A natural, a name bound in ``refs``, or a sort."""
    kind, text, _ = ts.peek()
    if kind == "nat":
        return ts.expect_nat()
    if refs and text in refs:
        ts.next()
        return refs[text]
    return _parse_sort_expr(ts)


def _read_term(ts: TokenStream, refs: dict | None = None, placeholder=None):
    """Read one term without recursion on the Python stack.

    Translation templates pass ``refs`` (clause parameter name -> value to
    put in its place) and ``placeholder`` (builds the leaf ``(ph j)``).
    """
    frames = []  # (name, params, args) per open operator
    while True:
        if frames and not ts.at("("):
            ts.expect(")")
            name, params, args = frames.pop()
            value = Op(name, params, tuple(args))
        else:
            ts.expect("(")
            _, head, offset = ts.next()
            if head == "op":
                name = ts.expect_kind("ident")
                params = ()
                if ts.at("<"):
                    ts.next()
                    params = tuple(ts.delimited(lambda: _read_param(ts, refs), ">"))
                frames.append((name, params, []))
                continue
            if head == "var" or (head == "ph" and placeholder is not None):
                index = ts.expect_nat()
                ts.expect(")")
                value = Var(index) if head == "var" else placeholder(index)
            else:
                expected = "'op', 'var' or 'ph'" if placeholder is not None else "'var' or 'op'"
                raise ts.error(f"expected {expected}, found {head!r}", offset)
        if not frames:
            return value
        frames[-1][2].append(value)


# One node head of a plain text, after any blanks: ``(op NAME`` with its
# ``<PARAMS>``, ``(var N)`` or ``)``.  Plain characters are those the scanner
# reads as blanks, words, numerals and ``( ) < > ,``: no comment, no path.
_HEAD_RE = re.compile(
    r"[ \t\r\n]*(?:\([ \t\r\n]*(?:op[ \t\r\n]+([A-Za-z_]\w*)(?:[ \t\r\n]*<([\w \t\r\n(),]*>))?"
    r"|var[ \t\r\n]+(\d+)[ \t\r\n]*\))|(\)))",
    re.ASCII,
)
_BLANKS_RE = re.compile(r"[ \t\r\n]*")


def _read_plain(text: str) -> Term | None:
    """The term of a plain ``text``, one regex match per node head, or None
    where the token reader must decide.  Each distinct parameter list is
    read once, by ``_read_param``, and its tuple shared."""
    match, known, frames, pos = _HEAD_RE.match, {}, [], 0
    while True:
        m = match(text, pos)
        if m is None:
            return None
        pos, kind = m.end(), m.lastindex
        if kind <= 2:  # (op NAME, with <PARAMS> when kind is 2
            params = ()
            if kind == 2:
                params = known.get(m[2])
                if params is None:
                    ts = TokenStream(m[2])
                    try:
                        params = tuple(ts.delimited(lambda: _read_param(ts, None), ">"))
                    except ParseError:
                        return None
                    known[m[2]] = params
            frames.append((m[1], params, []))
            continue
        if kind == 3:
            try:
                value = Var(int(m[3]))
            except ValueError:  # past the interpreter's digit limit
                return None
        elif frames:
            name, params, args = frames.pop()
            value = Op(name, params, tuple(args))
        else:
            return None
        if not frames:
            return value if _BLANKS_RE.fullmatch(text, pos) else None
        frames[-1][2].append(value)


def parse_term(text: str) -> Term:
    """Read a term.  A plain text is read one node head at a time; any
    other text, and any text that reading rejects, goes to the token
    reader, which alone reports a ParseError."""
    t = _read_plain(text)
    if t is None:
        ts = TokenStream(text)
        t = _read_term(ts)
        ts.expect_eof()
    return t


_CLOSE = object()  # print_term's closing parenthesis: no argument is it


def _params_text(params: tuple) -> str:
    return "<" + ",".join(str(p) if isinstance(p, int) else print_sort(p) for p in params) + ">"


def _head(name: str, params: tuple) -> str:
    """An operator's text up to its arguments: ``(op NAME`` and any ``<PARAMS>``."""
    return "(op " + name + _params_text(params) if params else "(op " + name


def print_term(t: Term) -> str:
    out: list[str] = []  # each term's text starts with a space
    stack: list = [t]  # terms still to print, and closing parentheses
    close = _CLOSE
    texts = {}  # id -> text of each distinct parameter tuple, which the term keeps alive
    while stack:
        t = stack.pop()
        if t is close:
            out.append(")")
        elif type(t) is Var:
            out.append(f" (var {t.index})")
        elif type(t) is Op:
            params = t.params
            if params:
                text = texts.get(id(params))
                if text is None:
                    text = texts[id(params)] = _params_text(params)
                out.append(" (op " + t.name + text)
            else:
                out.append(" (op " + t.name)
            stack.append(close)
            stack.extend(reversed(t.args))
        else:
            raise IllFormed(f"not a term: {t!r}")
    return "".join(out)[1:]


def parse_context(types: TypeSystem, text: str) -> Context:
    """``(ctx s0 s1 ...)`` or, for a single-sorted system, a bare size."""
    text = text.strip()
    if text.isdecimal():
        n = TokenStream(text).expect_nat()
        if n == 0:
            return ()
        return (types.single_sort(),) * n
    ts = TokenStream(text)
    entries = ts.form("ctx", lambda: _parse_sort_expr(ts))
    ts.expect_eof()
    return check_context(types, entries)


def print_context(ctx: Context) -> str:
    return "(ctx" + "".join(" " + print_sort(s) for s in ctx) + ")"
