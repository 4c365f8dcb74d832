"""Language-to-language translation tables over a type-system morphism.

A table gives, per source schema, a target term template whose leaves
are placeholders for the translated arguments.  Templates are
offset-exact and graft-only: each placeholder occurs under precisely the
image of its input's bound list, so substituting the translated argument
needs no shifting and capture-avoidance is automatic.  Variables
translate to themselves because the context image is pointwise.

Each clause is checked and compiled at a parameter instantiation on
first use, in one walk of the term checker: it is a closed target term
whose placeholders stand for their inputs' image sorts under exactly
their image binders, and its errors carry the clause's operator name as
a prefix.  The same walk compiles it into a builder that makes one node
per template node holding a placeholder; placeholder-free template parts
are built once and shared by every output.  Clauses are walked on
explicit stacks, so they may be deeper than the Python stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Sequence, Union

from .errors import (
    BindsigError,
    MissingClause,
    OffsetMismatch,
    ParamArityMismatch,
    SortMismatch,
    TypeSystemMismatch,
    UnknownBuiltin,
)
from .sigdef import (
    BaseSort,
    Signature,
    Sort,
    TokenStream,
    TypeSystem,
    _load_signature,
    _map_leaves,
    _parse_sort_expr,
    check_sort,
    print_sort,
    sorts_up_to_depth,
)
from .term import (
    Context,
    Op,
    Term,
    Var,
    _check_args,
    _lookup,
    _post_order,
    _read_term,
    _Scope,
    _walk,
)

__all__ = [
    "TypeMorphism",
    "Placeholder",
    "ParamRef",
    "TranslationTable",
    "map_context",
    "make_table",
    "translate_term",
    "builtin_table",
    "identity_table",
    "parse_table",
]


@dataclass(frozen=True)
class TypeMorphism:
    """Map of sort grammars: per-base images plus an arrow policy.

    mode "homomorphic" sends arrow(a, b) to arrow(g a, g b) and needs
    arrows in the target; mode "collapse" sends every sort to the single
    base sort of an untyped target.
    """

    source: TypeSystem
    target: TypeSystem
    base_map: Mapping[str, Sort]
    mode: str = "homomorphic"

    def __post_init__(self):
        if self.mode not in ("homomorphic", "collapse"):
            raise TypeSystemMismatch(f"unknown arrow mode {self.mode!r}")
        if self.mode == "collapse" and not self.target.untyped:
            raise TypeSystemMismatch("collapse mode needs an untyped target")
        for name in self.source.base_sorts:
            if name not in self.base_map:
                raise TypeSystemMismatch(f"base sort {name!r} has no image")
        if self.mode == "homomorphic" and self.source.arrow_enabled and not self.target.arrow_enabled:
            raise TypeSystemMismatch("homomorphic mode needs arrows in the target")

    def apply(self, sort: Sort) -> Sort:
        """The image of ``sort``; MalformedSort unless it is a source sort."""
        check_sort(self.source, sort)
        if self.mode == "collapse":
            return self.target.single_sort()
        return _map_leaves(sort, lambda base: self.base_map[base.name])

    @staticmethod
    def identity(types: TypeSystem) -> "TypeMorphism":
        return TypeMorphism(types, types, {n: BaseSort(n) for n in types.base_sorts})

    @staticmethod
    def collapse(source: TypeSystem, target: TypeSystem) -> "TypeMorphism":
        single = target.single_sort()
        return TypeMorphism(source, target, {n: single for n in source.base_sorts}, "collapse")


def map_context(morphism: TypeMorphism, ctx: Sequence[Sort]) -> Context:
    """Pointwise image; positions and length are preserved."""
    return tuple(morphism.apply(s) for s in ctx)


class Placeholder:
    """Template leaf standing for the translated j-th argument."""

    __slots__ = ("index", "_hash")
    __match_args__ = ("index",)
    _bound = 0  # no variable: the bound on loose indices that terms carry

    def __init__(self, index: int):
        self.index = index
        self._hash = hash((Placeholder, index))

    def __eq__(self, other):
        return type(other) is Placeholder and other.index == self.index

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # no stored hash crosses a pickle
        return Placeholder, (self.index,)

    def __repr__(self):
        return f"Placeholder({self.index})"


@dataclass(frozen=True, slots=True)
class ParamRef:
    """Template parameter slot resolved from the source instantiation.

    Sort-valued parameters pass through the type morphism; nat-valued
    parameters are carried unchanged.
    """

    index: int


Template = Union[Term, Placeholder]


@dataclass(frozen=True)
class TranslationTable:
    source: Signature
    target: Signature
    morphism: TypeMorphism
    clauses: Mapping[str, Template]
    # (schema name, source params) -> builder of the checked clause
    _checked: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __reduce__(self):  # the builders are closures: checked again on first use
        return TranslationTable, (self.source, self.target, self.morphism, self.clauses)


def _clause_at(table: TranslationTable, name: str, source_params: tuple):
    """The clause of ``name`` at ``source_params``, its parameters resolved,
    checked and compiled on first use and memoised as a builder: a function
    from the translated arguments to the output.

    One walk of the term checker does both.  Each node's value is its sort
    and its entry in the list the builder fills: the translated arguments,
    then the entries made here, post-order.  A placeholder-free part is
    made once, here, and shared by every output; a node holding a
    placeholder is made per call from the entries it picks by position.
    """
    key = (name, source_params)
    hit = table._checked.get(key)
    if hit is not None:
        return hit
    try:
        template = table.clauses[name]
    except KeyError:
        raise MissingClause(f"no clause for source operator {name!r}") from None
    g = table.morphism
    arity = table.source.arity(name, source_params)
    images = [(map_context(g, inp.bound), g.apply(inp.sort)) for inp in arity.inputs]
    n = len(images)
    entries, steps = [], []  # entries after the arguments; one step per node made per call

    def entry(value) -> int:  # where the list holds the value
        entries.append(value)
        return n + len(entries) - 1

    def var(scope, i):
        return _lookup(scope, i), entry(Var(i))

    def node(scope, t: Op, arity, vals):
        sort = _check_args(scope, t, arity, [v[0] for v in vals])
        picks = [v[1] for v in vals]
        if all(p >= n and entries[p - n] is not None for p in picks):  # no placeholder below t
            del entries[len(entries) - len(picks) :]  # the arguments' entries are the last ones
            return sort, entry(t)
        at = entry(None)  # filled per call
        steps.append((t.name, t.params, itemgetter(*picks), len(picks) == 1, at))
        return sort, at

    def placeholder(scope, t):  # the walk's ``known``: a placeholder's image sort and position
        if type(t) is not Placeholder:
            return None
        j = t.index
        if not (0 <= j < n):
            raise OffsetMismatch(f"placeholder {j} out of range")
        bound, sort = images[j]
        if scope != bound:
            raise OffsetMismatch(
                f"placeholder {j} sits under binder extension "
                f"{[print_sort(s) for s in scope]}, "
                f"expected {[print_sort(s) for s in bound]}"
            )
        return sort, j

    # Sort parameters pass through the type morphism, nat parameters unchanged.
    values = tuple(p if isinstance(p, int) else g.apply(p) for p in source_params)
    try:
        clause = _resolve(template, values)
        # A clause is a closed target term but for its placeholders.
        sort, root = placeholder((), clause) or _walk(
            table.target, clause, (), var, node, _Scope, placeholder
        )
        expected = g.apply(arity.output)
        if sort != expected:
            raise SortMismatch(
                f"clause has sort {print_sort(sort)}, expected {print_sort(expected)}"
            )
    except BindsigError as e:
        raise type(e)(f"{name}: {e}") from None

    def build(translated: list) -> Term:
        out = translated + entries
        for name, params, pick, single, at in steps:
            args = pick(out)
            out[at] = Op(name, params, (args,) if single else args)
        return out[root]

    table._checked[key] = build
    return build


def _resolve(template: Template, values: tuple) -> Template:
    """``template`` with each ParamRef replaced by its value; each distinct
    operator is rebuilt once, after its arguments, so sharing is kept, and
    leaves are kept as they are."""
    if type(template) is not Op:
        return template
    made = {}  # id -> the rebuilt operator
    for t in _post_order(template, lambda a: id(a) in made):
        for p in t.params:
            if isinstance(p, ParamRef) and not 0 <= p.index < len(values):
                raise ParamArityMismatch(f"{p} out of range for {len(values)} parameter(s)")
        params = tuple(values[p.index] if isinstance(p, ParamRef) else p for p in t.params)
        made[id(t)] = Op(t.name, params, tuple(made.get(id(a), a) for a in t.args))
    return made[id(template)]


def make_table(
    source: Signature,
    target: Signature,
    morphism: TypeMorphism,
    clauses: Mapping[str, Template],
) -> TranslationTable:
    """Validated table: one clause per source schema, placeholders at
    exactly the image of their input's binder extension, output sorts
    coherent with the type morphism.

    A parameterized clause is checked at a sample instantiation here, and
    at every other instantiation when ``translate_term`` first meets it;
    each check is memoised on the table."""
    for schema in source.schemas:
        if schema.name not in clauses:
            raise MissingClause(f"no clause for source operator {schema.name!r}")
    for name in clauses:
        source.schema(name)  # raises UnknownOp on junk clauses
    table = TranslationTable(source, target, morphism, dict(clauses))
    for schema in source.schemas:
        # The sample instantiation: the first sort, or 0, for each parameter.
        spot = tuple(
            sorts_up_to_depth(source.types, 0)[0] if p.kind == "sort" else 0
            for p in schema.params
        )
        _clause_at(table, schema.name, spot)
    return table


def translate_term(table: TranslationTable, ctx: Sequence[Sort], t: Term) -> Term:
    """Apply the table; the result is well-formed over the image context
    at the image sort.  Variables keep their indices.  A clause that is
    ill-sorted at a parameter instantiation raises when first used there."""

    def node(env, t: Op, arity, translated) -> Term:
        return _clause_at(table, t.name, t.params)(translated)

    # Translation needs no context: variables keep their indices.
    return _walk(table.source, t, None, lambda env, i: Var(i), node, lambda env, bound: None)


# ---------------------------------------------------------------------------
# Stock tables


def identity_table(sig: Signature) -> TranslationTable:
    """Every schema maps to itself applied to its placeholders."""
    clauses = {}
    for schema in sig.schemas:
        params = tuple(ParamRef(i) for i in range(len(schema.params)))
        args = tuple(Placeholder(j) for j in range(len(schema.inputs)))
        clauses[schema.name] = Op(schema.name, params, args)
    return make_table(sig, sig, TypeMorphism.identity(sig.types), clauses)


# Written in the table file grammar, and read by parse_table on first use.
_TABLE_TEXTS = {
    "fol2ll": """translate fol -> ll erase-types
clause top = (op top)
clause bot = (op bot)
clause neg = (op lolli (op bang (ph 0)) (op zero))
clause and = (op with (ph 0) (ph 1))
clause or = (op oplus (op bang (ph 0)) (op bang (ph 1)))
clause imp = (op lolli (op bang (ph 0)) (ph 1))
clause forall = (op forall (ph 0))
clause exists = (op exists (op bang (ph 0)))
""",
    "stlc2ulc": """translate stlc -> ulc erase-types
clause app<s,t> = (op app (ph 0) (ph 1))
clause abs<s,t> = (op abs (ph 0))
""",
}


@functools.cache  # only the names of _TABLE_TEXTS reach it
def _parsed_table(name: str) -> TranslationTable:
    return parse_table(_TABLE_TEXTS[name])


def builtin_table(name: str) -> TranslationTable:
    """fol2ll or stlc2ulc.  Each text is parsed and checked once per
    process; every call returns a new table over new signatures."""
    if name not in _TABLE_TEXTS:
        raise UnknownBuiltin(f"no builtin table {name!r}")
    t = _parsed_table(name)
    source, target = (Signature(sig.types, sig.schemas) for sig in (t.source, t.target))
    table = TranslationTable(source, target, t.morphism, dict(t.clauses))
    table._checked.update(t._checked)  # checked when the text was read; builders use no signature
    return table


# ---------------------------------------------------------------------------
# Table files


def parse_table(text: str) -> TranslationTable:
    """Table file grammar::

        translate <src> -> <tgt> [erase-types | map <base> => <sort> ...]
        clause <op>[<params>] = <target term with (ph j) leaves>

    <src> and <tgt> are builtin signature names or signature file paths.
    Without an arrow policy the morphism is the identity on base names.
    """
    ts = TokenStream(text)

    def signature_spec():  # a builtin name, or a path (a word with '/' or '.')
        return ts.next()[1] if ts.peek()[0] == "path" else ts.expect_kind("ident")

    ts.expect("translate")
    src_name = signature_spec()
    ts.expect("->")
    tgt_name = signature_spec()
    source = _load_signature(src_name)
    target = _load_signature(tgt_name)
    base_map: dict[str, Sort] = {}
    mode = None
    while True:
        if ts.at("erase"):
            ts.next()
            ts.expect("-")
            ts.expect("types")
            mode = "collapse"
        elif ts.at("map"):
            ts.next()
            base = ts.expect_kind("ident")
            ts.expect("=>")
            base_map[base] = _parse_sort_expr(ts)
            mode = mode or "homomorphic"
        else:
            break
    if mode == "collapse":
        morphism = TypeMorphism.collapse(source.types, target.types)
    elif base_map:
        morphism = TypeMorphism(source.types, target.types, base_map, "homomorphic")
    else:
        if source.types != target.types:
            raise TypeSystemMismatch(
                "differing type systems need an explicit 'erase-types' or 'map' policy"
            )
        morphism = TypeMorphism.identity(source.types)
    clauses: dict[str, Template] = {}
    while not ts.at_eof():
        ts.expect("clause")
        name_offset = ts.peek()[2]
        op_name = ts.expect_kind("ident")
        schema = source.schema(op_name)
        refs: dict[str, ParamRef] = {}
        if ts.at("<"):
            ts.next()
            names = ts.delimited(lambda: ts.expect_kind("ident"), ">")
            if len(names) != len(schema.params):
                raise ts.error(
                    f"clause for {op_name} binds {len(names)} parameter(s), "
                    f"schema has {len(schema.params)}",
                    name_offset,
                )
            refs = {n: ParamRef(i) for i, n in enumerate(names)}
        ts.expect("=")
        if op_name in clauses:
            raise ts.error(f"duplicate clause for {op_name}", name_offset)
        clauses[op_name] = _read_term(ts, refs, Placeholder)
    return make_table(source, target, morphism, clauses)
