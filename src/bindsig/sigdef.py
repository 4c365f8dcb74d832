"""Binding signatures over a base-plus-arrow sort grammar.

A signature declares, for a type system, a family of constructor schemas.
Each schema input carries the list of sorts it binds, so the signature
fully determines the well-scoped syntax built in :mod:`bindsig.term`.
Infinite constructor families (type-indexed application, numerals) are
finitely many *parameterized* schemas whose arity is a sort/nat template;
a concrete arity is produced by :func:`instantiate`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import (
    DuplicateName,
    MalformedSort,
    ParamArityMismatch,
    ParamKindMismatch,
    ParseError,
    TypeSystemMismatch,
    UnknownBuiltin,
    UnknownOp,
)

__all__ = [
    "TypeSystem",
    "BaseSort",
    "ArrowSort",
    "SortRef",
    "Sort",
    "Param",
    "Input",
    "Arity",
    "ConstructorSchema",
    "Signature",
    "UNTYPED",
    "STAR",
    "make_signature",
    "sum_signatures",
    "instantiate",
    "builtin",
    "parse_signature",
    "print_signature",
    "parse_sort",
    "print_sort",
    "sorts_up_to_depth",
]


# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True, slots=True)
class TypeSystem:
    """Finite base sorts, optionally closed under a binary arrow."""

    base_sorts: tuple[str, ...]
    arrow_enabled: bool = False

    def __post_init__(self):
        seen = set()
        for name in self.base_sorts:
            if not name:
                raise MalformedSort("empty base sort name")
            if name in seen:
                raise DuplicateName(f"base sort {name!r} declared twice")
            seen.add(name)

    @property
    def untyped(self) -> bool:
        return len(self.base_sorts) == 1 and not self.arrow_enabled

    def single_sort(self) -> "BaseSort":
        if not self.untyped:
            raise TypeSystemMismatch("type system is not single-sorted")
        return BaseSort(self.base_sorts[0])


# Sorts hash once, at construction: signature lookups and sort-parameterised
# operators hash them on every use.


@dataclass(frozen=True, slots=True)
class BaseSort:
    name: str
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # no stored hash crosses a pickle
        return BaseSort, (self.name,)

    def __copy__(self):  # immutable: a copy is the value itself
        return self

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True, slots=True)
class ArrowSort:
    domain: "Sort"
    codomain: "Sort"
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.domain, self.codomain)))

    def __hash__(self):
        return self._hash

    __copy__ = BaseSort.__copy__  # immutable: copies, deep ones too, are the value itself
    __deepcopy__ = BaseSort.__deepcopy__

    def __repr__(self):  # the dataclass's text, along _tour: no recursion
        return "".join(_SPELLED[x] if type(x) is _Punct else x for x in _tour(self, repr))

    def __reduce__(self):  # flat, along _tour: no recursion, and no stored hash
        return _from_tour, (_tour(self, lambda x: x),)

    def __eq__(self, other):
        if type(other) is not ArrowSort:
            return NotImplemented
        pairs = [(self, other)]
        for x, y in pairs:  # a work list the loop extends: no recursion
            if x is y:
                continue
            if type(x) is ArrowSort and type(y) is ArrowSort:
                if x._hash != y._hash:  # the stored hashes reject before any descent
                    return False
                pairs += ((x.domain, y.domain), (x.codomain, y.codomain))
            elif x != y:
                return False
        return True


@dataclass(frozen=True, slots=True)
class SortRef:
    """Occurrence of a schema sort parameter inside an arity template."""

    index: int


Sort = Union[BaseSort, ArrowSort]
# Templates additionally admit SortRef leaves, also under arrows.
SortTemplate = Union[BaseSort, ArrowSort, SortRef]

UNTYPED = TypeSystem(("*",))
STAR = BaseSort("*")


class _Punct(str):
    """The punctuation of a sort's printed form: never a leaf."""


_OPEN, _COMMA, _CLOSE = _Punct("arrow("), _Punct(","), _Punct(")")
_SPELLED = {_OPEN: "ArrowSort(domain=", _COMMA: ", codomain=", _CLOSE: ")"}  # repr's punctuation


def _tour(tpl: SortTemplate, leaf) -> list:
    """The printed form of a sort or template as a list: the punctuation
    ``_OPEN``, ``_COMMA`` and ``_CLOSE``, and ``leaf(x)`` in place of each
    leaf ``x``, called in pre-order.  The one walk of the sort grammar; it
    keeps its own stack, so sorts may be deeper than the Python stack."""
    out, todo = [], [tpl]
    while todo:
        x = todo.pop()
        if type(x) is ArrowSort:
            todo += (_CLOSE, x.codomain, _COMMA, x.domain, _OPEN)
        else:
            out.append(x if type(x) is _Punct else leaf(x))
    return out


def _map_leaves(tpl: SortTemplate, leaf) -> SortTemplate:
    """``tpl`` with each leaf ``x`` replaced by ``leaf(x)``, called in
    pre-order."""
    return _from_tour(_tour(tpl, leaf))


def _from_tour(tour: list) -> SortTemplate:
    """The sort or template a ``_tour`` list spells: each arrow is rebuilt
    as its ``_CLOSE`` passes.  Punctuation is told by value, so a list
    that went through ``pickle`` reads the same."""
    done = []
    for x in tour:
        if type(x) is not _Punct:
            done.append(x)
        elif x == _CLOSE:
            done[-2:] = [ArrowSort(*done[-2:])]
    return done[0]


def check_sort(types: TypeSystem, sort: Sort, schema: ConstructorSchema | None = None) -> None:
    """Raise MalformedSort unless ``sort`` is a well-formed sort of ``types``.

    With ``schema``, ``sort`` is one of its arity templates, whose SortRef
    leaves must name its sort parameters (ParamKindMismatch for a nat
    one); without, a SortRef is no sort.  The first fault in pre-order is
    the one reported: a sort with an arrow in it is an arrow.
    """
    if type(sort) is ArrowSort and not types.arrow_enabled:
        if schema is not None:
            raise MalformedSort(f"{schema.name}: arrow sort but arrows are disabled")
        raise MalformedSort("arrow sort in a type system without arrows")

    def leaf(x):
        if isinstance(x, BaseSort):
            if x.name not in types.base_sorts:
                raise MalformedSort(f"unknown base sort {x.name!r}")
        elif isinstance(x, SortRef) and schema is not None:
            if not (0 <= x.index < len(schema.params)):
                raise MalformedSort(f"{schema.name}: parameter reference out of range")
            p = schema.params[x.index]
            if p.kind != "sort":
                raise ParamKindMismatch(f"{schema.name}: parameter {p.name} used as a sort")
        else:
            raise MalformedSort(f"not a sort: {x!r}")

    _tour(sort, leaf)


def _check_arity(types: TypeSystem, arity, schema: ConstructorSchema | None = None) -> None:
    """check_sort on every sort of ``arity``: bound, input, then output."""
    for sort in [s for inp in arity.inputs for s in (*inp.bound, inp.sort)] + [arity.output]:
        check_sort(types, sort, schema)


def sorts_up_to_depth(types: TypeSystem, depth: int) -> list[Sort]:
    """All sorts of arrow-nesting depth <= depth, in a fixed order.

    Depth 0 lists base sorts in declaration order; each further level
    appends the new arrows ordered by (domain position, codomain position)
    in the list built so far.  The order is part of the enumeration
    contract, so golden outputs stay stable.
    """
    out: list[Sort] = [BaseSort(n) for n in types.base_sorts]
    last = 0  # where the deepest level so far starts: each new arrow has a side there
    for _ in range(depth if types.arrow_enabled else 0):
        n = len(out)
        out += [ArrowSort(out[i], out[j]) for i in range(n) for j in range(n) if max(i, j) >= last]
        last = n
    return out


# ---------------------------------------------------------------------------
# Schemas and signatures


@dataclass(frozen=True, slots=True)
class Param:
    """Schema parameter declaration; kind is ``"sort"`` or ``"nat"``."""

    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in ("sort", "nat"):
            raise ParamKindMismatch(f"unknown parameter kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class Input:
    """One constructor input: the sorts it binds and the sort it expects."""

    bound: tuple[SortTemplate, ...]
    sort: SortTemplate


@dataclass(frozen=True, slots=True)
class Arity:
    inputs: tuple[Input, ...]
    output: Sort


@dataclass(frozen=True, slots=True)
class ConstructorSchema:
    """Named constructor with a (possibly parameterized) arity template."""

    name: str
    params: tuple[Param, ...]
    inputs: tuple[Input, ...]
    output: SortTemplate

    def __post_init__(self):
        seen = set()
        for p in self.params:
            if p.name in seen:
                raise DuplicateName(f"parameter {p.name!r} declared twice in {self.name}")
            seen.add(p.name)


def _subst_template(tpl: SortTemplate, args: tuple) -> Sort:
    return _map_leaves(tpl, lambda x: args[x.index] if isinstance(x, SortRef) else x)


def instantiate(schema: ConstructorSchema, args: Sequence, types: TypeSystem | None = None) -> Arity:
    """Concrete arity of ``schema`` at the parameter instantiation ``args``.

    Sort parameters take a Sort, nat parameters a non-negative int.  When
    ``types`` is given the sort parameters and the resulting sorts are
    checked against it.
    """
    args = tuple(args)
    if len(args) != len(schema.params):
        raise ParamArityMismatch(
            f"{schema.name} expects {len(schema.params)} parameter(s), got {len(args)}"
        )
    for p, a in zip(schema.params, args):
        if p.kind == "sort" and not isinstance(a, (BaseSort, ArrowSort)):
            raise ParamKindMismatch(f"parameter {p.name} of {schema.name} expects a sort")
        if p.kind == "sort" and types is not None:  # also those the arity does not mention
            check_sort(types, a)
        if p.kind == "nat" and not (type(a) is int and a >= 0):  # a bool prints as True: no numeral
            raise ParamKindMismatch(f"parameter {p.name} of {schema.name} expects a natural")
    inputs = tuple(
        Input(tuple(_subst_template(b, args) for b in inp.bound), _subst_template(inp.sort, args))
        for inp in schema.inputs
    )
    arity = Arity(inputs, _subst_template(schema.output, args))
    if types is not None:
        _check_arity(types, arity)
    return arity


@dataclass(frozen=True, slots=True)
class Signature:
    """A type system plus constructor schemas with pairwise-distinct names.

    Immutable after construction; the private cache only memoizes pure
    lookups and is excluded from equality, hashing and pickling; a
    ``dataclasses.replace`` copy starts a memo of its own.
    """

    types: TypeSystem
    schemas: tuple[ConstructorSchema, ...]
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False, hash=False)
    # Check certificates name the signature by its stamp: a cached term never refers back to it.
    _stamp: object = field(default_factory=object, init=False, compare=False, repr=False)

    def schema(self, name: str) -> ConstructorSchema:
        table = self._cache.get("by_name")
        if table is None:
            table = {s.name: s for s in self.schemas}
            self._cache["by_name"] = table
        try:
            return table[name]
        except KeyError:
            raise UnknownOp(f"unknown operator {name!r}") from None

    def arity(self, name: str, params: tuple) -> Arity:
        key = ("arity", name, params)
        hit = self._cache.get(key)
        if hit is None:
            schema = self.schema(name)
            if any(p.kind == "nat" for p in schema.params):  # True == 1.0 == 1: key with the types
                key += (tuple(map(type, params)),)
            hit = self._cache[key] = self._cache.get(key) or instantiate(schema, params, self.types)
        return hit

    def __reduce__(self):
        return Signature, (self.types, self.schemas)

    @property
    def parameterized(self) -> bool:
        return any(s.params for s in self.schemas)


def make_signature(types: TypeSystem, schemas: Iterable[ConstructorSchema]) -> Signature:
    """Validate and assemble a signature.

    Schema arity templates are checked structurally against ``types``.
    """
    schemas = tuple(schemas)
    seen = set()
    for s in schemas:
        if s.name in seen:
            raise DuplicateName(f"operator {s.name!r} declared twice")
        seen.add(s.name)
        _check_arity(types, s, s)
    return Signature(types, schemas)


def sum_signatures(a: Signature, b: Signature) -> Signature:
    """Coproduct of two signatures over the same type system."""
    if a.types != b.types:
        raise TypeSystemMismatch("summed signatures must share their type system")
    names_a = {s.name for s in a.schemas}
    for s in b.schemas:
        if s.name in names_a:
            raise DuplicateName(f"operator {s.name!r} occurs in both summands")
    return Signature(a.types, a.schemas + b.schemas)


# ---------------------------------------------------------------------------
# Builtin signatures


# Written in the signature file grammar, and read by parse_signature on
# first use.
_BUILTIN_TEXTS = {
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


@functools.cache  # only the names of _BUILTIN_TEXTS reach it
def _parsed_builtin(name: str) -> Signature:
    return parse_signature(_BUILTIN_TEXTS[name])


def builtin(name: str) -> Signature:
    """One of the stock signatures: ulc, fol, ll, stlc, pcf, nat.

    Each text is parsed once per process; every call returns a new
    Signature, whose lookup cache starts empty.
    """
    if name not in _BUILTIN_TEXTS:
        raise UnknownBuiltin(f"no builtin signature {name!r}")
    sig = _parsed_builtin(name)
    return Signature(sig.types, sig.schemas)


# ---------------------------------------------------------------------------
# Scanner shared by the signature, term, and table grammars


# A word with '.' or '/' in it is one path token, which only a table
# header accepts; nat and ident give way to it.
_TOKEN_RE = re.compile(
    r"""(?P<skip>(?:[ \t\r\n]+|\#[^\n]*)+)
      | (?P<arrowsym>->|=>)
      | (?P<nat>\d+(?![\w-]*[./]))
      | (?P<ident>(?:[A-Za-z_][A-Za-z0-9_?]*|\*)(?![\w-]*[./]))
      | (?P<punct>[()<>\[\],:|=-])
      | (?P<path>(?:[\w.~/]|-(?!>))*[./](?:[\w.~/]|-(?!>))*)
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class TokenStream:
    """The tokens of ``text``, scanned in one pass, as (kind, text, offset).

    A position is turned into a line and a column only when a ParseError
    is built: both are 1-based, a tab is one column, and only ``\\n``
    breaks a line.  The final ``eof`` token sits just past the last
    character.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise self.error(f"unexpected character {m.group()!r}", m.start())
            if kind != "skip":
                tokens.append((kind, m.group(), m.start()))
        tokens.append(("eof", "", len(text)))
        self.pos = 0

    def error(self, message: str, offset: int) -> ParseError:
        """A ParseError located at ``offset`` in the text."""
        line_start = self.text.rfind("\n", 0, offset) + 1
        return ParseError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        _, found, offset = self.next()
        if found != text:
            raise self.error(f"expected {text!r}, found {found or 'end of input'!r}", offset)

    def expect_kind(self, kind: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        found, text, offset = self.next()
        if found != kind:
            raise self.error(f"expected {kind}, found {text or 'end of input'!r}", offset)
        return text

    def expect_nat(self) -> int:
        """The value of the next token, which must be a numeral."""
        offset = self.peek()[2]
        text = self.expect_kind("nat")
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            raise self.error(f"numeral too long: {len(text)} digits", offset) from None

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def at_eof(self) -> bool:
        return self.tokens[self.pos][0] == "eof"

    def delimited(self, item, close: str) -> list:
        """``item()`` once, then again after each comma, then ``close``."""
        items = [item()]
        while self.at(","):
            self.next()
            items.append(item())
        self.expect(close)
        return items

    def form(self, head: str, item) -> list:
        """``(head item ...)``: the items read by ``item()`` up to ``)``."""
        self.expect("(")
        self.expect(head)
        items = []
        while not self.at(")"):
            items.append(item())
        self.expect(")")
        return items

    def expect_eof(self) -> None:
        kind, text, offset = self.peek()
        if kind != "eof":
            raise self.error(f"trailing input {text!r}", offset)


# ---------------------------------------------------------------------------
# Sort and signature concrete syntax


def _parse_sort_expr(ts: TokenStream, param_index: dict | None = None) -> SortTemplate:
    """Read one sort or template without recursion on the Python stack."""
    domains = []  # per open arrow: its domain, or None while it is read
    while True:
        kind, text, offset = ts.next()
        if text == "arrow":
            ts.expect("(")
            domains.append(None)
            continue
        if kind != "ident":
            raise ts.error(f"expected a sort, found {text or 'end of input'!r}", offset)
        value = SortRef(param_index[text]) if text in (param_index or ()) else BaseSort(text)
        while domains and domains[-1] is not None:  # value closes the innermost arrow
            ts.expect(")")
            value = ArrowSort(domains.pop(), value)
        if not domains:
            return value
        domains[-1] = value
        ts.expect(",")


def parse_sort(text: str) -> Sort:
    ts = TokenStream(text)
    sort = _parse_sort_expr(ts)
    ts.expect_eof()
    return sort


def print_sort(sort: Sort) -> str:
    return _print_template(sort, ())


def _print_template(tpl: SortTemplate, params: tuple[Param, ...]) -> str:
    """A sort, or a schema's sort template with its parameter names."""
    if type(tpl) is BaseSort:
        return tpl.name

    def name(x):
        if isinstance(x, BaseSort):
            return x.name
        if isinstance(x, SortRef) and x.index < len(params):
            return params[x.index].name
        raise MalformedSort(f"not a printable sort: {x!r}")

    return "".join(_tour(tpl, name))


def _parse_param_decl(ts: TokenStream) -> Param:
    name = ts.expect_kind("ident")
    ts.expect(":")
    _, kind, offset = ts.next()
    if kind not in ("sort", "nat"):
        raise ts.error("parameter kind must be 'sort' or 'nat'", offset)
    return Param(name, kind)


def _parse_input(ts: TokenStream, param_index: dict) -> Input:
    bound: list[SortTemplate] = []
    if ts.at("["):
        ts.next()
        bound = ts.delimited(lambda: _parse_sort_expr(ts, param_index), "]")
    return Input(tuple(bound), _parse_sort_expr(ts, param_index))


def _parse_op_decl(ts: TokenStream) -> ConstructorSchema:
    name = ts.expect_kind("ident")
    params: list[Param] = []
    if ts.at("<"):
        ts.next()
        params = ts.delimited(lambda: _parse_param_decl(ts), ">")
    param_index = {p.name: i for i, p in enumerate(params)}
    ts.expect(":")
    ts.expect("(")
    if ts.at(")"):
        ts.next()
        inputs: list[Input] = []
    else:
        inputs = ts.delimited(lambda: _parse_input(ts, param_index), ")")
    ts.expect("->")
    output = _parse_sort_expr(ts, param_index)
    return ConstructorSchema(name, tuple(params), tuple(inputs), output)


def parse_signature_source(text: str) -> tuple[Signature, tuple[ConstructorSchema, ...]]:
    """Parse a signature file, returning the signature and any operator
    declarations from a trailing ``operators`` section.

    Operator declarations reuse the ``op`` syntax but may not bind
    variables or take parameters; :mod:`bindsig.freemodel` turns them
    into an operator family.
    """
    ts = TokenStream(text)
    ts.expect("signature")
    ts.expect_kind("ident")
    types: TypeSystem | None = None
    schemas: list[ConstructorSchema] = []
    operators: list[ConstructorSchema] = []
    in_operators = False
    while not ts.at_eof():
        _, word, offset = ts.next()
        if word == "sorts":
            if types is not None:
                raise ts.error("duplicate sorts declaration", offset)
            if schemas or in_operators:
                raise ts.error("sorts must be declared before any op", offset)
            names = [ts.expect_kind("ident")]
            while ts.at("|"):
                ts.next()
                names.append(ts.expect_kind("ident"))
            arrow = False
            if ts.at("with"):
                ts.next()
                ts.expect("arrow")
                arrow = True
            types = TypeSystem(tuple(names), arrow)
        elif word == "operators":
            if in_operators:
                raise ts.error("duplicate operators section", offset)
            in_operators = True
        elif word == "op":
            decl = _parse_op_decl(ts)
            if in_operators:
                if decl.params:
                    raise ts.error(f"operator label {decl.name} cannot take parameters", offset)
                if any(inp.bound for inp in decl.inputs):
                    raise ts.error(f"operator label {decl.name} cannot bind variables", offset)
                operators.append(decl)
            else:
                schemas.append(decl)
        else:
            raise ts.error(f"expected 'sorts', 'op' or 'operators', found {word!r}", offset)
    sig = make_signature(types if types is not None else UNTYPED, schemas)
    seen = {s.name: "clashes with a schema" for s in schemas}
    for decl in operators:
        if decl.name in seen:
            raise DuplicateName(f"operator label {decl.name!r} {seen[decl.name]}")
        seen[decl.name] = "declared twice"
        _check_arity(sig.types, decl)  # binds nothing: the parser refused that
    return sig, tuple(operators)


def parse_signature(text: str) -> Signature:
    """Parse the signature file grammar (see the README for the grammar)."""
    return parse_signature_source(text)[0]


def _load_signature(spec: str) -> Signature:
    """A builtin signature by name, else the signature file at that path."""
    if spec in _BUILTIN_TEXTS:
        return builtin(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_signature(fh.read())


def print_signature(sig: Signature, name: str = "sig") -> str:
    """Render in the signature file grammar; parse(print(s)) equals s."""
    lines = [f"signature {name}"]
    if sig.types != UNTYPED:
        decl = " | ".join(sig.types.base_sorts)
        if sig.types.arrow_enabled:
            decl += " with arrow"
        lines.append(f"sorts {decl}")
    for s in sig.schemas:
        head = s.name
        if s.params:
            head += "<" + ", ".join(f"{p.name}: {p.kind}" for p in s.params) + ">"
        parts = []
        for inp in s.inputs:
            txt = _print_template(inp.sort, s.params)
            if inp.bound:
                txt = "[" + ", ".join(_print_template(b, s.params) for b in inp.bound) + "] " + txt
            parts.append(txt)
        lines.append(f"op {head} : ({', '.join(parts)}) -> {_print_template(s.output, s.params)}")
    return "\n".join(lines) + "\n"
