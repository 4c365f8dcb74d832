"""The free model over a family of uninterpreted operators.

Extending a signature with bindingless labeled nodes realizes the free
model's carrier: syntax over the original constructors plus one node per
label.  Its universal property is the extension map: given a lawful
model of the base signature and an interpretation of every label (a
value over the label's input context), extend the fold by evaluating a
label node as value-level substitution of the children into the
interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .errors import DuplicateName, UnknownLabel
from .model import ModelSpec
from .sigdef import (
    ConstructorSchema,
    Input,
    Signature,
    Sort,
    parse_signature_source,
    sum_signatures,
)
from .term import Context, Op, Term, Var, _walk

__all__ = [
    "OpLabel",
    "OperatorFamily",
    "extend_signature",
    "unit",
    "free_extend",
    "parse_signature_with_operators",
]


@dataclass(frozen=True, slots=True)
class OpLabel:
    """A bindingless n-ary operator: input sorts and an output sort."""

    name: str
    inputs: tuple[Sort, ...]
    output: Sort


@dataclass(frozen=True, slots=True)
class OperatorFamily:
    labels: tuple[OpLabel, ...]
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        seen = set()
        for lab in self.labels:
            if lab.name in seen:
                raise DuplicateName(f"operator label {lab.name!r} declared twice")
            seen.add(lab.name)
        object.__setattr__(self, "_hash", hash(self.labels))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # no stored hash crosses a pickle
        return OperatorFamily, (self.labels,)

    def label(self, name: str) -> OpLabel:
        for lab in self.labels:
            if lab.name == name:
                return lab
        raise UnknownLabel(f"no operator label {name!r}")

    @staticmethod
    def untyped(sig: Signature, arities: Mapping[str, int]) -> "OperatorFamily":
        """Labels over a single-sorted signature, given as name -> arity."""
        star = sig.types.single_sort()
        return OperatorFamily(
            tuple(OpLabel(name, (star,) * n, star) for name, n in arities.items())
        )


def parse_signature_with_operators(text: str) -> tuple[Signature, "OperatorFamily"]:
    """Signature file plus its ``operators`` section as a family."""
    sig, decls = parse_signature_source(text)
    labels = tuple(
        OpLabel(d.name, tuple(inp.sort for inp in d.inputs), d.output) for d in decls
    )
    return sig, OperatorFamily(labels)


def _family_signature(sig: Signature, family: OperatorFamily) -> Signature:
    schemas = tuple(
        ConstructorSchema(
            lab.name,
            (),
            tuple(Input((), s) for s in lab.inputs),
            lab.output,
        )
        for lab in family.labels
    )
    return Signature(sig.types, schemas)


def extend_signature(sig: Signature, family: OperatorFamily) -> Signature:
    """Sum of the signature with the family's labels as bindingless schemas."""
    return sum_signatures(sig, _family_signature(sig, family))


def unit(family: OperatorFamily, name: str) -> tuple[Term, Context]:
    """The generic element of a label: the node applied to its own
    context's variables, returned with that context."""
    lab = family.label(name)
    term = Op(lab.name, (), tuple(Var(i) for i in range(len(lab.inputs))))
    return term, lab.inputs


def free_extend(
    model: ModelSpec,
    sig: Signature,
    family: OperatorFamily,
    interp: Mapping[str, Any],
    ctx: Sequence[Sort],
    t: Term,
) -> Any:
    """Universal extension of ``model`` along ``interp``.

    The fold of a term of the extended signature into ``model`` extended
    with the label cases: one walk of ``t`` in which a label node with
    children v_1 .. v_n evaluates to msubst(interp[label], position i ->
    v_i) and any other node to ``model.op_interp``.  Each interp[label] is
    trusted to be a model value over the label's input context; it is not
    checked.  On label-free terms this agrees with the plain fold.
    """
    key = ("extend", family)
    cached = sig._cache.get(key)
    if cached is None:
        inputs = {lab.name: lab.inputs for lab in family.labels}
        cached = sig._cache[key] = (extend_signature(sig, family), inputs)
    ext, inputs = cached
    for name in inputs:
        if name not in interp:
            raise UnknownLabel(f"no interpretation for label {name!r}")
    msubst, op_interp = model.msubst, model.op_interp

    def label_or_op(c: Context, node: Op, arity, vals: list) -> Any:
        name = node.name
        if name in inputs:
            return msubst(inputs[name], c, interp[name], tuple(vals))
        return op_interp(c, name, node.params, tuple(vals))

    return _walk(ext, t, tuple(ctx), model.var_op, label_or_op)
