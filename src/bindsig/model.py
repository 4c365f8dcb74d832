"""The recursion principle: user models, folds, and the law harness.

A model supplies, for every context, a carrier of values together with a
variable operation, an interpretation of every constructor, and a
value-level simultaneous substitution (the Kleisli form).  The fold maps
every well-formed term into the model; the three law suites check that
the model is a lawful substitution monoid, that constructors commute
with substitution (the module squares), and that the fold itself is a
morphism of models.  Suites report every failure with a witness; they
never throw on a failed law.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Optional, Sequence

from .rng import XorShift64Star
from .sigdef import BaseSort, Signature, sorts_up_to_depth
from .subst import Assignment, Renaming, rename, subst
from .term import (
    Context,
    Op,
    Term,
    Var,
    _Scope,
    _certified,
    _infer,
    _walk,
    enumerate_terms,
    mk_op,
    mk_var,
    print_context,
    print_term,
    random_term,
)

__all__ = [
    "ModelSpec",
    "LawFailure",
    "LawReport",
    "fold",
    "term_model",
    "fv_model",
    "check_monoid_laws",
    "check_module_laws",
    "check_morphism",
    "Sample",
    "sample_suite",
    "run_law_suites",
    "lift_value_assignment",
]


@dataclass(frozen=True)
class ModelSpec:
    """Carrier operations of a model.

    var_op(ctx, i)                      -- value of variable i over ctx
    op_interp(ctx, name, params, vals)  -- constructor applied to argument
                                           values, each over its extended
                                           context
    msubst(src, dst, value, images)     -- value-level substitution: value
                                           over src, one image per position
                                           of src, each over dst
    show(value)                         -- rendering used in law reports

    All operations must be pure; values must support ``==``.  A fold
    passes contexts as sequences that compare and hash equal to the tuple
    ``bound ++ ctx``; materialising one (``tuple(ctx)``, hashing, slicing,
    iterating) costs its length.

    The law suites memoise their folds on the model, outside ``==`` and
    the hash; the memo is bounded and dropped with the model.  The signature
    :func:`term_model` made a model for is kept there too; no copy keeps it.
    """

    name: str
    var_op: Callable[[Context, int], Any]
    op_interp: Callable[[Context, str, tuple, tuple], Any]
    msubst: Callable[[Context, Context, Any, tuple], Any]
    show: Callable[[Any], str] = repr
    # One slot: (signature, fold function, {(ctx, t): value}).
    _folds: list = field(
        default_factory=lambda: [None], init=False, compare=False, repr=False, hash=False
    )
    _term_of: Optional[Signature] = field(default=None, init=False, compare=False, repr=False)


# Entries of a model's fold memo before it is cleared.
_FOLDS_CAP = 1 << 14


def fold(model: ModelSpec, sig: Signature, ctx: Context, t: Term) -> Any:
    """The unique structure map: variables to var_op, nodes to op_interp.

    Into :func:`term_model`'s model for this very ``sig`` object it is the
    identity: ``t`` comes back checked, its root certified as by ``mk_op``.
    """
    if model._term_of is sig:  # the term model is initial
        ctx = tuple(ctx)
        sort = _certified(sig._stamp, ctx, t) or _infer(sig, ctx, t)
        if type(t) is Op:
            t._cert = (sig._stamp, ctx, sort)
        return t
    op_interp = model.op_interp

    def node(ctx, t, arity, vals):
        return op_interp(ctx, t.name, t.params, tuple(vals))

    return _walk(sig, t, tuple(ctx), model.var_op, node, _Scope)


def term_model(sig: Signature) -> ModelSpec:
    """The initial model: terms, with checked construction and subst as the
    structure.

    ``var_op`` is :func:`mk_var`, ``op_interp`` is :func:`mk_op` and
    ``msubst`` is :func:`subst`.  ``mk_op`` checks only the node it makes
    against its arguments' certificates, so an argument without one (a
    substitution result, a label output of
    :func:`bindsig.freemodel.free_extend`) is checked down to its
    certified subterms.  A :func:`fold` into it returns the checked term.
    """

    def var_op(ctx, i):
        if 0 <= i < len(ctx):
            return Var(i)
        return mk_var(ctx, i)[0]  # raises ScopeError

    def op_interp(ctx, name, params, vals):
        return mk_op(sig, ctx, name, params, vals)[0]

    def msubst(src, dst, value, images):
        return subst(sig, value, Assignment(src, dst, tuple(images)))

    model = ModelSpec("term", var_op, op_interp, msubst, print_term)
    object.__setattr__(model, "_term_of", sig)
    return model


def fv_model(sig: Signature) -> ModelSpec:
    """Free-variable sets over any signature.

    The named-set description (keep the variables of the ambient context)
    becomes drop-and-shift under de Bruijn: an input under k binders
    contributes { i - k : i in U, i >= k }.  Sorts play no part: a value
    is a set of positions, whatever their sorts.
    """

    def var_op(ctx, i):
        return frozenset((i,))

    def op_interp(ctx, name, params, vals):
        arity = sig.arity(name, params)
        out = set()
        for inp, val in zip(arity.inputs, vals):
            k = len(inp.bound)
            out.update(i - k for i in val if i >= k)
        return frozenset(out)

    def msubst(src, dst, value, images):
        out = set()
        for i in value:
            out.update(images[i])
        return frozenset(out)

    def show(value):
        return "{" + ", ".join(str(i) for i in sorted(value)) + "}"

    return ModelSpec("fv", var_op, op_interp, msubst, show)


def lift_value_assignment(model: ModelSpec, src, dst, images, bound):
    """The model-level binder lift.

    Fresh positions map to their own variables; the remaining images are
    weakened by substituting shifted variables, which is how renaming is
    expressed inside a Kleisli model.
    """
    bound = tuple(bound)
    if not bound:
        return src, dst, tuple(images)
    n = len(bound)
    new_src = bound + tuple(src)
    new_dst = bound + tuple(dst)
    shift = tuple(model.var_op(new_dst, i + n) for i in range(len(dst)))
    lifted = tuple(model.var_op(new_dst, i) for i in range(n)) + tuple(
        model.msubst(dst, new_dst, img, shift) for img in images
    )
    return new_src, new_dst, lifted


# ---------------------------------------------------------------------------
# Law reports


@dataclass(frozen=True)
class LawFailure:
    law: str
    witness: str
    lhs: str
    rhs: str


@dataclass
class LawReport:
    suite: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{self.suite}] cases={self.cases} failures={len(self.failures)} {status}"]
        for f in self.failures:
            lines.append(
                f"[{self.suite}] FAIL law={f.law} witness={f.witness} lhs={f.lhs} rhs={f.rhs}"
            )
        return lines

    def to_records(self) -> list[str]:
        recs = [
            json.dumps(
                {
                    "suite": self.suite,
                    "cases": self.cases,
                    "failures": len(self.failures),
                    "status": "pass" if self.passed else "fail",
                },
                sort_keys=True,
            )
        ]
        for f in self.failures:
            recs.append(
                json.dumps(
                    {
                        "suite": self.suite,
                        "law": f.law,
                        "status": "fail",
                        "witness": f.witness,
                        "lhs": f.lhs,
                        "rhs": f.rhs,
                    },
                    sort_keys=True,
                )
            )
        return recs


# ---------------------------------------------------------------------------
# Samples: term-level cases folded into the model on demand


@dataclass(frozen=True)
class Sample:
    """One law-check case: a term with two composable assignments.

    sigma : src => mid and tau : mid => dst; ren, when present, is a
    renaming src => mid used by the renaming squares.
    """

    src: Context
    mid: Context
    dst: Context
    term: Term
    sigma: Assignment
    tau: Assignment
    ren: Optional[Renaming] = None


def sample_suite(
    sig: Signature,
    depth: int = 3,
    ctx_sizes: Sequence[int] = (0, 1, 2),
    assign_depth: int = 2,
    seed: int = 0,
    random_cases: int = 0,
    random_depth: int = 6,
    max_sort_depth: int | None = None,
    assignment_cap: int = 8,
) -> list[Sample]:
    """Deterministic law-suite samples.

    Exhaustive part: every enumerated term at ``depth`` over the given
    contexts, paired with assignments whose images are enumerated at
    ``assign_depth`` (capped at ``assignment_cap`` per context pair, in
    enumeration order).  Random part: ``random_cases`` seeded draws of
    terms at ``random_depth`` with random assignment images.
    """
    rng = XorShift64Star(seed)
    # Contexts repeat the first base sort: enough for a deterministic
    # representative suite.
    base = BaseSort(sig.types.base_sorts[0])
    contexts = [(base,) * n for n in ctx_sizes]
    sorts = sorts_up_to_depth(sig.types, min(max_sort_depth or 1, 1))
    samples: list[Sample] = []

    def assignments(src: Context, dst: Context, cap: int) -> list[Assignment]:
        pools = [
            enumerate_terms(sig, dst, s, assign_depth, max_sort_depth) for s in src
        ]
        out = []
        for images in product(*pools):
            out.append(Assignment(src, dst, images))
            if len(out) >= cap:
                break
        return out

    def renamings(src: Context, dst: Context) -> list[Renaming]:
        if len(src) > len(dst):
            return []
        out = []
        candidates = [
            [j for j, s in enumerate(dst) if s == entry] for entry in src
        ]
        for mapping in product(*candidates):
            out.append(Renaming(src, dst, mapping))
        return out

    for src in contexts:
        for mid in contexts:
            sigmas = assignments(src, mid, assignment_cap)
            rens = renamings(src, mid)
            for dst in contexts:
                taus = assignments(mid, dst, max(1, assignment_cap // 2))
                if not sigmas or not taus:
                    continue
                for sort in sorts:
                    terms = enumerate_terms(sig, src, sort, depth, max_sort_depth)
                    for i, t in enumerate(terms):
                        sigma = sigmas[i % len(sigmas)]
                        tau = taus[i % len(taus)]
                        ren = rens[i % len(rens)] if rens else None
                        samples.append(Sample(src, mid, dst, t, sigma, tau, ren))

    for _ in range(random_cases):
        src = rng.choice(contexts)
        mid = rng.choice(contexts)
        dst = rng.choice(contexts)
        sort = rng.choice(sorts)
        try:  # an empty cell raises ValueError before any draw
            t = random_term(sig, src, sort, random_depth, rng, max_sort_depth)
            sigma = Assignment(
                src,
                mid,
                tuple(random_term(sig, mid, s, 3, rng, max_sort_depth) for s in src),
            )
            tau = Assignment(
                mid,
                dst,
                tuple(random_term(sig, dst, s, 3, rng, max_sort_depth) for s in mid),
            )
        except ValueError:
            continue
        samples.append(Sample(src, mid, dst, t, sigma, tau, None))
    return samples


# ---------------------------------------------------------------------------
# Law suites


def _witness(sample: Sample) -> str:
    return (
        f"ctx={print_context(sample.src)} term={print_term(sample.term)} "
        f"sigma=(assign {' '.join(print_term(x) for x in sample.sigma.images)}) "
        f"tau=(assign {' '.join(print_term(x) for x in sample.tau.images)})"
    )


def _run_laws(suite: str, laws, model: ModelSpec, sig: Signature, samples, fold_fn=fold):
    """Run one suite: ``laws(model, sig, sample, fold)`` yields (law, note,
    pair) per law instance, where ``pair()`` computes (lhs, rhs).

    ``fold(ctx, t)`` folds each (ctx, t) once per model and memoises the
    value: the fold out of the initial model is unique, so its value
    depends only on the model, ``sig``, ``fold_fn`` and the term, and
    every suite call on the model with the same ``sig`` and ``fold_fn``
    (by identity) shares the memo.  A fold that raises is not memoised;
    it raises afresh at each use.  A call with another pair starts a new
    memo; the memo is cleared when it reaches ``_FOLDS_CAP`` entries, and
    is dropped with the model.  Failures, including exceptions from
    ``pair`` (model code is arbitrary), are recorded, never thrown; an
    exception from ``laws`` itself is one ``fold`` failure that ends the
    sample.
    """
    report = LawReport(f"{suite}:{model.name}")
    show = model.show
    held = model._folds[0]
    if held is None or held[0] is not sig or held[1] is not fold_fn:
        held = model._folds[0] = (sig, fold_fn, {})
    memo = held[2]

    def fold_once(ctx, t):
        value = memo.get((ctx, t), memo)  # the memo itself marks a miss
        if value is memo:
            value = fold_fn(model, sig, ctx, t)
            if len(memo) >= _FOLDS_CAP:
                memo.clear()
            memo[ctx, t] = value
        return value

    for sample in samples:
        try:
            for law, note, pair in laws(model, sig, sample, fold_once):
                report.cases += 1
                try:
                    lhs, rhs = pair()
                    if lhs != rhs:
                        failure = LawFailure(law, _witness(sample) + note, show(lhs), show(rhs))
                        report.failures.append(failure)
                except Exception as e:  # noqa: BLE001
                    failure = LawFailure(law, _witness(sample) + note, f"<error: {e}>", "")
                    report.failures.append(failure)
        except Exception as e:  # noqa: BLE001
            report.cases += 1
            report.failures.append(LawFailure("fold", _witness(sample), f"<error: {e}>", ""))
    return report


def _monoid_laws(model: ModelSpec, sig: Signature, sample: Sample, fold):
    src, mid, dst = sample.src, sample.mid, sample.dst
    msubst, var_op = model.msubst, model.var_op
    sigma_v = tuple(fold(mid, img) for img in sample.sigma.images)
    tau_v = tuple(fold(dst, img) for img in sample.tau.images)
    v = fold(src, sample.term)
    for i in range(len(src)):
        yield "unit-var", f" position={i}", lambda: (
            msubst(src, mid, var_op(src, i), sigma_v),
            sigma_v[i],
        )
    yield "unit-id", "", lambda: (
        msubst(src, src, v, tuple(var_op(src, i) for i in range(len(src)))),
        v,
    )
    yield "assoc", "", lambda: (
        msubst(mid, dst, msubst(src, mid, v, sigma_v), tau_v),
        msubst(src, dst, v, tuple(msubst(mid, dst, x, tau_v) for x in sigma_v)),
    )


def _module_laws(model: ModelSpec, sig: Signature, sample: Sample, fold):
    t, src, mid = sample.term, sample.src, sample.mid
    if type(t) is not Op:
        return
    inputs = sig.arity(t.name, t.params).inputs

    def square():
        sigma_v = tuple(fold(mid, img) for img in sample.sigma.images)
        vals = tuple(fold(inp.bound + src, arg) for inp, arg in zip(inputs, t.args))
        lhs = model.msubst(src, mid, model.op_interp(src, t.name, t.params, vals), sigma_v)
        sub_vals = []
        for inp, val in zip(inputs, vals):
            lsrc, ldst, lparts = lift_value_assignment(model, src, mid, sigma_v, inp.bound)
            sub_vals.append(model.msubst(lsrc, ldst, val, lparts))
        return lhs, model.op_interp(mid, t.name, t.params, tuple(sub_vals))

    yield f"module:{t.name}", "", square


def _morphism_laws(model: ModelSpec, sig: Signature, sample: Sample, fold):
    t, src, mid, ren = sample.term, sample.src, sample.mid, sample.ren
    msubst, var_op = model.msubst, model.var_op
    yield "fold-subst", "", lambda: (
        fold(mid, subst(sig, t, sample.sigma)),
        msubst(src, mid, fold(src, t), tuple(fold(mid, img) for img in sample.sigma.images)),
    )
    if type(t) is Var:
        yield "fold-var", "", lambda: (fold(src, t), var_op(src, t.index))
    else:
        inputs = sig.arity(t.name, t.params).inputs
        yield f"fold-op:{t.name}", "", lambda: (
            fold(src, t),
            model.op_interp(
                src,
                t.name,
                t.params,
                tuple(fold(inp.bound + src, arg) for inp, arg in zip(inputs, t.args)),
            ),
        )
    if ren is not None:
        yield "fold-rename", "", lambda: (
            fold(ren.target, rename(sig, t, ren)),
            msubst(src, ren.target, fold(src, t), tuple(var_op(ren.target, j) for j in ren.mapping)),
        )


def check_monoid_laws(model: ModelSpec, sig: Signature, samples: Sequence[Sample]) -> LawReport:
    """Kleisli-triple laws on the model carrier: variable lookup, identity
    substitution, and associativity of composed assignments."""
    return _run_laws("monoid", _monoid_laws, model, sig, samples)


def check_module_laws(model: ModelSpec, sig: Signature, samples: Sequence[Sample]) -> LawReport:
    """Substitution/constructor squares: substituting into a constructor
    equals the constructor applied to substitutions under lifted
    assignments."""
    return _run_laws("module", _module_laws, model, sig, samples)


def check_morphism(
    model: ModelSpec,
    sig: Signature,
    samples: Sequence[Sample],
    fold_fn: Callable = fold,
) -> LawReport:
    """The fold respects constructors, substitution, and renaming.

    ``fold_fn`` defaults to the library fold; the mutation tests pass a
    deliberately corrupted fold and expect reported failures.
    """
    return _run_laws("morphism", _morphism_laws, model, sig, samples, fold_fn)


def run_law_suites(
    sig: Signature,
    model_name: str = "term",
    depth: int = 3,
    seed: int = 0,
    cases: int = 0,
    max_sort_depth: int | None = None,
) -> list[LawReport]:
    """The three suites over a deterministic sample set; used by the CLI."""
    if model_name == "term":
        model = term_model(sig)
    elif model_name == "fv":
        model = fv_model(sig)
    else:
        raise ValueError(f"unknown model {model_name!r}")
    samples = sample_suite(
        sig,
        depth=depth,
        seed=seed,
        random_cases=cases,
        max_sort_depth=max_sort_depth,
    )
    return [
        check_monoid_laws(model, sig, samples),
        check_module_laws(model, sig, samples),
        check_morphism(model, sig, samples),
    ]
