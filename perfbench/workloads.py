"""The three workloads: ``laws``, ``rewrite`` and ``cli``.

A workload is built from a seed; building it (the set-up) generates its
inputs.  ``trace_epochs`` is how many epochs a traced run replays.  Each call of ``epoch()`` then yields the same inputs again as
:class:`Unit` objects, on fresh library state, and a run repeats epochs
until its time is up.  The runner times ``Unit.run`` alone, which calls
only the library; checking outputs against :mod:`ref` happens outside
the timed call.  Library functions are looked up on the ``bindsig``
package at call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import bindsig as B
import bindsig.cli

import ref
from gen import FOL, ULC, ULCX, Gen, Shape

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
STAR = B.BaseSort("*")


@dataclass
class Unit:
    """One timed call into the library.

    ``ops`` counts the workload's ops in the call (law cases, items or
    requests); ``nodes`` the term nodes in their inputs.  ``terms`` and
    ``assigns`` are the inputs that ``input.*`` describes.  ``key``
    names the input across epochs when an epoch reorders its units;
    otherwise the unit's position in the epoch does.
    """

    run: Callable[[], Any]
    check: Callable[[Any], bool]
    ops: int = 1
    nodes: int = 0
    latency: bool = True
    key: int | None = None
    terms: list = field(default_factory=list)
    assigns: list = field(default_factory=list)
    result: Any = None


def _star_ctx(n):
    return (STAR,) * n


def _assign_nodes(*assignments):
    return sum(ref.size(img) for a in assignments for img in a.images)


# ---------------------------------------------------------------------------
# laws: the three law suites over sample_suite, fresh signature per configuration

# Every ulc term of depth 3 over 0, 1 or 2 variables, once per (mid, dst)
# context pair: 9 * (5 + 26 + 99) = 1170 samples.
ULC_SAMPLES = 9 * sum(ref.ulc_count(3, n) for n in range(3))

# (signature, model, sample_suite arguments, golden counts of the exhaustive
# part: samples and monoid/module/morphism cases).
LAWS_CONFIGS = [
    ("ulc", "term", dict(depth=3, ctx_sizes=(0, 1, 2), random_cases=640), (ULC_SAMPLES, 4356, 1143, 2838)),
    ("ulc", "fv", dict(depth=3, ctx_sizes=(0, 1, 2), random_cases=640), (ULC_SAMPLES, 4356, 1143, 2838)),
    ("stlc", "term", dict(depth=3, ctx_sizes=(0, 1, 2), max_sort_depth=1), (130, 456, 118, 350)),
    ("pcf", "term", dict(depth=2, ctx_sizes=(0, 1, 2), max_sort_depth=1), (702, 2214, 675, 1836)),
    ("fol", "term", dict(depth=2, ctx_sizes=(0, 1)), (252, 668, 248, 674)),
    ("fol", "fv", dict(depth=2, ctx_sizes=(0, 1)), (252, 668, 248, 674)),
]
LAWS_CHUNK = 32  # samples per suite call


def expected_cases(samples):
    """Case counts per suite, from the suites' documented shape."""
    monoid = sum(len(s.src) + 2 for s in samples)
    module = sum(1 for s in samples if type(s.term) is B.Op)
    morphism = sum(2 + (s.ren is not None) for s in samples)
    return monoid, module, morphism


class Laws:
    name = "laws"
    trace_epochs = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.signatures = []

    def epoch(self):
        signatures = []
        for config in LAWS_CONFIGS:
            yield from self._config(config, signatures)
        self.signatures = signatures

    def _config(self, config, signatures):
        sig_name, model_name, kwargs, golden = config
        seed = self.seed

        def build():
            sig = B.builtin(sig_name)
            model = B.term_model(sig) if model_name == "term" else B.fv_model(sig)
            return sig, model, B.sample_suite(sig, seed=seed, **kwargs)

        def check_build(out):
            samples = out[2]
            head = samples[: golden[0]]
            return len(head) == golden[0] and expected_cases(head) == golden[1:]

        unit = Unit(build, check_build, ops=0, latency=False)
        yield unit
        if unit.result is None:
            return
        sig, model, samples = unit.result
        signatures.append(sig)
        chunks = [samples[i : i + LAWS_CHUNK] for i in range(0, len(samples), LAWS_CHUNK)]
        for k, suite_name in enumerate(("check_monoid_laws", "check_module_laws", "check_morphism")):
            for chunk in chunks:
                cases = expected_cases(chunk)[k]
                nodes = sum(
                    _sample_nodes(s) * n for s, n in zip(chunk, _per_sample_cases(chunk, k))
                )

                def run(chunk=chunk, suite_name=suite_name):
                    return getattr(B, suite_name)(model, sig, chunk)

                def check(report, cases=cases):
                    return report.cases == cases and not report.failures

                yield Unit(
                    run,
                    check,
                    ops=cases,
                    nodes=nodes,
                    latency=cases > 0,
                    terms=[s.term for s in chunk] if k == 0 else [],
                    assigns=[a for s in chunk for a in (s.sigma, s.tau)] if k == 0 else [],
                )


def _per_sample_cases(chunk, k):
    return [expected_cases([s])[k] for s in chunk]


def _sample_nodes(s):
    return ref.size(s.term) + _assign_nodes(s.sigma, s.tau)


# ---------------------------------------------------------------------------
# rewrite: large terms, fresh assignments, long-lived signatures

REWRITE_SHAPES = [
    Shape("balanced", (1800, 2000), spine=0.0, binder=0.25, closed=0.02),
    Shape("mixed", (800, 900), spine=0.5, binder=0.3, closed=0.02),
    Shape("spine", (400, 450), spine=0.0, binder=0.15, closed=0.02, path=(232, 240)),
]
REWRITE_KINDS = ("ulcx", "fol", "stlc")
REWRITE_IMAGE = Shape("image", (4, 10), spine=0.3, binder=0.4, closed=0.3)
REWRITE_CYCLES = 3  # each epoch runs every (shape, kind) class this many times


class Rewrite:
    name = "rewrite"
    trace_epochs = 3

    def __init__(self, seed: int):
        g = Gen(seed)
        self.items = [
            (kind, *self._inputs(g, kind, shape))
            for _ in range(REWRITE_CYCLES)
            for shape in REWRITE_SHAPES
            for kind in REWRITE_KINDS
        ]
        self._fresh()
        self._epochs = 0

    @staticmethod
    def _inputs(g, kind, shape):
        """A term with two composable assignments and a renaming."""
        if kind == "stlc":
            src, mid, dst = g.stlc_ctx(3), g.stlc_ctx(3), g.stlc_ctx(2)
            ren_target = src + g.stlc_ctx(2)
            t = g.stlc_term(shape, src)
            sigma = B.Assignment(src, mid, g.stlc_assignment(src, mid, REWRITE_IMAGE))
            tau = B.Assignment(mid, dst, g.stlc_assignment(mid, dst, REWRITE_IMAGE))
            ren = B.Renaming(src, ren_target, g.stlc_mapping(src, ren_target))
            return t, sigma, tau, ren
        lang = ULCX if kind == "ulcx" else FOL
        src, mid, dst, ren_target = _star_ctx(3), _star_ctx(3), _star_ctx(2), _star_ctx(4)
        t = g.term(lang, shape, len(src))
        sigma = B.Assignment(src, mid, g.assignment(lang, len(src), len(mid), REWRITE_IMAGE))
        tau = B.Assignment(mid, dst, g.assignment(lang, len(mid), len(dst), REWRITE_IMAGE))
        ren = B.Renaming(src, ren_target, g.mapping(len(src), len(ren_target)))
        return t, sigma, tau, ren

    def _fresh(self):
        """Signatures, tables and models that live for one epoch."""
        self.ulc = B.builtin("ulc")
        self.family = B.OperatorFamily.untyped(self.ulc, {"pair": 2, "wrap": 1})
        self.ulcx = B.extend_signature(self.ulc, self.family)
        self.fol = B.builtin("fol")
        self.stlc = B.builtin("stlc")
        self.fol2ll = B.builtin_table("fol2ll")
        self.stlc2ulc = B.builtin_table("stlc2ulc")
        self.models = {
            "ulc.term": B.term_model(self.ulc),
            "ulcx.term": B.term_model(self.ulcx),
            "ulcx.fv": B.fv_model(self.ulcx),
            "fol.term": B.term_model(self.fol),
            "fol.fv": B.fv_model(self.fol),
            "stlc.term": B.term_model(self.stlc),
        }
        self.interp = {
            "pair": B.Op("app", (), (B.Var(0), B.Var(1))),
            "wrap": B.Op("app", (), (B.Var(0), B.Op("abs", (), (B.Var(0),)))),
        }
        self.signatures = [
            self.ulc,
            self.ulcx,
            self.fol,
            self.stlc,
            self.fol2ll.source,
            self.fol2ll.target,
            self.stlc2ulc.source,
            self.stlc2ulc.target,
        ]

    def epoch(self):
        """The items in a new order each epoch, so that a garbage-collector
        pause, whose place repeats when the allocations do, does not land on
        the same item every time and is left out of the item's median."""
        if self._epochs:
            self._fresh()
        order = list(range(len(self.items)))
        random.Random(self._epochs).shuffle(order)
        self._epochs += 1
        for key in order:
            kind, t, sigma, tau, ren = self.items[key]
            run = getattr(self, "_run_" + kind)
            check = getattr(self, "_check_" + kind)
            yield Unit(
                lambda run=run, args=(t, sigma, tau, ren): run(*args),
                lambda out, check=check, args=(t, sigma, tau, ren): check(out, *args),
                key=key,
                nodes=ref.size(t) + _assign_nodes(sigma, tau),
                terms=[t],
                assigns=[sigma, tau],
            )

    @staticmethod
    def _square(sig, t, sigma, tau):
        s1 = B.subst(sig, t, sigma)
        s2 = B.subst(sig, s1, tau)
        s3 = B.subst(sig, t, B.kleisli_compose(sig, sigma, tau))
        return s1, s2, s3

    @staticmethod
    def _check_square(out, t, sigma):
        s1, s2, s3 = out["square"]
        return ref.equal(s1, ref.subst(t, sigma.images)) and ref.equal(s2, s3)

    def _translate_square(self, table, t, sigma, s1):
        """translate(subst(t, sigma)) against subst(translate(t), translate . sigma)."""
        g = table.morphism
        tr = B.translate_term(table, sigma.source, t)
        lhs = B.translate_term(table, sigma.target, s1)
        images = tuple(B.translate_term(table, sigma.target, img) for img in sigma.images)
        src, dst = B.map_context(g, sigma.source), B.map_context(g, sigma.target)
        rhs = B.subst(table.target, tr, B.Assignment(src, dst, images))
        return tr, lhs, rhs

    def _run_ulcx(self, t, sigma, tau, ren):
        x, ctx = self.ulcx, sigma.source
        return {
            "square": self._square(x, t, sigma, tau),
            "rename": B.rename(x, t, ren),
            "fv": B.fold(self.models["ulcx.fv"], x, ctx, t),
            "term": B.fold(self.models["ulcx.term"], x, ctx, t),
            "extend": B.free_extend(
                self.models["ulc.term"], self.ulc, self.family, self.interp, ctx, t
            ),
        }

    def _check_ulcx(self, out, t, sigma, tau, ren):
        return (
            self._check_square(out, t, sigma)
            and ref.equal(out["rename"], ref.rename(t, ren.mapping))
            and out["fv"] == ref.free_vars(t)
            and ref.equal(out["term"], t)
            and ref.equal(out["extend"], ref.expand_labels(t))
        )

    def _run_fol(self, t, sigma, tau, ren):
        f, ctx = self.fol, sigma.source
        square = self._square(f, t, sigma, tau)
        return {
            "square": square,
            "rename": B.rename(f, t, ren),
            "fv": B.fold(self.models["fol.fv"], f, ctx, t),
            "term": B.fold(self.models["fol.term"], f, ctx, t),
            "translate": self._translate_square(self.fol2ll, t, sigma, square[0]),
        }

    def _check_fol(self, out, t, sigma, tau, ren):
        tr, lhs, rhs = out["translate"]
        return (
            self._check_square(out, t, sigma)
            and ref.equal(out["rename"], ref.rename(t, ren.mapping))
            and out["fv"] == ref.free_vars(t)
            and ref.equal(out["term"], t)
            and ref.equal(tr, ref.translate(t, ref.FOL2LL))
            and ref.equal(lhs, rhs)
        )

    def _run_stlc(self, t, sigma, tau, ren):
        s, ctx = self.stlc, sigma.source
        square = self._square(s, t, sigma, tau)
        return {
            "square": square,
            "rename": B.rename(s, t, ren),
            "term": B.fold(self.models["stlc.term"], s, ctx, t),
            "translate": self._translate_square(self.stlc2ulc, t, sigma, square[0]),
        }

    def _check_stlc(self, out, t, sigma, tau, ren):
        tr, lhs, rhs = out["translate"]
        return (
            self._check_square(out, t, sigma)
            and ref.equal(out["rename"], ref.rename(t, ren.mapping))
            and ref.equal(out["term"], t)
            and ref.equal(tr, ref.translate(t, ref.ERASE))
            and ref.equal(lhs, rhs)
        )


# ---------------------------------------------------------------------------
# cli: closed loop, one client, bindsig.cli.main in-process

CLI_SMALL = Shape("small", (10, 120), spine=0.3, binder=0.3, closed=0.05)
CLI_CHAIN = Shape("chain", (260, 300), spine=0.0, binder=0.1, closed=0.02, path=(224, 240))
# fol2ll doubles depth at neg, so translated fol chains stay under print_term's limit.
CLI_FOL_CHAIN = Shape("fol-chain", (130, 150), spine=0.0, binder=0.1, closed=0.02, path=(112, 120))

# One cycle of 40 requests: (kind, shape or parameter list, count).  Only
# term contents depend on the seed; kinds, shapes and parameters do not.
CLI_MIX = [
    ("subst", CLI_SMALL, 7),
    ("subst", CLI_CHAIN, 2),
    ("fv", CLI_SMALL, 5),
    ("fv", CLI_CHAIN, 1),
    ("fol2ll", CLI_SMALL, 3),
    ("fol2ll", CLI_FOL_CHAIN, 1),
    ("stlc2ulc", CLI_SMALL, 3),
    ("stlc2ulc", CLI_CHAIN, 1),
    ("table", CLI_SMALL, 2),
    ("count", [(0, 6), (1, 8), (2, 10), (3, 5)], 4),  # (ctx size, depth)
    ("chain", [(0, 6), (1, 8), (2, 4), (3, 7)], 4),
    ("check", [("ulc_pairs.sig", 2), ("pcf_fragment.sig", 9), ("fol_sorted.sig", 11), ("ulc_pairs.sig", 2)], 4),
    # (ctx size, depth, SHA-256 of the golden listing)
    (
        "list",
        [
            (2, 3, "01b4bd9741b6eb57755ecc388ad0bba2b15e03decf0c2652bdf42c5146ed88b6"),
            (3, 3, "37a845173646eb10797b4e707263e755e3c5a75581a0155c7e37bfaa3f2052dd"),
            (1, 4, "9cb0c7dcb8c1ebcba7884f9ccf0a5048abaf2fbac63394ce35805ddae8931fbc"),
        ],
        3,
    ),
]
CLI_TABLE = "fol2ll_mult.tbl"
CLI_CYCLES = 3  # each epoch sends this many cycles of the mix


def _cycle():
    """One cycle of (kind, shape or parameters), in an order fixed for every seed."""
    slots = []
    for kind, variant, count in CLI_MIX:
        for i in range(count):
            slots.append((kind, variant[i] if isinstance(variant, list) else variant))
    random.Random(0).shuffle(slots)
    return slots


class Cli:
    name = "cli"
    trace_epochs = 10

    def __init__(self, seed: int):
        self.gen = Gen(seed)
        self.signatures = []  # every request builds its own
        self.requests = [
            getattr(self, "_req_" + kind)(variant) for kind, variant in _cycle() * CLI_CYCLES
        ]

    def epoch(self):
        for request in self.requests:
            yield self._unit(*request)

    @staticmethod
    def _unit(argv, expected_out, expected_err, terms, assigns):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = B.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            if code != 0 or err != expected_err:
                return False
            return expected_out(out) if callable(expected_out) else out == expected_out

        nodes = sum(ref.size(t) for t in terms) + sum(ref.size(i) for a in assigns for i in a)
        return Unit(run, check, nodes=nodes, terms=terms, assigns=assigns)

    def _req_subst(self, shape):
        g = self.gen
        n, m = g.rng.randint(1, 3), g.rng.randint(0, 3)
        t = g.term(ULC, shape, n)
        images = g.assignment(ULC, n, m)
        argv = ["subst", "--sig", "ulc", "--ctx", str(n), "--target", str(m), "--term", ref.show(t)]
        argv += ["--assign", "(assign" + "".join(" " + ref.show(i) for i in images) + ")"]
        return argv, ref.show(ref.subst(t, images)) + "\n", "", [t], [images]

    def _req_fv(self, shape):
        n = self.gen.rng.randint(0, 3)
        t = self.gen.term(ULC, shape, n)
        argv = ["fv", "--ctx", str(n), ref.show(t)]
        return argv, ref.show_fv(ref.free_vars(t)) + "\n", "", [t], []

    def _fol_request(self, shape, table, clauses):
        n = self.gen.rng.randint(0, 3)
        t = self.gen.term(FOL, shape, n, max_depth=CLI_FOL_CHAIN.path[1])
        argv = ["translate", "--table", table, "--ctx", str(n), ref.show(t)]
        return argv, ref.show(ref.translate(t, clauses)) + "\n", "", [t], []

    def _req_fol2ll(self, shape):
        return self._fol_request(shape, "fol2ll", ref.FOL2LL)

    def _req_table(self, shape):
        return self._fol_request(shape, os.path.join(DATA, CLI_TABLE), ref.FOL2LL_MULT)

    def _req_stlc2ulc(self, shape):
        g = self.gen
        ctx = g.stlc_ctx(g.rng.randint(2, 4))
        t = g.stlc_term(shape, ctx)
        ctx_text = "(ctx" + "".join(" " + ref.show_sort(s) for s in ctx) + ")"
        argv = ["translate", "--table", "stlc2ulc", "--ctx", ctx_text, ref.show(t)]
        return argv, ref.show(ref.translate(t, ref.ERASE)) + "\n", "", [t], []

    def _req_count(self, params):
        n, d = params
        argv = ["enum", "--sig", "ulc", "--ctx", str(n), "--depth", str(d), "--count"]
        return argv, f"{ref.ulc_count(d, n)}\n", "", [], []

    def _req_chain(self, params):
        n, d = params
        argv = ["chain", "--sig", "ulc", "--ctx", str(n), "--depth", str(d)]
        out = "".join(f"{k} {ref.ulc_count(k, n)}\n" for k in range(d + 1))
        return argv, out, "", [], []

    def _req_list(self, params):
        n, d, digest = params
        lines = ref.ulc_count(d, n)

        def expected(out):
            return out.count("\n") == lines and ref.sha256(out) == digest

        argv = ["enum", "--sig", "ulc", "--ctx", str(n), "--depth", str(d)]
        return argv, expected, "", [], []

    def _req_check(self, params):
        name, ops = params
        argv = ["check", os.path.join(DATA, name)]
        return argv, "", f"ok: {ops} operator(s)\n", [], []


WORKLOADS = {w.name: w for w in (Laws, Rewrite, Cli)}
