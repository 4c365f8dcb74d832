"""Depth-ceiling probe.

For each function, runs chains (``succ^d`` in nat, ``neg^d`` in fol for
translation) of depth 1, 2, 4, ... and reports the
deepest one that completes with the reference's answer.  The series stops
at the first failure, at ``MAX_DEPTH``, or after a call slower than
``SLOW_S``.  The timed workloads stay at depth 256 or below; this probe
keeps the library's depth limit visible without putting failing calls in
the timed loop.
"""

from __future__ import annotations

from time import perf_counter

import bindsig as B

import ref

MAX_DEPTH = 1 << 16
SLOW_S = 2.0


def _chain(name, depth, leaf):
    t = leaf
    for _ in range(depth):
        t = B.Op(name, (), (t,))
    return t


def _probes():
    """name -> (make input for a depth, call, check the output)."""
    nat = B.builtin("nat")
    fol2ll = B.builtin_table("fol2ll")
    star = B.BaseSort("*")
    zero = B.Op("zero")
    sigma = B.Assignment((star,), (), (zero,))
    ren = B.Renaming((star,), (star, star), (1,))

    def closed(d):  # succ^d zero
        return _chain("succ", d, zero)

    def open_(d):  # succ^d (var 0)
        return _chain("succ", d, B.Var(0))

    def neg(d):  # neg^d top
        return _chain("neg", d, B.Op("top"))

    return {
        "parse_term": (
            lambda d: ref.show(closed(d)),
            B.parse_term,
            lambda d, out: ref.equal(out, closed(d)),
        ),
        "print_term": (closed, B.print_term, lambda d, out: out == ref.show(closed(d))),
        "sort_of": (closed, lambda t: B.sort_of(nat, (), t), lambda d, out: out == star),
        "eq": (lambda d: (closed(d), closed(d)), lambda ab: ab[0] == ab[1], lambda d, out: out is True),
        "subst": (open_, lambda t: B.subst(nat, t, sigma), lambda d, out: ref.equal(out, closed(d))),
        "rename": (
            open_,
            lambda t: B.rename(nat, t, ren),
            lambda d, out: ref.equal(out, _chain("succ", d, B.Var(1))),
        ),
        "fold": (
            open_,
            lambda t: B.fold(B.fv_model(nat), nat, (star,), t),
            lambda d, out: out == frozenset((0,)),
        ),
        "translate_term": (
            neg,
            lambda t: B.translate_term(fol2ll, (), t),
            lambda d, out: ref.equal(out, ref.translate(neg(d), ref.FOL2LL)),
        ),
    }


def depth_ceilings() -> dict:
    out = {}
    for name, (make, call, ok) in _probes().items():
        best, depth = 0, 1
        while depth <= MAX_DEPTH:
            arg = make(depth)
            start = perf_counter()
            try:
                result = call(arg)
            except Exception:  # noqa: BLE001 - any failure ends the series
                break
            slow = perf_counter() - start > SLOW_S
            if not ok(depth, result):
                break
            best = depth
            if slow:
                break
            depth *= 2
        out["depth_ok." + name] = (best, "nodes")
    return out
