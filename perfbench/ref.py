"""Output references for the benchmark.

None of these reuse the library layer they check: they read only the
public fields of ``Var`` (``index``) and ``Op`` (``name``, ``params``,
``args``), take binder counts from the table below rather than from a
signature, and walk terms with an explicit stack, so they handle any
depth (the library's recursive ``==`` and ``print_term`` do not).
"""

from __future__ import annotations

import hashlib

from bindsig import ArrowSort, BaseSort, Op, Var

# Binder count of each argument, per operator name.  Names shared between
# the benchmark's languages (top, forall, app, abs, ...) bind alike.
BINDERS = {
    # ulc, stlc, pcf
    "app": (0, 0),
    "abs": (1,),
    # free-model labels on ulc
    "pair": (0, 0),
    "wrap": (0,),
    # fol and ll
    "top": (),
    "bot": (),
    "zero": (),
    "one": (),
    "neg": (0,),
    "bang": (0,),
    "whynot": (0,),
    "and": (0, 0),
    "or": (0, 0),
    "imp": (0, 0),
    "with": (0, 0),
    "parr": (0, 0),
    "tensor": (0, 0),
    "oplus": (0, 0),
    "lolli": (0, 0),
    "forall": (1,),
    "exists": (1,),
    # pcf
    "true": (),
    "false": (),
    "if_bool": (0,),
    "if_nat": (0,),
    "k": (),
    "succ": (0,),
    "pred": (0,),
    "zero_test": (0,),
    "fix": (0,),
}


def walk(t, on_var, on_op, k=0):
    """Post-order fold with an explicit stack.

    ``on_var(i, k)`` gets a variable under ``k`` binders (counted from the
    walk's start); ``on_op(node, k, vals)`` gets a node with its
    children's results in order.
    """
    out = []
    stack = [(t, k, False)]
    while stack:
        node, k, done = stack.pop()
        if type(node) is Var:
            out.append(on_var(node.index, k))
        elif done:
            n = len(node.args)
            vals = out[len(out) - n :] if n else []
            del out[len(out) - n :]
            out.append(on_op(node, k, vals))
        else:
            stack.append((node, k, True))
            for arg, b in reversed(tuple(zip(node.args, BINDERS[node.name]))):
                stack.append((arg, k + b, False))
    return out[0]


def size(t) -> int:
    return walk(t, lambda i, k: 1, lambda node, k, vals: 1 + sum(vals))


def profile(t):
    """(nodes, depth, closed subterms, binder nodes) of ``t``."""

    def on_var(i, k):
        return 1, 1, i + 1, 0, 0

    def on_op(node, k, vals):
        bs = BINDERS[node.name]
        loose = max((v[2] - b for v, b in zip(vals, bs)), default=0)
        return (
            1 + sum(v[0] for v in vals),
            1 + max((v[1] for v in vals), default=0),
            max(loose, 0),
            sum(v[3] for v in vals) + (loose <= 0),
            sum(v[4] for v in vals) + any(bs),
        )

    nodes, depth_, _loose, closed, binders = walk(t, on_var, on_op)
    return nodes, depth_, closed, binders


def free_vars(t) -> frozenset:
    found = set()

    def on_var(i, k):
        if i >= k:
            found.add(i - k)

    walk(t, on_var, lambda node, k, vals: None)
    return frozenset(found)


def _rebuild(node, k, vals):
    return Op(node.name, node.params, tuple(vals))


def map_vars(t, on_var):
    """Rebuild ``t`` with every variable replaced by ``on_var(i, k)``."""
    return walk(t, on_var, _rebuild)


def shift(t, n):
    if n == 0:
        return t
    return map_vars(t, lambda i, k: Var(i + n) if i >= k else Var(i))


def rename(t, mapping):
    return map_vars(t, lambda i, k: Var(mapping[i - k] + k) if i >= k else Var(i))


def subst(t, images):
    shifted = {}

    def on_var(i, k):
        if i < k:
            return Var(i)
        key = (i - k, k)
        hit = shifted.get(key)
        if hit is None:
            hit = shifted[key] = shift(images[i - k], k)
        return hit

    return map_vars(t, on_var)


def equal(a, b) -> bool:
    """Structural equality, iteratively."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if type(x) is Var:
            if x.index != y.index:
                return False
            continue
        if x.name != y.name or x.params != y.params or len(x.args) != len(y.args):
            return False
        stack.extend(zip(x.args, y.args))
    return True


def show_sort(s) -> str:
    if type(s) is BaseSort:
        return s.name
    if type(s) is ArrowSort:
        return f"arrow({show_sort(s.domain)},{show_sort(s.codomain)})"
    raise TypeError(f"not a sort: {s!r}")


def _show_param(p) -> str:
    return str(p) if isinstance(p, int) else show_sort(p)


def show(t) -> str:
    """The canonical s-expression, built iteratively."""
    parts = []
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif type(node) is Var:
            parts.append(f"(var {node.index})")
        else:
            head = node.name
            if node.params:
                head += "<" + ",".join(_show_param(p) for p in node.params) + ">"
            parts.append(f"(op {head}")
            stack.append(")")
            for arg in reversed(node.args):
                stack.append(arg)
                stack.append(" ")
    return "".join(parts)


def show_fv(fv) -> str:
    return "{" + ", ".join(str(i) for i in sorted(fv)) + "}"


# ---------------------------------------------------------------------------
# Translations, written as plain tree rewrites of the documented clauses


def _ll(name, *args):
    return Op(name, (), tuple(args))


FOL2LL = {
    "top": lambda: _ll("top"),
    "bot": lambda: _ll("bot"),
    "neg": lambda a: _ll("lolli", _ll("bang", a), _ll("zero")),
    "and": lambda a, b: _ll("with", a, b),
    "or": lambda a, b: _ll("oplus", _ll("bang", a), _ll("bang", b)),
    "imp": lambda a, b: _ll("lolli", _ll("bang", a), b),
    "forall": lambda a: _ll("forall", a),
    "exists": lambda a: _ll("exists", _ll("bang", a)),
}

# The clauses of data/fol2ll_mult.tbl.
FOL2LL_MULT = {
    "top": lambda: _ll("one"),
    "bot": lambda: _ll("zero"),
    "neg": lambda a: _ll("lolli", a, _ll("bot")),
    "and": lambda a, b: _ll("tensor", a, b),
    "or": lambda a, b: _ll("parr", a, b),
    "imp": lambda a, b: _ll("lolli", a, b),
    "forall": lambda a: _ll("forall", a),
    "exists": lambda a: _ll("exists", _ll("whynot", a)),
}

# stlc2ulc erases the type parameters.
ERASE = {
    "app": lambda a, b: _ll("app", a, b),
    "abs": lambda a: _ll("abs", a),
}

# Free-model interpretation of the ulc labels, expanded by hand.
LABELS_TO_ULC = {
    "pair": lambda a, b: _ll("app", a, b),
    "wrap": lambda a: _ll("app", a, _ll("abs", Var(0))),
}


def translate(t, clauses):
    return walk(t, lambda i, k: Var(i), lambda node, k, vals: clauses[node.name](*vals))


def expand_labels(t):
    def on_op(node, k, vals):
        clause = LABELS_TO_ULC.get(node.name)
        if clause is not None:
            return clause(*vals)
        return Op(node.name, node.params, tuple(vals))

    return walk(t, lambda i, k: Var(i), on_op)


# ---------------------------------------------------------------------------
# Counts


def ulc_count(k: int, n: int) -> int:
    """|A_k| for ulc over n variables: a(0, n) = 0 and
    a(k+1, n) = n + a(k, n)^2 + a(k, n+1)."""
    row = [0] * (n + k + 1)  # a(0, m) for m = 0 .. n+k
    for _ in range(k):
        row = [m + row[m] ** 2 + row[m + 1] for m in range(len(row) - 1)]
    return row[n]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
