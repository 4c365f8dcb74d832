"""Seeded generator of terms, assignments and renamings.

``bindsig.random_term`` picks uniformly among productions, so its draws
have a median of one or two nodes at any depth.  This generator instead
takes a target node count and a :class:`Shape`:

- ``spine``: chance that a node gives all but 1-3 nodes of its budget to
  one child.  0 builds balanced trees, values near 1 build spines.
- ``binder``: chance that a node is a binder (``abs``, ``forall``, ...).
- ``closed``: chance that a subtree starts a closed region, whose
  variables may only point at binders inside it.
- ``path``: when set, a (low, high) length for one explicit heavy path.
  A ``binder`` share of its steps bind, in shuffled positions, and the
  other nodes hang off it as small balanced subterms.  Depth and binder
  count then follow from the drawn length, not from a random walk.

No term is deeper than ``max_depth`` nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from bindsig import ArrowSort, BaseSort, Op, Var

IOTA = BaseSort("iota")
FUN = ArrowSort(IOTA, IOTA)
STLC_PARAMS = (IOTA, IOTA)


@dataclass(frozen=True)
class Shape:
    name: str
    nodes: tuple  # (low, high) target node count
    spine: float
    binder: float
    closed: float
    path: tuple | None = None


@dataclass(frozen=True)
class Lang:
    """An untyped language: unary binders, plain (name, arity) ops, constants."""

    binders: tuple
    plain: tuple
    constants: tuple = ()


# ulc with the free-model labels pair/2 and wrap/1 (app listed twice to weight it).
ULCX = Lang(("abs",), (("app", 2), ("app", 2), ("pair", 2), ("wrap", 1)))
ULC = Lang(("abs",), (("app", 2),))
FOL = Lang(
    ("forall", "exists"),
    (("and", 2), ("or", 2), ("imp", 2), ("neg", 1)),
    ("top", "bot"),
)

IMAGE = Shape("image", (1, 12), spine=0.3, binder=0.4, closed=0.3)
SIDE_ROOM = 16  # depth allowed to a subterm hanging off a heavy path


class Gen:
    def __init__(self, seed: int, max_depth: int = 256):
        self.rng = random.Random(seed)
        self.max_depth = max_depth

    def size(self, shape: Shape) -> int:
        return self.rng.randint(*shape.nodes)

    # -- untyped -----------------------------------------------------------

    def term(self, lang: Lang, shape: Shape, ctx_size: int, max_depth: int | None = None):
        if shape.path:
            return self._path(lang, shape, ctx_size)
        room = max_depth or self.max_depth
        return self._u(lang, shape, self.size(shape), ctx_size, room, False)

    def _steps(self, sh):
        """The shuffled binder (True) / plain (False) steps of a heavy path."""
        length = self.rng.randint(*sh.path)
        binders = round(length * sh.binder)
        steps = [True] * binders + [False] * (length - binders)
        self.rng.shuffle(steps)
        return steps

    def _side_budget(self, sh, steps):
        plain = max(1, steps.count(False))
        mean = max(1, (self.size(sh) - len(steps)) // plain)
        return lambda: self.rng.randint(1, 2 * mean - 1)

    def _path(self, lang, sh, scope):
        rng = self.rng
        steps = self._steps(sh)
        side = self._side_budget(sh, steps)
        side_shape = Shape("side", sh.nodes, spine=0.0, binder=sh.binder, closed=sh.closed)
        scopes = []
        for binds in steps:
            scopes.append(scope)
            scope += binds
        t = self._u(lang, side_shape, 1, scope, SIDE_ROOM, False)
        for binds, scope in zip(reversed(steps), reversed(scopes)):
            if binds:
                t = Op(rng.choice(lang.binders), (), (t,))
                continue
            name, arity = rng.choice(lang.plain)
            if arity == 1:
                t = Op(name, (), (t,))
                continue
            other = self._u(lang, side_shape, side(), scope, SIDE_ROOM, False)
            t = Op(name, (), (t, other) if rng.random() < 0.5 else (other, t))
        return t

    def _u(self, lang, sh, budget, scope, room, closed):
        rng = self.rng
        if not closed and rng.random() < sh.closed:
            closed, scope = True, 0
        if budget <= 1 or room <= 2:
            if scope:
                return Var(rng.randrange(scope))
            if lang.constants:
                return Op(rng.choice(lang.constants))
            return Op(lang.binders[0], (), (Var(0),))
        tight = room <= budget.bit_length() + 2
        if not tight and rng.random() < sh.binder:
            body = self._u(lang, sh, budget - 1, scope + 1, room - 1, closed)
            return Op(rng.choice(lang.binders), (), (body,))
        name, arity = rng.choice(lang.plain)
        if tight or budget < 3:
            name, arity = lang.plain[0]
        if arity == 1 or budget < 3:
            body = self._u(lang, sh, budget - 1, scope, room - 1, closed)
            return Op(lang.binders[0] if arity == 2 else name, (), (body,))
        left, right = self._split(sh, budget - 1, tight)
        return Op(
            name,
            (),
            (
                self._u(lang, sh, left, scope, room - 1, closed),
                self._u(lang, sh, right, scope, room - 1, closed),
            ),
        )

    def _split(self, sh, rest, tight):
        rng = self.rng
        if not tight and rest > 2 and rng.random() < sh.spine:
            small = rng.randint(1, min(3, rest - 1))
            return (rest - small, small) if rng.random() < 0.5 else (small, rest - small)
        left = rest // 2 + rng.randint(-(rest // 4), rest // 4)
        return left, rest - left

    def assignment(self, lang: Lang, src: int, dst: int, shape: Shape = IMAGE):
        return tuple(self.term(lang, shape, dst) for _ in range(src))

    def mapping(self, src: int, dst: int):
        return tuple(self.rng.randrange(dst) for _ in range(src))

    # -- stlc over iota and iota->iota ----------------------------------------
    #
    # Usable variables are kept as absolute binder levels per sort; the de
    # Bruijn index of level v is depth - 1 - v.  iota has no closed
    # inhabitant, so every iota position keeps an iota variable in scope
    # and closed regions start only at abstractions.

    def stlc_ctx(self, n: int):
        """A context of n >= 2 sorts holding both iota and iota->iota."""
        rest = [self.rng.choice((IOTA, FUN)) for _ in range(n - 2)]
        ctx = [IOTA, FUN] + rest
        self.rng.shuffle(ctx)
        return tuple(ctx)

    def stlc_term(self, shape: Shape, ctx, sort=IOTA):
        self._sh = shape
        self._depth = len(ctx)
        self._vars = {
            IOTA: [len(ctx) - 1 - i for i, s in enumerate(ctx) if s == IOTA],
            FUN: [len(ctx) - 1 - i for i, s in enumerate(ctx) if s == FUN],
        }
        if shape.path:
            # A binder step takes two path nodes: drop as many plain steps.
            steps = self._steps(shape)
            for _ in range(steps.count(True)):
                steps.remove(False)
            return self._iota_path(steps, 0, self._side_budget(shape, steps))
        nodes = self.size(shape)
        if sort == IOTA:
            return self._iota(nodes, self.max_depth)
        return self._abs(nodes, self.max_depth)

    def _iota_path(self, steps, i, side):
        """A binder step is app(abs(<path>), x): two nodes; a plain step is
        app(f, <path>) with a small f."""
        if i == len(steps):
            return self._var(IOTA)
        if steps[i]:
            self._vars[IOTA].append(self._depth)
            self._depth += 1
            body = self._iota_path(steps, i + 1, side)
            self._depth -= 1
            self._vars[IOTA].pop()
            f = Op("abs", STLC_PARAMS, (body,))
            return Op("app", STLC_PARAMS, (f, self._iota(side(), SIDE_ROOM)))
        f = self._abs(side(), SIDE_ROOM)
        return Op("app", STLC_PARAMS, (f, self._iota_path(steps, i + 1, side)))

    def _var(self, sort):
        return Var(self._depth - 1 - self.rng.choice(self._vars[sort]))

    def _iota(self, budget, room):
        if budget <= 2 or room <= 3:
            return self._var(IOTA)
        sh = self._sh
        tight = room <= budget.bit_length() + 3
        if not tight and self._vars[FUN] and self.rng.random() < sh.spine * (1 - sh.binder):
            f, x_nodes = self._var(FUN), budget - 2
        else:
            f_nodes, x_nodes = self._split(sh, budget - 1, tight)
            f = self._abs(f_nodes, room - 1)
        return Op("app", STLC_PARAMS, (f, self._iota(x_nodes, room - 1)))

    def _abs(self, budget, room):
        saved = None
        if self.rng.random() < self._sh.closed:
            saved = self._vars
            self._vars = {IOTA: [], FUN: []}
        self._vars[IOTA].append(self._depth)
        self._depth += 1
        body = self._iota(budget - 1, room - 1)
        self._depth -= 1
        self._vars[IOTA].pop()
        if saved is not None:
            self._vars = saved
        return Op("abs", STLC_PARAMS, (body,))

    def stlc_assignment(self, src, dst, shape: Shape = IMAGE):
        return tuple(self.stlc_term(shape, dst, sort) for sort in src)

    def stlc_mapping(self, src, dst):
        return tuple(
            self.rng.choice([j for j, d in enumerate(dst) if d == s]) for s in src
        )
