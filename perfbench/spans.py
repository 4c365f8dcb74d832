"""Per-layer tracing from outside the library.

:class:`Tracer` wraps each listed public function at every module attribute
(and function default) that binds it, so calls from the benchmark and
calls between library modules are both seen.  A call opens a span unless
the same function is already open, so recursion through a module global
(``model.fold`` calls ``fold``) stays inside one span.  Spans are kept in
memory as (name, start, end, parent, op) columns and written out by
:meth:`Tracer.write`.  Self time is a span's duration minus the duration
of its direct children; the tracer's own bookkeeping falls between spans
and shows only in the unattributed remainder.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

from bindsig import Var

# (module, function, which arguments hold the terms it works on)
TRACED = [
    ("subst", "subst", lambda a, r: (a[1],)),
    ("subst", "rename", lambda a, r: (a[1],)),
    ("subst", "weaken", lambda a, r: (a[2],)),
    ("subst", "lift_assignment", lambda a, r: a[1].images),
    ("subst", "kleisli_compose", lambda a, r: a[1].images),
    ("term", "mk_op", lambda a, r: a[4]),
    ("model", "fold", lambda a, r: (a[3],)),
    ("model", "sample_suite", None),
    ("model", "check_monoid_laws", None),
    ("model", "check_module_laws", None),
    ("model", "check_morphism", None),
    ("translate", "translate_term", lambda a, r: (a[2],)),
    ("freemodel", "free_extend", lambda a, r: (a[5],)),
    ("translate", "builtin_table", None),
    ("translate", "make_table", None),
    ("term", "parse_term", lambda a, r: (r,)),
    ("term", "print_term", lambda a, r: (a[0],)),
    ("term", "sort_of", lambda a, r: (a[2],)),
    ("sigdef", "builtin", None),
    ("sigdef", "parse_signature", None),
    ("cli", "main", None),
    ("term", "enumerate_terms", None),
    ("term", "chain_count", None),
]
LAW_SUITES = ("model.check_monoid_laws", "model.check_module_laws", "model.check_morphism")
MAX_SPANS = 1_000_000


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in TRACED]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.nodes = [0] * n
        self.cases = {name: 0 for name in LAW_SUITES}
        self.failures = {name: 0 for name in LAW_SUITES}
        self.lift_misses = 0
        self.root_s = 0.0
        self.op = 0
        # Span columns; parent -1 marks a root.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.dropped = 0
        self._open = []  # [fid, span index, child seconds] per open span
        self._active = [False] * n
        self._sizes = {}
        self._patched = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "bindsig" or name.startswith("bindsig.")]
        for fid, (mod, fn, count) in enumerate(TRACED):
            orig = getattr(sys.modules["bindsig." + mod], fn)
            wrapper = self._wrap(fid, orig, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)
                    elif callable(value) and getattr(value, "__defaults__", None):
                        if any(d is orig for d in value.__defaults__):
                            old = value.__defaults__
                            self._patched.append((value, "__defaults__", old))
                            value.__defaults__ = tuple(wrapper if d is orig else d for d in old)

    def uninstall(self):
        for target, attr, value in reversed(self._patched):
            setattr(target, attr, value)
        self._patched.clear()

    def begin_op(self, op: int):
        self.op = op
        self._sizes.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fid, orig, count):
        active = self._active
        open_ = self._open
        name = self.names[fid]
        suite = name if name in LAW_SUITES else None
        lift = name == "subst.lift_assignment"
        subst_fid = self.names.index("subst.subst")

        def wrapper(*args, **kwargs):
            if active[fid]:
                return orig(*args, **kwargs)
            entered = perf_counter()
            parent = open_[-1] if open_ else None
            if lift and parent is not None and parent[0] == subst_fid:
                self.lift_misses += 1
            idx = len(self.span_name)
            if idx < MAX_SPANS:
                self.span_name.append(fid)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(parent[1] if parent is not None else -1)
                self.span_op.append(self.op)
            else:
                self.dropped += 1
                idx = -1
            frame = [fid, idx, 0.0]  # child seconds in the last slot
            open_.append(frame)
            active[fid] = True
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self.errors[fid] += 1
                raise
            finally:
                end = perf_counter()
                active[fid] = False
                open_.pop()
                self.calls[fid] += 1
                self.self_s[fid] += end - start - frame[2]
                if idx >= 0:
                    self.span_start[idx] = start
                    self.span_end[idx] = end
                if parent is None:
                    self.root_s += end - start
                else:
                    parent[2] += end - entered
            if suite is not None:
                self.cases[suite] += result.cases
                self.failures[suite] += len(result.failures)
            elif count is not None:
                try:
                    terms = count(args, result)
                except (IndexError, AttributeError):
                    terms = ()
                self.nodes[fid] += self._count(terms)
            if parent is not None:
                parent[2] += perf_counter() - end
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = orig.__name__
        return wrapper

    def _count(self, terms) -> int:
        """Nodes of the given terms, memoised by identity within one op."""
        memo = self._sizes
        total = 0
        for t in terms:
            stack = [t]
            while stack:
                x = stack[-1]
                if id(x) in memo:
                    stack.pop()
                elif type(x) is Var:
                    memo[id(x)] = (x, 1)
                    stack.pop()
                else:
                    pending = [a for a in x.args if id(a) not in memo]
                    if pending:
                        stack.extend(pending)
                    else:
                        memo[id(x)] = (x, 1 + sum(memo[id(a)][1] for a in x.args))
                        stack.pop()
            total += memo[id(t)][1]
        return total

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for fid, (mod, fn, count) in enumerate(TRACED):
            name = self.names[fid]
            out[name + ".calls"] = (self.calls[fid], "count")
            out[name + ".self_s"] = (self.self_s[fid], "s")
            out[name + ".errors"] = (self.errors[fid], "count")
            if count is not None:
                out[name + ".nodes"] = (self.nodes[fid], "count")
            if name in LAW_SUITES:
                out[name + ".cases"] = (self.cases[name], "count")
                out[name + ".failures"] = (self.failures[name], "count")
        out["subst.lift_assignment.cache_misses"] = (self.lift_misses, "count")
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the five span columns as raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "dropped": self.dropped,
            "columns": [
                ["name", "H"],
                ["start", "d"],
                ["end", "d"],
                ["parent", "q"],
                ["op", "q"],
            ],
            "clock": "time.perf_counter, seconds",
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op):
                column.tofile(fh)
