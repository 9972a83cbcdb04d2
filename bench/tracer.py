"""Per-layer tracing of one svir CLI invocation, installed from outside svir.

    python3 bench/tracer.py RUN_ID TRACE_OUT [svir arguments ...]

Run from the repository root with ``src`` on PYTHONPATH.  The script wraps
the public functions of svir.scalar, svir.lattice, svir.formal,
svir.algebra, svir.repmod, svir.parse and svir.cli, runs ``svir.cli.main``
on the arguments, writes counts and spans to TRACE_OUT as JSON and exits
with main's code.  No file of the package is changed.

Every wrapped call pushes a frame.  Its self time is its duration minus the
time of the wrapped calls made inside it, where a child's time runs from
wrapper entry to wrapper exit, so the bookkeeping of the wrappers is charged
to no layer.  Coarse calls (the CLI phases and one identity check or
closure each) are also kept as spans: id, name, start, end, parent span and
run id.  Hot leaf calls are only aggregated, which keeps memory bounded on
runs with millions of polynomial products.  Spans stay in memory until
main returns.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Counts, self times and spans of one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)
        self.spans = []
        self.stack = []      # frames: [name, child_s, span id of this frame or its parent]
        self.paused = [False]
        self.missing = []

    def wrap(self, name, fn, span=False, before=None, after=None):
        """Return fn wrapped so that each call is counted and timed as `name`.

        `before(args)` and `after(args, result)` run outside the timed
        region; they update counters of their own.
        """
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        paused, run_id = self.paused, self.run_id
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            enter = clock()
            try:
                calls[name] += 1
                if before is not None:
                    before(args)
                parent = stack[-1][2] if stack else None
                if span:
                    sid = len(spans)
                    spans.append({"id": sid, "name": name, "parent": parent, "run": run_id})
                frame = [name, 0.0, sid if span else parent]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    self_s[name] += end - start - frame[1]
                    if span:
                        spans[sid]["start"] = start
                        spans[sid]["end"] = end
                if after is not None:
                    after(args, result)
                return result
            finally:
                if stack:
                    stack[-1][1] += clock() - enter

        wrapper.__wrapped__ = fn
        return wrapper

    def parent_name(self):
        """Name of the innermost open frame, from inside a before hook."""
        return self.stack[-1][0] if self.stack else None

    def remember(self, name, key):
        """Record a cache key without letting its hashing count as work."""
        self.paused[0] = True
        try:
            self.keys[name].add(key)
        finally:
            self.paused[0] = False

    def dump(self, path):
        data = {
            "run_id": self.run_id,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "spans": self.spans,
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _svir_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "svir" or name.startswith("svir."))]


def _patch_function(tracer, module_name, attr, name, **opts):
    """Wrap a module-level function and rebind it wherever svir imported it."""
    module = importlib.import_module(module_name)
    fn = getattr(module, attr, None)
    if fn is None:
        tracer.missing.append(f"{module_name}.{attr}")
        return
    wrapper = tracer.wrap(name, fn, **opts)
    for mod in _svir_modules():
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)


def _patch_method(tracer, module_name, cls_name, attr, name, **opts):
    cls = getattr(importlib.import_module(module_name), cls_name, None)
    raw = vars(cls).get(attr) if cls is not None else None
    if raw is None:
        tracer.missing.append(f"{module_name}.{cls_name}.{attr}")
        return
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, **opts)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, **opts))


def install(tracer):
    """Wrap every traced boundary of svir; unknown targets are listed as missing."""
    import svir.cli  # noqa: F401  (imports every layer)
    from svir.scalar import ScalarExpr

    counts = tracer.counts

    def is_const(x):
        return not isinstance(x, ScalarExpr) or x.is_constant()

    def mul_before(args):
        if is_const(args[0]) or is_const(args[1]):
            counts["scalar.expr_mul.trivial"] += 1

    def add_before(args):
        x, y = args
        if isinstance(y, ScalarExpr):
            same = x.den is y.den or x.den == y.den
        else:
            same = x.den.is_constant()
        if same:
            counts["scalar.expr_add.same_den"] += 1

    def mul_after(args, result):
        counts["scalar.poly_mul.terms_out"] += len(result.terms)

    def gcd_before(args):
        if tracer.parent_name() == "scalar.make":
            counts["scalar.make.gcd"] += 1

    def gcd_after(args, result):
        if not result.is_constant():
            counts["scalar.poly_gcd.reduced"] += 1

    def ctx_after(args, result):
        counts["scalar.nvars"] = max(counts["scalar.nvars"], len(args[0].names))

    def embed_before(args):
        tracer.remember("lattice.embed", (id(args[0]), args[1].coords))

    def add_terms_before(args):
        x, y = args
        if x.terms and y.terms:
            counts["formal.add.terms_copied"] += len(x.terms)

    def bracket_basis_before(args):
        tracer.remember("algebra.bracket_basis", (id(args[0]), args[1], args[2]))

    def act_basis_before(args):
        tracer.remember("repmod.act_basis", (id(args[0]), args[1], args[2]))
        if tracer.parent_name() == "repmod.closure":
            counts["repmod.closure.act_probes"] += 1

    def closure_after(args, result):
        seeds = args[1]
        if isinstance(seeds, (list, tuple, set, frozenset)):
            tracer.paused[0] = True
            try:
                counts["repmod.closure.added"] += len(result) - len(set(seeds))
            finally:
                tracer.paused[0] = False

    method = _patch_method
    method(tracer, "svir.scalar", "PolyExact", "mul", "scalar.poly_mul", after=mul_after)
    method(tracer, "svir.scalar", "ScalarExpr", "__mul__", "scalar.expr_mul",
           before=mul_before)
    method(tracer, "svir.scalar", "ScalarExpr", "__add__", "scalar.expr_add",
           before=add_before)
    method(tracer, "svir.scalar", "ScalarExpr", "make", "scalar.make")
    method(tracer, "svir.scalar", "ScalarContext", "__init__", "scalar.context",
           after=ctx_after)
    _patch_function(tracer, "svir.scalar", "poly_gcd", "scalar.poly_gcd",
                    before=gcd_before, after=gcd_after)
    _patch_function(tracer, "svir.scalar", "divexact", "scalar.divexact")

    method(tracer, "svir.lattice", "IndexVector", "__hash__", "lattice.index_hash")
    for attr in ("__add__", "__neg__", "__sub__", "scale"):
        method(tracer, "svir.lattice", "IndexVector", attr, "lattice.index_arith")
    method(tracer, "svir.lattice", "AlgebraConfig", "embed", "lattice.embed",
           before=embed_before)

    method(tracer, "svir.formal", "FormalSum", "__add__", "formal.add",
           before=add_terms_before)
    method(tracer, "svir.formal", "FormalSum", "scale", "formal.scale")

    method(tracer, "svir.algebra", "SuperVirasoro", "bracket", "algebra.bracket")
    method(tracer, "svir.algebra", "SuperVirasoro", "bracket_basis",
           "algebra.bracket_basis", before=bracket_basis_before)
    method(tracer, "svir.algebra", "SuperVirasoro", "super_jacobi_residual",
           "algebra.jacobi_residual", span=True)

    method(tracer, "svir.repmod", "SeriesModule", "act", "repmod.act")
    method(tracer, "svir.repmod", "SeriesModule", "act_basis", "repmod.act_basis",
           before=act_basis_before)
    method(tracer, "svir.repmod", "SeriesModule", "rep_residual",
           "repmod.rep_residual", span=True)
    method(tracer, "svir.repmod", "SeriesModule", "closure", "repmod.closure",
           span=True, after=closure_after)

    for attr in ("parse_element", "parse_index", "parse_scalar", "parse_rational",
                 "parse_rational_vector", "parse_rational_matrix"):
        _patch_function(tracer, "svir.parse", attr, "parse")

    method(tracer, "svir.cli", "Session", "__init__", "cli.session", span=True)
    method(tracer, "svir.cli", "Session", "module", "cli.session", span=True)
    cli = sys.modules["svir.cli"]
    for attr in sorted(vars(cli)):
        if attr.startswith("cmd_") and callable(getattr(cli, attr)):
            _patch_function(tracer, "svir.cli", attr, "cli.check", span=True)


def main(argv):
    run_id, out_path, svir_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer)
    import svir.cli
    cli_main = tracer.wrap("cli.main", svir.cli.main, span=True)
    try:
        return cli_main(svir_args)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
