"""Command-line surface, and the one writer of the JSON reports.

Every run echoes its command and configuration, writes a JSON report with a
stable schema version, prints a human-readable summary, and exits 0 when
all checks pass and 1 on any failed identity.  ``main`` is the one error
boundary: bad input (an ``InputError`` from any layer, or an unreadable
file) exits 2 and any other exception is an internal error that exits 3;
both print one line on stderr and write no report.  A closed stdout keeps
the verdict's exit code.  Enumeration order is fixed, so reports are
deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from decimal import Decimal

from .algebra import AlgebraElement, CENTRAL, SuperVirasoro
from .formal import Symbol
from .lattice import (EVEN, ODD, PARITY_NAMES, AlgebraConfig, LatticeBasis,
                      cone_inclusion_check, iso_check, nested_cone_basis, unimodular_det)
from .parse import (parse_element, parse_index, parse_rational,
                    parse_rational_matrix, parse_rational_vector, parse_scalar)
from .repmod import BoxSpec, Family, ModuleVector, SeriesModule
from .scalar import InputError

SCHEMA_VERSION = 1

# the most checks one run may make; a larger run is refused before it starts
MAX_CHECKS = 10**6

_BOX_NOTE = ("box-level evidence only: operators leaving the box are not "
             "applied, so candidates are not proofs of submodules")

# JSON type of each config key; a missing or null key takes its default
_CONFIG_TYPES = {"n": int, "d_names": list, "sigma": list, "extra_names": list,
                 "family": str, "params": dict, "output": str}
_TYPE_NAMES = {int: "an integer", list: "a list", str: "a string", dict: "an object"}


class Session:
    """Configuration shared by one CLI invocation: defaults derived from n,
    the run's family resolved once, and only the indeterminates it uses."""

    def __init__(self, raw: dict, family=None):
        if not isinstance(raw, dict):
            raise InputError("the configuration must be a JSON object")
        raw = {k: v for k, v in raw.items() if v is not None}
        for key, kind in _CONFIG_TYPES.items():
            value = raw.get(key)
            if key in raw and (isinstance(value, bool) or not isinstance(value, kind)):
                raise InputError(f"config {key!r} must be {_TYPE_NAMES[kind]}, "
                                 f"not {value!r}")
        for key in ("d_names", "extra_names"):
            if not all(isinstance(name, str) for name in raw.get(key, ())):
                raise InputError(f"config {key!r} must list strings, not {raw[key]!r}")
        self.raw = raw
        n = raw.get("n", 2)
        d_names = raw.get("d_names") or [f"d{i+1}" for i in range(n)]
        sigma = [parse_rational(str(s))
                 for s in raw.get("sigma", ["1/2"] + ["0"] * (n - 1))]
        self.params = raw.get("params", {})
        declared = dict.fromkeys(name for f in Family for name in f.param_names)
        for name in self.params:
            if name not in declared:
                raise InputError(f"config 'params' names {name!r}, which no family "
                                 f"declares; the parameters are {', '.join(declared)}")
        self.family = raw.get("family")
        name = family or self.family
        try:
            self.run_family = Family(name) if name else None
        except ValueError:
            raise InputError(f"unknown family {name!r}; choose from "
                             f"{[f.value for f in Family]}") from None
        names = self.run_family.param_names if self.run_family else ()
        try:
            extra = tuple(dict.fromkeys(names + tuple(raw.get("extra_names", ()))))
            self.config = AlgebraConfig(n, d_names, sigma, extra_names=extra)
        except InputError as exc:
            raise InputError(f"bad configuration: {exc}") from None
        self.radius = self.resolve_radius(None)
        self.output = raw.get("output")

    def module(self) -> SeriesModule:
        family = self.run_family
        if family is None:
            raise InputError("this command needs a module family "
                             "(--family or the config file)")
        values = {name: parse_scalar(self.config.ctx, str(self.params.get(name, name)))
                  for name in family.param_names}
        return SeriesModule(self.config, family, values)

    def resolve_radius(self, text):
        """The command's radius, else the config's: a nonnegative multiple of 1/2."""
        text = text or str(self.raw.get("radius", 2))
        radius = parse_rational(text)
        if radius < 0 or (2 * radius).denominator != 1:
            raise InputError(f"radius {text} is not 0 or a positive multiple of 1/2")
        return radius

    def echo(self):
        return {
            "n": self.config.n,
            "d_names": list(self.config.d_names),
            "sigma": [str(s) for s in self.config.sigma_index.coords],
            "family": self.family,
            "params": {k: str(v) for k, v in self.params.items()},
            "radius": str(self.radius),
        }


def _basis_elements(config, radius):
    """Even, odd and central basis elements inside the box, in fixed order."""
    return tuple(Symbol(letter, v) for letter, parity in (("L", EVEN), ("G", ODD))
                 for v in config.box(radius, parity)) + (CENTRAL,)


def _box_size(config, radius):
    """Indices of both parities inside the box, counted without enumerating
    them: the basis vectors of any module, and with c the basis elements."""
    return config.box_size(radius, EVEN) + config.box_size(radius, ODD)


def _limit_checks(checks, knob="radius"):
    """Refuse a run of more than MAX_CHECKS checks, before it starts."""
    if checks > MAX_CHECKS:
        # through Decimal: str of an int stops at the int-to-str digit limit
        raise InputError(f"this run needs {Decimal(checks):,} checks, more than the limit "
                         f"of {MAX_CHECKS:,}; choose a smaller {knob}")


def _family_fields(module):
    """Report fields of a module: its family, parameters and specialized ones."""
    params = module.params
    return {"family": module.family.value,
            "params": {k: str(v) for k, v in params.items()},
            "specialized_params": sorted(k for k, v in params.items() if v.is_constant())}


# ---------------------------------------------------------------------------
# Command handlers: each returns (results, lines); a result with
# status == "fail" makes the run exit nonzero.
# ---------------------------------------------------------------------------

def cmd_bracket(session, args):
    sv = SuperVirasoro(session.config)
    x = parse_element(session.config, args.x)
    y = parse_element(session.config, args.y)
    if not isinstance(x, AlgebraElement) or not isinstance(y, AlgebraElement):
        raise InputError("bracket expects algebra elements")
    out = sv.bracket(x, y)
    line = f"[{x}, {y}] = {out}"
    return [{"check": "bracket", "status": "info", "result": str(out)}], [line]


def cmd_act(session, args):
    module = session.module()
    g = parse_element(session.config, args.element, module.family)
    v = parse_element(session.config, args.vector, module.family)
    if not isinstance(g, AlgebraElement) or not isinstance(v, ModuleVector):
        raise InputError("act expects an algebra element and a module vector")
    out = module.act(g, v)
    line = f"({g}) . ({v}) = {out}"
    return [{"check": "act", "status": "info", "result": str(out)}], [line]


def cmd_jacobi_fuzz(session, args):
    radius = session.resolve_radius(args.radius)
    _limit_checks((_box_size(session.config, radius) + 1) ** 3)
    sv = SuperVirasoro(session.config)
    elems = _basis_elements(session.config, radius)
    failures = [{"triple": [str(x), str(y), str(z)], "residual": str(r)}
                for x, y, z, r in sv.jacobi_failures(elems)]
    checked = len(elems) ** 3
    status = "fail" if failures else "pass"
    results = [{"check": "super_jacobi", "status": status,
                "radius": str(radius), "triples": checked,
                "failures": failures}]
    lines = [f"jacobi-fuzz: {checked} homogeneous triples at radius {radius}: "
             f"{len(failures)} nonzero residuals"]
    for f in failures[:5]:
        lines.append(f"  residual [{', '.join(f['triple'])}] = {f['residual']}")
    if len(failures) > 5:
        lines.append(f"  ... {len(failures) - 5} more in the JSON report")
    return results, lines


def cmd_antisym(session, args):
    radius = session.resolve_radius(args.radius)
    _limit_checks((_box_size(session.config, radius) + 1) ** 2)
    sv = SuperVirasoro(session.config)
    elems = _basis_elements(session.config, radius)
    failures = [{"pair": [str(x), str(y)]} for x, y in itertools.product(elems, repeat=2)
                if not sv.antisymmetric(x, y)]
    checked = len(elems) ** 2
    central = [str(x) for x in elems if not sv.bracket_basis(CENTRAL, x).is_zero()]
    results = [{"check": "graded_antisymmetry", "status": "pass" if not failures else "fail",
                "pairs": checked, "failures": failures},
               {"check": "centrality", "status": "pass" if not central else "fail",
                "violations": central}]
    lines = [f"antisym: {checked} pairs, {len(failures)} antisymmetry failures, "
             f"{len(central)} centrality failures"]
    return results, lines


def cmd_rep_fuzz(session, args):
    radius = session.resolve_radius(args.radius)
    vradius = parse_rational(args.vector_radius)
    module = session.module()
    _limit_checks((_box_size(session.config, radius) + 1) ** 2
                  * _box_size(session.config, vradius))
    elems = _basis_elements(session.config, radius)
    vectors = module.basis_in_box(BoxSpec(vradius))
    failures = []
    for u, w in itertools.product(elems, repeat=2):
        for v in vectors:
            residual = module.rep_residual(u, w, v)
            if not residual.is_zero():
                failures.append({"u": str(u), "w": str(w), "v": str(v),
                                 "residual": str(residual)})
    checked = len(elems) ** 2 * len(vectors)
    status = "fail" if failures else "pass"
    results = [{"check": "rep_axiom", "status": status, **_family_fields(module),
                "triples": checked, "failures": failures}]
    lines = [f"rep-fuzz {module.family.value}: {checked} triples "
             f"(generators radius {radius}, vectors radius {vradius}): "
             f"{len(failures)} nonzero residuals"]
    for f in failures[:5]:
        lines.append(f"  residual ({f['u']}, {f['w']}, {f['v']}) = {f['residual']}")
    return results, lines


def cmd_cone_basis(session, args):
    basis = nested_cone_basis(session.config.n, args.k)
    det = unimodular_det(basis)
    violations = cone_inclusion_check(args.k, basis)
    results = [{"check": "nested_cone_basis_det", "status": "pass" if det == 1 else "fail",
                "k": args.k, "basis": [list(r) for r in basis.rows], "det": det},
               {"check": "cone_inclusion", "status": "fail" if violations else "pass",
                "k": args.k, "ok": not violations,
                "violations": [{"m_prime": list(m), "coords": [str(c) for c in coords]}
                               for m, coords in violations]}]
    lines = [f"cone-basis k={args.k}: det={det}, inclusion checked on every "
             f"nonnegative combination, {len(violations)} violations"]
    return results, lines


def cmd_adapted_basis(session, args):
    mu = parse_index(session.config, args.mu)
    sv = SuperVirasoro(session.config)
    adapted, entries, ok = sv.bracket_generation_witness(mu)
    det = unimodular_det(adapted.basis)
    results = [{"check": "adapted_basis_witness", "status": "pass" if ok else "fail",
                "mu": str(mu), "ok": ok,
                "adapted_basis": {"basis": [list(r) for r in adapted.basis.rows],
                                  "case": adapted.case,
                                  "sign_flips": list(adapted.sign_flips),
                                  "permutation": list(adapted.permutation),
                                  "det": det},
                "entries": [{"row": e.row, "start": str(e.start), "copies": e.copies,
                             "product": str(e.product), "step": str(e.step),
                             "step_in_neighborhood": e.step_in_neighborhood,
                             "bracket_ok": e.bracket_ok} for e in entries]}]
    lines = [f"adapted-basis mu={mu}: case {adapted.case}, det={det}, "
             f"witness {'verified' if ok else 'FAILED'}"]
    for e in entries:
        lines.append(f"  row {e.row}: {e.copies} bracket steps from L{e.start}, "
                     f"scalar {e.product}")
    return results, lines


def cmd_ladder(session, args):
    if args.m < 1:
        raise InputError(f"--m {args.m} checks no ladder step; it must be at least 1")
    _limit_checks(2 * args.m, "--m")  # one bracket per step in each of two chains
    config = session.config
    mu = parse_index(config, args.mu) if args.mu else config.unit(0)
    d = parse_index(config, args.d) if args.d else config.unit(config.n - 1)
    sv = SuperVirasoro(config)
    results = []
    lines = []
    for m, ok in enumerate(sv.ladder_checks(d, mu, args.m), 1):
        results.append({"check": "ladder_identity", "status": "pass" if ok else "fail",
                        "m": m, "mu": str(mu), "d": str(d)})
        lines.append(f"ladder m={m}: {'ok' if ok else 'FAILED'}")
    return results, lines


def cmd_iso_check(session, args):
    m = parse_rational_matrix(args.m)
    mp = parse_rational_matrix(args.mprime)
    s = parse_rational_vector(args.s)
    sp = parse_rational_vector(args.sprime)
    alpha = parse_rational(args.alpha)
    ok = iso_check(m, s, mp, sp, alpha)
    results = [{"check": "iso_criterion", "status": "pass" if ok else "fail",
                "alpha": str(alpha), "accepted": ok}]
    lines = [f"iso-check alpha={alpha}: {'accepted' if ok else 'rejected'}"]
    return results, lines


def cmd_simplicity(session, args):
    radius = session.resolve_radius(args.radius)
    module = session.module()
    _limit_checks(_box_size(session.config, radius) ** 2)
    closures, candidates = module.simplicity_probe(BoxSpec(radius))
    results = [{"check": "simplicity_probe", "status": "info",
                **_family_fields(module), "box_size": len(closures),
                "closures": [{"seed": str(v), "closure_size": size} for v, size in closures],
                "candidates": [[str(b) for b in cand] for cand in candidates],
                "note": _BOX_NOTE}]
    lines = [f"simplicity {module.family.value} (radius {radius}): "
             f"{len(candidates)} candidate submodule(s) among "
             f"{len(closures)} basis vectors [{_BOX_NOTE}]"]
    for cand in candidates:
        lines.append("  candidate: {" + ", ".join(str(b) for b in cand) + "}")
    return results, lines


def cmd_ghw(session, args):
    radius = session.resolve_radius(args.radius)
    module = session.module()
    # the probe tries every generator of the box of twice the radius
    _limit_checks(_box_size(session.config, 2 * radius))
    v = parse_element(session.config, args.vector, module.family)
    if not isinstance(v, ModuleVector):
        raise InputError("ghw expects a module vector")
    n = session.config.n
    basis = (LatticeBasis(parse_rational_matrix(args.basis)) if args.basis
             else LatticeBasis.identity(n))
    if basis.n != n:
        raise InputError(f"--basis {basis} has rank {basis.n}; the session has rank {n}")
    annihilated, witness = module.ghw_probe(v, basis, args.k, BoxSpec(radius))
    results = [{"check": "ghw_probe", "status": "info",
                "vector": str(v), "k": args.k,
                "annihilated": annihilated,
                "counterexample": str(witness) if witness else None}]
    if annihilated:
        lines = [f"ghw: every in-box cone generator annihilates {v} (k={args.k})"]
    else:
        lines = [f"ghw: {witness} does not annihilate {v} (k={args.k})"]
    return results, lines


def cmd_quotient(session, args):
    radius = session.resolve_radius(args.radius)
    module = session.module()
    _limit_checks(_box_size(session.config, radius) ** 2)
    box = BoxSpec(radius)
    seeds = parse_element(session.config, args.seeds or "0", module.family)
    if not isinstance(seeds, ModuleVector):
        raise InputError("quotient seeds must be module basis vectors")
    sub = module.closure(seeds.terms, box)
    rows = module.quotient_dims(sub, box)
    results = [{"check": "quotient_dims", "status": "info",
                "submodule": sorted(str(b) for b in sub),
                "table": [{"weight": str(module.weight_of(v)), "parity": PARITY_NAMES[v.parity],
                           "vector": str(v), "in_submodule": dim == 0, "dim": dim}
                          for v, dim in rows]}]
    removed = sum(1 for _, dim in rows if dim == 0)
    lines = [f"quotient (radius {radius}): submodule of size {len(sub)}, "
             f"{removed} weight line(s) removed, "
             f"{len(rows) - removed} remaining"]
    return results, lines


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON session configuration file")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="JSON report path (default report.json)")
    parser = argparse.ArgumentParser(
        prog="svir",
        parents=[common],
        description="Exact verification for the rank-n super-Virasoro algebra "
                    "and its intermediate-series modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("bracket", help="bracket of two algebra elements")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=cmd_bracket)

    p = add_parser("act", help="act by an algebra element on a module vector")
    p.add_argument("element")
    p.add_argument("vector")
    p.add_argument("--family")
    p.set_defaults(handler=cmd_act)

    p = add_parser("jacobi-fuzz",
                   help="graded Jacobi residuals over all in-box basis triples")
    p.add_argument("--radius")
    p.set_defaults(handler=cmd_jacobi_fuzz)

    p = add_parser("antisym",
                   help="graded antisymmetry and centrality over all in-box pairs")
    p.add_argument("--radius")
    p.set_defaults(handler=cmd_antisym)

    p = add_parser("rep-fuzz", help="module-axiom residuals for one family")
    p.add_argument("--family")
    p.add_argument("--radius")
    p.add_argument("--vector-radius", default="1")
    p.set_defaults(handler=cmd_rep_fuzz)

    p = add_parser("cone-basis",
                   help="nested cone basis: determinant and cone inclusion")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=cmd_cone_basis)

    p = add_parser("adapted-basis",
                   help="adapted basis for a vector and its bracket witness")
    p.add_argument("--mu", required=True)
    p.set_defaults(handler=cmd_adapted_basis)

    p = add_parser("ladder", help="ad-ladder identities up to m steps")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu")
    p.add_argument("--d")
    p.set_defaults(handler=cmd_ladder)

    p = add_parser("iso-check", help="verify a scaling between two lattices")
    p.add_argument("--m", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--mprime", required=True)
    p.add_argument("--sprime", required=True)
    p.add_argument("--alpha", required=True)
    p.set_defaults(handler=cmd_iso_check)

    p = add_parser("simplicity", help="closure probe for candidate submodules")
    p.add_argument("--family")
    p.add_argument("--radius")
    p.set_defaults(handler=cmd_simplicity)

    p = add_parser("ghw", help="generalized-highest-weight probe in a box")
    p.add_argument("--family")
    p.add_argument("--vector", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--radius")
    p.add_argument("--basis")
    p.set_defaults(handler=cmd_ghw)

    p = add_parser("quotient", help="weight dimensions of a box quotient")
    p.add_argument("--family")
    p.add_argument("--seeds")
    p.add_argument("--radius")
    p.set_defaults(handler=cmd_quotient)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        raw = {}
        if getattr(args, "config", None):
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise InputError(f"cannot read config {args.config}: {exc.strerror}") from None
            except (ValueError, RecursionError) as exc:
                raise InputError(f"config {args.config} is not JSON: {exc}") from None
        session = Session(raw, getattr(args, "family", None))
        output = getattr(args, "output", None) or session.output or "report.json"
        directory = os.path.dirname(os.path.abspath(output))
        if os.path.isdir(output) or not (os.path.isdir(directory)
                                         and os.access(directory, os.W_OK)):
            raise InputError(f"cannot write the report to {output}")
        results, lines = args.handler(session, args)
        passed = all(r["status"] != "fail" for r in results)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": session.echo(),
            "results": results,
            "passed": passed,
        }
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        try:
            for line in lines:
                print(line)
            print(f"{'PASS' if passed else 'FAIL'} (report written to {output})")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early; the verdict stands, and pointing stdout
            # at devnull keeps the interpreter's final flush from failing again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0 if passed else 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
