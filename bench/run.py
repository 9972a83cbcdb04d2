#!/usr/bin/env python3
"""Benchmark of svir: time to verdict of whole CLI invocations.

Run from the repository root; see bench/README.md for the metrics and the
reasons behind each workload.

    python3 bench/run.py --workload jacobi --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30     # summary table
    python3 bench/run.py --list-metrics                  # every metric, with its unit
    python3 bench/run.py --roadmap                       # ROADMAP baseline commands, once
    python3 bench/run.py --record-expected               # report digests, per variant
    python3 bench/run.py --record-baseline               # traced baseline and ROADMAP times

The load is a closed loop with one client: each invocation is a fresh
interpreter running ``python3 -m svir`` on the checkout's ``src``, and the
next starts when it exits.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH / "expected.json"
BASELINE_TRACE_PATH = BENCH / "baseline" / "trace.json"
BASELINE_ROADMAP_PATH = BENCH / "baseline" / "roadmap.json"
WORK_DIR = ".bench_run"

INVOCATION_TIMEOUT_S = 90
MIN_SETUPS = 8

END_TO_END = (
    ("wall_s", "s", "median wall time of one round of the workload's invocations, "
                    "from process launch to exit (time to verdict)"),
    ("checks_per_s", "1/s", "checks in one round over wall_s"),
    ("setup_s", "s", "median wall time of the workload's one-check invocation: "
                     "interpreter start, import svir, session, config and module"),
    ("peak_rss_mb", "MB", "median over rounds of the largest peak resident memory "
                          "of one invocation"),
)
# Printed by the summary; in the result line it is failed / attempted.
FAILED_SHARE = ("failed_share", "ratio", "invocations that crashed, exited with an "
                "unexpected code or failed the output check, over those attempted")

PER_LAYER = (
    ("scalar.poly_mul.calls", "count", "PolyExact.mul calls"),
    ("scalar.poly_mul.self_s", "s", "self time of PolyExact.mul"),
    ("scalar.poly_mul.terms_out", "count", "terms in all products"),
    ("scalar.expr_mul.calls", "count", "ScalarExpr products"),
    ("scalar.expr_mul.trivial_ratio", "ratio", "share of products with a constant "
                                               "(0, 1 or other) operand"),
    ("scalar.expr_add.calls", "count", "ScalarExpr sums"),
    ("scalar.expr_add.same_den_ratio", "ratio", "share of sums whose operands share "
                                                "a denominator"),
    ("scalar.nvars", "count", "indeterminates declared by the session"),
    ("scalar.make.calls", "count", "ScalarExpr.make normalisations"),
    ("scalar.make.self_s", "s", "self time of ScalarExpr.make"),
    ("scalar.make.gcd_ratio", "ratio", "share of make calls that reach poly_gcd"),
    ("scalar.poly_gcd.calls", "count", "poly_gcd calls, recursive ones included"),
    ("scalar.poly_gcd.self_s", "s", "self time of poly_gcd"),
    ("scalar.poly_gcd.reduced_ratio", "ratio", "share of gcds that are non-constant"),
    ("scalar.divexact.calls", "count", "exact polynomial divisions"),
    ("lattice.index_hash.calls", "count", "IndexVector.__hash__ calls"),
    ("lattice.index_hash.self_s", "s", "self time of IndexVector.__hash__"),
    ("lattice.index_arith.calls", "count", "IndexVector add, neg, sub and scale calls"),
    ("lattice.index_arith.self_s", "s", "self time of IndexVector arithmetic"),
    ("lattice.embed.calls", "count", "AlgebraConfig.embed calls"),
    ("lattice.embed.hit_ratio", "ratio", "1 - distinct embedded indices / calls"),
    ("formal.add.calls", "count", "FormalSum additions"),
    ("formal.add.self_s", "s", "self time of FormalSum.__add__"),
    ("formal.add.terms_copied", "count", "dict entries copied to rebuild a sum"),
    ("formal.scale.calls", "count", "FormalSum.scale calls"),
    ("formal.scale.self_s", "s", "self time of FormalSum.scale"),
    ("algebra.bracket.calls", "count", "SuperVirasoro.bracket calls"),
    ("algebra.bracket.self_s", "s", "self time of SuperVirasoro.bracket"),
    ("algebra.bracket_basis.calls", "count", "SuperVirasoro.bracket_basis calls"),
    ("algebra.bracket_basis.hit_ratio", "ratio", "1 - distinct basis pairs / calls"),
    ("algebra.jacobi_residual.calls", "count", "super_jacobi_residual calls"),
    ("algebra.jacobi_residual.self_s", "s", "self time of super_jacobi_residual"),
    ("repmod.act.calls", "count", "SeriesModule.act calls"),
    ("repmod.act.self_s", "s", "self time of SeriesModule.act"),
    ("repmod.act_basis.calls", "count", "SeriesModule.act_basis calls"),
    ("repmod.act_basis.hit_ratio", "ratio", "1 - distinct (generator, vector) pairs / calls"),
    ("repmod.rep_residual.calls", "count", "SeriesModule.rep_residual calls"),
    ("repmod.rep_residual.self_s", "s", "self time of SeriesModule.rep_residual"),
    ("repmod.closure.calls", "count", "SeriesModule.closure calls"),
    ("repmod.closure.self_s", "s", "self time of SeriesModule.closure"),
    ("repmod.closure.act_probes", "count", "act_basis calls made directly by closure"),
    ("repmod.closure.yield_ratio", "ratio", "vectors added to closures / act probes"),
    ("parse.calls", "count", "calls of the public svir.parse functions"),
    ("parse.self_s", "s", "self time of the svir.parse functions"),
    ("cli.session_s", "s", "time in Session construction and Session.module"),
    ("cli.check_s", "s", "time in the command handler, session time excluded"),
    ("cli.write_s", "s", "time from handler return to main return (report writing)"),
    ("cli.report_bytes", "bytes", "size of the JSON report"),
    ("trace.wall_s", "s", "median wall time of one traced round"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s, same run"),
)

# ---------------------------------------------------------------------------
# Workloads.  The seed picks one of VARIANTS inputs.  Every variant does the
# same work: the d-names only relabel the indeterminates, and sigma = (+-1/2, 0)
# name the same coset, so the boxes and their enumeration order are the same.
# The coset orientation (0, 1/2) is not varied: it costs about 6% more wall
# time on jacobi at the same check counts.  On rational the seed also draws
# the parameter coefficients within the fixed shape a = p/(a+q), b = r/(b+s).
# ---------------------------------------------------------------------------

VARIANTS = 8
D_NAMES = (("d1", "d2"), ("e1", "e2"), ("p", "q"), ("u", "v"))
# Draws where terms cancel (about 1% fewer gcd calls) are left out, so every
# variant makes the same number of gcd, divexact and product calls.
RATIONAL_COEFFS = ((1, 1, 7, 4), (-2, 5, 3, -2), (4, -1, -5, 3), (-3, -2, 6, 5),
                   (4, 2, -3, 2), (2, -5, -8, -5), (-4, 8, -3, 4), (7, 9, 6, -4))


@dataclass(frozen=True)
class Invocation:
    """One svir command line with the outcome it must produce."""

    key: str          # entry of expected.json holding the report digest
    argv: tuple       # svir arguments; --config and --output are appended
    config: dict
    exit: int
    checks: int
    nonzero: int      # nonzero residuals, or candidate submodules


@dataclass(frozen=True)
class Plan:
    workload: str
    round: tuple      # Invocations run back to back; one round is one sample
    setup: Invocation


def _session_config(variant):
    return {"n": 2, "d_names": list(D_NAMES[variant % 4]),
            "sigma": ["1/2" if variant < 4 else "-1/2", "0"]}


def _fraction(num, var, shift):
    return f"{num}/({var} {'+' if shift > 0 else '-'} {abs(shift)})"


def _act_setup(key, family, config):
    return Invocation(key, ("act", "L[1,0]", "x[0,0]", "--family", family),
                      config, 0, 1, 0)


def plan(workload, seed) -> Plan:
    """Inputs of one workload; the same seed gives the same inputs."""
    variant = seed % VARIANTS
    config = _session_config(variant)
    prefix = f"{workload}/{variant}"
    if workload == "jacobi":
        return Plan(workload, (
            Invocation(f"{prefix}/jacobi-fuzz", ("jacobi-fuzz", "--radius", "1"),
                       config, 1, 4096, 66),),
            Invocation(f"{prefix}/setup", ("bracket", "L[1,0]", "L[-1,0]"),
                       config, 0, 1, 0))
    if workload == "rep":
        return Plan(workload, tuple(
            Invocation(f"{prefix}/{family}",
                       ("rep-fuzz", "--family", family, "--radius", "1",
                        "--vector-radius", "1"), config, 0, 3840, 0)
            for family in ("SA", "SAprime", "SBprime")),
            _act_setup(f"{prefix}/setup", "SA", config))
    if workload == "rational":
        p, q, r, s = RATIONAL_COEFFS[variant]
        config = dict(config, params={"a": _fraction(p, "a", q), "b": _fraction(r, "b", s)})
        return Plan(workload, (
            Invocation(f"{prefix}/SA", ("rep-fuzz", "--family", "SA", "--radius", "1/2",
                                        "--vector-radius", "1"), config, 0, 240, 0),),
            _act_setup(f"{prefix}/setup", "SA", config))
    if workload == "probe":
        return Plan(workload, tuple(
            Invocation(f"{prefix}/{family}", ("simplicity", "--family", family,
                                              "--radius", "2"), config, 0, 45, 1)
            for family in ("SAprime", "SBprime")),
            _act_setup(f"{prefix}/setup", "SAprime", config))
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("jacobi", "rep", "rational", "probe")

# The ROADMAP baseline table, timed once by --roadmap: (label, argv, exit,
# checks, nonzero, ROADMAP wall seconds, ROADMAP target seconds or None).
ROADMAP = (
    ("jacobi-fuzz r2", ("jacobi-fuzz", "--radius", "2"), 1, 97336, 738, 37.8, 10.0),
    ("rep-fuzz SA r2/v1", ("rep-fuzz", "--family", "SA", "--radius", "2",
                           "--vector-radius", "1"), 0, 31740, 0, 18.1, 5.0),
    ("simplicity SA r3", ("simplicity", "--family", "SA", "--radius", "3"),
     0, 91, 0, 3.4, None),
    ("antisym r2", ("antisym", "--radius", "2"), 0, 2116, 0, 0.34, None),
)


def roadmap_invocations():
    config = _session_config(0)
    return [(Invocation(f"roadmap/{label}", argv, config, code, checks, nonzero),
             ref, target)
            for label, argv, code, checks, nonzero, ref, target in ROADMAP]


# ---------------------------------------------------------------------------
# Running and checking one invocation
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    exit: int
    wall_s: float
    rss_mb: float
    report: bytes | None
    stderr: str
    trace: dict | None


def count_checks(report):
    """(checks, nonzero residuals or candidates) from a JSON report."""
    first = report["results"][0]
    if "triples" in first:
        return first["triples"], len(first["failures"])
    if "closures" in first:
        return len(first["closures"]), len(first["candidates"])
    if "pairs" in first:
        return first["pairs"], len(first["failures"])
    return len(report["results"]), 0


class Harness:
    """Runs svir invocations from a checkout and checks every outcome."""

    def __init__(self, root, expected):
        self.root = Path(root).resolve()
        self.work = self.root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                        PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.unwrapped = set()    # trace targets svir no longer has
        self._runs = 0

    def run(self, inv: Invocation, traced=False) -> Outcome:
        """Launch one fresh interpreter and wait for it; no check here."""
        self._runs += 1
        config = self.work / "config.json"
        report = self.work / "report.json"
        trace = self.work / "trace.json"
        config.write_text(json.dumps(inv.config))
        for path in (report, trace):
            if path.exists():
                path.unlink()
        args = [*inv.argv, "--config", str(config), "--output", str(report)]
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"),
                   f"{inv.key}#{self._runs}", str(trace), *args]
        else:
            cmd = [sys.executable, "-m", "svir", *args]
        result = self.work / "spawn.json"
        if result.exists():
            result.unlink()
        spawn = [sys.executable, str(BENCH / "spawn.py"), str(INVOCATION_TIMEOUT_S),
                 str(result), *cmd]
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(spawn, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                proc.wait(timeout=INVOCATION_TIMEOUT_S + 30)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        measured = json.loads(result.read_text()) if result.exists() else \
            {"exit": proc.returncode, "wall_s": 0.0, "rss_mb": 0.0}
        return Outcome(
            exit=measured["exit"],
            wall_s=measured["wall_s"],
            rss_mb=measured["rss_mb"],
            report=report.read_bytes() if report.exists() else None,
            stderr=(self.work / "stderr.txt").read_text(errors="replace"),
            trace=json.loads(trace.read_text()) if traced and trace.exists() else None)

    def verify(self, inv: Invocation, outcome: Outcome, traced=False):
        """Every way the outcome differs from what was recorded."""
        problems = []
        if "Traceback (most recent call last)" in outcome.stderr:
            problems.append("traceback on stderr")
        if outcome.exit != inv.exit:
            problems.append(f"exit code {outcome.exit}, expected {inv.exit}")
        if traced and outcome.trace is None:
            problems.append("no trace written")
        if outcome.report is None:
            return problems + ["no report written"]
        try:
            checks, nonzero = count_checks(json.loads(outcome.report))
        except (ValueError, KeyError, IndexError, TypeError):
            return problems + ["unreadable report"]
        if checks != inv.checks:
            problems.append(f"{checks} checks, expected {inv.checks}")
        if nonzero != inv.nonzero:
            problems.append(f"{nonzero} nonzero, expected {inv.nonzero}")
        digest = hashlib.sha256(outcome.report).hexdigest()
        want = self.expected.get(inv.key)
        if want is None:
            problems.append("no recorded report digest")
        elif digest != want:
            problems.append("report digest differs from the recorded one")
        return problems

    def attempt(self, inv: Invocation, traced=False) -> Outcome:
        """Run, check and count one invocation."""
        outcome = self.run(inv, traced)
        problems = self.verify(inv, outcome, traced)
        if outcome.trace is not None:
            self.unwrapped.update(outcome.trace["missing"])
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{inv.key}: {'; '.join(problems)}")
        return outcome

    # -- timed loops ----------------------------------------------------------

    def measure(self, p: Plan, seconds):
        """End-to-end metrics of one workload, tracing off.

        A round's time is estimated as the sum of each invocation's median,
        which uses every sample of every invocation.
        """
        start = time.perf_counter()
        setups, rss = [], []
        walls = [[] for _ in p.round]
        while True:
            setups.append(self.attempt(p.setup).wall_s)
            outcomes = [self.attempt(inv) for inv in p.round]
            for samples, outcome in zip(walls, outcomes):
                samples.append(outcome.wall_s)
            rss.append(max(o.rss_mb for o in outcomes))
            round_s = sum(statistics.median(w) for w in walls)
            if time.perf_counter() - start + round_s >= seconds:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(self.attempt(p.setup).wall_s)
        return {
            "wall_s": round_s,
            "checks_per_s": sum(inv.checks for inv in p.round) / round_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }, {"rounds": [sum(r) for r in zip(*walls)], "setups": setups}

    def measure_traced(self, p: Plan, seconds):
        """Per-layer metrics: untraced and traced rounds alternate."""
        start = time.perf_counter()
        plain, traced = [], []
        while True:
            plain.append(sum(self.attempt(inv).wall_s for inv in p.round))
            outcomes = [self.attempt(inv, traced=True) for inv in p.round]
            if any(o.trace is None for o in outcomes):
                self.problems.append(f"{p.workload}: traced round left no trace")
                return None
            traced.append((sum(o.wall_s for o in outcomes), layer_metrics(outcomes)))
            elapsed = time.perf_counter() - start
            if elapsed + plain[-1] + traced[-1][0] >= seconds:
                break
        units = dict((name, unit) for name, unit, _ in PER_LAYER)
        first = traced[0][1]
        for _, other in traced[1:]:
            differ = [n for n in first if units[n] != "s" and first[n] != other[n]]
            if differ:
                self.failed += 1
                self.problems.append(f"{p.workload}: traced counts differ between "
                                     f"rounds: {', '.join(differ)}")
        metrics = dict(first)
        for name in first:
            if units[name] == "s":
                metrics[name] = statistics.median(m[name] for _, m in traced)
        metrics["trace.wall_s"] = statistics.median(w for w, _ in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
        return metrics


def layer_metrics(outcomes):
    """Per-layer metrics of one traced round, summed over its invocations."""
    calls, self_s, counts, distinct = {}, {}, {}, {}
    nvars = 0
    session_s = check_s = write_s = 0.0
    report_bytes = 0

    def add(acc, items):
        for key, value in items.items():
            acc[key] = acc.get(key, 0) + value

    for outcome in outcomes:
        t = outcome.trace
        add(calls, t["calls"])
        add(self_s, t["self_s"])
        add(distinct, t["distinct"])
        nvars = max(nvars, t["counts"].get("scalar.nvars", 0))
        add(counts, {k: v for k, v in t["counts"].items() if k != "scalar.nvars"})
        report_bytes += len(outcome.report or b"")
        spans = t["spans"]

        def dur(s):
            return s["end"] - s["start"]

        sessions = [s for s in spans if s["name"] == "cli.session"]
        handlers = [s for s in spans if s["name"] == "cli.check"]
        session_s += sum(dur(s) for s in sessions)
        for h in handlers:
            check_s += dur(h) - sum(dur(s) for s in sessions if s["parent"] == h["id"])
        mains = [s for s in spans if s["name"] == "cli.main"]
        if mains and handlers:
            write_s += mains[0]["end"] - max(h["end"] for h in handlers)

    def c(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("scalar.poly_mul", "scalar.make", "scalar.poly_gcd",
                  "lattice.index_hash", "lattice.index_arith", "formal.add",
                  "formal.scale", "algebra.bracket", "algebra.jacobi_residual",
                  "repmod.act", "repmod.rep_residual", "repmod.closure", "parse"):
        m[f"{layer}.calls"] = c(layer)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("scalar.expr_mul", "scalar.expr_add", "scalar.divexact",
                  "lattice.embed", "algebra.bracket_basis", "repmod.act_basis"):
        m[f"{layer}.calls"] = c(layer)
    m["scalar.poly_mul.terms_out"] = counts.get("scalar.poly_mul.terms_out", 0)
    m["scalar.expr_mul.trivial_ratio"] = ratio(counts.get("scalar.expr_mul.trivial", 0),
                                               c("scalar.expr_mul"))
    m["scalar.expr_add.same_den_ratio"] = ratio(counts.get("scalar.expr_add.same_den", 0),
                                                c("scalar.expr_add"))
    m["scalar.nvars"] = nvars
    m["scalar.make.gcd_ratio"] = ratio(counts.get("scalar.make.gcd", 0), c("scalar.make"))
    m["scalar.poly_gcd.reduced_ratio"] = ratio(counts.get("scalar.poly_gcd.reduced", 0),
                                               c("scalar.poly_gcd"))
    for layer in ("lattice.embed", "algebra.bracket_basis", "repmod.act_basis"):
        m[f"{layer}.hit_ratio"] = 1 - ratio(distinct.get(layer, 0), c(layer)) \
            if c(layer) else 0.0
    m["formal.add.terms_copied"] = counts.get("formal.add.terms_copied", 0)
    probes = counts.get("repmod.closure.act_probes", 0)
    m["repmod.closure.act_probes"] = probes
    m["repmod.closure.yield_ratio"] = ratio(counts.get("repmod.closure.added", 0), probes)
    m["cli.session_s"] = session_s
    m["cli.check_s"] = check_s
    m["cli.write_s"] = write_s
    m["cli.report_bytes"] = report_bytes
    return m


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _load_json(path):
    return json.loads(path.read_text()) if path.exists() else {}


def _metric_json(values, table):
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in table}


def _emit(harness, metrics):
    for problem in harness.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": harness.failed == 0 and not harness.problems,
                      "attempted": max(harness.attempted, 1),
                      "failed": harness.failed if harness.attempted else 1,
                      "metrics": metrics}))


def _failed_share(harness):
    return harness.failed / harness.attempted if harness.attempted else 1.0


def run_workload(harness, workload, seed, seconds, trace):
    p = plan(workload, seed)
    if trace:
        values = harness.measure_traced(p, seconds)
        if values is None:
            return None
        recorded = _load_json(BASELINE_TRACE_PATH)
        baseline = recorded.get("workloads", {}).get(workload, {})
        print(f"{workload} (seed {seed}), traced; baseline recorded at "
              f"{recorded.get('commit', 'no commit')}")
        for name, unit, _ in PER_LAYER:
            base = baseline.get(name)
            print(f"  {name:34s} {values[name]:>16.6g} {unit:6s} baseline "
                  f"{'-' if base is None else format(base, '.6g')}")
        for target in sorted(harness.unwrapped):
            print(f"warning: {target} not found, so not traced; its metrics read 0",
                  file=sys.stderr)
        return _metric_json(values, PER_LAYER)
    values, samples = harness.measure(p, seconds)
    print(f"{workload} (seed {seed}): {len(samples['rounds'])} rounds of "
          f"{len(p.round)} invocation(s), {len(samples['setups'])} set-ups")
    for name, unit, _ in END_TO_END:
        print(f"  {name:14s} {values[name]:>12.6g} {unit}")
    print(f"  {'failed_share':14s} {_failed_share(harness):>12.6g} ratio")
    rounds = sorted(samples["rounds"])
    print(f"  {len(rounds)} rounds (s): min {rounds[0]:.4f}  median "
          f"{statistics.median(rounds):.4f}  max {rounds[-1]:.4f}")
    print("  " + " ".join(f"{w:.3f}" for w in samples["rounds"]))
    return _metric_json(values, END_TO_END)


def run_all(harness, seed, seconds, trace):
    """Every workload, one after the other, with a summary table."""
    metrics, rows = {}, []
    for workload in WORKLOADS:
        before = (harness.attempted, harness.failed)
        result = run_workload(harness, workload, seed, seconds, trace)
        if result is None:
            continue
        attempted = harness.attempted - before[0]
        failed = harness.failed - before[1]
        rows.append((workload, result, failed / attempted if attempted else 1.0))
        metrics.update({f"{workload}.{k}": v for k, v in result.items()})
    if not trace:
        table = END_TO_END + (FAILED_SHARE,)
        print("\nworkload   " + "".join(f"{f'{n} ({u})':>22s}" for n, u, _ in table))
        for workload, result, share in rows:
            cells = [result[n]["value"] for n, _, _ in END_TO_END] + [share]
            print(f"{workload:10s} " + "".join(f"{v:>22.6g}" for v in cells))
    return metrics


def list_metrics():
    print("end-to-end metrics (--trace 0), per workload:")
    for name, unit, meaning in END_TO_END + (FAILED_SHARE,):
        print(f"  {name:34s} {unit:6s} {meaning}")
    print("per-layer metrics (--trace 1), per workload:")
    for name, unit, meaning in PER_LAYER:
        print(f"  {name:34s} {unit:6s} {meaning}")
    print(f"workloads: {', '.join(WORKLOADS)}")


def run_roadmap(harness):
    """Time the ROADMAP baseline commands once, beside the recorded times."""
    recorded = _load_json(BASELINE_ROADMAP_PATH).get("commands", {})
    times = {}
    print(f"{'command':20s} {'wall (s)':>10s} {'recorded':>10s} {'ROADMAP':>10s} {'target':>8s}")
    for inv, ref, target in roadmap_invocations():
        label = inv.key.split("/", 1)[1]
        times[label] = harness.attempt(inv).wall_s
        print(f"{label:20s} {times[label]:>10.3f} {recorded.get(label, float('nan')):>10.3f} "
              f"{ref:>10.2f} {'-' if target is None else f'< {target:g}':>8s}")
    (harness.work / "roadmap.json").write_text(json.dumps(times, indent=2) + "\n")
    return {f"roadmap.{k}": {"value": v, "unit": "s"} for k, v in times.items()}


def record_expected(harness):
    """Record the report digest of every invocation a run can make."""
    harness.expected = digests = {}
    invocations = [inv for inv, _, _ in roadmap_invocations()]
    for workload in WORKLOADS:
        for variant in range(VARIANTS):
            p = plan(workload, variant)
            invocations += [*p.round, p.setup]
    for inv in invocations:
        outcome = harness.run(inv)
        digests[inv.key] = hashlib.sha256(outcome.report or b"").hexdigest()
        problems = harness.verify(inv, outcome)
        if problems:
            raise SystemExit(f"{inv.key}: {'; '.join(problems)}; nothing recorded")
        print(f"recorded {inv.key}", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def record_baseline(harness):
    """Record the traced per-layer numbers and the ROADMAP times of this commit."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=harness.root,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown commit"
    machine = {"nproc": os.cpu_count(), "python": platform.python_version()}
    workloads, walls = {}, {}
    for workload in WORKLOADS:
        values = harness.measure_traced(plan(workload, 0), 1)
        if values is None:
            raise SystemExit("; ".join(harness.problems) + "; nothing recorded")
        workloads[workload] = values
        walls[workload] = values["trace.wall_s"] - values["trace.overhead_s"]
    times = {inv.key.split("/", 1)[1]: harness.attempt(inv).wall_s
             for inv, _, _ in roadmap_invocations()}
    if harness.failed or harness.problems:
        raise SystemExit("; ".join(harness.problems) + "; nothing recorded")
    BASELINE_TRACE_PATH.parent.mkdir(exist_ok=True)
    BASELINE_TRACE_PATH.write_text(json.dumps(
        {"commit": commit, "machine": machine, "seed": 0, "workloads": workloads},
        indent=1, sort_keys=True) + "\n")
    BASELINE_ROADMAP_PATH.write_text(json.dumps(
        {"commit": commit, "machine": machine, "commands": times,
         "workload_wall_s": walls}, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS + ("all",))
    mode.add_argument("--list-metrics", action="store_true")
    mode.add_argument("--roadmap", action="store_true")
    mode.add_argument("--record-expected", action="store_true")
    mode.add_argument("--record-baseline", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.list_metrics:
        list_metrics()
        return 0
    root = Path.cwd()
    if not (root / "src" / "svir" / "cli.py").is_file():
        print("error: run from the root of a svir checkout (src/svir not found)",
              file=sys.stderr)
        return 2
    harness = Harness(root, _load_json(EXPECTED_PATH))
    if args.record_expected:
        record_expected(harness)
        return 0
    if args.record_baseline:
        record_baseline(harness)
        return 0
    if args.roadmap:
        metrics = run_roadmap(harness)
    elif args.workload == "all":
        metrics = run_all(harness, args.seed, args.seconds, args.trace)
    else:
        metrics = run_workload(harness, args.workload, args.seed, args.seconds,
                               args.trace) or {}
    _emit(harness, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
