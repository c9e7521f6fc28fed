#!/usr/bin/env python3
"""End-to-end benchmark of the Threads reproduction.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It builds `repro` and the in-process probe (perfbench/probe) from the
checkout's sources with dune, runs one workload in a closed loop with one
client, checks every output, and prints one JSON object as the last line
of stdout.  --trace 0 measures the end-to-end metrics; --trace 1 runs the
per-layer pass instead and writes its spans to .bench_build/trace/ as
Chrome trace-event JSON.  --smoke runs every workload and the per-layer
pass at tiny sizes from inside dune's build directory, as `dune runtest`
does.  perfbench/README.md describes the workloads, the metrics and which
layer moves which metric.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
TRACE = ROOT / ".bench_build" / "trace"
# Where dune puts the executables; the smoke test runs inside that
# directory and finds them there.
BIN = ROOT / "_build" / "default"
REPRO = "bin/repro.exe"
PROBE = "perfbench/probe/probe.exe"

SETUP_RUNS = 51
# One ref unit, the reference kernel's CPU time for a million iterations,
# is about this many seconds on the reference host: setup_s converts its
# ref units back to seconds with it.
REF_SECONDS = 0.35
GC_STAT = re.compile(r"^(\w+): ([0-9.]+)$")


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def now():
    # CLOCK_MONOTONIC, the clock the probe's spans use too.
    return time.monotonic_ns()


def exe(rel):
    return str(BIN / rel)


# ---- build ---------------------------------------------------------------


def build():
    """Build both executables in the checkout, as the repository builds."""
    missing = [p for p in ("dune-project", "bin/repro.ml", "lib") if not (ROOT / p).exists()]
    if missing:
        fail("run from the root of a checkout of the repository (missing "
             + ", ".join(missing) + ")")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./" + REPRO, "./" + PROBE],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("build failed")


# ---- spans ---------------------------------------------------------------


class Spans:
    """Spans kept in memory; [write] merges the probe's span files and
    writes one Chrome trace when the run ends."""

    def __init__(self):
        self.events = []
        self.stack = []
        self.probe_files = []

    def open(self, name):
        self.stack.append((name, now()))

    def close(self):
        name, t0 = self.stack.pop()
        t1 = now()
        parent = self.stack[-1][0] if self.stack else ""
        self.events.append({"name": name, "ph": "X", "pid": os.getpid(), "tid": 0,
                            "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                            "args": {"parent": parent}})

    def write(self, path):
        events = list(self.events)
        for f in self.probe_files:
            if f.exists():
                events += json.loads(f.read_text())["traceEvents"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}) + "\n")


# ---- invoking the programs -----------------------------------------------


class Invocation:
    def __init__(self, argv, seconds, refs, code, out, gc):
        self.argv, self.seconds, self.refs = argv, seconds, refs
        self.code, self.out, self.gc = code, out, gc


@contextlib.contextmanager
def one_core():
    """Pin this process, and so every child it starts, to one core."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Reference:
    """The reference kernel (perfbench/probe/reference.ml) running beside
    whatever this process starts meanwhile.  Inside one_core the two share
    one core slice by slice, so a CPU time divided by [s_per_ref], the
    kernel's CPU time for a million iterations, is free of the host's
    speed, which varies by 10-20 % from one second to the next."""

    def __enter__(self):
        self.proc = subprocess.Popen([exe(PROBE), "reference"], stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()
        return self

    def __exit__(self, *exc):
        self.proc.send_signal(signal.SIGTERM)
        iterations, cpu = self.proc.communicate()[0].split()
        self.s_per_ref = float(cpu) / int(iterations) * 1e6


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def invoke(argv, spans=None, reference=True):
    """Run `repro ARGV` to completion; its exit GC statistics come back
    from OCAMLRUNPARAM=v=0x400 on stderr.  With [reference], its CPU time
    is also measured in ref units."""
    env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
    if spans:
        spans.open("repro " + " ".join(argv))
    with Reference() if reference else contextlib.nullcontext() as ref:
        before = children_cpu()
        t0 = now()
        proc = subprocess.run([exe(REPRO)] + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env)
        seconds = (now() - t0) / 1e9
        cpu = children_cpu() - before
    if spans:
        spans.close()
    gc = {}
    for line in proc.stderr.decode(errors="replace").splitlines():
        m = GC_STAT.match(line)
        if m:
            gc[m.group(1)] = float(m.group(2))
    return Invocation(argv, seconds, cpu / ref.s_per_ref if ref else None, proc.returncode,
                      proc.stdout.decode(errors="replace"), gc)


def probe(args):
    proc = subprocess.run([exe(PROBE)] + args, stdout=subprocess.PIPE)
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def setup_seconds(argv, runs):
    """Costs of RUNS invocations that only set up, and how many of them
    failed.  Each cost is the invocation's CPU time in ref units, measured
    beside the reference kernel on one core like the batches, and given
    back in seconds at the reference host's speed."""
    cpus, bad = [], 0
    with one_core(), Reference() as ref:
        for _ in range(runs):
            before = children_cpu()
            bad += subprocess.run(argv, stdout=subprocess.DEVNULL).returncode != 0
            cpus.append(children_cpu() - before)
    return [c / ref.s_per_ref * REF_SECONDS for c in cpus], bad


# ---- output checks -------------------------------------------------------

# Host-timed cells of `repro all`, masked before comparing with the golden:
# E1b's real-hardware ns table, E9a's ms column and E9b's events/second.
MASKS = {
    "E1b": re.compile(r"\d+\.\d+"),
    "E9a": re.compile(r"\d+\.\d+"),
    "E9b": re.compile(r"(?<=events / second \|)\s*\d+"),
}


def sections(text):
    """Split experiment output into {id: masked text}, one per `=== Ek`."""
    out, current, sub = {}, None, None
    for line in text.splitlines():
        m = re.match(r"^=== (E\d+):", line)
        if m:
            current, sub = m.group(1), None
            out[current] = []
        if current is None:
            continue
        m = re.match(r"^== (E\d+[a-z]):", line)
        if m:
            sub = m.group(1)
        elif line.startswith(("==", "---")):
            sub = None
        if sub in MASKS:
            # Masked numbers may change a column's width: compare without
            # padding or border length.
            line = re.sub(r"-+", "-", MASKS[sub].sub("#", line).replace(" ", ""))
        out[current].append(line)
    return {k: "\n".join(v).strip() for k, v in out.items()}


GOLDEN = HERE / "golden"
GOLDEN_ALL = sections((GOLDEN / "repro_all.txt").read_text())
GOLDEN_EXPLORE = json.loads((GOLDEN / "explore_violations.json").read_text())
# The chaos summaries and the chaos campaign's classes at full size.
GOLDEN_CHAOS = json.loads((GOLDEN / "chaos_classes.json").read_text())
# The naive campaign's first counterexample and its shrink: E5's stranded
# waiter.  Run 7 is the first to strand, so any campaign of more runs
# prints the same.
GOLDEN_SHRINK = (GOLDEN / "naive_shrink.txt").read_text().strip()

OBSERVABLES = {
    "mutex": "count=100",
    "condvar": "consumed=30",
    "semaphore": "rallies=15",
    "alert": "wait=alerted p=alerted test=true,false",
    "broadcast": "woken=3",
    "timeout": "p=timed_out wait=woken expiry=timed_out",
}
CONFORM_LINE = re.compile(
    r"^(\S+)\s+(\d+) seeds \| (.*?) \| observable: (.*) \| (\d+) events, (\d+) violations$")


def check_experiments(inv, ids):
    """Failed experiments among IDS in one invocation's output."""
    if inv.code != 0:
        return len(ids), {}
    got = sections(inv.out)
    bad = [k for k in ids if got.get(k) != GOLDEN_ALL[k]]
    for k in bad:
        print(f"  output of {k} differs from perfbench/golden/repro_all.txt")
    digest = hashlib.sha256("\n".join(got.get(k, "") for k in ids).encode()).hexdigest()[:16]
    return len(bad), {"masked output sha256": digest}


def check_conform(inv, seeds):
    """Failed runs of one `repro conform` invocation, and its counters."""
    counters, failed, seen = {}, 0, set()
    backend = next(a for a in inv.argv if a.startswith("--backend=")).split("=")[1]
    for line in inv.out.splitlines():
        m = CONFORM_LINE.match(line)
        if not m:
            continue
        w, n, verdicts, observable, events, violations = m.groups()
        seen.add(w)
        counters[f"{backend}/{w} events"] = int(events)
        ok = (int(n) == seeds and verdicts == f"{seeds}x completed"
              and observable == OBSERVABLES.get(w) and violations == "0")
        if not ok:
            print(f"  conform {backend}/{w}: {line}")
            failed += seeds
    failed += seeds * len(set(OBSERVABLES) - seen)
    return (failed if inv.code == 0 else seeds * len(OBSERVABLES)), counters


def generate_fields(inv):
    classes = re.search(r"^\s*classes: (.*)$", inv.out, re.M)
    failures = re.search(r"^\s*failures: (\d+)$", inv.out, re.M)
    return (classes.group(1) if classes else None,
            int(failures.group(1)) if failures else None)


def check_generate(inv, runs, expected):
    """A campaign on a conforming backend: no run fails, and the classes
    line reads EXPECTED unless it is None."""
    classes, failures = generate_fields(inv)
    if inv.code != 0 or classes is None or failures is None:
        return runs, {}
    if expected is not None and classes != expected:
        print(f"  {' '.join(inv.argv)}: classes {classes}, expected {expected}")
        return runs, {}
    return failures, {" ".join(inv.argv): classes}


def check_chaos(inv, runs, expected):
    """Every chaos run ends conformant or diagnosed, never a violation or
    an unexplained failure; the summary reads EXPECTED unless it is None."""
    m = re.search(r"^summary: (.*)$", inv.out, re.M)
    if inv.code != 0 or not m:
        return runs, {}
    counts = {}
    for part in m.group(1).split(","):
        n, cls = part.split()
        counts[cls] = int(n)
    good = counts.get("conformant", 0) + counts.get("diagnosed", 0)
    key = "chaos " + "/".join(a.split("=")[1] for a in inv.argv[1:3])
    if expected is not None and m.group(1) != expected[key]:
        print(f"  {key}: summary {m.group(1)}, expected {expected[key]}")
        return runs, {}
    return runs - good, {key: m.group(1)}


def check_shrink(inv):
    """The naive campaign finds E5's stranding and shrinks it to the
    golden counterexample."""
    start = inv.out.find("  first counterexample:")
    found = inv.out[start:].strip() if start >= 0 else None
    if inv.code != 0 or found != GOLDEN_SHRINK:
        print("  naive shrink differs from perfbench/golden/naive_shrink.txt")
        return 1, {}
    return 0, {"naive classes": generate_fields(inv)[0]}


def check_explore(inv, names):
    try:
        report = json.loads(inv.out)["scenarios"]
    except (ValueError, KeyError):
        return len(names), {}
    failed, counters = 0, {}
    for s in report:
        name = s["scenario"]
        ok = (s["expected_ok"] and s["dpor_complete"]
              and s["violations"] == GOLDEN_EXPLORE.get(name))
        if not ok:
            print(f"  explore {name}: {s}")
            failed += 1
        counters[name] = (f"{s['dpor_executions']} executions, "
                          f"{s['dpor_sleep_blocked']} sleep-blocked, {s['dpor_steps']} steps")
    failed += len(set(names) - {s["scenario"] for s in report})
    return failed, counters


# ---- workloads -----------------------------------------------------------


class Size:
    """A workload size: the benchmark's, or the smoke test's tiny one."""

    def __init__(self, smoke):
        self.smoke = smoke
        self.experiments = ["E3"] if smoke else sorted(GOLDEN_ALL)
        self.conform_seeds, self.conform_runs = (5, 20) if smoke else (300, 2000)
        self.chaos_plans, self.chaos_seeds = (1, 2) if smoke else (7, 20)
        self.chaos_runs, self.shrink_runs = (20, 10) if smoke else (1000, 200)
        self.scenarios = ["wakeup-waiting"] if smoke else sorted(GOLDEN_EXPLORE)
        self.pairs, self.processes = (10_000, 2) if smoke else (2_000_000, 40)
        self.setup_runs = 3 if smoke else SETUP_RUNS


class Batch:
    def __init__(self, seconds, refs, failed, counters, invs):
        self.seconds, self.refs, self.failed = seconds, refs, failed
        self.counters, self.invs = counters, invs


class Cli:
    """A workload that drives the `repro` executable, one process at a
    time with --jobs=1.  A batch is a fixed list of invocations."""

    warm_up = True

    def __init__(self, size):
        self.z = size

    def setup_argv(self):
        return [exe(REPRO), "list"]

    def batch(self, seed, spans=None):
        if spans:
            spans.open(f"batch {self.name}")
        t0 = now()
        invs = [invoke(argv, spans) for argv in self.commands(seed)]
        seconds = (now() - t0) / 1e9
        if spans:
            spans.close()
        failed, counters = self.check(invs)
        return Batch(seconds, sum(i.refs for i in invs), failed, counters, invs)


class ReproAll(Cli):
    name = "repro-all"
    # `repro all` takes about 30 s beside the reference kernel, so one batch
    # fills a run; the set-up's `repro list` runs load the binary instead
    # of a warm-up batch.
    warm_up = False

    @property
    def ops(self):
        return len(self.z.experiments)

    def commands(self, seed):
        return [["run"] + self.z.experiments if self.z.smoke else ["all"]]

    def check(self, invs):
        return check_experiments(invs[0], self.z.experiments)


class ConformMatrix(Cli):
    name = "conform-matrix"

    @property
    def ops(self):
        return 2 * len(OBSERVABLES) * self.z.conform_seeds + self.z.conform_runs

    def commands(self, seed):
        seeds, runs = self.z.conform_seeds, self.z.conform_runs
        return [["conform", "--backend=sim", f"--seeds={seeds}", "--jobs=1"],
                ["conform", "--backend=uniproc", f"--seeds={seeds}", "--jobs=1"],
                ["generate", "--backend=sim", f"--runs={runs}", f"--seed={seed}", "--jobs=1"]]

    def check(self, invs):
        failed, counters = 0, {}
        for inv in invs[:2]:
            f, c = check_conform(inv, self.z.conform_seeds)
            failed += f
            counters.update(c)
        runs = self.z.conform_runs
        f, c = check_generate(invs[2], runs, f"conformant={runs}")
        counters.update(c)
        return failed + f, counters


CHAOS_BACKENDS = ["sim", "uniproc"]
# Generated fault plans make a campaign's cost depend on its seed far more
# than a 10 % bound allows (1000 chaos runs took 0.26 s of CPU on one seed
# and 0.68 s on another), so the chaos campaigns keep one seed.
CHAOS_CAMPAIGN_SEED = 7


class ChaosMatrix(Cli):
    name = "chaos-matrix"

    @property
    def ops(self):
        z = self.z
        return (len(CHAOS_BACKENDS) * len(OBSERVABLES) * z.chaos_plans * z.chaos_seeds
                + z.chaos_runs + z.shrink_runs + 1)

    def commands(self, _seed):
        z = self.z
        cmds = [["chaos", f"--backend={b}", f"--workload={w}", f"--plans={z.chaos_plans}",
                 f"--seeds={z.chaos_seeds}", "--jobs=1"]
                for b in CHAOS_BACKENDS for w in OBSERVABLES]
        return cmds + [
            ["generate", "--chaos", f"--runs={z.chaos_runs}", f"--seed={CHAOS_CAMPAIGN_SEED}",
             "--jobs=1"],
            ["generate", "--backend=naive", f"--runs={z.shrink_runs}", "--shrink",
             f"--seed={CHAOS_CAMPAIGN_SEED}", "--jobs=1"]]

    def check(self, invs):
        # The goldens hold the full-size counts; the smoke size checks the
        # classes only.
        golden = None if self.z.smoke else GOLDEN_CHAOS
        failed, counters = 0, {}
        for inv in invs[:-2]:
            f, c = check_chaos(inv, self.z.chaos_plans * self.z.chaos_seeds, golden)
            failed += f
            counters.update(c)
        f, c = check_generate(invs[-2], self.z.chaos_runs,
                              golden and golden["generate --chaos"])
        failed += f
        counters.update(c)
        f, c = check_shrink(invs[-1])
        counters.update(c)
        return failed + f, counters


class DporExplore(Cli):
    name = "dpor-explore"

    @property
    def ops(self):
        return len(self.z.scenarios)

    def commands(self, seed):
        scenario = self.z.scenarios[0] if self.z.smoke else "all"
        return [["explore", f"--scenario={scenario}", "--mode=dpor", "--jobs=1",
                 "--format=json"]]

    def check(self, invs):
        return check_explore(invs[0], self.z.scenarios)


class Multicore:
    """multicore-lock: the probe's `lock` loop.  A batch is 2 M uncontended
    Acquire/Release pairs on one domain (10 k at the smoke size); its
    reference is as many Stdlib.Mutex pairs right after it (see probe.ml)."""

    name = "multicore-lock"

    def __init__(self, size):
        self.z = size

    def setup_argv(self):
        return [exe(PROBE), "setup"]

    def run(self, seconds, spans=None, tag=""):
        """Run the processes one after another for SECONDS in all; None if
        one fails to report.  Either loop can run up to 1.6x slower for a
        whole process, depending on where the process's memory landed (4
        processes of 12 in one sample), so the run is split over many
        processes and reports the median of their medians."""
        children = []
        for i in range(self.z.processes):
            args = ["lock", "--seconds", str(seconds / self.z.processes),
                    "--pairs", str(self.z.pairs)]
            if spans:
                span_file = TRACE / f"{tag}-lock{i}.json"
                spans.probe_files.append(span_file)
                args += ["--spans", str(span_file)]
            children.append(probe(args))
        if None in children:
            return None
        total = lambda k: sum(c[k] for c in children)
        return {
            "batch_s": [t for c in children for t in c["batch_s"]],
            "batch_ref": [statistics.median(c["batch_ref"]) for c in children],
            "ops": total("ops"), "failed": total("failed"),
            "top_heap_words": max(c["top_heap_words"] for c in children),
            "minor_words": total("minor_words"), "promoted_words": total("promoted_words"),
            "major_collections": total("major_collections"),
        }


WORKLOADS = {w.name: w for w in (ReproAll, ConformMatrix, ChaosMatrix, DporExplore, Multicore)}


# ---- statistics and output -----------------------------------------------


def quartiles(xs):
    if len(xs) < 4:
        return None
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def high_percentile(xs):
    """The highest of p90/p99 with at least ten samples beyond it."""
    for p, need in ((99, 1000), (90, 100)):
        if len(xs) >= need:
            return p, statistics.quantiles(xs, n=100)[p - 1]
    return None


def describe(name, xs, unit):
    line = f"  {name:<34} median {statistics.median(xs):.6g} {unit}  n={len(xs)}"
    q = quartiles(xs)
    if q:
        line += f"  q1 {q[0]:.6g}  q3 {q[1]:.6g}"
    hp = high_percentile(xs)
    if hp:
        line += f"  p{hp[0]} {hp[1]:.6g}"
    print(line)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def metrics_differ(metrics, declared):
    """What is wrong with METRICS against the DECLARED names and units, or
    None: a missing or extra name, another unit, or a value that is not a
    finite number."""
    printed = {k: v["unit"] for k, v in metrics.items()}
    if printed != declared:
        return (f"printed {sorted(set(printed) ^ set(declared))}, units "
                f"{[(k, printed.get(k), u) for k, u in declared.items() if printed.get(k) != u]}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    return f"values of {bad}" if bad else None


def finish(result, trace):
    """Check the metric set against BENCHMARK.json, print the result line
    and exit non-zero on any failed op or check."""
    wrong = metrics_differ(result["metrics"], declared_metrics(trace))
    if wrong:
        print(f"  metrics differ from BENCHMARK.json: {wrong}")
        result["correct"] = False
    result["correct"] = result["correct"] and result["failed"] == 0
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


class Counters:
    """Deterministic counters must repeat exactly across batches."""

    def __init__(self):
        self.reference = None
        self.stable = True

    def see(self, counters):
        if self.reference is None:
            self.reference = counters
        elif counters != self.reference:
            self.stable = False
            print(f"  counters changed between batches: {counters} vs {self.reference}")

    def show(self):
        for k, v in (self.reference or {}).items():
            print(f"  counter {k}: {v}")


# ---- the untraced pass: end-to-end metrics --------------------------------


def run_cli(w, seed, seconds, min_batches=1):
    """Warm-up batch, then batches until SECONDS have passed."""
    counters, batches, failed = Counters(), [], 0
    with one_core():
        if w.warm_up:
            b = w.batch(seed)
            failed += b.failed
            counters.see(b.counters)
        start = now()
        while len(batches) < min_batches or (now() - start) / 1e9 < seconds:
            b = w.batch(seed)
            batches.append(b)
            failed += b.failed
            counters.see(b.counters)
    heap = max(i.gc.get("top_heap_words", 0.0) for b in batches for i in b.invs)
    return ([b.seconds for b in batches], [b.refs for b in batches], heap,
            w.ops * len(batches), failed, counters)


def run_multicore(w, seconds):
    child = w.run(seconds)
    if child is None:
        return [], [], 0.0, 1, 1, Counters()
    return (child["batch_s"], child["batch_ref"], float(child["top_heap_words"]),
            child["ops"], child["failed"], Counters())


def measure(w, seed, seconds, min_batches=1):
    """The end-to-end metrics of one workload: (metrics, attempted,
    failed, counters, batch wall times)."""
    setup, setup_failed = setup_seconds(w.setup_argv(), w.z.setup_runs)
    times, refs, heap, attempted, failed, counters = (
        run_cli(w, seed, seconds, min_batches) if isinstance(w, Cli)
        else run_multicore(w, seconds))
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "batch_ref": {"value": statistics.median(refs) if refs else 0.0, "unit": "ref"},
        "peak_heap_mb": {"value": heap * 8 / 1e6, "unit": "MB"},
    }
    return metrics, setup, refs, times, max(1, attempted), failed + setup_failed, counters


def untraced(name, seed, seconds):
    w = WORKLOADS[name](Size(smoke=False))
    metrics, setup, refs, times, attempted, failed, counters = measure(w, seed, seconds)
    print(f"workload {name}, seed {seed}, {len(times)} timed batches")
    describe("setup_s", setup, "s")
    if times:
        describe("batch wall time", times, "s")
        describe("batch_ref", refs, "ref")
    counters.show()
    print(f"  peak_heap_mb {metrics['peak_heap_mb']['value']:.6g} MB")
    finish({"correct": counters.stable and bool(times), "attempted": attempted,
            "failed": failed, "metrics": metrics}, trace=False)


# ---- the traced pass: per-layer metrics ------------------------------------


def process_metrics(gcs, ops):
    """The workload's own processes: allocation per op from exit GC stats."""
    total = lambda k: sum(g.get(k, 0.0) for g in gcs)
    return {
        "process.minor_words_per_op": {"value": total("minor_words") / ops, "unit": "words"},
        "process.promoted_words_per_op": {"value": total("promoted_words") / ops, "unit": "words"},
        "process.major_collections": {"value": total("major_collections"), "unit": "count"},
    }


def traced(name, seed, seconds):
    w = WORKLOADS[name](Size(smoke=False))
    spans = Spans()
    metrics, failed, attempted, correct = {}, 0, 0, True
    TRACE.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}"

    # The workload itself: untraced and traced batches in alternation, for
    # half the run (at least one pair); the overhead compares their medians.
    if isinstance(w, Cli):
        counters, plain, with_spans = Counters(), [], []
        with one_core():
            if w.warm_up:
                w.batch(seed)
            start = now()
            while not plain or (now() - start) / 1e9 < seconds / 2:
                for runs, s in ((plain, None), (with_spans, spans)):
                    b = w.batch(seed, s)
                    runs.append(b.refs)
                    failed += b.failed
                    attempted += w.ops
                    counters.see(b.counters)
        correct = counters.stable
        # b is the last traced batch.
        metrics.update(process_metrics([i.gc for i in b.invs], w.ops))
    else:
        a = w.run(seconds / 4)
        b = w.run(seconds / 4, spans, tag)
        if a is None or b is None:
            return finish({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, True)
        plain, with_spans = a["batch_ref"], b["batch_ref"]
        failed += a["failed"] + b["failed"]
        attempted += a["ops"] + b["ops"]
        metrics.update(process_metrics([b], b["ops"]))
    plain, with_spans = statistics.median(plain), statistics.median(with_spans)
    metrics["bench.trace_overhead_pct"] = {"value": 100 * (with_spans - plain) / plain,
                                           "unit": "%"}

    # threads_harness: each experiment as its own `repro run Ek`, wall time.
    split = {}
    for k in sorted(GOLDEN_ALL, key=lambda k: int(k[1:])):
        inv = invoke(["run", k], spans, reference=False)
        f, _ = check_experiments(inv, [k])
        failed += f
        attempted += 1
        split[k] = inv.seconds
        metrics[f"threads_harness.{k}_s"] = {"value": inv.seconds, "unit": "s"}
    metrics["threads_harness.e10_share_pct"] = {
        "value": 100 * split["E10"] / sum(split.values()), "unit": "%"}

    # The library layers, called in-process by the probe.
    span_file = TRACE / f"{tag}-layers.json"
    spans.probe_files.append(span_file)
    layers = probe(["layers", "--seed", str(seed), "--spans", str(span_file)])
    if layers is None:
        failed += 1
    else:
        metrics.update(layers["metrics"])
        failed += layers["failed"]
        attempted += 1
        for f in layers["failures"]:
            print(f"  layer check failed: {f}")

    out = TRACE / f"{tag}.json"
    spans.write(out)
    print(f"workload {name}, seed {seed}: per-layer pass, spans in {out.relative_to(ROOT)}")
    for k, v in metrics.items():
        print(f"  {k:<48} {v['value']:.6g} {v['unit']}")
    share = metrics.get("threads_model.conformance_share_pct", {"value": float("nan")})["value"]
    print(f"  E10 is {metrics['threads_harness.e10_share_pct']['value']:.1f}% of the experiment"
          f" suite; conformance is {share:.1f}% of a sim conform cell")
    finish({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
           trace=True)


# ---- the smoke test --------------------------------------------------------


def smoke(seed):
    """Every workload at the smoke size, two timed batches each, and the
    per-layer pass at its small size.  Exits non-zero if an op fails, a
    counter changes between the two batches, an end-to-end metric of
    BENCHMARK.json is missing or has another unit, or the probe prints a
    per-layer metric BENCHMARK.json does not declare with that unit."""
    problems = []
    for cls in WORKLOADS.values():
        w = cls(Size(smoke=True))
        metrics, _, _, _, _, failed, counters = measure(w, seed, 0, min_batches=2)
        wrong = metrics_differ(metrics, declared_metrics(trace=False))
        problems += [f"{w.name}: {p}" for p, bad in (
            (f"{failed} failed ops", failed),
            ("counters changed between batches", not counters.stable),
            (f"metrics differ from BENCHMARK.json: {wrong}", wrong)) if bad]
    layers = probe(["layers", "--seed", str(seed), "--small"])
    if layers is None:
        problems.append("probe.exe layers --small failed")
    else:
        declared = declared_metrics(trace=True)
        problems += [f"layer check failed: {f}" for f in layers["failures"]]
        problems += [f"per-layer metric {k} ({v['unit']}) is not in BENCHMARK.json"
                     for k, v in layers["metrics"].items() if declared.get(k) != v["unit"]]
    for p in problems:
        print(f"perfbench smoke: {p}")
    sys.exit(1 if problems else 0)


def main():
    global BIN
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        BIN = ROOT
        smoke(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    build()
    (traced if args.trace else untraced)(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
