"""Benchmark of `macdaha`: one closed-loop client per workload.

    python3 bench/run.py --workload routes --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One process runs one workload: a single thread sends
one instance at a time and waits for its answer, with every functools cache
of the package cleared (and `gc.collect()` run) before each instance,
outside the timed span.  The fixed, seeded instance set is run in whole
rounds until `--seconds` have passed.  Every instance's output is checked,
by the identity the paper's method must satisfy and, where one exists, by
an oracle independent of the package.

With `--trace 0` the last line of stdout is the JSON result with the
end-to-end metrics.  Their times are scaled to a reference machine speed
measured by a fixed probe kernel around each instance (see `speed_probe`);
the detail file also holds the plain wall-clock figures.  With `--trace 1`
one round runs untraced and one traced, with a span around every public
callable of each layer, and the result holds the per-layer metrics, both
wall times, and whether the two rounds' outputs agree.  Result and span
files go to `bench/results/`.
`python3 bench/selftest.py` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

LAYERS = ("qfield", "npoly", "sympoly", "combinat", "macops", "daha",
          "indexops", "intertwiner")
SETUP_STARTS = 9          # fresh interpreter starts per run for setup_s
P90_MIN_INSTANCES = 100   # p90 needs at least ten instances beyond it
REF_S = 1e-3              # reported times are at the speed where the probe takes this

# Per-layer metric -> (span name or layer, field).  Spans are named
# "layer.function" or "layer.Class.method".
_SPAN_METRICS = {
    "intertwiner.mat_elt.self_s": ("intertwiner.mat_elt", "self"),
    "intertwiner.c_squared_chain.self_s": ("intertwiner.c_squared_chain", "self"),
    "intertwiner.diag_coeff_sum.self_s": ("intertwiner.diag_coeff_sum", "self"),
    "intertwiner.diag_coeff_sum.calls": ("intertwiner.diag_coeff_sum", "calls"),
    "npoly.divexact_binomial.calls": ("npoly.NPoly.divexact_binomial", "calls"),
    "macops.mac_apply.self_s": ("macops.mac_apply", "self"),
    "macops.mac_apply.calls": ("macops.mac_apply", "calls"),
    "daha.res_map.calls": ("daha.res_map", "calls"),
    "indexops.index_apply.calls": ("indexops.index_apply", "calls"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, no caches, bad input)."""


def load_package():
    """Import `macdaha` from the checkout's `src/`, with every module,
    including `suites` and `cli`, so that set-up covers all of them."""
    if not (SRC / "macdaha" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import macdaha

    if Path(macdaha.__file__).resolve().parent != (SRC / "macdaha").resolve():
        raise BenchError(f"macdaha imported from {macdaha.__file__}, not {SRC}")
    for m in pkgutil.iter_modules(macdaha.__path__):
        importlib.import_module(f"macdaha.{m.name}")
    return macdaha


def find_caches(package):
    """Every functools cache bound in any module of the package, once each."""
    found = {}
    prefix = package.__name__ + "."
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package.__name__ or name.startswith(prefix)):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                    getattr(obj, "cache_info", None)):
                found[id(obj)] = obj
    caches = sorted(found.values(), key=_cache_name)
    if not caches:
        raise BenchError("found no functools cache under macdaha; timings "
                         "would be warm, refusing to run")
    return caches


def _cache_name(c):
    fn = getattr(c, "__wrapped__", c)
    return f"{fn.__module__}.{fn.__qualname__}"


def prepare(workload, seed, tiny):
    """Everything before the first instance: imports, caches, inputs."""
    package = load_package()
    caches = find_caches(package)
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    return package, caches, workloads.build(workload, seed, tiny)


# The machine's speed drifts by up to 1.8x in spells of seconds to minutes,
# with CPU time equal to wall time, so a plain wall time mostly measures the
# spell.  A fixed kernel of the package's own kind of work (a sparse product
# over dicts with tuple keys and int coefficients) slows down with it.  It is
# timed before each instance and after the last one, outside the timed span,
# and each time is scaled by REF_S over the mean of the probes on either side.
_PROBE_A = {(i, j): i - 2 * j + 1 for i in range(10) for j in range(7)}
_PROBE_B = {(j, i): 3 * i - j - 1 for i in range(10) for j in range(7)}


def speed_probe():
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    out = {}
    for (a1, b1), c1 in _PROBE_A.items():
        for (a2, b2), c2 in _PROBE_B.items():
            k = (a1 + a2, b1 + b2)
            c = out.get(k, 0) + c1 * c2
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return time.perf_counter() - t0


def _scaled(times, probes):
    """Each time at reference speed: `probes[i]` and `probes[i + 1]` were
    taken just before and just after `times[i]`."""
    return [t * 2 * REF_S / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]


class Round:
    """Timings and outcome of one pass over the instance set."""

    def __init__(self):
        self.wall_times = []
        self.probes = []
        self.times = []          # wall_times at reference speed
        self.failed = 0
        self.digest = hashlib.sha256()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_entries_max = 0
        self.wall = 0.0
        self.failures = []


def run_round(instances, caches, tracer=None, between=None):
    import workloads

    rnd = Round()
    t_round = time.perf_counter()
    for inst in instances:
        if between:
            between()
        for c in caches:
            c.cache_clear()
        gc.collect()
        rnd.probes.append(speed_probe())
        root = tracer.root() if tracer else None
        t0 = time.perf_counter()
        try:
            ok, text, extra = workloads.run(inst)
        except Exception as exc:   # a crash of one instance is one failure
            ok, text, extra = False, f"{type(exc).__name__}: {exc}", None
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close_root(root)
        infos = [c.cache_info() for c in caches]
        rnd.cache_hits += sum(i.hits for i in infos)
        rnd.cache_misses += sum(i.misses for i in infos)
        rnd.cache_entries_max = max(rnd.cache_entries_max, sum(i.currsize for i in infos))
        if ok and extra is not None:
            try:
                ok = workloads.oracle(inst, extra)
            except Exception as exc:
                ok, text = False, f"{text}|oracle {type(exc).__name__}: {exc}"
        rnd.wall_times.append(dt)
        if not ok:
            rnd.failed += 1
            rnd.failures.append({"instance": repr(inst), "output": text[:500]})
        rnd.digest.update(repr(inst).encode())
        rnd.digest.update(text.encode())
    rnd.wall = time.perf_counter() - t_round
    rnd.probes.append(speed_probe())
    rnd.times = _scaled(rnd.wall_times, rnd.probes)
    return rnd


class SetupSampler:
    """Fresh interpreter starts, each timed from launch until it is ready
    to run its first instance (imports and input generation).

    The starts are spread over the run, one every `interval` seconds
    between instances, so that their median spans the machine's slow and
    fast spells instead of sampling one of them.  Each is timed between two
    speed probes and scaled to reference speed like an instance."""

    def __init__(self, workload, seed, tiny, interval):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                    "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        self.interval = interval
        self.wall_times = []
        self.times = []
        self.next_at = time.perf_counter()

    def start(self):
        p0 = speed_probe()
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise BenchError(f"set-up child failed (exit {rc})")
        self.wall_times.append(t1 - t0)
        self.times += _scaled([t1 - t0], [p0, speed_probe()])
        self.next_at = time.perf_counter() + self.interval

    def maybe(self):
        if len(self.times) < SETUP_STARTS and time.perf_counter() >= self.next_at:
            self.start()

    def median(self):
        while len(self.times) < SETUP_STARTS:
            self.start()
        return statistics.median(self.times)


def _percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(times, setup_s):
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ips": (len(times) / sum(times), "1/s"),
        "instance_ms.p50": (1e3 * statistics.median(times), "ms"),
    }
    if len(times) >= P90_MIN_INSTANCES:
        metrics["instance_ms.p90"] = (1e3 * _percentile(times, 90), "ms")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer, traced, untraced):
    """Per-layer metrics of the traced round.  Self times are scaled to
    reference speed by the round's median probe; the two wall times are
    plain, so that their ratio is the tracing overhead."""
    by_name, by_layer, nspans = tracer.summary()
    scale = REF_S / statistics.median(traced.probes)
    metrics = {}
    for layer in LAYERS:
        calls, self_s = by_layer.get(layer, (0, 0.0))
        metrics[f"{layer}.self_s"] = (self_s * scale, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
    for metric, (span, field) in _SPAN_METRICS.items():
        calls, _total, self_s = by_name.get(span, (0, 0.0, 0.0))
        metrics[metric] = (self_s * scale, "s") if field == "self" else (calls, "count")
    metrics["cache.hits"] = (traced.cache_hits, "count")
    metrics["cache.misses"] = (traced.cache_misses, "count")
    metrics["cache.entries_max"] = (traced.cache_entries_max, "count")
    metrics["trace.spans"] = (nspans, "count")
    metrics["trace.untraced_wall_s"] = (untraced.wall, "s")
    metrics["trace.traced_wall_s"] = (traced.wall, "s")
    return metrics, by_name


def _result(correct, rounds, metrics):
    return {
        "correct": bool(correct),
        "attempted": sum(len(r.times) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few instances per workload, for the self-test")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        if args.setup_child:
            prepare(args.workload, args.seed, args.tiny)
            print("ready", flush=True)
            return 0
        package, caches, instances = prepare(args.workload, args.seed, args.tiny)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"instances={len(instances)} caches={len(caches)}", flush=True)

    tracer = None
    if args.trace:
        from tracing import Tracer

        untraced = run_round(instances, caches)
        tracer = Tracer(LAYERS)
        tracer.install(package, extra_modules=[sys.modules["workloads"]])
        try:
            traced = run_round(instances, caches, tracer)
        finally:
            tracer.uninstall()
        rounds = [traced]
        same = traced.digest.hexdigest() == untraced.digest.hexdigest()
        correct = same and traced.failed == untraced.failed
        metrics, by_name = per_layer(tracer, traced, untraced)
    else:
        setup = SetupSampler(args.workload, args.seed, args.tiny,
                             args.seconds / SETUP_STARTS)
        rounds = []
        t_end = time.perf_counter() + args.seconds
        try:
            while not rounds or time.perf_counter() < t_end:
                rounds.append(run_round(instances, caches, between=setup.maybe))
            setup_s = setup.median()
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        correct = len({r.digest.hexdigest() for r in rounds}) == 1
        metrics = end_to_end([t for r in rounds for t in r.times], setup_s)

    result = _result(correct, rounds, metrics)
    digest = rounds[0].digest.hexdigest()
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, instances=len(instances),
                  rounds=len(rounds), digest=digest,
                  caches=[_cache_name(c) for c in caches],
                  failures=[f for r in rounds for f in r.failures][:20])
    if tracer:
        detail["untraced_digest"] = untraced.digest.hexdigest()
        detail["spans"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(by_name.items())}
        tracer.write(f"{stem}.spans.gz")
    else:
        wall = end_to_end([t for r in rounds for t in r.wall_times],
                          statistics.median(setup.wall_times))
        detail["wall_metrics"] = {k: v for k, (v, _u) in wall.items()}
        detail["setup_starts_s"] = setup.times
        detail["setup_starts_wall_s"] = setup.wall_times
        detail["round_wall_s"] = [r.wall for r in rounds]
        for key, attr in (("instance_ms", "times"), ("instance_wall_ms", "wall_times"),
                          ("probe_ms", "probes")):
            detail[key] = [[round(1e3 * t, 4) for t in getattr(r, attr)] for r in rounds]
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    print(f"bench: rounds={len(rounds)} digest={digest[:16]} "
          f"detail={os.path.relpath(stem.with_suffix('.json'), ROOT)}", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
