"""Self-test of the benchmark on a few instances per workload.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced and untraced runs produce equal outputs, and that an
instance whose check fails (or which raises) is counted as a failed
operation without ending the run.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "3", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split("digest=")[1].split()[0] for l in lines if "digest=" in l)
    return json.loads(lines[-1]), digest


def check_metrics(spec, result, kind, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(got)} != {sorted(want)}"
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{label}: {k}"
        if kind == "end_to_end":
            assert v["value"] > 0, f"{label}: {k} reads {v['value']}"


def check_failures_counted():
    sys.path.insert(0, str(BENCH))
    import run

    _, caches, insts = run.prepare("routes", 7, tiny=True)
    import workloads

    bad = workloads.off_window_instances()
    rnd = run.run_round(insts + bad, caches)
    assert rnd.failed == len(bad), f"failed={rnd.failed}, expected {len(bad)}"
    assert len(rnd.times) == len(insts) + len(bad)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (x["name"] for x in spec["workloads"]):
        plain, d0 = _run(w, 0)
        check_metrics(spec, plain, "end_to_end", f"{w} trace=0")
        traced, d1 = _run(w, 1)
        check_metrics(spec, traced, "per_layer", f"{w} trace=1")
        assert d0 == d1, f"{w}: traced outputs differ from untraced ({d0} != {d1})"
        print(f"selftest: {w}: metrics and units ok, traced == untraced ({d0})")
    check_failures_counted()
    print("selftest: failing instances are counted, the run goes on")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
