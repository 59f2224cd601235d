#!/usr/bin/env python3
"""Run every workload, timed and traced, each in a fresh interpreter, and
print every metric by name with its unit, plus the failure ledger.

    python3 perfbench/report.py            # full size, a few minutes
    python3 perfbench/report.py --tiny     # self-check of the benchmark, under a minute

It also checks the benchmark itself: each run emits exactly the metrics
``BENCHMARK.json`` names, with their units; the timed run holds no tracing
wrapper; the traced run puts back every name it wrapped.  Any miss makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, tiny: bool) -> tuple[dict, dict]:
    seconds = 0 if tiny else SPEC["run_seconds"]
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def problems(report: dict, result: dict, trace: int) -> list[str]:
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    out = [f"missing {n}" for n in expected if n not in got]
    out += [f"unlisted {n}" for n in got if n not in expected]
    out += [f"{n} in {got[n]}, listed in {u}" for n, u in expected.items() if n in got and got[n] != u]
    if not result["correct"]:
        out.append("an answer was rejected")
    if report["wrappers_in_timed_pass"]:
        out.append(f"wrappers in the timed pass: {report['wrappers_in_timed_pass']}")
    if trace and report["wrappers_after_uninstall"]:
        out.append(f"wrappers left after the traced run: {report['wrappers_after_uninstall']}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    bad = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            report, result = run(w["name"], trace, args.tiny)
            print(f"\n== {w['name']} ({'traced' if trace else 'timed'}): "
                  f"{result['attempted']} attempted, {result['failed']} failed")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
            if not trace:
                extra = [("failed_frac", report["failed_frac"], "ratio"),
                         ("instance_s_p50", report["instance_s_p50"], "s")]
                if "instance_s_p90" in report:
                    extra.append(("instance_s_p90", report["instance_s_p90"], "s"))
                for name, value, unit in extra:
                    shown = "unbounded" if value is None else f"{value:.6g}"
                    print(f"  {name:40s} {shown:>16s} {unit}  (report line)")
                for f in report["failures"]:
                    kind = "refusal" if f["typed_refusal"] else "INTERNAL"
                    print(f"  {kind:8s} q={f['q']} seed={f['seed']} {f['error']}: {f['message']}")
            bad += [f"{w['name']} trace={trace}: {p}" for p in problems(report, result, trace)]
    print()
    print("\n".join(bad) if bad else "self-check passed: every metric listed, with its unit; no wrapper leaked")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
