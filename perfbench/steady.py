"""Steadiness check: two sets of runs of the same code, compared.

Run from the repository root:

    python3 perfbench/steady.py [--out FILE]

Each set runs every workload of BENCHMARK.json ``RUNS`` times, each time
with another seed (set A seeds 1..10, set B seeds 101..110), alternating
between the sets. For each workload and end-to-end metric it prints each
set's median and quartiles, the quartile spread as a share of the median,
and whether the two sets agree within the metric's bound from
BENCHMARK.json: the spread of each set and the change of median from A to
B, either way, must both stay within the bound. It also compares the share
of failed operations, which must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = [line[4:] for line in proc.stderr.splitlines() if line.startswith("raw ")]
    if raw:
        result["raw"] = json.loads(raw[-1])
    return result


def stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write every run's result and the comparison as JSON")
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    cmd = list(bench["command"])
    runs = {(s, w): [] for s in "AB" for w in workloads}
    for i in range(RUNS):
        for s, offset in (("A", 1), ("B", 101)) if i % 2 == 0 else (("B", 101), ("A", 1)):
            for w in workloads:
                res = run_once(cmd, w, offset + i, bench["run_seconds"])
                runs[(s, w)].append(res)
                print(f"{s} {w} seed {offset + i}: {json.dumps(res['metrics'])}", file=sys.stderr)

    ok = True
    report = []
    for w in workloads:
        shares = {s: sorted({r["failed"] / r["attempted"] for r in runs[(s, w)]}) for s in "AB"}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        correct = all(r["correct"] for s in "AB" for r in runs[(s, w)])
        ok &= same and correct
        print(f"\n{w}: correct={correct} failed-share A={shares['A']} B={shares['B']} same={same}")
        print(f"  {'metric':12s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            st = {s: stats([r["metrics"][name]["value"] for r in runs[(s, w)]]) for s in "AB"}
            change = (st["B"]["median"] - st["A"]["median"]) / st["A"]["median"]
            agree = abs(change) <= bound and all(st[s]["spread"] <= bound for s in "AB")
            ok &= agree
            for s in "AB":
                x = st[s]
                print(f"  {name:12s} {s:3s} {x['median']:12.6g} {x['q1']:12.6g} {x['q3']:12.6g} {x['spread']:7.2%}")
            print(f"  {name:12s} B vs A {change:+.2%} (bound {bound:.0%}): {'agree' if agree else 'DISAGREE'}")
            report.append({"workload": w, "metric": name, "bound": bound, "A": st["A"], "B": st["B"],
                           "change": change, "agree": agree})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"runs": {f"{s}/{w}": v for (s, w), v in runs.items()}, "comparison": report}, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
