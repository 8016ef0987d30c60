#!/usr/bin/env python3
"""Result sets of benchmark/run.sh and the comparison of two of them.

    sets.py add SET.json RUN_OUTPUT       append one zombie_bench run
    sets.py compare A.json B.json         see compare.sh

A set file holds the host and, per workload, its runs in order:

    {"host": {...},
     "runs": {"mail-dvp": [{"seed": 42, "digest": "...",
                            "result": {...}, "detail": {...}}, ...]}}

"result" is zombie_bench's last output line (correct, attempted, failed,
metrics) and "detail" the line before it (quartiles, n, digest, host).
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def add(set_path, run_output):
    lines = Path(run_output).read_text().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    path = Path(set_path)
    data = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    data["host"] = detail["host"]
    data["runs"].setdefault(detail["workload"], []).append(
        {"seed": detail["seed"], "digest": detail["digest"],
         "result": result, "detail": detail})
    path.write_text(json.dumps(data, indent=1) + "\n")
    frac = result["failed"] / result["attempted"]
    print(f"failed_frac {frac:g} ({result['failed']} of "
          f"{result['attempted']} requests)  -> {path}")


def summary(runs, name):
    """(q1, median, q3, n): a single run's own repeats, else across runs."""
    if len(runs) == 1:
        d = runs[0]["detail"]["metrics"][name]
        return d["q1"], d["median"], d["q3"], d["n"]
    values = [r["result"]["metrics"][name]["value"] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, len(values)


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    ok = True
    print(f"A: {path_a}  host {a.get('host')}")
    print(f"B: {path_b}  host {b.get('host')}")
    for wl in sorted(set(a["runs"]) & set(b["runs"])):
        ra, rb = a["runs"][wl], b["runs"][wl]
        pairs = min(len(ra), len(rb))
        paired = pairs >= 10 and len(ra) == len(rb)
        same_seeds = [x["seed"] for x in ra] == [y["seed"] for y in rb]
        print(f"\n== {wl}: {len(ra)} vs {len(rb)} runs, "
              f"{'pair rule' if paired else 'agreement check'}")
        bad = [r for r in ra + rb if not r["result"]["correct"]]
        if bad:
            ok = False
            print(f"  INCORRECT: {len(bad)} run(s) failed their checks")
        if same_seeds and [x["digest"] for x in ra] != \
                [y["digest"] for y in rb]:
            # Simulated results changed: expected for a model change,
            # a failure when two sets of the same code disagree.
            print("  StatSet digests differ between A and B")
            ok = ok and paired
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            qa, qb = summary(ra, name), summary(rb, name)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = delta if lower else -delta
            va = [r["result"]["metrics"][name]["value"] for r in ra]
            vb = [r["result"]["metrics"][name]["value"] for r in rb]
            if name.startswith("sim_") and same_seeds:
                verdict = "equal" if va == vb else "SIM DIFFERS"
                ok = ok and (va == vb or paired)
            elif paired:
                wins = sum((y < x) if lower else (y > x)
                           for x, y in zip(va, vb))
                spread_a = qa[2] - qa[0]
                if worse < 0 and wins >= 0.9 * pairs and \
                        abs(qb[1] - qa[1]) > spread_a:
                    verdict = f"GAIN ({wins}/{pairs} wins)"
                elif worse > bound:
                    verdict = "REGRESSION"
                    ok = False
                elif spread_a / qa[1] > bound and not (
                        min(vb) > max(va) if not lower
                        else max(vb) < min(va)):
                    verdict = "unresolved (spread > bound)"
                else:
                    verdict = f"within bound ({wins}/{pairs} wins)"
            else:
                verdict = "agree" if abs(delta) <= bound else "DISAGREE"
                ok = ok and abs(delta) <= bound
            print(f"  {name:24s} {m['unit']:6s} "
                  f"A {qa[1]:<12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={qa[3]:<3d}"
                  f" B {qb[1]:<12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={qb[3]:<3d}"
                  f" {delta:+7.2%} (bound {bound:.0%})  {verdict}")
        for name in ra[0]["detail"]["simulated"]:
            va = [r["detail"]["simulated"][name]["median"] for r in ra]
            vb = [r["detail"]["simulated"][name]["median"] for r in rb]
            same = "equal" if va == vb else "differs"
            print(f"  {name:24s} (unbounded) A median "
                  f"{statistics.median(va):<12.6g} B median "
                  f"{statistics.median(vb):<12.6g} "
                  f"{same if same_seeds else ''}")
    print("\nOK" if ok else "\nFAIL")
    return 0 if ok else 1


def main(argv):
    if len(argv) == 4 and argv[1] == "add":
        add(argv[2], argv[3])
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
