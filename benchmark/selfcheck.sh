#!/usr/bin/env bash
# Runs the untraced suite twice on the same tree and compares the two.
#
#   benchmark/selfcheck.sh [--workload W] [--seed N] [--seconds S]
#
# Every end-to-end metric must agree within its own bound from
# BENCHMARK.json; the virtual-clock metrics, virt_digest and the op counts
# must agree exactly. A host metric whose rep-to-rep spread inside a run is
# wider than its bound is reported as UNRESOLVED, not as agreeing: two
# medians that happen to land close prove nothing then. Exit 0 only when
# everything agrees and nothing is unresolved.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out

for pass in 1 2; do
    echo "selfcheck: pass $pass" >&2
    benchmark/run.sh --trace 0 "$@" > "benchmark/out/selfcheck.pass$pass.log"
    for f in benchmark/out/*.result.json; do
        cp "$f" "${f%.result.json}.pass$pass.json"
    done
done

python3 - <<'PY'
import glob, json, sys

bounds = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = unresolved = 0
for first in sorted(glob.glob("benchmark/out/*.pass1.json")):
    a = json.load(open(first))
    b = json.load(open(first.replace(".pass1.", ".pass2.")))
    print(a["workload"])
    for key in ("virt_digest", "virt_samples"):
        same = a[key] == b[key]
        bad += not same
        print(f"  {key:18s} {'agrees exactly' if same else 'DISAGREES'}: {a[key]} / {b[key]}")
    for key in ("correct", "attempted", "failed"):
        same = a["result"][key] == b["result"][key] and a["result"]["correct"] is True
        bad += not same
        print(f"  {key:18s} {'agrees exactly' if same else 'DISAGREES'}: "
              f"{a['result'][key]} / {b['result'][key]}")
    for name, spec in bounds.items():
        x = a["result"]["metrics"][name]["value"]
        y = b["result"]["metrics"][name]["value"]
        if name.startswith("virt_"):
            same = x == y
            bad += not same
            print(f"  {name:18s} {'agrees exactly' if same else 'DISAGREES'}: {x} / {y}")
            continue
        apart = abs(x - y) / min(x, y)
        verdict = "agrees" if apart <= spec["bound"] else "DISAGREES"
        # Rep-to-rep spread inside each run, where the run recorded it.
        spreads = [(r[f"{name}_reps"]["q3"] - r[f"{name}_reps"]["q1"]) / r[f"{name}_reps"]["median"]
                   for r in (a, b) if f"{name}_reps" in r]
        if verdict == "agrees" and name != "setup_s" and any(s > spec["bound"] for s in spreads):
            verdict = "UNRESOLVED (rep spread wider than the bound)"
            unresolved += 1
        bad += verdict == "DISAGREES"
        spread = ", rep spread " + "/".join(f"{s:.1%}" for s in spreads) if spreads else ""
        print(f"  {name:18s} {verdict}: {x:.6g} / {y:.6g} {spec['unit']}, "
              f"{apart:.1%} apart, bound {spec['bound']:.0%}{spread}")
print(f"selfcheck: {bad} disagreement(s), {unresolved} unresolved")
sys.exit(1 if bad or unresolved else 0)
PY
