#!/usr/bin/env python3
"""Two sets of runs of every workload, checked the way the acceptance is:

for each end-to-end metric of each workload, the spread of a set (the
distance between the first and third quartile of its values, as a share of
their median; `setup_s` exempt) must stay within the metric's bound, and
the second set's median must not be worse than the first's by more than
the bound. Every run takes another seed. Prints one row per metric and
workload, keeps every run's values in perf/out/agree.json, and exits 1 on
a miss.
"""

import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    args = sys.argv[1:]
    runs = int(args[args.index("--runs") + 1]) if "--runs" in args else 10
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    # Round-robin inside a set, so a burst of interference from the
    # host's other tenants hits every workload alike.
    sets = []
    for first_seed in (1, 1 + runs):
        values = {w: [] for w in workloads}
        for seed in range(first_seed, first_seed + runs):
            for w in workloads:
                values[w].append(run(spec["command"], w, seed, seconds))
                print(f"  set {len(sets) + 1} seed {seed} {w}", file=sys.stderr)
        sets.append(values)

    # Every run made, for whoever wants more than the medians.
    with open("perf/out/agree.json", "w") as f:
        json.dump({"runs": runs, "seconds": seconds, "sets": sets}, f, indent=1)

    missed = False
    print(f"{'workload':<16} {'metric':<16} {'median 1':>14} {'median 2':>14} "
          f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in sets[0][w]]
            b = [r[name] for r in sets[1][w]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (ma - mb) / ma if metric["better"] == "higher" else (mb - ma) / ma
            spreads = [spread(a), spread(b)]
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            missed |= not ok
            print(f"{w:<16} {name:<16} {ma:>14.6g} {mb:>14.6g} {worse:>+9.3f} "
                  f"{spreads[0]:>9.3f} {spreads[1]:>9.3f} {bound:>6.2f}"
                  f"{'' if ok else '  MISS'}")
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
