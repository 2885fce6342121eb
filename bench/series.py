"""Run the benchmark over many seeds, and read the result sets back.

    python3 bench/series.py run --out bench/results/set.json [--workloads a,b] \\
        [--seeds 1-10] [--seconds S] [--trace 0] [--checkout DIR ...]
    python3 bench/series.py spread results.json
    python3 bench/series.py compare parent.json change.json

``run`` calls ``run.py`` once per workload and seed (by default the
workloads and run length of BENCHMARK.json) and stores every result with
its report. Given two or more ``--checkout`` directories
(for example the parent commit and the change), it runs each seed in
every checkout, alternating which goes first, and writes one result set
per checkout: ``results.json`` becomes ``results.0.json``,
``results.1.json``, ...

``spread`` prints, per workload and metric, the quartiles over the runs
and the interquartile distance as a share of the median, next to the
bound in BENCHMARK.json.

``compare`` pairs the runs of two result sets by workload and seed and
prints each side's median and quartiles, the ratio of medians, and the
verdict: "better" or "worse" when one side wins at least 9 of every 10
pairs and the medians differ by more than the parent's interquartile
distance, otherwise "unresolved". It is advisory: nothing here fails on
a timing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

from stats import quartiles, spread, verdict  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seeds_arg(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "report": json.loads(lines[-2])["report"]}


def cmd_run(args) -> int:
    checkouts = args.checkout or [os.path.dirname(BENCH)]
    sets: list[list[dict]] = [[] for _ in checkouts]
    for i, seed in enumerate(seeds_arg(args.seeds)):
        for workload in args.workloads.split(","):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for k in order:
                run = run_one(checkouts[k], workload, seed, args.seconds, args.trace)
                sets[k].append(run)
                metrics = {m: round(v["value"], 4) for m, v in run["result"]["metrics"].items()}
                print(f"[{k}] {workload} seed={seed} correct={run['result']['correct']} "
                      f"failed={run['result']['failed']}/{run['result']['attempted']} {metrics}", flush=True)
    for k, runs in enumerate(sets):
        path = args.out if len(sets) == 1 else f"{os.path.splitext(args.out)[0]}.{k}.json"
        with open(path, "w") as fh:
            json.dump({"checkout": checkouts[k], "runs": runs}, fh)
        print(f"wrote {path}")
    return 0


def by_workload(path: str) -> dict[str, list[dict]]:
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    for runs in out.values():
        runs.sort(key=lambda r: r["seed"])
    return out


def cmd_spread(args) -> int:
    bounds = {m["name"]: m.get("bound") for m in load_benchmark(os.path.dirname(BENCH))["end_to_end"]}
    for workload, runs in by_workload(args.results).items():
        print(f"{workload}: {len(runs)} runs, correct in {sum(r['result']['correct'] for r in runs)}")
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            share = spread(values)
            bound = bounds.get(metric)
            mark = "" if bound is None else ("  OVER BOUND" if share > bound else "  over bound/3" if share > bound / 3 else "")
            print(f"  {metric:28s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {share:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{mark}")
    return 0


def cmd_compare(args) -> int:
    better = {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
              for m in load_benchmark(os.path.dirname(BENCH))[key]}
    parent, change = by_workload(args.parent), by_workload(args.change)
    for workload in sorted(set(parent) & set(change)):
        # pair runs of the same seed; sets made with other seeds pair in order
        p_by, c_by = {r["seed"]: r for r in parent[workload]}, {r["seed"]: r for r in change[workload]}
        seeds = sorted(set(p_by) & set(c_by))
        pairs = [(p_by[s], c_by[s]) for s in seeds] or list(zip(parent[workload], change[workload]))
        print(f"{workload}: {len(pairs)} pairs{'' if seeds else ' (by order, no common seeds)'}")
        for metric in pairs[0][0]["result"]["metrics"]:
            p = [a["result"]["metrics"][metric]["value"] for a, _ in pairs]
            c = [b["result"]["metrics"][metric]["value"] for _, b in pairs]
            word, ratio, won, lost = verdict(p, c, better.get(metric, "lower"))
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {metric:40s} parent {pq[1]:11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"  change {cq[1]:11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
                  f"  ratio {ratio:7.4f}  won {won}/{len(pairs)} lost {lost}  {word}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", help="comma-separated; default: those in BENCHMARK.json")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", action="append")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("spread")
    p.add_argument("results")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    if args.command == "run":
        benchmark = load_benchmark(os.path.dirname(BENCH))
        args.seconds = args.seconds or benchmark["run_seconds"]
        args.workloads = args.workloads or ",".join(w["name"] for w in benchmark["workloads"])
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
