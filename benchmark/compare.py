#!/usr/bin/env python3
"""Read tivbench results and judge them against BENCHMARK.json (stdlib only).

  compare.py DIR            spread of each (workload, end-to-end metric) over
                            the runs in DIR: median, quartiles, and the
                            quartile distance as a share of the median.
                            Exit 1 when a spread exceeds the metric's bound.
  compare.py BASE NEW       the two directories' medians, per workload, under
                            each metric's direction and bound. A metric whose
                            spread in either directory exceeds its bound is
                            "unresolved" unless every NEW run beats (or loses
                            to) every BASE run. Exit 1 on any regression.
  compare.py --check FILE.. validate result files: the last line is the result
                            object, its metrics are exactly BENCHMARK.json's
                            end-to-end (or per-layer) set with their units,
                            and the run is correct. Exit 1 otherwise.

A run directory holds one file per run, named <workload>-s<seed>.json, as
written by `run.sh --sets`.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCH["end_to_end"]}
LAYERS = {m["name"]: m for m in BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def result_line(path):
    lines = [l for l in pathlib.Path(path).read_text().splitlines() if l.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    return json.loads(lines[-1])


def read_dir(directory):
    """{workload: {metric: [values]}} over the correct runs in directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        workload = path.stem.rsplit("-s", 1)[0]
        res = result_line(path)
        if not res.get("correct"):
            sys.exit(f"{path}: run is not correct")
        for name, m in res["metrics"].items():
            runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    missing = [w for w in WORKLOADS if w not in runs]
    if missing:
        sys.exit(f"{directory}: no runs of {', '.join(missing)}")
    return runs


def summary(values):
    """(median, q1, q3, spread) with quartiles as statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base, new, better):
    """Share by which new is worse than base (negative: better)."""
    return (new - base) / base if better == "lower" else (base - new) / base


def spread_table(directory):
    runs = read_dir(directory)
    wide = 0
    for w in WORKLOADS:
        print(f"{w}")
        print(f"  {'metric':<14} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}")
        for name, spec in E2E.items():
            values = runs[w].get(name, [])
            if not values:
                sys.exit(f"{directory}: {w} has no {name}")
            med, q1, q3, spread = summary(values)
            flag = ""
            if spread > spec["bound"]:
                flag, wide = "  WIDE", wide + 1
            print(f"  {name:<14} {len(values):>4} {med:>12.5g} {q1:>12.5g}"
                  f" {q3:>12.5g} {spread:>7.2%} {spec['bound']:>6.0%}{flag}")
    return 1 if wide else 0


def compare(base_dir, new_dir):
    base, new = read_dir(base_dir), read_dir(new_dir)
    regressions = 0
    for w in WORKLOADS:
        rows, verdicts = [], []
        for name, spec in E2E.items():
            b, n = base[w][name], new[w][name]
            bmed, _, _, bspread = summary(b)
            nmed, _, _, nspread = summary(n)
            change = worse_by(bmed, nmed, spec["better"])
            bound = spec["bound"]
            all_better = all(worse_by(x, y, spec["better"]) < 0 for x in b for y in n)
            all_worse = all(worse_by(x, y, spec["better"]) > 0 for x in b for y in n)
            if max(bspread, nspread) > bound and not (all_better or all_worse):
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "ok"
            verdicts.append(verdict)
            rows.append(f"  {name:<14} {bmed:>12.5g} {nmed:>12.5g} {-change:>+8.2%}"
                        f" {max(bspread, nspread):>7.2%} {bound:>6.0%}  {verdict}")
        regressions += verdicts.count("REGRESSION")
        counts = {v: verdicts.count(v) for v in dict.fromkeys(verdicts)}
        print(f"{w}: " + ", ".join(f"{c} {v}" for v, c in counts.items()))
        print(f"  {'metric':<14} {'base':>12} {'new':>12} {'gain':>8} {'spread':>7}"
              f" {'bound':>6}")
        print("\n".join(rows))
    return 1 if regressions else 0


def check(paths):
    bad = 0
    for path in paths:
        try:
            res = result_line(path)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                raise ValueError(f"result keys {sorted(res)}")
            names = set(res["metrics"])
            spec = E2E if names == set(E2E) else LAYERS
            if names != set(spec):
                raise ValueError("metrics match neither the end-to-end nor "
                                 "the per-layer set")
            for name, m in res["metrics"].items():
                if m["unit"] != spec[name]["unit"]:
                    raise ValueError(f"{name} unit {m['unit']}")
                if not isinstance(m["value"], (int, float)):
                    raise ValueError(f"{name} value {m['value']}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                raise ValueError("run not correct")
            print(f"ok  {path}")
        except (ValueError, KeyError, TypeError) as e:
            bad += 1
            print(f"BAD {path}: {e}")
    return 1 if bad else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "--check":
        return check(argv[1:])
    if len(argv) == 1:
        return spread_table(argv[0])
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
