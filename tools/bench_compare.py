#!/usr/bin/env python3
"""Diffs two BENCH_*.json snapshots row by row.

The bench binaries emit flat JSON documents ({"benchmark", "storage",
"rows": [{"name", <metric>: <number>, ...}, ...]}) precisely so successive
PRs can be compared machine-to-machine. This tool joins two snapshots on
row name and prints, per shared metric, old -> new and the speedup factor
(new/old, or old/new for latency-like metrics named *_ms / *_seconds,
so that > 1.00x always reads as "better").

Malformed input degrades gracefully: rows without a "name" (or that are
not objects) are skipped with a warning, and a metric whose baseline or
candidate value is 0 renders "n/a" with a warning instead of dividing by
zero — a partially-written snapshot must not take the whole CI regression
job down.

Scaling gates are the other mode: each one is a ratio of two rows of the
*same* snapshot, so it holds on any machine and can be tight where the
cross-machine tripwire must stay loose:
  * replay ns/fact at |D| = 300k must be <= 2x the value at |D| = 30k
    (Algorithm 1 makes a constant number of hash passes per step, so its
    cost is linear in |D|; paper Theorem 6.7);
  * incremental count updates/sec at |D| = 300k must be >= 0.5x the rate
    at |D| = 30k (single-fact updates of q-hierarchical queries take
    constant time; Kara, Nikolic, Olteanu and Zhang, arXiv 1907.01988).
A gate whose document or row is missing fails: a renamed row must not
switch a gate off silently.

Usage:
  tools/bench_compare.py OLD.json NEW.json [--metric METRIC] [--threshold X]
  tools/bench_compare.py --scaling-gates BENCH.json [BENCH.json ...]
  tools/bench_compare.py --self-test

Exit status: 0 normally; 2 with --threshold when any compared metric
regressed by more than the given factor (e.g. --threshold 1.10 fails on a
>10% regression) — usable as a CI tripwire; 2 with --scaling-gates when
any gate fails.
"""

import argparse
import json
import sys
import tempfile

# Metrics where *smaller* is better; their ratio column is inverted so
# "speedup > 1" uniformly means improvement.
LATENCY_SUFFIXES = ("_ms", "_millis", "_seconds", "_ns")


def warn(message):
    print(f"bench_compare: warning: {message}", file=sys.stderr)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "rows" not in doc or not isinstance(doc["rows"], list):
        sys.exit(f"error: {path}: not a BENCH_*.json document (no rows)")
    rows = {}
    for i, row in enumerate(doc["rows"]):
        # A truncated or hand-edited snapshot may hold junk rows; losing
        # one row must not lose the whole comparison.
        if not isinstance(row, dict) or not isinstance(row.get("name"), str):
            warn(f"{path}: skipping row {i} without a 'name': {row!r}")
            continue
        rows[row["name"]] = {
            k: v for k, v in row.items()
            if k != "name" and isinstance(v, (int, float))
        }
    return doc, rows


def is_latency(metric):
    return metric.endswith(LATENCY_SUFFIXES)


def speedup(metric, old, new):
    """new/old oriented so > 1 is an improvement; None when undefined."""
    if old == 0 or new == 0:
        return None
    return old / new if is_latency(metric) else new / old


def replay_ns_per_fact(row):
    rate = row.get("replays_per_sec", 0)
    facts = row.get("num_facts", 0)
    return 1e9 / (rate * facts) if rate > 0 and facts > 0 else None


def update_rate(row):
    return row.get("incremental_batches_per_sec")


# (name, benchmark, small row, large row, value of a row, bound). The
# bound is ("max", x): large/small <= x, or ("min", x): large/small >= x.
SCALING_GATES = [
    ("replay ns/fact 300k vs 30k", "algorithm1_ops",
     "paper_query/30000/columnar", "paper_query/300000/columnar",
     replay_ns_per_fact, ("max", 2.0)),
    ("count update rate 300k vs 30k", "incremental",
     "update/count/D=30000/batch=1", "update/count/D=300000/batch=1",
     update_rate, ("min", 0.5)),
]


def check_scaling_gates(docs, gates=SCALING_GATES):
    """Evaluates every gate against `docs` ({benchmark: rows}); returns
    the list of failure messages (empty when all gates pass)."""
    failures = []
    for name, benchmark, small, large, value, (kind, bound) in gates:
        rows = docs.get(benchmark)
        if rows is None:
            failures.append(f"{name}: no '{benchmark}' snapshot given")
            continue
        missing = [r for r in (small, large) if r not in rows]
        if missing:
            failures.append(f"{name}: missing row(s) {', '.join(missing)}")
            continue
        small_value = value(rows[small])
        large_value = value(rows[large])
        if not small_value or large_value is None:
            failures.append(f"{name}: no usable value in {small} / {large}")
            continue
        ratio = large_value / small_value
        ok = ratio <= bound if kind == "max" else ratio >= bound
        relation = "<=" if kind == "max" else ">="
        print(f"  {name}: {large_value:.6g} / {small_value:.6g} = "
              f"{ratio:.3f}x (gate {relation} {bound}x) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{name}: {ratio:.3f}x, gate {relation} "
                            f"{bound}x")
    return failures


def scaling_gates_main(paths):
    docs = {}
    for path in paths:
        doc, rows = load(path)
        docs[doc.get("benchmark", path)] = rows
    failures = check_scaling_gates(docs)
    if failures:
        print(f"\n{len(failures)} scaling gate(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(2)
    print("bench_compare: all scaling gates pass")


def self_test_scaling_gates():
    """Pass, fail and missing-row cases for both gates."""
    def algorithm1(small_rate, large_rate):
        return {"paper_query/30000/columnar":
                {"num_facts": 30000, "replays_per_sec": small_rate},
                "paper_query/300000/columnar":
                {"num_facts": 300000, "replays_per_sec": large_rate}}

    def incremental(small_rate, large_rate):
        return {"update/count/D=30000/batch=1":
                {"incremental_batches_per_sec": small_rate},
                "update/count/D=300000/batch=1":
                {"incremental_batches_per_sec": large_rate}}

    # Pass: ns/fact grows 1.5x over 10x the facts; updates keep 0.65x.
    assert check_scaling_gates({"algorithm1_ops": algorithm1(450, 30),
                                "incremental": incremental(4e5, 2.6e5)}) \
        == []
    # Fail: ns/fact grows 3x; updates fall to 0.09x (an O(|D|) erase).
    failures = check_scaling_gates({"algorithm1_ops": algorithm1(450, 15),
                                    "incremental": incremental(4.8e4, 4.4e3)})
    assert len(failures) == 2, failures
    assert "replay ns/fact" in failures[0], failures
    assert "count update rate" in failures[1], failures
    # Missing row and missing document both fail, never pass silently.
    rows = incremental(4e5, 2.6e5)
    del rows["update/count/D=300000/batch=1"]
    failures = check_scaling_gates({"incremental": rows})
    assert len(failures) == 2, failures
    assert "no 'algorithm1_ops' snapshot" in failures[0], failures
    assert "missing row(s) update/count/D=300000/batch=1" in failures[1], \
        failures


def self_test():
    """In-process checks for the zero/missing-metric hardening. Exercises
    the exact shapes that used to crash: a row without a "name", a row
    that is not an object, and a baseline metric of 0."""
    good = {"name": "q1", "wall_ms": 2.0, "requests_per_sec": 100.0}
    doc = {
        "benchmark": "self-test",
        "rows": [
            good,
            {"wall_ms": 1.0},           # No name: must be skipped.
            "not-a-row",                # Not an object: must be skipped.
            {"name": "zero", "requests_per_sec": 0},
        ],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump(doc, f)
        path = f.name
    _, rows = load(path)
    assert set(rows) == {"q1", "zero"}, rows
    assert rows["q1"]["wall_ms"] == 2.0, rows

    # Zero on either side is "undefined", never a ZeroDivisionError.
    assert speedup("requests_per_sec", 0, 100) is None
    assert speedup("requests_per_sec", 100, 0) is None
    assert speedup("wall_ms", 0, 0) is None
    # Orientation: > 1 is an improvement for both metric kinds.
    assert speedup("wall_ms", 2.0, 1.0) == 2.0        # Faster: smaller ms.
    assert speedup("requests_per_sec", 50.0, 100.0) == 2.0

    # End-to-end: comparing the malformed doc against itself must not
    # crash and must exit 0 even with a tight threshold.
    sys.argv = ["bench_compare.py", path, path, "--threshold", "1.05"]
    main()
    self_test_scaling_gates()
    print("bench_compare: self-test OK")


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json snapshots")
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument("--metric", action="append", default=None,
                        help="only compare this metric (repeatable)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="exit 2 if any metric regresses by more than "
                             "this factor (e.g. 1.10 = 10%%)")
    args = parser.parse_args()

    old_doc, old_rows = load(args.old)
    new_doc, new_rows = load(args.new)
    print(f"benchmark: {old_doc.get('benchmark', '?')}  "
          f"storage: {old_doc.get('storage', '?')} -> "
          f"{new_doc.get('storage', '?')}")

    shared = [name for name in old_rows if name in new_rows]
    only_old = sorted(set(old_rows) - set(new_rows))
    only_new = sorted(set(new_rows) - set(old_rows))
    if not shared:
        sys.exit("error: the snapshots share no row names")

    width = max(len(name) for name in shared)
    regressions = []
    for name in shared:
        metrics = [m for m in old_rows[name]
                   if m in new_rows[name]
                   and (args.metric is None or m in args.metric)]
        for metric in metrics:
            old_value = old_rows[name][metric]
            new_value = new_rows[name][metric]
            factor = speedup(metric, old_value, new_value)
            if factor is None:
                warn(f"{name} {metric}: zero value "
                     f"({old_value} -> {new_value}), skipping ratio")
                rendered = "   n/a"
            else:
                rendered = f"{factor:5.2f}x"
                if args.threshold is not None and factor * args.threshold < 1:
                    regressions.append((name, metric, factor))
            print(f"  {name:<{width}}  {metric:<28} "
                  f"{old_value:>12.6g} -> {new_value:>12.6g}  {rendered}")

    for name in only_old:
        print(f"  {name:<{width}}  (removed)")
    for name in only_new:
        print(f"  {name:<{width}}  (new)")

    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed past "
              f"{args.threshold:.2f}x:", file=sys.stderr)
        for name, metric, factor in regressions:
            print(f"  {name} {metric}: {factor:.2f}x", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    if "--self-test" in sys.argv:
        self_test()
    elif len(sys.argv) > 1 and sys.argv[1] == "--scaling-gates":
        if len(sys.argv) < 3:
            sys.exit("usage: bench_compare.py --scaling-gates BENCH.json ...")
        scaling_gates_main(sys.argv[2:])
    else:
        main()
