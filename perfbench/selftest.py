#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout (about a minute).  For every workload in
BENCHMARK.json, with --trace 0 and --trace 1, it runs perfbench/run.py at
--size tiny with the default seed and asserts that

  * the last stdout line is a JSON object with exactly the keys correct,
    attempted, failed and metrics, with correct true and failed 0;
  * the metrics are exactly the end_to_end (trace 0) or per_layer
    (trace 1) metrics of BENCHMARK.json, each with its unit;
  * trace 0 prints failed_cell_share 0;
  * trace 1 writes spans whose self times add up, for every cell, to the
    duration of the cell's root span.

It then checks that a corrupted committed digest makes the run fail, and
that the benchmark exits non-zero, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out", "selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(args, cwd=ROOT, timeout=600):
    cmd = ["python3", os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(result, declared, label):
    assert set(result) == RESULT_KEYS, (label, sorted(result))
    assert result["correct"] is True and result["failed"] == 0, (label, result["failed"])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), (label, sorted(set(got) ^ set(want)))
    for name, unit in want.items():
        value = got[name]
        assert value["unit"] == unit, (label, name, value["unit"], unit)
        assert isinstance(value["value"], (int, float)), (label, name)


def check_spans(path):
    """Every cell's spans: self times over the root's subtree sum to the
    root's duration."""
    spans = {}
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "span":
                sid, parent, cell, _name, start, end, self_ns = map(int, parts[1:])
                spans[sid] = (parent, cell, start, end, self_ns)
    assert spans, path
    roots = {sid for sid, s in spans.items() if s[0] == -1 and s[1] >= 0}
    assert roots, "no cell spans in %s" % path
    total = {r: 0 for r in roots}
    for sid, (parent, _cell, start, end, self_ns) in spans.items():
        assert end >= start, (path, sid)
        root = sid
        while spans[root][0] != -1:
            root = spans[root][0]
            assert spans[root][1] == spans[sid][1], (path, "cell id differs from its root", sid)
        if root in total:
            total[root] += self_ns
    for r, s in total.items():
        assert s == spans[r][3] - spans[r][2], (path, "cell", spans[r][1], s)
    return len(roots)


def main():
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    common = ["--seed", "1", "--seconds", "1", "--size", "tiny", "--out-dir", OUT]
    for w in [x["name"] for x in contract["workloads"]]:
        for trace in (0, 1):
            label = "%s trace=%d" % (w, trace)
            p = bench(["--workload", w, "--trace", str(trace)] + common)
            assert p.returncode == 0, (label, p.returncode, p.stderr[-2000:])
            result = last_json(p.stdout)
            check_metrics(result, contract["per_layer" if trace else "end_to_end"], label)
            if trace == 0:
                share = [l.split() for l in p.stdout.splitlines() if "failed_cell_share" in l]
                assert share and float(share[0][2]) == 0.0, (label, share)
            else:
                cells = check_spans(os.path.join(OUT, "%s.spans.tsv" % w))
                print("ok %s (%d traced cells add up)" % (label, cells))
                continue
            print("ok %s" % label)

    # a digest that does not match must fail the cell and the run
    with open(os.path.join(HERE, "digests.txt")) as f:
        lines = f.read().splitlines()
    bad = [l if i else " ".join(l.split()[:3] + ["0" * 32]) for i, l in enumerate(lines)]
    bad_path = os.path.join(OUT, "bad_digests.txt")
    with open(bad_path, "w") as f:
        f.write("\n".join(bad) + "\n")
    w = lines[0].split()[1]
    p = bench(["--workload", w, "--trace", "0", "--digests", bad_path] + common)
    result = last_json(p.stdout)
    assert p.returncode != 0 and result["correct"] is False and result["failed"] >= 1, (
        p.returncode, result)
    print("ok corrupted digest fails %s" % w)

    # without the simulator's sources the benchmark must fail, printing nothing
    bare = tempfile.mkdtemp(dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_out"))
        p = bench(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=bare, timeout=180)
        assert p.returncode != 0 and not p.stdout.strip(), (p.returncode, p.stdout[-500:])
    finally:
        shutil.rmtree(bare)
    print("ok bare directory exits %d without a result" % p.returncode)
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("selftest FAILED: %r" % (e.args,), file=sys.stderr)
        sys.exit(1)
