#!/usr/bin/env python3
"""The grid3-sim benchmark: one command for every named workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke          # seconds-long self-test of every workload
    python3 perfbench/run.py --record 1-10    # rewrite expected_hashes.json for seeds 1..10

It builds the benchmark crate in this directory twice with cargo (the plain
build, and the traced build with the counting allocator), runs the workload
in a fresh process of the matching build, gates every report hash against
expected_hashes.json, prints a table and a host/build fingerprint, and prints
as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end-to-end
metrics; with --trace 1 its per-layer metrics. The exit code is non-zero on
any failed operation. See NOTES.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["scale_out", "sc2003_sweep", "federated_durable"]
# A benchmark process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(traced):
    """Build one flavour into its own target directory; returns the binary."""
    flavour = "traced" if traced else "plain"
    tdir = target_dir() / flavour
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(tdir)]
    if traced:
        cmd += ["--features", "traced"]
    # Cargo's output goes to stderr so the result stays the last stdout line.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"cargo build ({flavour}) failed")
    return tdir / "release" / "grid3-perfbench"


def measure(binary, workload, seed, seconds, smoke, out_dir):
    """Run one workload in a fresh process; returns its JSON record."""
    tag = f"{workload}-{seed}-{binary.parent.parent.name}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--root", str(ROOT),
           "--scratch", str(out_dir / f"scratch-{tag}-{os.getpid()}"),
           "--spans", str(out_dir / f"spans-{tag}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: benchmark process exited with {proc.returncode}")
    return json.loads(lines[-1])


def gate(record, expected):
    """Count each run whose report hash differs from the recorded one.

    Runs of a seed with no recorded hash are gated by the benchmark process
    itself, which repeats every run at least twice and requires agreement.
    """
    failed = record["failed"]
    problems = list(record["errors"])
    want = expected.get(record["workload"], {}).get(str(record["seed"]))
    if want is not None:
        for run_id, got in record["runs"]:
            if want.get(run_id) != got:
                failed += 1
                problems.append(f"{run_id}: report {got}, recorded {want.get(run_id)}")
    return failed, problems


def fingerprint(threads):
    def cmd_out(*cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, cwd=ROOT).stdout.strip()
        except OSError:
            return ""

    fp = {"profile": "release", "rustc": cmd_out("rustc", "-V"),
          "cpu": "unknown", "nproc": len(os.sched_getaffinity(0)),
          "bench_threads": threads, "machine": platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                fp["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        fp["git_rev"] = cmd_out("git", "rev-parse", "HEAD")
        fp["git_dirty"] = bool(cmd_out("git", "status", "--porcelain"))
    else:
        fp["git_rev"] = None
        fp["git_dirty"] = None
    # A checkout without git history is identified by its sources.
    digest = hashlib.sha256()
    sources = sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(ROOT.glob("perfbench/src/*.rs"))
    for path in sources + [ROOT / "Cargo.toml", HERE / "Cargo.toml"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    fp["source_sha256"] = digest.hexdigest()
    return fp


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}")


def run_one(args, spec, expected):
    binary = build(traced=False)
    traced_binary = build(traced=True)
    trace = args.trace == 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = measure(traced_binary if trace else binary, args.workload, args.seed,
                     args.seconds, args.smoke, out_dir)
    failed, problems = gate(record, expected)
    attempted = record["attempted"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{args.workload}: metric {m['name']} [{m['unit']}] was not emitted")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if trace else 'untraced'}  {record['threads']} thread(s)")
    shown = dict(record["metrics"])
    shown["error_rate"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
    for name, m in shown.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  {failed} of {attempted} operations failed")
    for p in problems:
        print(f"  FAILED: {p}")
    fp = fingerprint(record["threads"])
    print(json.dumps({"fingerprint": fp}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {"fingerprint": fp, "record": record, "problems": problems, "result": result},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def smoke(spec):
    """A seconds-long pass over every workload at reduced scale: every
    metric named in BENCHMARK.json is emitted with its unit, the traced
    table loads the layer each workload was chosen for, and a tampered
    expected hash is counted as a failure."""
    binary = build(traced=False)
    traced_binary = build(traced=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)

    layers = {}
    for w in WORKLOADS:
        plain = measure(binary, w, 1, 0, True, out_dir)
        traced = measure(traced_binary, w, 1, 0, True, out_dir)
        for record, kind in ((plain, "end_to_end"), (traced, "per_layer")):
            check(record["failed"] == 0, f"{w} {kind}: {record['errors']}")
            for m in spec[kind]:
                got = record["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{w} {kind}: {m['name']} [{m['unit']}] missing")
                if kind == "end_to_end" and got is not None:
                    check(got["value"] > 0, f"{w}: {m['name']} is not positive")
        t = {k: v["value"] for k, v in traced["metrics"].items()}
        layers[w] = t
        accounted = t["core.engine.centre_self_s"] + \
            t["core.engine.unattributed_ns_per_event"] * t["core.engine.events"] * 1e-9
        check(abs(accounted - t["core.engine.simulate_s"]) <= 1e-6 * max(1.0, t["core.engine.simulate_s"]),
              f"{w}: centre self time + unattributed != simulate wall")

    check(layers["scale_out"]["core.brokering.retry_place.events"] == 0,
          "scale_out retried placements")
    check(layers["sc2003_sweep"]["core.brokering.retry_place.events"] > 0,
          "sc2003_sweep made no retried placements")
    for w in WORKLOADS:
        has_snap = layers[w]["core.snapshot.bytes"] > 0
        check(has_snap == (w == "federated_durable"),
              f"{w}: snapshot layer {'recorded' if has_snap else 'missing'}")

    # A tampered expected hash must be counted as a failed run.
    record = measure(binary, "scale_out", 1, 0, True, out_dir)
    run_id, good = record["runs"][0]
    tampered = {"scale_out": {"1": {run_id: "0x%016x" % (int(good, 16) ^ 1)}}}
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=out_dir, delete=False) as f:
        json.dump(tampered, f)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", "scale_out",
             "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke", "--expect", f.name],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        os.unlink(f.name)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(proc.returncode != 0 and not last["correct"] and last["failed"] >= 1,
          f"tampered hash was not counted: exit {proc.returncode}, {last}")

    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print(f"smoke: {len(WORKLOADS)} workloads, {len(problems)} problem(s)")
    return 1 if problems else 0


def record_hashes(seeds):
    binary = build(traced=False)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    expected = {}
    for w in WORKLOADS:
        for seed in seeds:
            record = measure(binary, w, seed, 0, False, out_dir)
            if record["failed"]:
                fail(f"{w} seed {seed}: {record['errors']}")
            expected.setdefault(w, {})[str(seed)] = dict(record["runs"])
            print(f"recorded {w} seed {seed}", file=sys.stderr)
    (HERE / "expected_hashes.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced-scale inputs; alone, run the self-test over every workload")
    p.add_argument("--expect",
                   help="recorded report hashes to gate against (default: "
                        "expected_hashes.json; none for --smoke, whose inputs are reduced)")
    p.add_argument("--record", metavar="A-B",
                   help="record the report hashes of seeds A..B into expected_hashes.json")
    args = p.parse_args()

    spec = load_json(ROOT / "BENCHMARK.json")
    if not (ROOT / "scenarios").is_dir():
        fail(f"no scenarios/ directory under {ROOT}: not a grid3-sim checkout")
    if args.record:
        lo, _, hi = args.record.partition("-")
        return record_hashes(range(int(lo), int(hi or lo) + 1))
    if args.smoke and args.workload is None:
        return smoke(spec)
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.expect:
        expected = load_json(args.expect)
    elif args.smoke:
        expected = {}
    else:
        expected = load_json(HERE / "expected_hashes.json")
    return run_one(args, spec, expected)


if __name__ == "__main__":
    sys.exit(main())
