#!/usr/bin/env python3
"""Build and run simbench, the end-to-end benchmark of the pifetch simulator.

From the root of a checkout:

    python3 perfbench/run.py --workload repro|replay|fuzz|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The simulator library and the benchmark binary are built in Release from
this checkout's sources under $CARGO_TARGET_DIR (default .bench_build).
Run records and Chrome traces are written to .bench_out/. The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the exit
status is non-zero when the build fails or any correctness check fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKLOADS = ("repro", "replay", "fuzz")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    """This checkout's build tree. It is keyed by the checkout's path, so
    two checkouts that share an absolute $CARGO_TARGET_DIR never build or
    time each other's sources."""
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        f"perfbench-{key}")


def build():
    """Configure and build the simbench binary; return its path."""
    for need in ("CMakeLists.txt", "src", os.path.join("tests", "golden"),
                 "workloads"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing under {ROOT}: not a pifetch checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time lets CMake itself refuse a cache that was
    # made from another source directory.
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "simbench", "-j", jobs]]
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "simbench")


def source_id():
    """git describe when available, plus a hash of the simulator sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    describe = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            describe = r.stdout.strip()
    return f"{describe}+src:{digest.hexdigest()[:12]}"


def schema(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; return (exit code, stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", ROOT,
           "--source-id", source_id(), *extra]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return r.returncode, lines, result


def check_result(result, trace):
    """Problems with the result line's shape, or [] when it is valid."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["last line is not a {correct, attempted, failed, metrics} object"]
    problems = []
    want = schema(trace)
    if want is not None:
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        names = {n for n, _ in want}
        if names - set(got):
            problems.append(f"missing metrics: {sorted(names - set(got))}")
        if set(got) - names:
            problems.append(f"metrics not in BENCHMARK.json: "
                            f"{sorted(set(got) - names)}")
        problems += [f"{n}: unit {got[n]!r}, BENCHMARK.json says {u!r}"
                     for n, u in want if n in got and got[n] != u]
    return problems


def self_test(binary):
    """Planted faults must make the benchmark fail, never pass silently."""
    golden = os.path.join(ROOT, ".bench_out", "selftest-golden")
    shutil.rmtree(golden, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "tests", "golden"), golden)
    victim = os.path.join(golden, "fig10-speedup.json")
    with open(victim) as f:
        text = f.read()
    # Bump the first digit after the first "rows" key.
    at = text.index('"rows"')
    at = next(i for i in range(at, len(text)) if text[i].isdigit())
    with open(victim, "w") as f:
        f.write(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])

    cases = [("fuzz", ["--inject-fault", "degree-miscount"],
              "fuzz with the degree-miscount fault injected"),
             ("repro", ["--golden-dir", golden],
              "repro against a corrupted copy of fig10-speedup.json")]
    caught = 0
    for workload, extra, what in cases:
        rc, _, result = run_workload(binary, workload, 1, 1, 0, extra)
        failed = result.get("failed", 0) if isinstance(result, dict) else 0
        attempted = result.get("attempted", 0) if isinstance(result, dict) else 0
        ok = rc != 0 and failed > 0
        caught += ok
        print(f"self-test {'PASS' if ok else 'FAIL'}: {what}: exit {rc}, "
              f"fail_frac {failed / max(attempted, 1):.4f} ({failed}/{attempted})")
    shutil.rmtree(golden, ignore_errors=True)
    return caught == len(cases)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that planted faults make the benchmark fail")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")

    binary = build()
    if args.self_test:
        sys.exit(0 if self_test(binary) else 1)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        rc, lines, result = run_workload(binary, workload, args.seed,
                                         args.seconds, args.trace)
        problems = check_result(result, args.trace)
        print("\n".join(lines[:-1] if problems else lines))
        if problems:
            fail(f"{workload}: " + "; ".join(problems), 3)
        status = status or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    if len(workloads) > 1:
        print(json.dumps(combined))
    sys.exit(status)


if __name__ == "__main__":
    main()
