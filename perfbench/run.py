#!/usr/bin/env python3
"""fpkit end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-golden

Builds the benchmark harness and the fpkit libraries from this source tree
(Release, into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
then runs one workload. Build output goes to stderr; the harness's last
stdout line is the JSON result. The exit status is the harness's: 0 when
every output checked out, non-zero otherwise (or when the build fails).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["flow_table1", "signoff_mesh", "plan_large", "serve_stream"]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--parallel", jobs,
                    "--target", *targets], stdout=sys.stderr, check=True)
    return out


def harness(out):
    return out / "fpkit_perfbench"


def run_harness(binary, args, **kwargs):
    return subprocess.run([str(binary), "--golden", str(HERE / "golden.json"),
                           *args], **kwargs)


def selftest(out):
    """Smoke-runs every workload in both modes and checks the contract:
    every metric of BENCHMARK.json is emitted with its unit and direction,
    explicit relative and absolute --out paths are honoured, and the
    traced run's trace and manifest load in `fpkit dash` / `fpkit compare`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run([str(harness(out)), "--list-metrics"],
                            capture_output=True, text=True, check=True)
    catalogue = {}
    for line in listed.stdout.splitlines():
        kind, name, unit, better = line.split()
        catalogue[(kind, name)] = (unit, better)
    for kind in ("end_to_end", "per_layer"):
        declared = {(kind, m["name"]): (m["unit"], m["better"])
                    for m in spec[kind]}
        emitted = {k: v for k, v in catalogue.items() if k[0] == kind}
        mismatch = set(declared.items()) ^ set(emitted.items())
        assert not mismatch, \
            f"BENCHMARK.json and the harness disagree on {sorted(mismatch)}"
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)

    fpkit = out / "fpkit" / "tools" / "fpkit"
    scratch = HERE / "out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            # One absolute and one relative --out, both must be used as is.
            target = scratch / f"{workload}-{trace}"
            given = str(target) if trace == 0 else os.path.relpath(target)
            proc = run_harness(harness(out),
                              ["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", str(trace),
                               "--smoke", "--out", given],
                              capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, \
                f"{workload} trace={trace}: exit {proc.returncode}\n" \
                f"{proc.stdout}{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {got} != {want}"
            if kind == "end_to_end":
                zero = [k for k, v in result["metrics"].items()
                        if v["value"] == 0]
                assert not zero, f"{workload}: zero-valued metrics {zero}"
            assert (target / "manifest.json").is_file(), target
            if trace:
                trace_file = target / "trace.json"
                profile = subprocess.run(
                    [str(fpkit), "dash", "--profile", str(trace_file),
                     "--format", "json"],
                    capture_output=True, text=True, timeout=120)
                assert profile.returncode == 0, profile.stderr
                names = {e["name"] for e in json.loads(profile.stdout)["entries"]}
                assert f"{workload}.job" in names or \
                    f"{workload}.round" in names, names
            cmp = subprocess.run([str(fpkit), "compare", str(target),
                                  str(target)], capture_output=True,
                                 text=True, timeout=60)
            assert cmp.returncode == 0, cmp.stdout + cmp.stderr
            print(f"selftest: {workload} trace={trace} ok "
                  f"({len(got)} metrics)")
    print("selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="output directory (default "
                        "perfbench/out/<workload>-seed<n>[-trace])")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-record golden.json at the default seed")
    args = parser.parse_args()

    try:
        out = build(["fpkit_perfbench", "fpkit"] if args.selftest
                    else ["fpkit_perfbench"])
    except (subprocess.CalledProcessError, FileNotFoundError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(out)
    if args.write_golden:
        golden = HERE / "golden.json"
        for workload in WORKLOADS:
            proc = subprocess.run(
                [str(harness(out)), "--workload", workload, "--smoke",
                 "--write-golden", str(golden), "--out",
                 str(HERE / "out" / "golden" / workload)])
            if proc.returncode != 0:
                return proc.returncode
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    default_out = HERE / "out" / (f"{args.workload}-seed{args.seed}"
                                  + ("-trace" if args.trace else ""))
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", args.out if args.out else str(default_out)]
    sys.stdout.flush()
    return run_harness(harness(out), command).returncode


if __name__ == "__main__":
    sys.exit(main())
