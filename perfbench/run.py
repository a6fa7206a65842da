#!/usr/bin/env python3
"""Served-traffic benchmark of `xpathsat serve`.

Run from the repository root:

    python3 perfbench/run.py --workload tenant_repeat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steady 5 --workload realistic_fresh [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --overhead 3 --workload tenant_repeat
    python3 perfbench/run.py --regen [--workload W]

The first form is one benchmark run: it builds the release `xpathsat` server and
the `perfbench` client (into $CARGO_TARGET_DIR, default `.bench_build`), then
drives the workload and prints the JSON result as the last line of stdout.

`--steady K` runs one workload K times with seeds 1..K and prints, per metric, the
median, quartiles, min/max and the inter-quartile spread against the metric's bound
in BENCHMARK.json.  `--overhead K` alternates K untraced and K traced runs and
prints how much the end-to-end values of the traced runs differ.  `--regen` rewrites the
expected-verdict files under perfbench/expected/.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tenant_repeat", "realistic_fresh", "witness_repeat"]
# End-to-end values every run prints, gated or not.
PRINTED = ["setup_s", "throughput_qps", "server_cpu_us_per_query", "server_peak_rss_mb",
           "latency_p50_ms", "latency_p99_ms", "failed_frac"]


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Build the server binary and the client; exit non-zero if either fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["cargo", "build", "--release", "-q", "-p", "xpsat-server", "--bin", "xpathsat"],
        ["cargo", "build", "--release", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(args))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "xpathsat"), os.path.join(release, "perfbench")


def option(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 >= len(args):
            sys.exit(f"perfbench: {name} needs a value")
        return args[i + 1]
    return default


def run_once(client, server, workload, seed, seconds, trace, quiet=False):
    """One run; quietly, returns (exit code, JSON result, printed end-to-end values)."""
    out_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    args = [client, "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--server", server, "--bench-dir", HERE, "--out-dir", out_dir]
    if not quiet:
        return subprocess.run(args, cwd=ROOT).returncode, None, None
    done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and fields[0] in PRINTED:
            printed[fields[0]] = float(fields[1])
    return done.returncode, result, printed


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def summarize(name, values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    verdict = ""
    if bound is not None:
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
    print(f"  {name:<28} median {q2:>12.4f}  q1 {q1:>12.4f}  q3 {q3:>12.4f}  "
          f"min {min(values):>12.4f}  max {max(values):>12.4f}  spread {spread:>7.4f}"
          + (f"  bound {bound}  {verdict}" if bound is not None else ""))


def steady(client, server, workload, k, seconds, trace):
    results = []
    for seed in range(1, k + 1):
        code, result, _ = run_once(client, server, workload, seed, seconds, trace, quiet=True)
        if code != 0 or result is None or not result["correct"] or result["failed"]:
            sys.exit(f"perfbench: seed {seed} run failed: exit {code}, {result}")
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            if not n.endswith((".p99", ".count"))), flush=True)
    limits = bounds()
    print(f"{workload}: {k} runs of {seconds} s, trace {trace}")
    for name in results[0]["metrics"]:
        summarize(name, [r["metrics"][name]["value"] for r in results], limits.get(name))


def overhead(client, server, workload, k, seconds):
    """Tracing overhead: the end-to-end values of traced vs untraced runs."""
    plain, traced = {m: [] for m in PRINTED}, {m: [] for m in PRINTED}
    for seed in range(1, k + 1):
        for trace, into in ((0, plain), (1, traced)):
            _, _, printed = run_once(client, server, workload, seed, seconds, trace, quiet=True)
            for m in PRINTED:
                into[m].append(printed[m])
    for m in PRINTED:
        p, t = statistics.median(plain[m]), statistics.median(traced[m])
        change = f"{100 * (t - p) / p:+.1f}%" if p else "n/a"
        print(f"  {workload} {m}: untraced median {p:.4f}, traced median {t:.4f}, {change}")


def main():
    args = sys.argv[1:]
    server, client = build()
    workload = option(args, "--workload")
    seconds = option(args, "--seconds", "20")
    trace = option(args, "--trace", "0")
    if "--regen" in args:
        for w in [workload] if workload else WORKLOADS:
            code = subprocess.run([client, "regen", "--workload", w, "--bench-dir", HERE],
                                  cwd=ROOT).returncode
            if code != 0:
                sys.exit(code)
        return 0
    if workload not in WORKLOADS:
        sys.exit(f"perfbench: --workload must be one of {', '.join(WORKLOADS)}")
    if "--steady" in args:
        steady(client, server, workload, int(option(args, "--steady")), seconds, trace)
        return 0
    if "--overhead" in args:
        overhead(client, server, workload, int(option(args, "--overhead")), seconds)
        return 0
    code, _, _ = run_once(client, server, workload, option(args, "--seed", "1"), seconds, trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
