#!/usr/bin/env python3
"""Repository benchmark: builds the SEA library, the sea_serve daemon and the
perfbench binary from source, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload spe_elastic|io_update|serve_mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR, default
.bench_build. A human-readable summary comes first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("spe_elastic", "io_update", "serve_mix")

# Per-layer modules a workload does not run; their metrics read 0 there.
NOT_RUN = {
    "spe_elastic": ("datasets.", "serve.", "net."),
    "io_update": ("spe.", "serve.", "net."),
    "serve_mix": ("spe.", "datasets.", "core.", "equilibration.", "sparse.",
                  "parallel."),
}

# The traced serve_mix run's daemon: 2 handler threads and 2 concurrent
# solves behind 2 closed-loop clients; the default 1024-entry warm cache.
DAEMON_ARGS = ["--listen", "0", "--handler-threads", "2",
               "--max-concurrent", "2"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    out = build_dir()
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr,
                   check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench", "sea_serve"], stdout=sys.stderr, check=True)
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "sea", "tools", "sea_serve"))


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1])


def run_client(cmd, seconds):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[0]} exited {proc.returncode}")
    return last_json(proc.stdout)


class Daemon:
    """One sea_serve process on an ephemeral port."""

    def __init__(self, binary, workdir):
        self.port_file = os.path.join(workdir, "port.txt")
        self.log_path = os.path.join(workdir, "daemon.log")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        with open(self.log_path, "w") as err:
            self.proc = subprocess.Popen(
                [binary, *DAEMON_ARGS, "--listen-port-file", self.port_file],
                stdout=subprocess.DEVNULL, stderr=err)
        try:
            self.port = self._await_port()
            self._await_health()
        except BaseException:
            self.kill()
            raise

    def _await_port(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("sea_serve exited during start")
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.001)
        raise RuntimeError("sea_serve wrote no port file")

    def _await_health(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{self.port}/healthz",
                        timeout=5) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                pass
            time.sleep(0.001)
        raise RuntimeError("sea_serve /healthz never answered")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for sea_serve")

    def drain(self):
        """SIGTERM drain; True when the daemon exited 0 after draining."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False
        with open(self.log_path) as f:
            return code == 0 and "drained:" in f.read()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_serve_traced(perfbench, sea_serve, args):
    """The traced serve_mix run: a fresh daemon, drained at the end."""
    workdir = os.path.join(build_dir(), "serve_mix")
    os.makedirs(workdir, exist_ok=True)
    daemon = Daemon(sea_serve, workdir)
    try:
        out = run_client([perfbench, "serve", "--port", str(daemon.port),
                          "--seed", str(args.seed), "--seconds",
                          str(args.seconds), "--trace", "1"], args.seconds)
        out["metrics"]["net.daemon_rss_mb"] = daemon.peak_rss_mb()
        if not daemon.drain():
            log("sea_serve did not drain cleanly")
            out["attempted"] += 1
            out["failed"] += 1
        return out
    finally:
        daemon.kill()


def summarize(workload, args, out, wanted, units):
    m = out["metrics"]
    attempted, failed = out["attempted"], out["failed"]
    print(f"{workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {attempted} operations, {failed} failed, "
          f"fail_frac {failed / max(attempted, 1):.6g}")
    if not args.trace:
        print(f"  samples {int(m['samples'])}; tail_ms is "
              f"p{int(m['tail_percent'])}")
        extra = [k for k in ("p90_ms", "p99_ms") if k in m]
        for name in extra:
            print(f"  {name:<28} {m[name]:.6g} ms")
    for name in wanted:
        print(f"  {name:<28} {m[name]:.6g} {units[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metric_list = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_list}
    wanted = [m["name"] for m in metric_list]

    try:
        perfbench, sea_serve = build()
        if args.workload == "serve_mix" and args.trace:
            out = run_serve_traced(perfbench, sea_serve, args)
        else:
            mode = (["serve"] if args.workload == "serve_mix" else
                    ["batch", "--workload", args.workload])
            out = run_client([perfbench, *mode, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace",
                              str(args.trace)], args.seconds)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) \
            as err:
        log(f"error: {err}")
        return 1

    m = out["metrics"]
    for name in wanted:
        if name not in m:
            if args.trace and name.startswith(NOT_RUN[args.workload]):
                m[name] = 0.0
            else:
                log(f"error: {args.workload} did not report {name}")
                return 1

    summarize(args.workload, args, out, wanted, units)
    result = {
        "correct": out["failed"] == 0 and out["attempted"] >= 1,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": m[name], "unit": units[name]}
                    for name in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
