"""qalg benchmark: three closed-loop workloads, one client, one operation in
flight at a time.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.
With --trace 0 it measures end-to-end metrics; with --trace 1 it runs the
same operations untraced and traced, and reports per-layer metrics.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is 1 when any operation failed. See
perfbench/NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import exp, lgamma, log

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli-standard", "library-twisted", "modules-lift")
# Seconds one round of each workload takes on a 2-core x86 host, which fix
# how many rounds --seconds buys. The count depends only on --seconds, never
# on the speed measured in the run, so every run does the same work.
ROUND_SECONDS = {"cli-standard": 9.0, "library-twisted": 5.0, "modules-lift": 3.5}
SETUP_REPEATS = 7
STARTUP_SAMPLES = 5
# Rounds of the traced pass (and of its untraced twin) for in-process
# workloads; a cli-standard round is already long enough.
TRACE_ROUNDS = 3
OP_TIMEOUT_S = 150
# What the installed `qalg` console script runs.
CLI_ENTRY = "import sys; from qalg.cli import main; sys.exit(main())"
perf = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Child:
    """A subprocess whose resource use is collected with wait4, and which
    is killed if it outlives its timeout."""

    started: list["Child"] = []

    def __init__(self, cmd: list[str], timeout: float):
        self.t0 = perf()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        Child.started.append(self)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def readline(self) -> str:
        return self.proc.stdout.readline()

    def finish(self) -> tuple[float, int, str, int]:
        """Wait for exit: wall seconds, exit code, remaining output, peak RSS in KiB."""
        try:
            out = self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        seconds = perf() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, self.proc.returncode, out, usage.ru_maxrss

    @staticmethod
    def stop_all() -> None:
        """Kill and wait for any child an error left running."""
        for child in Child.started:
            if child.proc.returncode is None:
                child.proc.kill()
                child.proc.wait()


def ref_loop_ms() -> float:
    """A fixed pure-Python Fraction loop; its time tracks the host's speed."""
    t0 = perf()
    acc = Fraction(0)
    for k in range(1, 3001):
        acc += Fraction(1, k)
    return (perf() - t0) * 1000


# ---------------------------------------------------------------------------
# Workers


def worker_cmd(workload: str, seed: int, mode: str, rounds: int, workdir: str, trace_file: str | None = None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, str(rounds), workdir]
    return cmd + ([trace_file] if trace_file else [])


def start_worker(cmd: list[str], timeout: float) -> tuple[Child, float]:
    """Start a worker and wait for its `ready` line: the set-up time."""
    child = Child(cmd, timeout)
    line = child.readline()
    if not line.startswith('{"ready"'):
        _, code, out, _ = child.finish()
        raise RuntimeError(f"worker failed in set-up (exit {code}): {line}{out}")
    return child, perf() - child.t0


def finish_worker(child: Child) -> tuple[dict, int]:
    _, code, out, rss = child.finish()
    if code != 0:
        raise RuntimeError(f"worker exited {code}: {out[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), rss


# ---------------------------------------------------------------------------
# cli-standard: one fresh `qalg` process per operation


def cli_round(seed: int, rnd: int) -> list[tuple[str, list[str]]]:
    """Every input once, in a seeded order; half of them through
    `wedderburn`, half through `ed algebra --d 2`, the halves swapping with
    the parity of the seed."""
    from inputs import CLI_STANDARD

    out = []
    for i, name in enumerate(CLI_STANDARD):
        cmd = ["wedderburn"] if (i + seed) % 2 == 0 else ["ed", "algebra"]
        out.append((name, cmd))
    random.Random(f"{seed}/order/{rnd}").shuffle(out)
    return out


def cli_op(name: str, cmd: list[str], workdir: str, trace_file: str | None = None) -> tuple[dict, int]:
    """Run one `qalg` process and check its answer."""
    from check import Verdict
    from inputs import SPECS

    path = os.path.join(workdir, name + ".json")
    args = cmd + [path] + (["--d", "2"] if cmd[0] == "ed" else []) + ["--json"]
    if trace_file:
        argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), trace_file] + args
    else:
        argv = [sys.executable, "-c", CLI_ENTRY] + args
    seconds, code, out, rss = Child(argv, OP_TIMEOUT_S).finish()
    truth = SPECS[name].truth
    v = Verdict()
    try:
        env = json.loads(out)
    except json.JSONDecodeError:
        env = None
    if env is None or code not in (0, 3):
        v.fail(f"exit {code}: {out[-500:]}")
    elif cmd[0] == "wedderburn" and code != 0:
        v.fail(f"wedderburn exit {code}: {env}")
    else:
        try:
            check_cli_output(cmd[0], truth, env, code, v)
        except (KeyError, TypeError) as exc:
            v.fail(f"malformed output ({exc!r}): {out[-500:]}")
    return v.record(name, seconds), rss


def check_cli_output(command: str, truth, env: dict, code: int, v) -> None:
    from check import check_ed, check_structure

    if command == "wedderburn":
        p = env["payload"]
        factors = [
            (f["factor_dim"], f["center_dim"], f["degree"], None if f["matrix_size"] == "unknown" else f["matrix_size"])
            for f in p["factors"]
        ]
        check_structure(truth, p["radical_dim"], None, factors, v)
        if p["semisimple_dim"] != sum(f[0] for f in truth.factors):
            v.fail(f"semisimple dim {p['semisimple_dim']}")
        return
    # ed algebra: exit 3 is a refusal; a null value is minus infinity.
    refusal = env["message"] if code == 3 else None
    value = None if code == 3 else env["payload"]["value"]
    check_ed(truth, "-infinity" if code == 0 and value is None else value, refusal, v)
    v.known += len(truth.factors)
    v.uncertified += int(v.refused)


def cli_startup_ms() -> float:
    samples = []
    for _ in range(STARTUP_SAMPLES):
        seconds, code, out, _ = Child([sys.executable, "-c", CLI_ENTRY, "gen", "dual-numbers", "--json"], 60).finish()
        if code != 0:
            raise RuntimeError(f"qalg gen failed: {out}")
        samples.append(seconds * 1000)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Runs


def setup_times(workload: str, seed: int, workdir: str, rounds: int) -> tuple[list[float], Child | None]:
    """Set up SETUP_REPEATS times in fresh processes; the last in-process
    worker goes on to run the operations."""
    times, child = [], None
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1 and workload != "cli-standard"
        cmd = worker_cmd(workload, seed, "run" if last else "setup", rounds, workdir)
        child, t = start_worker(cmd, OP_TIMEOUT_S)
        times.append(t)
        if not last:
            child.finish()
            child = None
    return times, child


def measure(workload: str, seed: int, seconds: float, workdir: str) -> tuple[list[dict], dict]:
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    setups, child = setup_times(workload, seed, workdir, rounds)
    ops, peak_kb = [], 0
    if workload == "cli-standard":
        for rnd in range(rounds):
            for name, cmd in cli_round(seed, rnd):
                op, rss = cli_op(name, cmd, workdir)
                ops.append(op)
                peak_kb = max(peak_kb, rss)
    else:
        result, peak_kb = finish_worker(child)
        ops = result["ops"]
    return ops, {"setup": setups, "peak_kb": peak_kb}


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.

    A workload mixes cheap and expensive inputs, and its sorted times have
    gaps; a single order statistic at a gap jumps from one side to the other
    with host noise, while this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)

    def pdf(x: float) -> float:
        return exp((a - 1) * log(x) + (b - 1) * log(1 - x) - log_beta) if 0 < x < 1 else 0.0

    steps = 8  # Simpson panels per order statistic
    total = weight_sum = 0.0
    for i, x in enumerate(xs):
        lo, width = i / n, 1 / (n * steps)
        w = sum(
            width / 6 * (pdf(lo + k * width) + 4 * pdf(lo + (k + 0.5) * width) + pdf(lo + (k + 1) * width))
            for k in range(steps)
        )
        total += w * x
        weight_sum += w
    return total / weight_sum


def end_to_end(ops: list[dict], info: dict) -> dict:
    """Each distinct operation runs once per round; its time is the best of
    its rounds. The host's speed swings by tens of percent for seconds at a
    time (see host.ref_loop_ms), and the best of several samples spread over
    the run is the estimate those swings move least."""
    best: dict[str, float] = {}
    for op in ops:
        best[op["name"]] = min(op["s"], best.get(op["name"], op["s"]))
    times = list(best.values())
    known = sum(op["known"] for op in ops)
    uncertified = sum(op["unc"] for op in ops)
    failed = sum(1 for op in ops if not op["ok"])
    # Geometric mean, so that M_5 alone does not set the throughput.
    mean_log = sum(log(t) for t in times) / len(times)
    return {
        "setup_s": (statistics.median(info["setup"]), "s"),
        "ops_per_s": (exp(-mean_log), "1/s"),
        "op_p50_ms": (hd_quantile(times, 0.5) * 1000, "ms"),
        "op_p75_ms": (hd_quantile(times, 0.75) * 1000, "ms"),
        "ok_ratio": (1 - failed / len(ops), "ratio"),
        "certified_ratio": (1 - uncertified / known if known else 1.0, "ratio"),
        "peak_rss_mb": (info["peak_kb"] / 1024, "MB"),
    }


def traced(workload: str, seed: int, workdir: str) -> tuple[list[dict], dict]:
    """The same rounds untraced, then traced, in fresh processes."""
    ops_plain, ops_traced, dumps = [], [], []
    tracedir = os.path.join(workdir, "trace")
    os.makedirs(tracedir, exist_ok=True)
    if workload == "cli-standard":
        start_worker(worker_cmd(workload, seed, "setup", 1, workdir), OP_TIMEOUT_S)[0].finish()
        for i, (name, cmd) in enumerate(cli_round(seed, 0)):
            ops_plain.append(cli_op(name, cmd, workdir)[0])
            path = os.path.join(tracedir, f"{i}.json")
            ops_traced.append(cli_op(name, cmd, workdir, path)[0])
            with open(path, encoding="utf-8") as fh:
                dumps.append((name, json.load(fh)))
    else:
        child, _ = start_worker(worker_cmd(workload, seed, "run", TRACE_ROUNDS, workdir), OP_TIMEOUT_S)
        ops_plain = finish_worker(child)[0]["ops"]
        path = os.path.join(tracedir, "worker.json")
        child, _ = start_worker(worker_cmd(workload, seed, "run", TRACE_ROUNDS, workdir, path), OP_TIMEOUT_S)
        ops_traced = finish_worker(child)[0]["ops"]
        with open(path, encoding="utf-8") as fh:
            dumps.append((workload, json.load(fh)))
    overhead = sum(op["s"] for op in ops_traced) / sum(op["s"] for op in ops_plain)
    return ops_plain + ops_traced, {"dumps": dumps, "overhead": overhead}


def per_layer(info: dict, startup_ms: float, ref_ms: float) -> dict:
    from tracer import layer_metrics

    m = layer_metrics([d for _, d in info["dumps"]])
    m["cli.startup_ms"] = (startup_ms, "ms")
    m["host.ref_loop_ms"] = (ref_ms, "ms")
    m["trace.overhead_ratio"] = (info["overhead"], "ratio")
    return m


def print_quaternion_candidates(info: dict) -> None:
    """The size-search count for standard-basis quaternions(-1,-1): 166 =
    4 + 6*9 + 4*27 candidates in today's list, none splitting."""
    for name, d in info["dumps"]:
        if name == "H-1-1":
            c = d["counts"]
            print(
                "# quaternions(-1,-1) size search: candidates="
                f"{c.get('structure.size_search.candidates', 0)} splits={c.get('structure.size_search.splits', 0)}",
                flush=True,
            )


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        refs = [ref_loop_ms() for _ in range(3)]
        if trace:
            ops, info = traced(workload, seed, workdir)
            startup = cli_startup_ms()
        else:
            ops, info = measure(workload, seed, seconds, workdir)
        refs += [ref_loop_ms() for _ in range(3)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run is still using it
            pass
    failed = [op for op in ops if not op["ok"]]
    if trace:
        metrics = per_layer(info, startup, statistics.median(refs))
        print_quaternion_candidates(info)
    else:
        metrics = end_to_end(ops, info)
        print(f"# {workload}: {len(ops)} operations, host.ref_loop_ms {statistics.median(refs):.2f}", flush=True)
    for op in failed[:10]:
        print(f"# FAILED {op['name']}: {op['why']}", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {unit}", flush=True)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qalg", "__init__.py")):
        print(f"error: no qalg sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    finally:
        Child.stop_all()
    for name, result in results.items():
        if len(results) > 1:
            print(f"# {name}: {json.dumps(result)}")
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
