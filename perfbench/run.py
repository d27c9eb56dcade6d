"""omegalab benchmark: one workload per call, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {session,registry,analysis} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of this checkout, with whatever
kernel ``import omegalab`` picks; nothing is built or forced.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones listed in ``layers.LAYER_METRICS``.
The lines before it give the error rate, the run metadata and every metric
by name and unit.  A copy of the result, with metadata, is written to
``perfbench/out/``, and a traced run also writes its spans there.

Each run is isolated: the workload runs in a fresh child process, so
``peak_rss_mb`` is that workload's own ``ru_maxrss``.  ``setup_s`` is the
median over 3 to 7 set-ups (more while they are cheap), each in its own
process, because the imports it includes can only be timed once per
process.  One set-up runs before the workload's run and the rest after it.

``--write-pins`` (default seed only) records the digests of every artifact
the current tree produces in ``perfbench/pins.json``; later runs on that
seed fail any artifact whose digest differs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

# set-up samples per run: at least the minimum, and more while they are cheap
SETUP_SAMPLES_MIN = 3
SETUP_SAMPLES_MAX = 7
SETUP_SAMPLING_S = 3.0
CHILD_TIMEOUT_S = 170
BASELINE_KERNEL = "pure-python"
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("session", "registry", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-len", type=int, default=None, help="override the workload's L (self-test)")
    parser.add_argument("--write-pins", action="store_true", help="record artifact digests for the default seed")
    parser.add_argument("--role", choices=("parent", "setup", "run"), default="parent", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: one workload in this process -------------------------------------


class Runner:
    """Runs operations one after another and counts what fails."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rss: dict[str, float] = {}  # stage -> high-water mark when it first ended untraced

    def run_ops(self, ops) -> float:
        """Run `ops` in order; return the summed time of the calls alone."""
        import layers
        from workloads import CheckFailed

        wall = 0.0
        for op in ops:
            self.attempted += 1
            tracer = self.ctx.tracer
            start = time.perf_counter()
            try:
                with tracer.span(f"op.{op.stage}") if tracer else contextlib.nullcontext():
                    output = op.run()
            except Exception as exc:  # a failed operation is counted, and the run goes on
                self._fail(op, exc)
                continue
            finally:
                wall += time.perf_counter() - start
            if tracer is None:
                self.rss.setdefault(op.stage, layers.peak_rss_mb())
            try:
                op.check(output)
            except (CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
                self._fail(op, exc)  # a wrong or unreadable output
        return wall

    def _fail(self, op, exc) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")


def timed_passes(runner, workload, seconds: float) -> list[float]:
    """Passes one after another until the next would end after `seconds`; at least one."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(runner.run_ops(workload.pass_ops()))
        if time.perf_counter() - start + walls[-1] > seconds:
            return walls


def traced_run(runner, workload, args, result):
    """Per-layer metrics: a traced set-up, then traced and untraced passes in turn.

    One untraced warm-up pass comes first and records the RSS after each
    stage.  Traced and untraced passes then alternate, so the two see the
    same conditions and their difference is the tracing overhead.
    """
    import layers

    ctx = runner.ctx
    runner.run_ops(workload.pass_ops())
    tracer = layers.Tracer()
    tracer.install()
    ctx.tracer = tracer
    runner.run_ops(workload.setup_ops())
    setup_mark = tracer.mark()
    walls, traced_walls = [], []
    start = time.perf_counter()
    while True:
        tracer.new_pass()
        traced_walls.append(runner.run_ops(workload.pass_ops()))
        tracer.uninstall()
        ctx.tracer = None
        walls.append(runner.run_ops(workload.pass_ops()))
        if time.perf_counter() - start + traced_walls[-1] + walls[-1] > args.seconds:
            break
        tracer.install()
        ctx.tracer = tracer
    result["layers"] = layers.layer_metrics(
        tracer, setup_mark, len(traced_walls), walls, traced_walls, runner.rss
    )
    tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.json.gz"))
    return walls, traced_walls


def load_pins(workload: str, max_len: int) -> dict:
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as fh:
        entry = json.load(fh).get(workload, {})
    return entry.get("digests", {}) if entry.get("max_len") == max_len else {}


def child_main(args, tamper=None) -> dict:
    """Set up and run one workload in this process; return its raw result."""
    t0 = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import omegalab
    import omegalab.cli  # noqa: F401  (loads every layer the CLI drives)
    import reference  # noqa: F401  (the oracle; a missing one is a set-up failure)

    import layers
    from workloads import WORKLOADS, Context

    cls = WORKLOADS[args.workload]
    max_len = args.max_len or cls.max_len
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        pins = {} if args.write_pins else load_pins(args.workload, max_len)
        ctx = Context(args.workload, args.seed, max_len, workdir, pins)
        ctx.tamper = tamper
        workload = cls(ctx)
        runner = Runner(ctx)
        setup_ops = workload.setup_ops()
        build_s = time.perf_counter() - t0
        setup_s = build_s + runner.run_ops(setup_ops)
        runner.rss.setdefault("setup", layers.peak_rss_mb())
        result = {
            "setup_s": setup_s,
            "kernel": omegalab.kernel_name(),
            "max_len": max_len,
            "inputs": ctx.inputs,
        }
        if args.role == "setup":
            return result
        if not args.trace:
            walls = timed_passes(runner, workload, args.seconds)
            traced_walls = []
        else:
            walls, traced_walls = traced_run(runner, workload, args, result)
        result.update(
            walls=walls,
            traced_walls=traced_walls,
            peak_rss_mb=layers.peak_rss_mb(),
            attempted=runner.attempted,
            failed=runner.failed,
            failures=runner.failures,
        )
        if args.write_pins:
            result["digests"] = ctx.first_digests
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- parent: isolation, metrics, report --------------------------------------


def spawn(args, role: str, deadline: float) -> dict:
    """Run this script as a child in `role`; return the JSON its last line holds."""
    argv = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.max_len:
        argv += ["--max-len", str(args.max_len)]
    if args.write_pins:
        argv.append("--write-pins")
    proc = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child ({role}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() or "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def parent_main(args) -> int:
    from layers import LAYER_METRICS
    from workloads import DEFAULT_SEED

    if args.write_pins and args.seed != DEFAULT_SEED:
        print(f"error: --write-pins needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "omegalab", "__init__.py")):
        print("error: no src/omegalab in this checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "tests", "reference.py")):
        print("error: no tests/reference.py (the oracle) in this checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setups = []
    if not args.trace:
        setups.append(spawn(args, "setup", deadline)["setup_s"])
    res = spawn(args, "run", deadline)
    setups.append(res["setup_s"])
    # the rest of the set-up samples come after the run, so that together
    # they span it and a slow spell of the machine weighs on few of them
    while not args.trace and len(setups) < SETUP_SAMPLES_MAX and (
        len(setups) < SETUP_SAMPLES_MIN or sum(setups) < SETUP_SAMPLING_S
    ):
        setups.append(spawn(args, "setup", deadline)["setup_s"])

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "max_len": res["max_len"],
        "inputs": res["inputs"],
        "kernel": res["kernel"],
        "comparable": res["kernel"] == BASELINE_KERNEL,
        "baseline_kernel": BASELINE_KERNEL,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(res["walls"]),
        "traced_passes": len(res["traced_walls"]),
        "setup_samples": len(setups),
    }
    if args.trace:
        units = dict(LAYER_METRICS)
        values = res["layers"]
    else:
        units = dict(END_TO_END)
        values = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted, failed = res["attempted"], res["failed"]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    print(
        f"{args.workload}: seed {args.seed}, L={res['max_len']}, kernel {res['kernel']}, "
        f"{len(res['walls'])} passes, inputs {json.dumps(res['inputs'])}"
    )
    if not meta["comparable"]:
        print(f"warning: kernel {res['kernel']} is not the baseline's ({BASELINE_KERNEL}); not comparable")
    for msg in res["failures"]:
        print(f"failed: {msg}")
    print(f"  {'error_rate':<28} {failed / attempted:.6f} ratio ({failed}/{attempted} operations)")
    if not args.trace:
        q1, q3 = quartiles(res["walls"])
        print(f"  (wall_s is the median of {len(res['walls'])} passes, quartiles {q1:.4f} .. {q3:.4f} s)")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))

    if args.write_pins and failed == 0:
        pins = {}
        if os.path.exists(PINS):
            with open(PINS) as fh:
                pins = json.load(fh)
        pins[args.workload] = {"seed": args.seed, "max_len": res["max_len"], "digests": res["digests"]}
        with open(PINS, "w") as fh:
            json.dump(pins, fh, indent=2, sort_keys=True)
            fh.write("\n")
    os.makedirs(OUT, exist_ok=True)
    record = dict(line, meta=meta, walls=res["walls"], traced_walls=res["traced_walls"], setups=setups)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "parent":
        return parent_main(args)
    sys.stdout.write(json.dumps(child_main(args)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
