"""doobkit benchmark: one seeded, single-process, closed-loop workload per run.

    python3 perfbench/run.py --workload tree-certify --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  One caller issues each call after the previous one returns.
Set-up (``import doobkit`` in a fresh interpreter plus building every
instance and scenario file) is repeated and its median reported as
``setup_s``.  The first pass over the workload checks every answer with
``checks`` and logs failures in a ledger; then every verb's call list is
repeated, unchecked, for ``--seconds``, and each verb metric is the median
pass time.  Times are scaled to a reference machine speed (``speed``).
``--trace 1`` adds one traced set-up and pass after the timed loop and
reports the per-layer metrics instead, plus the tracing overhead.
``--known-failures`` (``price-ladder`` only) adds the calls the library is
known to get wrong, each checked and logged once and left out of the verb
metrics; such a run reports ``correct: false``.

The last stdout line is the JSON result: ``failed`` counts calls that
raised or whose answer failed its check, and ``correct`` is false when any
answer came back wrong.  A fuller record (machine facts, ledger, raw and
scaled samples) and the spans go to ``.perfbench_out/``.  Exit code 2
means the checkout lacks the library or its fixtures, 3 that a check
could not run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: BLAS thread variables pinned to 1 unless the caller set them
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
#: a repeated verb runs its call list this many seconds per round, at least
MIN_ROUND_S = 0.5
MAX_PASSES_PER_ROUND = 20
#: share of --seconds above which a verb's list runs once only
ONCE_SHARE = 0.25


class CheckCannotRun(RuntimeError):
    """A check could not be evaluated, so the run has no valid result."""


def machine_facts() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "shared_machine": True,
        "note": "shared machine: other tenants' load shows up as noise in every time",
    }


def import_seconds(env: dict) -> float:
    """``import doobkit`` in a fresh interpreter, timed inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import doobkit; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


class Runner:
    def __init__(self, workload: str, ops, speed) -> None:
        self.workload = workload
        self.speed = speed
        self.by_verb: dict[str, list] = {}
        for op in ops:
            self.by_verb.setdefault(op.verb, []).append(op)
        #: verb -> span of speed-log segments of each pass
        self.passes: dict[str, list[tuple[int, int]]] = {v: [] for v in self.by_verb}
        self.ledger: list[dict] = []
        #: checked calls kept out of the verb metrics, with their raw seconds
        self.untimed: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def timed_pass(self, verb: str, tracer=None) -> None:
        """Run the verb's call list once, unchecked, timing each call.

        A traced pass also runs the untimed calls, so that their spans are
        recorded, but leaves their seconds out as well."""
        for i, op in enumerate(self.by_verb[verb]):
            if not op.timed and tracer is None:
                continue
            if tracer is not None:
                tracer.op = f"{verb}#{i}"
            try:
                self.speed.run(op.call, op.in_process) if op.timed else op.call()
            except Exception:  # failures were logged by the checked pass
                pass

    def checked_pass(self, verb: str) -> None:
        """Run the verb's call list once, checking each answer after timing it."""
        for op in self.by_verb[verb]:
            error = None
            t0 = time.perf_counter()
            try:
                result = self.speed.run(op.call, op.in_process) if op.timed else op.call()
            except Exception as exc:  # a raising call is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            if not op.timed:
                self.untimed.append({"verb": verb, "instance": op.instance,
                                     "seconds": time.perf_counter() - t0})
            try:
                if error is not None and op.context is not None:
                    error += f" ({op.context()})"
                elif error is None and op.check is not None:
                    error = op.check(result)
                    self.wrong += error is not None
            except Exception as exc:
                raise CheckCannotRun(f"{verb} check on {op.instance}: "
                                     f"{type(exc).__name__}: {exc}") from exc
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.ledger.append({"workload": self.workload, "instance": op.instance,
                                    "verb": verb.removesuffix("_s"), "error": error})

    def run(self, verbs, seconds: float) -> None:
        """One checked pass of every verb, then ``seconds`` of timed rounds."""
        for verb in verbs:
            self.passes[verb].append(self.speed.measure(lambda v=verb: self.checked_pass(v)))
        first = {v: self.speed.seconds(self.passes[v][0])[1] for v in verbs}
        repeat = [v for v in verbs if first[v] <= ONCE_SHARE * seconds]
        passes = {v: max(1, min(MAX_PASSES_PER_ROUND, math.ceil(MIN_ROUND_S / max(first[v], 1e-9))))
                  for v in repeat}
        start = time.perf_counter()
        rounds = 0
        while repeat and time.perf_counter() - start < seconds:
            # each round starts one verb later, so that the round cut short
            # when time is up does not always shortchange the same verbs
            order = repeat[rounds % len(repeat):] + repeat[:rounds % len(repeat)]
            rounds += 1
            for verb in order:
                if time.perf_counter() - start >= seconds:
                    break
                for _ in range(passes[verb]):
                    self.passes[verb].append(self.speed.measure(lambda v=verb: self.timed_pass(v)))

    def seconds(self, verb: str) -> list[tuple[float, float]]:
        """(scaled, raw) seconds of each pass of ``verb``."""
        return [self.speed.seconds(span) for span in self.passes[verb]]


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true",
                        help="price-ladder only: also run the calls the library is known "
                             "to get wrong, checked and logged once, untimed")
    args = parser.parse_args(argv)

    if not (SRC / "doobkit" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'doobkit'}; run from a checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no fixtures directory at {ROOT / 'fixtures'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    sys.path.insert(0, str(SRC))

    import doobkit
    if Path(doobkit.__file__).resolve().parent != (SRC / "doobkit").resolve():
        print(f"perfbench: imported doobkit from {doobkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import speed as speed_mod
    import tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    if args.known_failures and args.workload != "price-ladder":
        print("perfbench: --known-failures applies to price-ladder only", file=sys.stderr)
        return 2
    declared = declared_metrics()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / args.workload
    workdir.mkdir(exist_ok=True)
    cli = workloads.Cli(ROOT, workdir, env)
    build = workloads.BUILDERS[args.workload]
    if args.known_failures:
        build = functools.partial(workloads.price_ladder, known_failures=True)

    # -- set-up, repeated ------------------------------------------------------
    speed = speed_mod.SpeedLog()
    setup: dict[str, list] = {"import_s": [], "build_s": []}
    box: dict = {}

    def build_once() -> None:
        box["result"] = speed.run(lambda: build(args.seed, cli))

    for _ in range(SETUP_REPEATS):
        spans = {"import_s": speed.measure(lambda: speed.add(import_seconds(env))),
                 "build_s": speed.measure(build_once)}
        for key, span in spans.items():
            setup[key].append(span)
    built = box["result"]

    # -- timed loop --------------------------------------------------------------
    runner = Runner(args.workload, built.ops, speed)
    verbs = [v for v in workloads.VERBS if v in runner.by_verb]
    try:
        runner.run(verbs, args.seconds)
    except CheckCannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    timed = {v: runner.seconds(v) for v in verbs}
    timed.update({k: [speed.seconds(span) for span in spans] for k, spans in setup.items()})
    samples = {k: [scaled for scaled, _ in pairs] for k, pairs in timed.items()}
    samples["setup_s"] = [a + b for a, b in zip(samples["import_s"], samples["build_s"])]
    e2e = {v: statistics.median(samples[v]) for v in [*verbs, "setup_s"]}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_frac = runner.failed / runner.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "oracle": {"highs": checks.HAVE_HIGHS,
                   "note": None if checks.HAVE_HIGHS else
                   "scipy not importable: price optimality against HiGHS was skipped"},
        "end_to_end": e2e, "fail_frac": fail_frac,
        "attempted": runner.attempted, "failed": runner.failed, "wrong_answers": runner.wrong,
        "ledger": runner.ledger,
        "untimed_calls": runner.untimed,
        "time_unit": f"seconds at the speed where the speed.py kernel takes {speed_mod.REF_S} s",
        "samples": samples,
        "raw_seconds": {k: [raw for _, raw in pairs] for k, pairs in timed.items()},
        "speed_probes_s": speed.probes,
    }
    for name, unit in declared["end_to_end"].items():
        print(f"{name} {e2e[name]:.6g} {unit}")
    print(f"fail_frac {fail_frac:.6g} ratio ({runner.failed}/{runner.attempted})")
    for entry in runner.ledger:
        print(f"failed: {entry['verb']} on {entry['instance']}: {entry['error'][:300]}")
    for entry in runner.untimed:
        print(f"untimed: {entry['verb']} on {entry['instance']} took {entry['seconds']:.6g} s "
              "(checked once, not in the metric)")

    metrics = {n: {"value": e2e[n], "unit": u} for n, u in declared["end_to_end"].items()}
    if args.trace:
        # -- one traced set-up and pass ------------------------------------------
        tracer = tracing.Tracer()
        tracer.install({short: getattr(doobkit, short) for short in tracing.TRACED})
        try:
            tracer.op = "setup"
            traced_spans = {"setup_s": speed.measure(build_once)}
            traced = Runner(args.workload, box["result"].ops, speed)
            for verb in verbs:
                traced_spans[verb] = speed.measure(lambda v=verb: traced.timed_pass(v, tracer))
        finally:
            tracer.uninstall()
        traced_times = {k: speed.seconds(span)[0] for k, span in traced_spans.items()}
        overhead = {v: traced_times[v] - e2e[v] for v in verbs}
        overhead["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                                   - e2e["peak_rss_mb"])
        overhead["setup_s"] = traced_times["setup_s"] - statistics.median(samples["build_s"])
        layer = tracer.layer_metrics()
        layer["scenario.bytes"] = box["result"].scenario_bytes
        layer["cli.import_s"] = statistics.median(samples["import_s"])
        layer["cli.invocations"] = len(traced.by_verb.get("cli_s", ()))
        tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        record["tracing_overhead"] = overhead
        record["per_layer"] = layer
        metrics = {n: {"value": float(layer.get(n, 0.0)), "unit": u}
                   for n, u in declared["per_layer"].items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        for name, delta in overhead.items():
            print(f"tracing overhead {name} {delta:+.6g} {declared['end_to_end'][name]}")

    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
