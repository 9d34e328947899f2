"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

``--trace 0`` times passes over the workload until ``--seconds`` have gone
(at least two passes) and prints the end-to-end metrics.  ``--trace 1``
times untraced passes for ``--seconds`` (at least one), then runs one pass
with every layer's entry points wrapped, and prints the per-layer metrics
plus the tracing overhead.  Every estimate is checked against an exact
count made outside the timed passes.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

#: Kept apart from ``workloads.CONSTRUCTORS`` so arguments are checked before
#: the program is imported.
WORKLOADS = ("corpus", "random", "longword", "serve")
#: Iterations of the host-speed calibration loop, and the loop's median
#: time on the 2-vCPU Xeon virtual machine the benchmark was defined on.
CALIBRATION_LOOP = 1_000_000
CALIBRATION_REFERENCE_S = 0.13
SETUP_PROBES = 2
MIN_PASSES = 2
#: No pass starts that could end later than this after the first began, so
#: a run stays inside its 180-second limit.
DEADLINE_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up the workload, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def source_digest():
    """SHA-256 over the program's source files: the identity of the code run."""
    digest = hashlib.sha256()
    for directory, subdirectories, files in os.walk(os.path.join(SRC, "repro")):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_revision():
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_record(seed):
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def read_peak_rss_mb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reset_peak_rss():
    """Start a new peak-RSS watermark; returns whether the kernel allowed it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def probe_setup(args):
    """Set-up time of the workload in a fresh interpreter, and the slowdown."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-400:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["slowdown"]


def calibration_seconds():
    """Time of a fixed pure-Python loop that calls no program code."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value * value % 7
    return time.perf_counter() - started


def host_slowdown(every_cpu=False):
    """How much slower than the reference host this host runs right now.

    The calibration loop calls no program code, so a change to the program
    cannot move it.  The host this benchmark was defined on shares its CPUs
    with other machines and its speed drifts by 20% and more over minutes;
    dividing times by this factor takes most of that drift out of runs
    made at different moments.  ``every_cpu`` runs the loop at once on each
    usable CPU, one pinned process per CPU, and averages them: that is where
    a served workload's worker processes run.
    """
    if not every_cpu:
        return calibration_seconds() / CALIBRATION_REFERENCE_S
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); "
        "os.sched_setaffinity(0, {int(sys.argv[2])}); "
        "import run; print(run.calibration_seconds())"
    )
    probes = [
        subprocess.Popen(
            [sys.executable, "-c", code, HERE, str(cpu)], stdout=subprocess.PIPE, text=True
        )
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        seconds = [float(probe.communicate(timeout=60)[0]) for probe in probes]
    finally:
        for probe in probes:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
    return statistics.mean(seconds) / CALIBRATION_REFERENCE_S


def tail(values):
    """The highest of a few percentiles with at least ten samples beyond it."""
    for level in (99, 95, 90, 80, 75):
        if len(values) * (1 - level / 100.0) >= 10:
            return level, statistics.quantiles(values, n=100, method="inclusive")[level - 1]
    return None, None


def within_epsilon(estimate, exact, epsilon):
    if exact == 0:
        return estimate == 0
    return abs(estimate - exact) <= epsilon * exact


def fingerprint(outcome):
    """What must repeat exactly for one request at one seed."""
    return {"estimate": repr(outcome.estimate), **outcome.counters}


def ledger_check(path, record, problems):
    """Compare this run's deterministic record with earlier runs of the code."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        for key in set(earlier) & set(record):
            if earlier[key] != record[key]:
                problems.append(
                    f"{key} differs from an earlier run of this code at this seed"
                )
        merged = {**earlier, **record}
    else:
        merged = record
    temporary = path + ".tmp"
    with open(temporary, "w") as handle:
        json.dump(merged, handle, sort_keys=True)
    os.replace(temporary, path)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no program source at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "serve" and usable_cpus() < 2:
        reason = (
            f"serve needs 2 CPUs for its 2 executor workers; this host has "
            f"{usable_cpus()}, so its timings would measure contention"
        )
        print(json.dumps({"skipped": "serve", "reason": reason}))
        print(f"perfbench: serve skipped: {reason}", file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)

    import workloads

    workload = workloads.CONSTRUCTORS[args.workload](args.seed)
    setup_main = (time.perf_counter() - START, host_slowdown())
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_main[0], "slowdown": setup_main[1]}))
        return 0

    try:
        return measure(args, workload, setup_main, workloads)
    finally:
        workload.close()


def measure(args, workload, setup_main, workloads):
    host = host_record(args.seed)
    setup_samples = [setup_main] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    exact = ground_truth(workload)
    rss_reset = reset_peak_rss()
    passes, walls, slowdowns = timed_passes(args, workload)
    peak_rss_mb = read_peak_rss_mb()
    traced = traced_run(workload) if args.trace else None

    checked = passes + ([traced["outcomes"]] if traced else [])
    problems = check_outcomes(args.workload, passes[0], checked[1:])
    everything = [outcome for outcomes in checked for outcome in outcomes]
    raised = sum(1 for outcome in everything if outcome.error is not None)
    missed = sum(
        1
        for outcome in everything
        if outcome.error is None
        and not within_epsilon(outcome.estimate, exact[outcome.instance], workloads.EPSILON)
    )
    attempted, failed = len(everything), raised + missed

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "epsilon": workloads.EPSILON,
        "delta": workloads.DELTA,
        "passes": len(passes),
        "pass_walls_s": walls,
        "pass_slowdowns": slowdowns,
        "latencies_s": [
            [[o.instance, o.latency_s, o.cached] for o in outcomes] for outcomes in passes
        ],
        "setup_samples_s": [sample for sample, _ in setup_samples],
        "setup_slowdowns": [slowdown for _, slowdown in setup_samples],
        "peak_rss_reset": rss_reset,
        "accuracy": accuracy_rows(passes[0], exact, workloads.EPSILON),
        "counters_per_pass": summed_counters(passes[0]),
        "raised": raised,
        "outside_eps": missed,
        "failed_frac": failed / attempted,
    }
    ledger_record = {
        f"pass:{position}:{outcome.instance}": fingerprint(outcome)
        for position, outcome in enumerate(passes[0])
        if outcome.error is None
    }
    if traced:
        metrics = layer_metrics(traced, statistics.median(walls))
        for name in DETERMINISTIC_LAYER_COUNTS:
            ledger_record[f"traced:{name}"] = metrics[name][0]
        report["traced_wall_s"] = traced["wall"]
        report["note"] = traced["note"]
        write_json(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
            traced["record"],
        )
    else:
        metrics, extra = end_to_end_metrics(
            args.workload, passes, walls, slowdowns, setup_samples, peak_rss_mb
        )
        report.update(extra)

    ledger = f"{host['source_sha256'][:16]}-{args.workload}-{args.seed}.json"
    ledger_check(os.path.join(OUT, "ledger", ledger), ledger_record, problems)
    report["problems"] = problems
    write_json(
        os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        report,
    )
    print_summary(report, metrics, attempted, failed)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def ground_truth(workload):
    """Exact counts of every instance, made outside the timed passes."""
    import repro

    return {
        instance.name: int(repro.count(instance.nfa, instance.length, method="exact").raw)
        for instance in workload.instances
    }


def timed_passes(args, workload):
    """Passes until ``--seconds`` have gone, each between two slowdown probes.

    In-process workloads probe the CPU this process runs on; a served
    workload's counts run in worker processes on every CPU, so it probes
    them all.
    """
    passes, walls, slowdowns = [], [], []
    needed = 1 if args.trace else MIN_PASSES
    begun = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begun
        if len(passes) >= needed and (
            elapsed >= args.seconds or elapsed + max(walls) > DEADLINE_S
        ):
            return passes, walls, slowdowns
        workload.prepare()
        every_cpu = not workload.in_process
        before = host_slowdown(every_cpu)
        wall, outcomes = workload.run_pass()
        slowdowns.append((before + host_slowdown(every_cpu)) / 2)
        walls.append(wall)
        passes.append(outcomes)


def traced_run(workload):
    """One pass with every layer wrapped; returns what the layer metrics need."""
    import tracing
    from repro.automata.engine import acquire_engine

    engine_classes = {
        type(acquire_engine(instance.nfa)[0]) for instance in workload.instances
    }
    tracer = tracing.Tracer(sorted(engine_classes, key=lambda klass: klass.__name__))
    # Workers forked from here on would run wrapped code whose spans are lost;
    # start the pool first.
    workload.prepare()
    request_ids = itertools.count(1)
    tracer.install()
    try:
        wall, outcomes = workload.run_pass(
            wrap=lambda call: tracer.request(next(request_ids), call)
        )
    finally:
        tracer.uninstall()
    return {
        "tracer": tracer,
        "wall": wall,
        "outcomes": outcomes,
        "layer_counts": workload.layer_counts(),
        "note": tracing.WORKER_NOTE,
        "record": {**tracer.record(), "note": tracing.WORKER_NOTE},
    }


def check_outcomes(name, first, later_passes):
    """Determinism, cache and sanity checks; returns the problems found."""
    problems = []
    reference = [fingerprint(outcome) for outcome in first]
    for number, outcomes in enumerate(later_passes, start=1):
        for position, outcome in enumerate(outcomes):
            if outcome.error is None and first[position].error is None:
                if fingerprint(outcome) != reference[position]:
                    problems.append(
                        f"pass {number}: {outcome.instance} (request {position}) "
                        "differs from pass 0"
                    )
    for number, outcomes in enumerate([first, *later_passes]):
        if name == "serve":
            check_serve(number, outcomes, problems)
        for outcome in outcomes:
            if outcome.error is None and not (
                isinstance(outcome.estimate, float)
                and math.isfinite(outcome.estimate)
                and outcome.estimate >= 0
            ):
                problems.append(f"{outcome.instance}: estimate {outcome.estimate!r}")
    return problems


def accuracy_rows(outcomes, exact, epsilon):
    """Per-instance estimate against the exact count (reported, not gated)."""
    rows = {}
    for outcome in outcomes:
        if outcome.instance in rows:
            continue
        truth = exact[outcome.instance]
        row = {"instance": outcome.instance, "exact": str(truth), "error": outcome.error}
        if outcome.error is None:
            estimate = outcome.estimate
            row["estimate"] = estimate
            row["rel_err"] = abs(estimate - truth) / truth if truth else float(estimate != 0)
            row["within_eps"] = within_epsilon(estimate, truth, epsilon)
        rows[outcome.instance] = row
    return list(rows.values())


def summed_counters(outcomes):
    """Work counters of the requests that ran a count, summed over one pass."""
    counters = {}
    for outcome in outcomes:
        if outcome.cached:
            continue
        for key, value in outcome.counters.items():
            counters[key] = counters.get(key, 0) + value
    return counters


def check_serve(number, outcomes, problems):
    """Every repeat in a served pass is a cache hit equal to the first answer."""
    first = {}
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        expected_hit = outcome.instance in first
        if outcome.cached != expected_hit:
            problems.append(
                f"serve pass {number}: {outcome.instance} cached={outcome.cached}, "
                f"expected {expected_hit}"
            )
        elif expected_hit and fingerprint(outcome) != first[outcome.instance]:
            problems.append(
                f"serve pass {number}: cached {outcome.instance} differs from its miss"
            )
        first.setdefault(outcome.instance, fingerprint(outcome))


def end_to_end_metrics(name, passes, walls, slowdowns, setup_samples, peak_rss_mb):
    """The user-facing metrics; times are divided by the host slowdown."""
    counted, repeats = [], []
    for outcomes, slowdown in zip(passes, slowdowns):
        for outcome in outcomes:
            if outcome.error is None:
                latency = outcome.latency_s / slowdown
                (repeats if outcome.cached else counted).append(latency)
    if name != "serve":
        # The library keeps no result cache: a repeated request is a full
        # count, so its latency is a count latency.
        repeats = counted
    metrics = {
        "wall_s": (
            statistics.median(wall / slowdown for wall, slowdown in zip(walls, slowdowns)),
            "s",
        ),
        "count_s.p50": (statistics.median(counted), "s"),
        "hit_s.p50": (statistics.median(repeats), "s"),
        "setup_s": (
            statistics.median(setup / slowdown for setup, slowdown in setup_samples),
            "s",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    count_level, count_tail = tail(counted)
    hit_level, hit_tail = tail(repeats)
    extra = {
        "raw_wall_s": statistics.median(walls),
        "count_samples": len(counted),
        "hit_samples": len(repeats),
        "count_tail": {"percentile": count_level, "s": count_tail},
        "hit_tail": {"percentile": hit_level, "s": hit_tail},
    }
    return metrics, extra


#: Layer counts that must repeat exactly in traced runs of one seed.
DETERMINISTIC_LAYER_COUNTS = (
    "union.trials",
    "unroll.fan_calls",
    "unroll.fan_keys",
    "unroll.membership_queries",
    "unroll.witness_calls",
)


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics of the traced pass (``_s`` metrics are self time)."""
    tracer = traced["tracer"]
    layer_counts = traced["layer_counts"]
    totals = tracer.totals()

    def calls(name):
        return int(totals.get(name, (0, 0.0, 0.0))[0])

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    counted = [o for o in traced["outcomes"] if o.error is None and not o.cached]

    def summed(key):
        return sum(o.counters.get(key, 0) for o in counted)

    fan_calls = calls("unroll.fan")
    draws = summed("sampler.draws")
    trials = tracer.union_trials
    metrics = {
        "engine.pre_ops": (summed("engine.pre_ops"), "count"),
        "engine.step_ops": (summed("engine.step_ops"), "count"),
        "engine.pre_s": (self_s("engine.pre"), "s"),
        "unroll.fan_calls": (fan_calls, "count"),
        "unroll.fan_keys": (tracer.fan_keys, "count"),
        "unroll.fan_repeat_frac": (
            1.0 - tracer.fan_keys / fan_calls if fan_calls else 0.0,
            "fraction",
        ),
        "unroll.fan_s": (self_s("unroll.fan"), "s"),
        "unroll.membership_queries": (tracer.membership_queries, "count"),
        "unroll.membership_s": (self_s("unroll.membership"), "s"),
        "unroll.witness_calls": (calls("unroll.witness"), "count"),
        "union.calls": (calls("union"), "count"),
        "union.trials": (trials, "count"),
        "union.unique_frac": (tracer.union_unique / trials if trials else 0.0, "fraction"),
        "union.stream_items": (tracer.union_stream_items, "count"),
        "union.items_per_trial": (
            tracer.union_stream_items / trials if trials else 0.0,
            "ratio",
        ),
        "union.s": (self_s("union"), "s"),
        "sampler.draws": (draws, "count"),
        "sampler.accept_frac": (
            summed("sampler.successes") / draws if draws else 0.0,
            "fraction",
        ),
        "sampler.padded_states": (summed("sampler.padded_states"), "count"),
        "sampler.draw_s": (self_s("sampler.draw"), "s"),
        "fpras.levels": (sum(len(times) for times in tracer.level_times), "count"),
        "fpras.level_growth": (tracer.level_growth(), "ratio"),
        "fpras.run_s": (self_s("fpras.run"), "s"),
        "store.spilled_levels": (summed("store.spilled_levels"), "count"),
        "store.level_faults": (summed("store.level_faults"), "count"),
        "store.spill_bytes": (summed("store.spill_bytes"), "bytes"),
        "exec.pools_created": (layer_counts.get("exec.pools_created", 0), "count"),
        "exec.pools_reused": (layer_counts.get("exec.pools_reused", 0), "count"),
        "exec.sharded_s": (self_s("exec.sharded"), "s"),
        "serve.cache_hits": (layer_counts.get("serve.cache_hits", 0), "count"),
        "serve.cache_misses": (layer_counts.get("serve.cache_misses", 0), "count"),
        "serve.rejected": (layer_counts.get("serve.rejected", 0), "count"),
        "serve.fingerprint_s": (self_s("serve.fingerprint"), "s"),
        "serve.to_dict_s": (self_s("serve.to_dict"), "s"),
        "trace.overhead_s": (traced["wall"] - untraced_wall, "s"),
    }
    return metrics


def write_json(path, document):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, default=str)


def print_summary(report, metrics, attempted, failed):
    host = report["host"]
    print(
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
        f"rev={host['git_revision'] or 'unknown'} src={host['source_sha256'][:12]}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(
        f"  {'failed_frac':<28} {failed / attempted:>16.6g} fraction "
        f"({failed}/{attempted}: {report['raised']} raised or refused, "
        f"{report['outside_eps']} outside (1+-{report['epsilon']})*exact)"
    )
    if "raw_wall_s" in report:
        print(
            f"  times above are divided by the host slowdown "
            f"(passes: {', '.join(f'{value:.3f}' for value in report['pass_slowdowns'])}); "
            f"raw wall_s {report['raw_wall_s']:.6g} s"
        )
    if "count_samples" in report:
        print(
            f"  samples: count n={report['count_samples']} "
            f"tail p{report['count_tail']['percentile']}={report['count_tail']['s']}; "
            f"hit n={report['hit_samples']} "
            f"tail p{report['hit_tail']['percentile']}={report['hit_tail']['s']}"
        )
    if "note" in report:
        print(f"  note: {report['note']}")
    for row in report["accuracy"]:
        print(
            f"  exact {row['instance']}: exact={row['exact']} "
            f"estimate={row.get('estimate')} rel_err={row.get('rel_err')} "
            f"within_eps={row.get('within_eps')}"
        )
    print("  counters per pass: " + json.dumps(report["counters_per_pass"], sort_keys=True))
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


if __name__ == "__main__":
    sys.exit(main())
