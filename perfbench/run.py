"""End-to-end benchmark of the stratikit command line.

    python3 perfbench/run.py --workload reports|arrangements|spaces \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  All inputs are written before timing starts.  One closed-loop
client runs one fresh ``python -m stratikit.cli`` process per job, one at a
time.  An untimed reference pass first compares every job's exit code and
``results`` digest with ``expected.json``; the timed passes then check exit
codes and the per-job timeout.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints per-layer
metrics instead: the import breakdown of a child run with ``-X importtime``,
and layer self times and work counts from an in-process pass over the same
jobs with the layers wrapped (see layers.py), against an untraced in-process
pass for the overhead ratio.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jobs as joblib
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"

PY = sys.executable
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
JOB_TIMEOUT = 60.0  # seconds; a job over it is killed and counts as failed
DEADLINE = 150.0  # no pass starts that would end after this much of the run
REFERENCE_WORKERS = 2
SETUP_PER_PASS = 3  # `import stratikit.cli` children timed before each pass
MIN_PASSES = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs above it


def results_digest(stdout_text):
    """sha256 of the canonical ``results`` object of one report.

    Only ``results`` is compared: ``checks`` may legitimately change when a
    hard-coded check becomes a real one.
    """
    results = json.loads(stdout_text).get("results")
    canon = json.dumps(results, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def run_child(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion.

    Returns (exit code, or None if it was killed or died by a signal,
    wall seconds from spawn to reap, resource usage of the child).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout,
                            stderr=stderr, env=CHILD_ENV, cwd=ROOT)
    timer = threading.Timer(JOB_TIMEOUT, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode if proc.returncode >= 0 else None), elapsed, usage


def job_argv(job, path):
    argv = [PY, "-m", "stratikit.cli", *job.args]
    return argv + ["--input", str(path)] if path else argv


def write_inputs(job_list, directory):
    """Write every input file; returns one path (or None) per job."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    paths = []
    for i, job in enumerate(job_list):
        if job.doc is None:
            paths.append(None)
            continue
        path = directory / f"{i:03d}.json"
        path.write_bytes(joblib.input_bytes(job))
        paths.append(path)
    return paths


def reference_runs(job_list, paths, out_dir):
    """Run every job once, REFERENCE_WORKERS at a time, keeping its stdout and
    stderr in out_dir.  Returns (exit code, results digest or None) per job."""
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(i):
        out, err = out_dir / f"{i:03d}.out", out_dir / f"{i:03d}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            code, _, _ = run_child(job_argv(job_list[i], paths[i]), fo, fe)
        try:
            return code, results_digest(out.read_text(encoding="utf-8"))
        except (ValueError, AttributeError):  # not a JSON object report
            return code, None

    with ThreadPoolExecutor(REFERENCE_WORKERS) as pool:
        return list(pool.map(one, range(len(job_list))))


def reference_pass(job_list, paths, expected, out_dir):
    """Untimed pass whose stdout is compared with the recorded exit codes and
    digests.  Returns the ids of the failed jobs."""
    failed = []
    for i, (job, got) in enumerate(zip(job_list, reference_runs(job_list, paths, out_dir))):
        want = expected.get(job.id)
        if got != want:
            print(f"gate: {job.id} gave exit {got[0]}, digest {got[1]}; expected "
                  f"{want or 'nothing recorded'}; stderr in {out_dir / f'{i:03d}.err'}",
                  file=sys.stderr)
            failed.append(job.id)
    return failed


def timed_pass(job_list, paths, expected, out_path):
    """One closed-loop pass.  Returns (wall, per-job latencies, cpu seconds,
    peak child RSS in MB, failed count)."""
    latencies, cpu, rss, failed = [], 0.0, 0, 0
    start = time.perf_counter()
    for job, path in zip(job_list, paths):
        with open(out_path, "wb") as out:
            code, elapsed, usage = run_child(job_argv(job, path), out)
        latencies.append(elapsed)
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)
        failed += code is None or code != expected.get(job.id, (None,))[0]
    return time.perf_counter() - start, latencies, cpu, rss / 1024, failed


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(jobs_per_pass, samples):
    """Highest percentile with TAIL_BEYOND jobs beyond it in MIN_PASSES passes;
    fixed per workload so that the number of passes a run fits does not move it."""
    q = 100 * (1 - TAIL_BEYOND / (MIN_PASSES * jobs_per_pass))
    if samples * (1 - q / 100) < TAIL_BEYOND:  # the deadline cut the passes short
        q = 100 * (1 - TAIL_BEYOND / samples) if samples > TAIL_BEYOND else 100.0
    return q


def setup_times(argv, repeats):
    times = []
    for _ in range(repeats):
        code, elapsed, _ = run_child(argv)
        if code != 0:
            raise SystemExit(f"perfbench: {' '.join(argv[1:])} exited with {code}")
        times.append(elapsed)
    return times


def end_to_end(job_list, paths, expected, seconds, started):
    """Timed passes; returns (metrics, summary lines, attempted, failed)."""
    ref_failed = reference_pass(job_list, paths, expected, WORK / "ref")
    setups, walls, latencies, cpus, rsss = [], [], [], [], []
    failed = len(ref_failed)
    measure_start = time.perf_counter()
    while True:
        setups += setup_times([PY, "-c", "import stratikit.cli"], SETUP_PER_PASS)
        wall, lat, cpu, rss, bad = timed_pass(job_list, paths, expected,
                                              WORK / "timed.out")
        walls.append(wall)
        latencies += lat
        cpus.append(cpu)
        rsss.append(rss)
        failed += bad
        now = time.perf_counter()
        if now - started + wall > DEADLINE or (
                len(walls) >= MIN_PASSES and now - measure_start + wall > seconds):
            break
    attempted = len(job_list) * (1 + len(walls))
    q = tail_percentile(len(job_list), len(latencies))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "report_p50_s": (statistics.median(latencies), "s"),
        "report_tail_s": (percentile(latencies, q), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} `import stratikit.cli` children",
        "wall_s": f"median of {len(walls)} passes of {len(job_list)} jobs: "
                  + " ".join(f"{w:.3f}" for w in walls),
        "cpu_s": f"child user+sys per pass, median of {len(walls)}",
        "report_p50_s": f"median of {len(latencies)} job latencies",
        "report_tail_s": f"p{q:.1f} of {len(latencies)} job latencies",
        "peak_rss_mb": f"largest child max-RSS per pass, median of {len(walls)}",
    }
    lines = [f"  {name:<15} {value:12.4f} {unit:<3} {notes[name]}"
             for name, (value, unit) in metrics.items()]
    lines.append("  setup share of the median job: "
                 f"{metrics['setup_s'][0] / metrics['report_p50_s'][0]:.3f}")
    lines.append(f"  {'fail_share':<15} {failed / attempted:12.4f}     "
                 f"{failed} of {attempted} jobs (reference gate: "
                 f"{len(ref_failed)} of {len(job_list)} failed)")
    return metrics, lines, attempted, failed


def import_breakdown(repeats):
    """Medians of the numpy and stratikit self import times of
    `python -X importtime -c "import stratikit.cli"`."""
    numpy, own = [], []
    for _ in range(repeats):
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import stratikit.cli"],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, env=CHILD_ENV, cwd=ROOT,
                              text=True, timeout=JOB_TIMEOUT, check=True)
        sums = {"numpy": 0, "stratikit": 0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in sums:
                sums[top] += int(self_us)
        numpy.append(sums["numpy"] / 1e6)
        own.append(sums["stratikit"] / 1e6)
    return statistics.median(numpy), statistics.median(own)


def in_process_pass(cli, job_list, paths, expected, tracer=None):
    """Run every job through stratikit.cli.main in this process.

    Returns (wall seconds, report bytes, failed count)."""
    nbytes, failed = 0, 0
    start = time.perf_counter()
    for job, path in zip(job_list, paths):
        argv = list(job.args) + (["--input", str(path)] if path else [])
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call(layers.ROOT_SPAN, cli.main, argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a crash fails this job, not the benchmark
            traceback.print_exc()
            code = None
        nbytes += len(buf.getvalue().encode("utf-8"))
        failed += code != expected.get(job.id, (None,))[0]
    return time.perf_counter() - start, nbytes, failed


def import_stratikit():
    sys.path.insert(0, str(SRC))
    from stratikit import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported stratikit from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def per_layer(job_list, paths, expected, seconds, started):
    """Traced and untraced in-process pass pairs; returns (metrics, summary
    lines, attempted, failed)."""
    ref_failed = reference_pass(job_list, paths, expected, WORK / "ref")
    interpreter = statistics.median(setup_times([PY, "-c", "pass"], 5))
    numpy_s, own_s = import_breakdown(5)
    cli = import_stratikit()
    tracer = layers.Tracer()
    plain, traced, layer_runs = [], [], []
    _, _, failed = in_process_pass(cli, job_list, paths, expected)  # warm-up
    failed += len(ref_failed)
    runs = 1
    measure_start = time.perf_counter()
    while True:
        wall, _, bad = in_process_pass(cli, job_list, paths, expected)
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            wall, nbytes, bad2 = in_process_pass(cli, job_list, paths, expected, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        layer = layers.pass_metrics(tracer)
        layer["jsonio.report_bytes"] = nbytes
        layer_runs.append(layer)
        failed += bad + bad2
        runs += 2
        now = time.perf_counter()
        pair = (now - measure_start) / len(plain)
        if now - measure_start + pair > seconds or now - started + pair > DEADLINE:
            break
    values = {
        "setup.interpreter_s": interpreter,
        "setup.import_numpy_s": numpy_s,
        "setup.import_stratikit_s": own_s,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
    }
    metrics = {}
    for name, unit in layers.LAYER_METRICS:
        if name not in values:
            values[name] = statistics.median(run.get(name, 0) for run in layer_runs)
        metrics[name] = (values[name], unit)
    lines = [f"  {name:<32} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += shares(layer_runs, statistics.median(traced))
    attempted = len(job_list) * (1 + runs)
    return metrics, lines, attempted, failed


GROUPS = {
    "feasibility+arrangement": ("feasibility", "arrangement"),
    "order+topology+decomposition+homology":
        ("order", "topology", "decomposition", "homology"),
}


def shares(layer_runs, traced_wall):
    """Share of the traced in-process time spent in each group of layers."""
    lines = []
    for group, prefixes in GROUPS.items():
        total = statistics.median(
            sum(v for k, v in run.items()
                if k.endswith("_s") and k.split(".")[0] in prefixes)
            for run in layer_runs)
        lines.append(f"  share of traced time in {group}: {total / traced_wall:.3f}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "stratikit" / "cli.py").is_file():
        print(f"perfbench: no stratikit sources under {SRC}", file=sys.stderr)
        return 2
    expected = {k: tuple(v) for k, v in json.loads(EXPECTED.read_text()).items()}
    job_list = joblib.jobs(args.workload, args.seed)
    paths = write_inputs(job_list, WORK / "inputs")

    measure = per_layer if args.trace else end_to_end
    metrics, lines, attempted, failed = measure(job_list, paths, expected,
                                                args.seconds, started)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(job_list)} jobs, gate {'passed' if not failed else 'FAILED'}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
