#!/usr/bin/env python3
"""Layered benchmark of the CXL-PIM serving simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline_decode --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics.  It starts a few set-up-only
processes, then fresh workload processes one after another until
``--seconds`` have passed (at least ``MIN_PROCESSES``).  Each workload
process sets up, makes one cold serve call and a few warm repeats.  Host
times are medians over all samples of the run; the ``sim_*`` metrics are
the simulated outcome, which every call of the run must reproduce exactly.

``--trace 1`` runs one traced process instead and reports the per-layer
metrics; its spans land in ``perfbench/out/<workload>.spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up-only processes per timed run.  Set-up is ~0.5 s, mostly imports,
#: so ``setup_s`` is the median of these plus the workload processes' own
#: set-up times.
SETUP_PROCESSES = 10
MIN_PROCESSES = 2
#: Every worker is killed (and counted as failed) once the run has taken
#: this long, so the run itself ends well within three minutes.
RUN_DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and every metric's name, unit
    and report order."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        return json.load(handle)


def select(values: dict, specs: list) -> dict:
    """The result's ``metrics`` object: every metric of ``specs`` in order."""
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise WorkerError("no value for " + ", ".join(missing))
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs}


def run_worker(root: str, out_dir: str, mode: str, args) -> dict:
    """One fresh process; returns its JSON report."""
    timeout = args.deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for a {mode} worker")
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--out", out_dir]
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as error:
        raise WorkerError(
            f"{mode} worker timed out after {error.timeout} s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {done.returncode}:\n"
                          + done.stderr[-4000:])
    return json.loads(lines[-1])


def timed(root: str, out_dir: str, args):
    setups, colds, warms, peaks, reports, errors = [], [], [], [], [], []
    for _ in range(SETUP_PROCESSES):
        try:
            setups.append(run_worker(root, out_dir, "setup", args)["setup_s"])
        except WorkerError as error:
            errors.append(str(error))
    start = time.monotonic()
    while (len(reports) + len(errors) < MIN_PROCESSES
           or time.monotonic() - start < args.seconds):
        try:
            report = run_worker(root, out_dir, "timed", args)
        except WorkerError as error:
            errors.append(str(error))
            if len(errors) > 1:
                break
            continue
        reports.append(report)
        setups.append(report["setup_s"])
        colds.append(report["cold_run_s"])
        warms.extend(report["warm_run_s"])
        peaks.append(report["peak_rss_mib"])
    if not reports:
        raise WorkerError("\n".join(errors))

    first = reports[0]["outcome"]
    failures = [text for report in reports for text in report["failures"]]
    failures += errors
    for report in reports[1:]:
        if report["outcome"]["fingerprint"] != first["fingerprint"]:
            failures.append("simulated fingerprint differs between processes")
    host = {"setup_s": setups, "cold_run_s": colds, "warm_run_s": warms,
            "peak_rss_mib": peaks}
    values = {name: statistics.median(samples) for name, samples in host.items()}
    values.update({name: value for name, value in first.items()
                   if name.startswith("sim_")})
    metrics = select(values, args.spec["end_to_end"])
    print(f"{args.workload} seed {args.seed}: {len(reports)} workload "
          f"processes, {SETUP_PROCESSES} set-up processes")
    for name, metric in metrics.items():
        line = f"  {name:28s} {metric['value']:14.6g} {metric['unit']:6s}"
        if name in host:
            line += (f" median of {len(host[name])}, range "
                     f"{min(host[name]):.4g}..{max(host[name]):.4g}")
        print(line)
    print(f"  sim_ttft_* over {first['ttft_samples']} samples and sim_tbt_* "
          f"over {first['tbt_samples']} samples per result (worst result)")
    attempted = sum(report["attempted"] for report in reports) + len(errors)
    failed = sum(report["failed"] for report in reports) + len(errors)
    return attempted, failed, failures, metrics


def traced(root: str, out_dir: str, args):
    report = run_worker(root, out_dir, "traced", args)
    metrics = select(report["metrics"], args.spec["per_layer"])
    print(f"{args.workload} seed {args.seed}: traced run, {report['spans']} "
          f"spans -> {os.path.relpath(out_dir, root)}/{args.workload}.spans.json")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    for statement, holds in report["predictions"]:
        print(f"  prediction {'holds' if holds else 'MISSED'}: {statement}")
    return report["attempted"], report["failed"], report["failures"], metrics


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.spec = spec
    args.deadline = time.monotonic() + RUN_DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root; src/repro is missing",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        attempted, failed, failures, metrics = (
            traced if args.trace else timed)(root, out_dir, args)
    except WorkerError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    for text in failures:
        print(f"  CHECK FAILED: {text}")
    print(json.dumps({"correct": not failures and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
