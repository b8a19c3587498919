"""chansim benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sweep runs in a fresh worker process (worker.py) in the CLI's
order: import chansim, parse the config documents, run the sweeps, write
CSV and manifest files.  A run first starts SETUP_SAMPLES workers that
only import and parse, then repeats whole rounds of the workload's
sweeps, at least one, while the next round is expected to end within S
seconds.  With --trace 1 each round runs twice, untraced and traced, and
the run reports the per-layer metrics; with --trace 0 it reports the
end-to-end metrics, each the median over the run's workers.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it gives the machine.
Outputs go to bench/out/<workload>/.

The benchmark sets no BLAS thread variable: workers inherit the caller's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "capacity_oracle.json"

SETUP_SAMPLES = 7
RUN_CAP_S = 150.0        # no round starts that would end the run later than this
WORKER_TIMEOUT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"sweep_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _calls(layer):
    return ("count", lambda s: s.get(layer, {}).get("calls", 0))


def _self_s(*layers):
    return ("s", lambda s: sum(s.get(x, {}).get("self_s", 0.0) for x in layers))


def _gflop(*layers):
    return ("GFLOP", lambda s: sum(s.get(x, {}).get("flop", 0.0) for x in layers) / 1e9)


# Per-layer metric -> (unit, value from a trace summary).
PER_LAYER = {
    "linalg.sqrt.calls": _calls("linalg.sqrt"),
    "linalg.sqrt.self_s": _self_s("linalg.sqrt"),
    "linalg.eigvals.calls": _calls("linalg.eigvals"),
    "linalg.eigvals.self_s": _self_s("linalg.eigvals"),
    "linalg.cond.calls": _calls("linalg.cond"),
    "linalg.cond.self_s": _self_s("linalg.cond"),
    "linalg.eig_gflop": _gflop("linalg.eigvals", "linalg.sqrt", "linalg.cond"),
    "gbsm.ula_quadrature.calls": _calls("gbsm.ula_quadrature"),
    "gbsm.ula_quadrature.self_s": _self_s("gbsm.ula_quadrature"),
    "gbsm.ula_kernel.calls": _calls("gbsm.ula_kernel"),
    "gbsm.ula_kernel.self_s": _self_s("gbsm.ula_kernel"),
    "gbsm.upa_quadrature.calls": _calls("gbsm.upa_quadrature"),
    "gbsm.upa_quadrature.self_s": _self_s("gbsm.upa_quadrature"),
    "gbsm.quadrature_gflop": _gflop("gbsm.ula_quadrature", "gbsm.upa_quadrature"),
    "cbsm.build.calls": _calls("cbsm.build"),
    "cbsm.build.self_s": _self_s("cbsm.build"),
    "xlmimo.scenario.calls": _calls("xlmimo.scenario"),
    "xlmimo.scenario.self_s": _self_s("xlmimo.scenario"),
    "xlmimo.cluster_corr.calls": _calls("xlmimo.cluster_corr"),
    "xlmimo.assemble.self_s": _self_s("xlmimo.assemble"),
    "precoding.calls": _calls("precoding"),
    "precoding.self_s": _self_s("precoding"),
    "metrics.self_s": _self_s("metrics"),
    "runner.trial.calls": _calls("runner.trial"),
    "runner.self_s": _self_s("runner", "runner.trial"),
    "runner.emit_csv.self_s": _self_s("runner.emit_csv"),
    "config.parse.self_s": _self_s("config.parse"),
}
TRACE_OVERHEAD = "trace.overhead_s"


class WorkerFailed(RuntimeError):
    pass


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_worker(out: Path, configs, trace=False, setup_only=False) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(cmd + [str(p) for p in configs], env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise WorkerFailed(f"worker timed out after {e.timeout} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(workload, docs, out, plain, traced) -> list[str]:
    errors = []
    first = plain[0]
    results = {}
    for name, text in docs:
        columns, rows = first["columns"][name], first["rows"][name]
        results[name] = (columns, rows)
        csv = (out / "round0" / f"{name}.csv").read_bytes()
        manifest = (out / "round0" / f"{name}.csv.manifest").read_text(encoding="utf-8")
        errors += checks.check_csv(text, columns, rows, csv.decode("utf-8"), manifest)
        errors += checks.check_rows(columns, rows)
        others = [out / f"round{i}" for i in range(1, len(plain))]
        others += [out / f"traced{i}" for i in range(len(traced))]
        for other in others:
            if (other / f"{name}.csv").read_bytes() != csv:
                errors.append(f"{other.name}/{name}.csv differs from round0/{name}.csv")
    if workload == "xl_sinr":
        errors += checks.check_xl(results)
    elif workload == "ula_capacity":
        errors += checks.check_ula(results, json.loads(FIXTURE.read_text(encoding="utf-8")))
    else:
        errors += checks.check_upa(results)
    for report in traced:
        errors += checks.check_calls([text for _, text in docs], report["layers"])
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "chansim" / "__init__.py").is_file() or not FIXTURE.is_file():
        print(f"bench: no chansim checkout around {HERE} "
              f"(need {SRC}/chansim and {FIXTURE})", file=sys.stderr)
        return 2

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "configs").mkdir(parents=True)
    docs = workloads.configs(args.workload, args.seed)
    paths = []
    for name, text in docs:
        path = out / "configs" / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    facts = machine_facts()
    print(json.dumps({"machine": facts}))

    try:
        run_worker(out / "setup", paths, setup_only=True)   # fills bytecode and file caches
        setup = [run_worker(out / "setup", paths, setup_only=True)["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(run_worker(out / f"round{len(plain)}", paths))
            if args.trace:
                traced.append(run_worker(out / f"traced{len(traced)}", paths, trace=True))
            now = time.perf_counter()
            per_round = (now - start) / len(plain)
            if now - start + per_round > min(args.seconds, RUN_CAP_S - (start - began)):
                break
    except WorkerFailed as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    errors = check_outputs(args.workload, docs, out, plain, traced)
    for line in errors:
        print(f"bench: check failed: {line}", file=sys.stderr)

    def median(key, reports):
        return statistics.median(r[key] for r in reports)

    if args.trace:
        metrics = {name: {"value": statistics.median_low(fn(r["layers"]) for r in traced),
                          "unit": unit}
                   for name, (unit, fn) in PER_LAYER.items()}
        metrics[TRACE_OVERHEAD] = {
            "value": median("sweep_s", traced) - median("sweep_s", plain), "unit": "s"}
    else:
        values = {"sweep_s": median("sweep_s", plain), "cpu_s": median("cpu_s", plain),
                  "setup_s": statistics.median(setup + [r["setup_s"] for r in plain]),
                  "peak_rss_mb": median("peak_rss_mb", plain)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    points = sum(len(rows) for rows in plain[0]["rows"].values())
    result = {"correct": not errors, "attempted": points * (len(plain) + len(traced)),
              "failed": 0, "metrics": metrics}
    keep = ("setup_s", "sweep_s", "cpu_s", "peak_rss_mb", "config_s")
    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "setup_s": setup,
        "rounds": [{k: r[k] for k in keep} for r in plain],
        "traced_rounds": [{k: r[k] for k in keep} | {"layers": r["layers"]}
                          for r in traced],
        "errors": errors, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
