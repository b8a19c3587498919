"""One workload process: import chansim, parse the configs, run, write.

Usage: python3 worker.py --out DIR [--trace] [--setup-only] CONFIG...

Parses every config document, then, as ``chansim run`` does for one,
runs each sweep and writes its CSV and manifest.  Prints one JSON
object: set-up and sweep wall time, sweep CPU time (user plus system,
this process and any worker processes it waited for), peak resident
memory, the result rows at full precision, per-sweep wall times and,
with --trace, the per-layer trace summary (the spans go to
DIR/trace.json).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args()

    import chansim  # noqa: F401
    from chansim import config, runner
    import_s = time.perf_counter() - _T0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    parsed = []
    for path in args.configs:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.splitext(os.path.basename(path))[0]
        parsed.append((name, config.parse_config(text)))
    setup_s = import_s + time.perf_counter() - start
    report = {"setup_s": setup_s}

    if not args.setup_only:
        rows, columns, sweep_s = {}, {}, {}
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        for name, cfg in parsed:
            begin = time.perf_counter()
            result = runner.run_experiment(cfg)
            runner.emit_csv(result, os.path.join(args.out, name + ".csv"))
            sweep_s[name] = time.perf_counter() - begin
            rows[name] = [[v if isinstance(v, str) else float(v) for v in row]
                          for row in result.rows]
            columns[name] = list(result.columns)
        report["sweep_s"] = time.perf_counter() - wall0
        report["cpu_s"] = _cpu_s() - cpu0
        report["config_s"] = sweep_s
        report["rows"] = rows
        report["columns"] = columns
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.dump(os.path.join(args.out, "trace.json"))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
