"""The repo benchmark: four pinned surveys through ``run_pipeline``.

    python benchmarks/suite/run.py [--seed N]            # everything
    python benchmarks/suite/run.py --workload NAME --seed N \
        --seconds S --trace 0|1                          # one run
    python benchmarks/suite/run.py --aa                  # A/A agreement
    python benchmarks/suite/run.py --smoke               # seconds, tiny

With ``--workload`` this process *is* the workload's fresh interpreter:
it pins BLAS threads, imports the program, sets up, measures, checks, and
prints one JSON object as its last line.  Without it, each workload runs
in its own child interpreter, one at a time (never two at once), first
untraced for the end-to-end metrics and then traced for the per-layer
ones.  See README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

_T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import spec  # noqa: E402  (needs HERE on the path when run by file name)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", action="store_true",
                   help="two untraced sets back to back, compared to the "
                        "bounds")
    p.add_argument("--smoke", action="store_true",
                   help="tiny surveys, one repetition, writes no results")
    p.add_argument("--write-spec", action="store_true",
                   help="regenerate BENCHMARK.json from spec.py and exit")
    return p.parse_args(argv)


def _metric_lines(values: dict, declared: list) -> list[str]:
    return ["  %-44s %16.6g %s" % (m["name"], values[m["name"]], m["unit"])
            for m in declared if m["name"] in values]


def _result_line(record: dict, trace: int) -> str:
    """The contract's last line: exactly ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — every end-to-end metric untraced, every
    per-layer metric traced."""
    declared, values = ((spec.PER_LAYER, record["per_layer"]) if trace
                        else (spec.END_TO_END, record["end_to_end"]))
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared if m["name"] in values
        },
    })


# -- one workload, in this interpreter ------------------------------------

def run_one(args) -> int:
    from envstamp import pin_environment, stamp

    pin_environment()
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    import measure

    import_s = time.perf_counter() - _T_START
    record = measure.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke, OUT, import_s)
    record["environment"] = stamp(ROOT, args.seed,
                                  record.get("repetitions", 0))
    record["smoke"] = args.smoke

    print("workload %s  seed %d  repetitions %d  catalog %s" % (
        record["workload"], args.seed, record.get("repetitions", 0),
        record.get("catalog_hash")))
    if not args.trace:  # a traced run lists it with the per-layer metrics
        print("  %-44s %16.6g %s" % ("harness.import_s", import_s, "s"))
    print("  %-44s %16.6g %s" % (
        "failed_ops_fraction", record.get("failed_ops_fraction", 1.0),
        "fraction"))
    for line in _metric_lines(record["end_to_end"], spec.END_TO_END):
        print(line)
    for line in _metric_lines(record["per_layer"], spec.PER_LAYER):
        print(line)
    for failure in record["failures"]:
        print("FAILED: " + failure, file=sys.stderr)

    with open(_record_path(args.workload, args.trace), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    sys.stdout.flush()
    print(_result_line(record, args.trace))
    return 0 if record["correct"] else 1


def _record_path(workload: str, trace: int) -> str:
    return os.path.join(OUT, "run-%s-trace%d.json" % (workload, trace))


# -- every workload, each in a fresh child interpreter --------------------

def _child(workload: str, args, trace: int) -> dict:
    """Run one workload in a child interpreter and return its record
    (``correct`` false when the child died without leaving one)."""
    path = _record_path(workload, trace)
    if os.path.exists(path):
        os.unlink(path)
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.Popen(cmd, cwd=ROOT)
    try:
        done.wait(timeout=900)
    except BaseException as exc:
        # SIGTERM first: the workload stops its own workers on it.
        done.terminate()
        try:
            done.wait(timeout=10)
        except subprocess.TimeoutExpired:
            done.kill()
            done.wait()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {"workload": workload, "correct": False, "attempted": 1,
                "failed": 1, "end_to_end": {}, "per_layer": {},
                "failures": ["child exited %d without a record"
                             % done.returncode]}
    if done.returncode != 0 and record["correct"]:
        record["correct"] = False
        record["failures"].append("child exited %d" % done.returncode)
    return record


def _identity_failures(records: dict) -> list[str]:
    """The executor/transport/resume bit-identity contract: the three
    workloads that share a survey and a fingerprinted config must produce
    one catalog."""
    hashes = {w: records[w].get("catalog_hash")
              for w in spec.SCALAR_WORKLOADS if w in records}
    if len(set(hashes.values())) > 1 or None in hashes.values():
        return ["sparse_scalar / process_disk / resume_stage1 catalogs "
                "differ: %s" % hashes]
    return []


def run_all(args) -> int:
    names = [w["name"] for w in spec.WORKLOADS]
    failures: list[str] = []
    # A smoke pass needs one child per workload: the traced child also
    # measures the end-to-end metrics (from a single repetition).
    untraced = {} if args.smoke else {
        w: _child(w, args, trace=0) for w in names}
    traced = {w: _child(w, args, trace=1) for w in names}
    headline = untraced or traced

    print("\n== end to end " + "=" * 58)
    for w in names:
        print("%s  (%d repetitions, catalog %s)" % (
            w, headline[w].get("repetitions", 0),
            headline[w].get("catalog_hash")))
        for line in _metric_lines(headline[w]["end_to_end"],
                                  spec.END_TO_END):
            print(line)
    print("\n== per layer (traced pass) " + "=" * 45)
    for w in names:
        print(w)
        for line in _metric_lines(traced[w]["per_layer"], spec.PER_LAYER):
            print(line)

    for records in (untraced, traced):
        for w, record in records.items():
            failures += ["%s: %s" % (w, f) for f in record["failures"]]
        if records:
            failures += _identity_failures(records)
    for failure in failures:
        print("FAILED: " + failure, file=sys.stderr)
    if not args.smoke:
        path = os.path.join(OUT, "results-seed%d.json" % args.seed)
        with open(path, "w") as f:
            json.dump({
                "environment": headline[names[0]].get("environment"),
                "correct": not failures, "failures": failures,
                "end_to_end": untraced, "per_layer": traced,
            }, f, indent=1, sort_keys=True)
        print("\nwrote %s" % os.path.relpath(path, ROOT))
    print("OK" if not failures else "FAILED (%d)" % len(failures))
    return 0 if not failures else 1


def run_aa(args) -> int:
    """Two complete untraced sets of the same tree, back to back: every
    end-to-end metric of every workload must agree within its bound."""
    names = [w["name"] for w in spec.WORKLOADS]
    sets = [{w: _child(w, args, trace=0) for w in names} for _ in range(2)]
    exceeded = 0
    print("\n%-16s %-22s %12s %12s %9s %7s" % (
        "workload", "metric", "A", "B", "worse by", "bound"))
    for w in names:
        a, b = sets[0][w], sets[1][w]
        if not (a["correct"] and b["correct"]):
            print("%-16s FAILED: %s" % (w, a["failures"] + b["failures"]))
            exceeded += 1
            continue
        for m in spec.END_TO_END:
            va, vb = a["end_to_end"][m["name"]], b["end_to_end"][m["name"]]
            worse = (vb - va) / va if m["better"] == "lower" \
                else (va - vb) / va
            flag = ""
            if abs(worse) > m["bound"]:
                exceeded += 1
                flag = "  <-- exceeds bound"
            print("%-16s %-22s %12.5g %12.5g %+8.1f%% %6.0f%%%s" % (
                w, m["name"], va, vb, 100 * worse, 100 * m["bound"], flag))
    print("OK" if not exceeded else "FAILED (%d)" % exceeded)
    return 0 if not exceeded else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: %s holds no program to benchmark (src/repro missing)"
              % ROOT, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    from envstamp import stop_children

    # Every path out — a result, an exception, a SIGTERM — stops every
    # process this one started (workers, multiprocessing's resource
    # tracker, a workload's interpreter) and waits until each has ended.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.workload:
            return run_one(args)
        if args.aa:
            return run_aa(args)
        return run_all(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
