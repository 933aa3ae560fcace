"""Schema and smoke tests of the repo benchmark.

Run with ``python -m pytest benchmarks/suite`` (outside the tier-1
``testpaths``; the smoke test takes about half a minute).
"""

import json
import os
import re
import socket
import subprocess
import sys

import pytest

import envstamp
import spans
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TestSchema:
    def test_benchmark_json_is_generated_from_spec(self):
        assert _benchmark_json() == spec.benchmark_json(), (
            "BENCHMARK.json drifted from spec.py; run "
            "python benchmarks/suite/run.py --write-spec")

    def test_top_level_keys_and_limits(self):
        b = spec.benchmark_json()
        assert sorted(b) == ["command", "end_to_end", "paths", "per_layer",
                             "run_seconds", "workloads"]
        assert b["paths"] == ["benchmarks/suite"]
        assert b["command"][-1].startswith(b["paths"][0] + "/")
        assert isinstance(b["run_seconds"], int)
        assert 1 <= b["run_seconds"] <= 60
        assert 2 <= len(b["workloads"]) <= 8
        assert 1 <= len(b["end_to_end"]) <= 16
        assert 1 <= len(b["per_layer"]) <= 128
        assert len(json.dumps(b)) <= 64 * 1024

    def test_names_and_units(self):
        b = spec.benchmark_json()
        names = ([w["name"] for w in b["workloads"]]
                 + [m["name"] for m in b["end_to_end"]]
                 + [m["name"] for m in b["per_layer"]])
        assert len(names) == len(set(names)), "a name is used twice"
        for name in names:
            assert NAME.match(name), name
        for m in b["end_to_end"] + b["per_layer"]:
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m

    def test_end_to_end_bounds(self):
        for m in spec.benchmark_json()["end_to_end"]:
            assert sorted(m) == ["better", "bound", "name", "unit"]
            assert 0 < m["bound"] <= 0.25, m
        setup = [m for m in spec.END_TO_END if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s"
        assert setup[0]["better"] == "lower"
        assert setup[0]["bound"] == max(m["bound"] for m in spec.END_TO_END)

    def test_every_workload_records_its_reason(self):
        for w in spec.WORKLOADS:
            assert sorted(w) == ["name", "why"]
            assert 20 <= len(w["why"]) <= 200, w["name"]
            assert "\n" not in w["why"]
            assert w["why"].rstrip().endswith(".")

    def test_every_layer_metric_declares_what_it_moves(self):
        end_to_end = {m["name"] for m in spec.END_TO_END}
        workloads = {w["name"] for w in spec.WORKLOADS}
        for m in spec.PER_LAYER:
            assert m["moves"] in end_to_end, m["name"]
            assert m["on"] and set(m["on"]) <= workloads, m["name"]
            assert m["definition"], m["name"]
            assert sorted(k for k in m) == [
                "better", "definition", "moves", "name", "on", "unit"]

    def test_layers_are_modules_of_the_program(self):
        outside = {"harness", "trace"}  # the benchmark's own two rows
        for m in spec.PER_LAYER:
            layer = m["name"].split(".", 1)[0]
            if layer in outside:
                continue
            src = os.path.join(ROOT, "src", "repro", layer)
            assert os.path.isdir(src) or os.path.isfile(src + ".py"), layer


class TestSpans:
    def test_self_time_subtracts_child_coverage(self):
        tree = [
            {"id": 0, "parent": None, "start_s": 0.0, "end_s": 10.0},
            {"id": 1, "parent": 0, "start_s": 1.0, "end_s": 4.0},
            {"id": 2, "parent": 0, "start_s": 5.0, "end_s": 6.0},
            {"id": 3, "parent": 1, "start_s": 1.5, "end_s": 2.0},
        ]
        assert spans.self_times(tree) == {0: 6.0, 1: 2.5, 2: 1.0, 3: 0.5}

    def test_self_time_never_negative(self):
        # Overlapping children, and one that outlives its parent.
        tree = [
            {"id": 0, "parent": None, "start_s": 0.0, "end_s": 2.0},
            {"id": 1, "parent": 0, "start_s": 0.0, "end_s": 1.5},
            {"id": 2, "parent": 0, "start_s": 1.0, "end_s": 3.0},
        ]
        self_s = spans.self_times(tree)
        assert self_s[0] == 0.0
        assert all(v >= 0.0 for v in self_s.values())

    def test_tracer_nests(self):
        tracer = spans.Tracer("w")
        with tracer.span("driver", "outer"):
            with tracer.span("core", "inner", count=3):
                pass
        outer, inner = tracer.spans
        assert inner["parent"] == outer["id"] and outer["parent"] is None
        assert inner["count"] == 3 and inner["workload"] == "w"
        assert outer["start_s"] <= inner["start_s"] <= inner["end_s"] \
            <= outer["end_s"]


class TestEnvironment:
    def test_refuses_when_numpy_beat_the_pin(self, monkeypatch):
        import numpy  # noqa: F401  (the point: it is already loaded)

        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with pytest.raises(envstamp.BlasPinError):
            envstamp.pin_environment()
        assert "OMP_NUM_THREADS" not in os.environ

    def test_pin_drops_repro_overrides(self, monkeypatch):
        for v in envstamp.BLAS_ENV_VARS:
            monkeypatch.setenv(v, envstamp.BLAS_THREADS)
        monkeypatch.setenv("REPRO_ELBO_BATCH", "16")
        envstamp.pin_environment()
        assert "REPRO_ELBO_BATCH" not in os.environ

    def test_leak_check_sees_a_listening_socket(self):
        before = envstamp.leak_snapshot()
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            s.listen(1)
            leaks = envstamp.leaks_since(before)
        assert [x for x in leaks if x.startswith("listening:")], leaks
        assert envstamp.leaks_since(before) == []

    def test_stop_children_leaves_no_process(self):
        # In an interpreter of its own: the stop is for the way out.  The
        # queue's semaphores start multiprocessing's resource tracker,
        # which left alone outlives its parent; ``sleep`` stands for a
        # worker a failed call left behind.
        code = "\n".join([
            "import multiprocessing, subprocess, sys, envstamp",
            "q = multiprocessing.get_context('spawn').Queue()",
            "subprocess.Popen(['sleep', '60'])",
            "assert len(envstamp._live_children(with_tracker=True)) == 2",
            "assert len(envstamp._live_children()) == 1",
            "envstamp.stop_children()",
            "assert not envstamp._live_children(with_tracker=True)",
            "del q  # finalized with no tracker: must not start another",
            "assert not envstamp._live_children(with_tracker=True)",
        ])
        subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                       timeout=60)


class TestSmoke:
    def test_smoke_runs_every_workload_and_metric(self):
        before = _benchmark_json()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert _benchmark_json() == before
        out = os.path.join(HERE, "out")
        for w in spec.WORKLOADS:
            with open(os.path.join(
                    out, "run-%s-trace1.json" % w["name"])) as f:
                record = json.load(f)
            assert record["correct"] and record["smoke"]
            assert set(record["end_to_end"]) == {
                m["name"] for m in spec.END_TO_END}
            assert set(record["per_layer"]) == {
                m["name"] for m in spec.PER_LAYER}
            assert record["environment"]["blas_threads"] == 1
            with open(os.path.join(
                    out, "trace-%s.jsonl" % w["name"])) as f:
                tree = [json.loads(line) for line in f]
            assert tree[0]["name"] == "run_pipeline"
            assert {s["workload"] for s in tree} == {w["name"]}
            assert all(v >= 0.0 for v in spans.self_times(tree).values())
        for m in spec.END_TO_END + spec.PER_LAYER:
            assert m["name"] in done.stdout, m["name"]
