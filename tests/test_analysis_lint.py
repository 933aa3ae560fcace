"""Fixture tests for the determinism lint (:mod:`repro.analysis.lint`).

Each rule gets a violating fixture, a clean fixture, and (where scoping
matters) an out-of-scope fixture; the suppression machinery (DET100) is
tested on justified, unjustified, and stale suppressions.  Finally the
lint is run over the real source tree, which must be clean — that the
``python -m repro.analysis`` gate stays green is itself under test.
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.analysis import RULES, LintViolation, lint_paths, lint_source

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _lint(src, rel="parallel/mod.py"):
    """Lint a dedented fixture positioned (for rule scoping) at ``rel``."""
    return lint_source(textwrap.dedent(src), path="mod.py", rel_path=rel)


def _rules(violations):
    return [v.rule for v in violations]


class TestGlobalNumpyRandom:
    def test_global_state_flagged(self):
        out = _lint("""
            import numpy as np
            def f():
                np.random.seed(0)
                return np.random.uniform(0.0, 1.0)
        """)
        assert _rules(out) == ["DET101", "DET101"]

    def test_generator_construction_allowed(self):
        out = _lint("""
            import numpy as np
            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.uniform(0.0, 1.0)
        """)
        assert out == []

    def test_applies_everywhere(self):
        # DET101 is unscoped: fires even outside scheduling/numeric layers.
        out = _lint("import numpy as np\nnp.random.rand(3)\n",
                    rel="validation/metrics.py")
        assert _rules(out) == ["DET101"]


class TestUnorderedIteration:
    def test_set_iteration_flagged(self):
        out = _lint("""
            def f(items):
                seen = set(items)
                return [x for x in seen]
        """)
        assert _rules(out) == ["DET102"]

    def test_dict_values_flagged(self):
        out = _lint("""
            def f(groups):
                for g in groups.values():
                    yield g
        """)
        assert _rules(out) == ["DET102"]

    def test_annotated_set_attribute_flagged(self):
        out = _lint("""
            class C:
                def __init__(self):
                    self.pending: set = set()
                def f(self):
                    return list(self.pending)
        """)
        assert _rules(out) == ["DET102"]

    def test_container_of_sets_iterates_in_order(self):
        # ``adjacency: list[set]`` — iterating the *list* is ordered and
        # fine; only subscripting it yields a set.
        out = _lint("""
            class G:
                def __init__(self, n):
                    self.adjacency: list[set] = [set() for _ in range(n)]
                def degree_sum(self):
                    return sum(len(a) for a in self.adjacency)
                def neighbors(self, i):
                    return [j for j in self.adjacency[i]]
        """)
        assert _rules(out) == ["DET102"]
        assert "adjacency[i]" not in out[0].message  # message is generic
        assert out[0].line == 8  # only the subscripted iteration fires

    def test_sorted_iteration_clean(self):
        out = _lint("""
            def f(items):
                seen = set(items)
                return [x for x in sorted(seen)]
        """)
        assert out == []

    def test_out_of_scope_module_exempt(self):
        out = _lint("""
            def f(items):
                return list(set(items))
        """, rel="validation/metrics.py")
        assert out == []


class TestBuiltinSum:
    def test_float_sum_flagged(self):
        out = _lint("""
            def f(results):
                return sum(r.elbo for r in results)
        """, rel="core/mod.py")
        assert _rules(out) == ["DET103"]

    def test_integer_sum_clean(self):
        out = _lint("""
            def f(patches):
                return sum(len(p) for p in patches)
        """, rel="core/mod.py")
        assert out == []

    def test_predicate_count_clean(self):
        out = _lint("""
            def f(results):
                return sum(1 for r in results if r.converged)
        """, rel="core/mod.py")
        assert out == []

    def test_fsum_clean(self):
        out = _lint("""
            import math
            def f(results):
                return math.fsum(r.elbo for r in results)
        """, rel="core/mod.py")
        assert out == []

    def test_out_of_scope_module_exempt(self):
        out = _lint("def f(xs):\n    return sum(xs)\n",
                    rel="validation/metrics.py")
        assert out == []


class TestMissingAxis:
    def test_np_reduction_without_axis_flagged(self):
        out = _lint("""
            import numpy as np
            def f(stacked):
                return np.sum(stacked)
        """, rel="core/kernel.py")
        assert _rules(out) == ["DET104"]

    def test_method_reduction_without_axis_flagged(self):
        out = _lint("""
            def f(stacked):
                return stacked.sum()
        """, rel="optim/lockstep.py")
        assert _rules(out) == ["DET104"]

    def test_both_lockstep_solvers_in_scope(self):
        for rel in ("optim/lockstep.py", "optim/lbfgs.py"):
            out = _lint("""
                import numpy as np
                def f(stacked):
                    return np.sum(stacked), stacked.astype(np.float32)
            """, rel=rel)
            assert _rules(out) == ["DET104", "NUM204"]

    def test_explicit_axis_clean(self):
        out = _lint("""
            import numpy as np
            def f(stacked):
                a = np.sum(stacked, axis=0)
                b = np.sum(stacked, axis=None)  # full reduction, on purpose
                return a, b, stacked.mean(axis=1)
        """, rel="core/kernel.py")
        assert out == []

    def test_only_lane_stacked_modules_in_scope(self):
        out = _lint("""
            import numpy as np
            def f(a):
                return np.sum(a)
        """, rel="core/elbo.py")
        assert out == []


class TestWallClock:
    def test_time_time_flagged(self):
        out = _lint("""
            import time
            def f():
                return time.time()
        """, rel="driver/mod.py")
        assert _rules(out) == ["DET105"]

    def test_datetime_now_flagged(self):
        out = _lint("""
            from datetime import datetime
            def f():
                return datetime.now()
        """, rel="core/mod.py")
        assert _rules(out) == ["DET105"]

    def test_perf_counter_clean(self):
        # Durations are fine — only absolute wall-clock reads leak into
        # results.
        out = _lint("""
            import time
            def f():
                t0 = time.perf_counter()
                return time.perf_counter() - t0
        """, rel="driver/mod.py")
        assert out == []

    def test_out_of_scope_module_exempt(self):
        out = _lint("import time\ntime.time()\n", rel="validation/mod.py")
        assert out == []


class TestAcquireRelease:
    def test_unpaired_mkstemp_flagged(self):
        out = _lint("""
            import tempfile
            def f():
                fd, path = tempfile.mkstemp()
                return path
        """)
        assert _rules(out) == ["DET106"]

    def test_try_finally_clean(self):
        out = _lint("""
            import os
            import tempfile
            def f():
                fd, path = tempfile.mkstemp()
                try:
                    return os.fstat(fd)
                finally:
                    os.close(fd)
        """)
        assert out == []

    def test_reraising_handler_clean(self):
        # The checkpoint temp-file idiom: success consumes the resource,
        # failure cleans it up and re-raises.
        out = _lint("""
            import os
            import tempfile
            def f(data):
                fd, path = tempfile.mkstemp()
                try:
                    os.write(fd, data)
                except BaseException:
                    os.close(fd)
                    os.unlink(path)
                    raise
                return path
        """)
        assert out == []

    def test_ownership_handoff_to_self_clean(self):
        out = _lint("""
            import tempfile
            class Spiller:
                def open(self):
                    self._dir = tempfile.mkdtemp(prefix="spill-")
        """)
        assert out == []

    def test_scratch_loop_without_release_flagged(self):
        out = _lint("""
            def drive(opt, order):
                for s in order:
                    opt.update_source(s)
        """)
        assert _rules(out) == ["DET106"]

    def test_batched_scratch_loop_without_release_flagged(self):
        # The executor's loop shape: runs of an assignment through the
        # batched unit of work (update_source is its batch of one).
        out = _lint("""
            def drive(opt, runs):
                for run in runs:
                    opt.update_sources_batch(run)
        """)
        assert _rules(out) == ["DET106"]

    def test_scratch_loop_with_release_clean(self):
        out = _lint("""
            from repro.core.elbo import release_scratch
            def drive(opt, order):
                try:
                    for s in order:
                        opt.update_source(s)
                finally:
                    release_scratch()
        """)
        assert out == []

    def test_single_update_outside_loop_clean(self):
        # Scratch accumulates across repeated driving; a one-shot call is
        # not an acquisition worth pairing.
        out = _lint("""
            def one(opt, s):
                return opt.update_source(s)
        """)
        assert out == []


class TestFsOrder:
    def test_bare_listdir_flagged(self):
        out = _lint("""
            import os
            def f(d):
                return [n for n in os.listdir(d)]
        """)
        assert _rules(out) == ["DET107"]

    def test_sorted_listdir_clean(self):
        out = _lint("""
            import os
            def f(d):
                return [n for n in sorted(os.listdir(d))]
        """)
        assert out == []


class TestEntropy:
    def test_uuid4_flagged(self):
        out = _lint("""
            import uuid
            def f():
                return uuid.uuid4().hex
        """, rel="driver/mod.py")
        assert _rules(out) == ["DET108"]

    def test_secrets_import_flagged(self):
        out = _lint("import secrets\n", rel="core/mod.py")
        assert _rules(out) == ["DET108"]

    def test_stdlib_random_flagged(self):
        out = _lint("""
            import random
            def f():
                return random.random()
        """, rel="core/mod.py")
        assert _rules(out) == ["DET108"]

    def test_out_of_scope_module_exempt(self):
        out = _lint("import uuid\nuuid.uuid4()\n", rel="validation/mod.py")
        assert out == []


class TestEnvVarRegistry:
    def test_environ_get_flagged(self):
        out = _lint("""
            import os
            def f():
                return os.environ.get("REPRO_DEMO", "0")
        """)
        assert _rules(out) == ["DET109"]

    def test_getenv_flagged(self):
        out = _lint("""
            import os
            def f():
                return os.getenv("REPRO_DEMO")
        """)
        assert _rules(out) == ["DET109"]

    def test_environ_subscript_flagged(self):
        out = _lint("""
            import os
            def f():
                return os.environ["REPRO_DEMO"]
        """)
        assert _rules(out) == ["DET109"]

    def test_module_bound_name_flagged(self):
        out = _lint("""
            import os
            DEMO_ENV_VAR = "REPRO_DEMO"
            def f():
                return os.environ.get(DEMO_ENV_VAR)
        """)
        assert _rules(out) == ["DET109"]

    def test_non_repro_var_clean(self):
        out = _lint("""
            import os
            def f():
                return os.environ.get("HOME", "")
        """)
        assert out == []

    def test_registry_route_clean(self):
        out = _lint("""
            from repro.envvars import env_flag
            def f():
                return env_flag("REPRO_DEMO")
        """)
        assert out == []

    def test_applies_everywhere(self):
        # DET109 is unscoped: a stray env read anywhere bypasses the registry.
        out = _lint("import os\nos.getenv(\"REPRO_DEMO\")\n",
                    rel="validation/mod.py")
        assert _rules(out) == ["DET109"]


class TestUnguardedExp:
    def test_unbounded_argument_flagged(self):
        out = _lint("""
            import numpy as np
            def f(m, v):
                return np.exp(m + 0.5 * v)
        """, rel="core/fluxes.py")
        assert _rules(out) == ["NUM200"]

    def test_negated_quadratic_clean(self):
        out = _lint("""
            import numpy as np
            def f(q):
                return np.exp(-0.5 * q)
        """, rel="core/fluxes.py")
        assert out == []

    def test_max_shift_clean(self):
        out = _lint("""
            import numpy as np
            def f(logits):
                m = np.max(logits)
                return np.exp(logits - m)
        """, rel="core/fluxes.py")
        assert out == []

    def test_clipped_argument_clean(self):
        out = _lint("""
            import numpy as np
            from repro.constants import EXP_ARG_LIMIT
            def f(x):
                return np.exp(np.minimum(x, EXP_ARG_LIMIT))
        """, rel="core/fluxes.py")
        assert out == []

    def test_out_of_scope_module_exempt(self):
        out = _lint("""
            import numpy as np
            def f(m):
                return np.exp(m)
        """, rel="validation/mod.py")
        assert out == []


class TestUnguardedLog:
    def test_log_of_difference_flagged(self):
        out = _lint("""
            import numpy as np
            def f(phi):
                return np.log(1.0 - phi)
        """, rel="core/elbo_taylor.py")
        assert _rules(out) == ["NUM201"]

    def test_log_of_ratio_flagged(self):
        out = _lint("""
            import numpy as np
            def f(a, b):
                return np.log(a / b)
        """, rel="core/elbo_taylor.py")
        assert _rules(out) == ["NUM201"]

    def test_guard_call_in_argument_clean(self):
        out = _lint("""
            import numpy as np
            from repro.constants import UNIT_INTERVAL_EDGE
            def f(phi):
                return np.log(np.maximum(1.0 - phi, UNIT_INTERVAL_EDGE))
        """, rel="core/elbo_taylor.py")
        assert out == []

    def test_guarded_name_clean(self):
        out = _lint("""
            import numpy as np
            from repro.constants import UNIT_INTERVAL_EDGE
            def f(p, total):
                frac = np.clip(p, UNIT_INTERVAL_EDGE, None)
                return np.log(frac / total)
        """, rel="core/elbo_taylor.py")
        assert out == []

    def test_plain_name_argument_clean(self):
        # Only structurally risky arguments (differences, ratios) are
        # flagged; a bare name carries no evidence either way.
        out = _lint("""
            import numpy as np
            def f(x):
                return np.log(x)
        """, rel="core/elbo_taylor.py")
        assert out == []


class TestMagicEpsilon:
    def test_guard_literal_flagged(self):
        out = _lint("""
            import numpy as np
            def f(x):
                return np.maximum(x, 1e-12)
        """, rel="core/mod.py")
        assert _rules(out) == ["NUM202"]

    def test_comparison_literal_flagged(self):
        out = _lint("""
            def f(err):
                return err < 1e-9
        """, rel="optim/mod.py")
        assert _rules(out) == ["NUM202"]

    def test_module_level_alias_flagged(self):
        # Shadow tolerance tables drift; the literal belongs in constants.py.
        out = _lint("_EPS = 1e-8\n", rel="transforms/mod.py")
        assert _rules(out) == ["NUM202"]

    def test_named_constant_clean(self):
        out = _lint("""
            import numpy as np
            from repro.constants import FLUX_RATIO_FLOOR
            def f(x):
                return np.maximum(x, FLUX_RATIO_FLOOR)
        """, rel="core/mod.py")
        assert out == []

    def test_ordinary_float_literal_clean(self):
        out = _lint("""
            def f(x):
                return max(x, 0.5)
        """, rel="core/mod.py")
        assert out == []

    def test_out_of_scope_module_exempt(self):
        out = _lint("def f(x):\n    return max(x, 1e-12)\n",
                    rel="validation/mod.py")
        assert out == []


class TestSoftmaxShift:
    def test_unshifted_softmax_flagged(self):
        out = _lint("""
            import numpy as np
            def softmax(z):
                e = np.exp(z)
                return e / e.sum()
        """, rel="validation/mod.py")
        assert _rules(out) == ["NUM203"]

    def test_max_shifted_softmax_clean(self):
        out = _lint("""
            import numpy as np
            def softmax(z):
                e = np.exp(z - np.max(z))
                return e / e.sum()
        """, rel="validation/mod.py")
        assert out == []

    def test_non_softmax_function_exempt(self):
        out = _lint("""
            import numpy as np
            def normalize(z):
                e = np.exp(z)
                return e / e.sum()
        """, rel="validation/mod.py")
        assert out == []


class TestDtypeNarrowing:
    def test_astype_flagged(self):
        out = _lint("""
            import numpy as np
            def f(x):
                return x.astype(np.float32)
        """, rel="core/kernel.py")
        assert _rules(out) == ["NUM204"]

    def test_constructor_flagged(self):
        out = _lint("""
            import numpy as np
            def f(x):
                return np.float32(x)
        """, rel="optim/lockstep.py")
        assert _rules(out) == ["NUM204"]

    def test_dtype_kwarg_flagged(self):
        out = _lint("""
            import numpy as np
            def f(n):
                return np.zeros(n, dtype=np.float16)
        """, rel="core/kernel.py")
        assert _rules(out) == ["NUM204"]

    def test_float64_clean(self):
        out = _lint("""
            import numpy as np
            def f(x, n):
                return x.astype(np.float64), np.zeros(n, dtype=float)
        """, rel="core/kernel.py")
        assert out == []

    def test_only_lane_stacked_modules_in_scope(self):
        out = _lint("""
            import numpy as np
            def f(x):
                return x.astype(np.float32)
        """, rel="core/elbo.py")
        assert out == []


class TestFloatEquality:
    def test_float_equality_flagged(self):
        out = _lint("""
            def converged(f_new):
                return f_new == 0.0
        """, rel="optim/mod.py")
        assert _rules(out) == ["NUM205"]

    def test_float_inequality_flagged(self):
        out = _lint("""
            def f(x):
                if x != 1.5:
                    return x
        """, rel="optim/mod.py")
        assert _rules(out) == ["NUM205"]

    def test_integer_equality_clean(self):
        out = _lint("""
            def f(n):
                return n == 0
        """, rel="optim/mod.py")
        assert out == []

    def test_tolerance_comparison_clean(self):
        out = _lint("""
            from repro.constants import HARD_CASE_GRAD_TOL
            def f(g):
                return abs(g) < HARD_CASE_GRAD_TOL
        """, rel="optim/mod.py")
        assert out == []

    def test_out_of_scope_module_exempt(self):
        out = _lint("def f(x):\n    return x == 0.0\n", rel="core/elbo.py")
        assert out == []


class TestUnguardedDivision:
    def test_difference_denominator_flagged(self):
        out = _lint("""
            def f(y, lo, hi):
                return (y - lo) / (hi - lo)
        """, rel="transforms/mod.py")
        assert _rules(out) == ["NUM206"]

    def test_exp_denominator_flagged(self):
        out = _lint("""
            import numpy as np
            def f(x, t):
                return x / np.exp(-t)
        """, rel="transforms/mod.py")
        assert _rules(out) == ["NUM206"]

    def test_guard_call_in_denominator_clean(self):
        out = _lint("""
            import numpy as np
            from repro.constants import UNIT_INTERVAL_EDGE
            def f(y, lo, hi):
                return (y - lo) / np.maximum(hi - lo, UNIT_INTERVAL_EDGE)
        """, rel="transforms/mod.py")
        assert out == []

    def test_guarded_name_clean(self):
        out = _lint("""
            import numpy as np
            from repro.constants import UNIT_INTERVAL_EDGE
            def f(y, lo, hi):
                width = np.maximum(hi - lo, UNIT_INTERVAL_EDGE)
                return (y - lo) / width
        """, rel="transforms/mod.py")
        assert out == []

    def test_plain_name_denominator_clean(self):
        out = _lint("""
            def f(x, y):
                return x / y
        """, rel="transforms/mod.py")
        assert out == []

    def test_out_of_scope_module_exempt(self):
        out = _lint("def f(a, b):\n    return 1.0 / (a - b)\n",
                    rel="validation/mod.py")
        assert out == []


class TestSuppressions:
    def test_justified_suppression_silences(self):
        out = _lint("""
            def f(results):
                return sum(r.elbo for r in results)  \
# det: ignore[DET103] -- test fixture: exact arithmetic by construction
        """, rel="core/mod.py")
        assert out == []

    def test_unjustified_suppression_is_det100(self):
        out = _lint("""
            def f(results):
                return sum(r.elbo for r in results)  # det: ignore[DET103]
        """, rel="core/mod.py")
        assert _rules(out) == ["DET100"]
        assert "justification" in out[0].message

    def test_stale_suppression_is_det100(self):
        out = _lint("""
            def f(patches):
                return len(patches)  # det: ignore[DET103] -- obsolete
        """, rel="core/mod.py")
        assert _rules(out) == ["DET100"]
        assert "stale" in out[0].message

    def test_suppression_in_docstring_is_inert(self):
        # Quoted suppression syntax (docs, error messages) must neither
        # suppress anything nor trip DET100's hygiene checks.
        out = _lint('''
            def f(results):
                """Use `# det: ignore[DET103] -- why` to suppress."""
                return sum(r.elbo for r in results)
        ''', rel="core/mod.py")
        assert _rules(out) == ["DET103"]

    def test_suppression_only_covers_named_rule(self):
        out = _lint("""
            import os
            def f(d):
                return sum(float(n) for n in os.listdir(d))  \
# det: ignore[DET107] -- fixture: order folded into a commutative sum
        """, rel="core/mod.py")
        assert _rules(out) == ["DET103"]

    def test_multi_rule_suppression(self):
        out = _lint("""
            import os
            def f(d):
                return sum(float(n) for n in os.listdir(d))  \
# det: ignore[DET103, DET107] -- fixture: both intentional here
        """, rel="core/mod.py")
        assert out == []


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        out = _lint("def f(:\n")
        assert _rules(out) == ["DET100"]
        assert "does not parse" in out[0].message

    def test_violations_sorted_and_rendered(self):
        out = _lint("""
            import os
            import uuid
            def f(d):
                names = os.listdir(d)
                return uuid.uuid4(), names
        """, rel="driver/mod.py")
        assert [v.line for v in out] == sorted(v.line for v in out)
        rendered = out[0].render()
        assert rendered.startswith("mod.py:")
        assert out[0].rule in rendered

    def test_every_rule_has_fixture_coverage(self):
        # The rule table and the fixture files grow together: DET/NUM
        # fixtures live in this file, the KNOB3xx (knob provenance)
        # fixtures in tests/test_provenance.py.
        covered = {"DET100", "DET101", "DET102", "DET103", "DET104",
                   "DET105", "DET106", "DET107", "DET108", "DET109",
                   "NUM200", "NUM201", "NUM202", "NUM203", "NUM204",
                   "NUM205", "NUM206",
                   "KNOB300", "KNOB301", "KNOB302", "KNOB303"}
        assert set(RULES) == covered

    def test_violation_is_hashable_record(self):
        v = LintViolation(path="x.py", line=3, rule="DET101", message="m")
        assert v in {v}


class TestSourceTreeClean:
    def test_src_repro_lints_clean(self):
        violations = lint_paths([SRC_ROOT])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_module_cli_exits_clean(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(SRC_ROOT, os.pardir)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", SRC_ROOT, "--no-audit"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_module_cli_json_clean(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(SRC_ROOT, os.pardir)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", SRC_ROOT,
             "--no-audit", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert report["violations"] == []
        assert report["exit_code"] == 0
        assert report["audit"] == {"ran": False}

    def test_module_cli_lint_exit_code(self, tmp_path):
        # Lint violations set bit 1 of the exit status (bit 2 is the
        # schedule audit), and the JSON report mirrors the findings.
        bad = tmp_path / "bad.py"
        bad.write_text('import os\nos.getenv("REPRO_DEMO")\n')
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(SRC_ROOT, os.pardir)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad),
             "--no-audit", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert [v["rule"] for v in report["violations"]] == ["DET109"]
        assert report["exit_code"] == 1
