"""The knob-provenance contract, both halves.

Static: the KNOB3xx pass (:mod:`repro.analysis.provenance`) runs clean on
the real tree, the AST-extracted manifest agrees with the runtime dataclass
metadata, and seeded mutations of a copied source tree — an undeclared
field, a mis-declared env var, a scheduling knob read by the optimizer —
each fail the lint with exact attribution.

Derived: the checkpoint fingerprint is computed from the declarations, so
the rule itself is tested — changing a knob changes the fingerprint iff the
knob is declared ``fingerprinted`` — and a checkpoint carrying another
commit's fingerprint keys restarts instead of resuming.

Dynamic: the neutrality fuzzer.  Every knob declared *not* fingerprinted
(neutral / observational / scheduling) is toggled against a tier-1-scale
golden pipeline run under both executors, and the catalog's unrounded
digest (every field's float64 bytes) must not move.  ``FUZZ_MATRIX`` maps each such knob to its toggle;
``FUZZ_SKIPS`` holds the documented exceptions (knobs whose toggle changes
what "the same run" means, like ``stop_after``).  A completeness test
keeps the union exact, so a new non-fingerprinted knob cannot land without
either a fuzz variant or a written reason.  ``SCHEDULE_SHAPES`` does the
same for the Dtree's shape and grant size, which are class constants of
``DriverConfig`` rather than knobs.
"""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from repro.analysis.provenance import (
    KNOB_CONFIG_CLASSES,
    analyze_provenance,
    knob_inventory,
    render_inventory,
)
from repro.core.joint import JointConfig
from repro.core.single import OptimizeConfig
from repro.driver import DriverConfig, run_pipeline
from repro.driver.pipeline import _fingerprint
from repro.envvars import ENV_REGISTRY
from repro.knobs import PROVENANCE_CLASSES, provenance_of
from repro.parallel import ParallelRegionConfig
from repro.photo.pipeline import PhotoConfig
from repro.sched import Dtree, DtreeConfig
from repro.survey import SyntheticSkyConfig, generate_survey_fields

from test_golden_pipeline import (
    GOLDEN_CATALOG_SHA256,
    _golden_config,
    _golden_fields,
    catalog_bits_digest,
    catalog_content_hash,
)

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

_CONFIG_CLASSES = {
    "DriverConfig": DriverConfig,
    "ParallelRegionConfig": ParallelRegionConfig,
    "JointConfig": JointConfig,
    "OptimizeConfig": OptimizeConfig,
    "PhotoConfig": PhotoConfig,
}

MANIFEST_HINT = (
    "see the provenance manifest: `python -m repro.analysis --list-knobs` "
    "and the 'Knob provenance' section of docs/determinism.md"
)


# ---------------------------------------------------------------------------
# Static half: the pass itself


class TestCleanTree:
    def test_provenance_pass_clean(self):
        violations = analyze_provenance()
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_knob_budget(self):
        """The next knob is a conscious edit of this number, made after
        asking whether an existing knob or a constant would do."""
        assert len(knob_inventory()) <= 38, MANIFEST_HINT

    def test_every_knob_declared(self):
        for k in knob_inventory():
            assert k.provenance in PROVENANCE_CLASSES, k.qualname

    def test_inventory_covers_all_config_classes_and_env_vars(self):
        knobs = knob_inventory()
        owners = {k.owner for k in knobs if k.kind == "field"}
        assert owners == set(KNOB_CONFIG_CLASSES)
        env_names = {k.name for k in knobs if k.kind == "env"}
        assert env_names == set(ENV_REGISTRY)
        quals = [k.qualname for k in knobs]
        assert len(quals) == len(set(quals))

    def test_render_inventory_lists_every_knob(self):
        knobs = knob_inventory()
        text = render_inventory(knobs)
        for k in knobs:
            assert k.qualname in text

    def test_ast_manifest_matches_runtime_metadata(self):
        """The static pass reads source, the runtime reads
        ``dataclasses.fields`` metadata; one manifest, two extractors."""
        by_qual = {k.qualname: k for k in knob_inventory()
                   if k.kind == "field"}
        for cls_name, cls in _CONFIG_CLASSES.items():
            for f in dataclasses.fields(cls):
                qual = "%s.%s" % (cls_name, f.name)
                assert qual in by_qual, qual
                assert by_qual[qual].provenance == provenance_of(f), qual
        env_by_name = {k.name: k for k in knob_inventory()
                       if k.kind == "env"}
        for name, var in ENV_REGISTRY.items():
            assert env_by_name[name].provenance == var.provenance, name
            assert env_by_name[name].resolves_to == var.resolves_to, name


# ---------------------------------------------------------------------------
# Static half: seeded mutations of a copied tree must fail with exact
# attribution


@pytest.fixture
def tree_copy(tmp_path):
    dst = tmp_path / "repro"
    shutil.copytree(SRC_ROOT, dst)
    return str(dst)


def _mutate(root: str, rel: str, old: str, new: str) -> None:
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    assert old in text, "mutation anchor missing from %s" % rel
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(old, new, 1))


class TestSeededMutations:
    def test_undeclared_field_is_knob300_dead_one_knob303(self, tree_copy):
        _mutate(
            tree_copy, "parallel/executor.py",
            'seed: int = knob(0, provenance="fingerprinted")',
            'seed: int = knob(0, provenance="fingerprinted")\n'
            '    rogue_knob: float = 1.25\n'
            '    dead_knob: int = knob(0, provenance="fingerprinted")',
        )
        violations = analyze_provenance(tree_copy)
        hits = [v for v in violations if v.rule == "KNOB300"]
        assert len(hits) == 1
        assert "ParallelRegionConfig.rogue_knob" in hits[0].message
        assert hits[0].path.endswith("parallel/executor.py")
        # declared, fingerprinted by construction — and read by nothing
        dead = [v for v in violations if v.rule == "KNOB303"]
        assert len(dead) == 1
        assert "ParallelRegionConfig.dead_knob" in dead[0].message

    def test_invalid_env_provenance_is_knob300(self, tree_copy):
        _mutate(
            tree_copy, "envvars.py",
            '"hardware without trusting timings or rewriting committed '
            'JSON.",\n'
            '        provenance="observational",',
            '"hardware without trusting timings or rewriting committed '
            'JSON.",\n'
            '        provenance="turbo",',
        )
        violations = analyze_provenance(tree_copy)
        hits = [v for v in violations if v.rule == "KNOB300"]
        assert len(hits) == 1
        assert "REPRO_BENCH_SMOKE" in hits[0].message

    def test_env_config_disagreement_is_knob301(self, tree_copy):
        _mutate(
            tree_copy, "envvars.py",
            'provenance="scheduling", resolves_to="DriverConfig.executor"',
            'provenance="neutral", resolves_to="DriverConfig.executor"',
        )
        violations = analyze_provenance(tree_copy)
        hits = [v for v in violations if v.rule == "KNOB301"]
        assert len(hits) == 1
        assert "REPRO_DRIVER_EXECUTOR" in hits[0].message
        assert "DriverConfig.executor" in hits[0].message

    def test_misdeclared_eval_knob_is_knob302(self, tree_copy):
        _mutate(
            tree_copy, "core/single.py",
            'max_iter: int = knob(50, provenance="fingerprinted")',
            'max_iter: int = knob(50, provenance="scheduling")',
        )
        violations = analyze_provenance(tree_copy)
        k302 = [v for v in violations if v.rule == "KNOB302"]
        assert any("max_iter" in v.message for v in k302)  # read in core/

    def test_knob_suppression_works_and_staleness_is_caught(self, tree_copy):
        _mutate(
            tree_copy, "parallel/executor.py",
            'seed: int = knob(0, provenance="fingerprinted")',
            'seed: int = knob(0, provenance="fingerprinted")\n'
            '    rogue_knob: float = 1.25'
            '  # det: ignore[KNOB300] -- fixture: deliberately undeclared',
        )
        assert [v for v in analyze_provenance(tree_copy)
                if v.rule == "KNOB300"] == []
        # a KNOB suppression that no longer matches anything goes stale
        _mutate(
            tree_copy, "parallel/executor.py",
            '    rogue_knob: float = 1.25'
            '  # det: ignore[KNOB300] -- fixture: deliberately undeclared',
            '    rogue_knob: float = '
            'knob(1.25, provenance="fingerprinted")'
            '  # det: ignore[KNOB300] -- fixture: deliberately undeclared',
        )
        stale = [v for v in analyze_provenance(tree_copy)
                 if v.rule == "DET100"]
        assert any("KNOB300" in v.message for v in stale)


# ---------------------------------------------------------------------------
# The derived fingerprint: the rule, over the runtime manifest


class _StubStore:
    """Just enough of ``_FieldStore`` for ``_fingerprint``'s input keys."""

    n_fields = 2

    @staticmethod
    def field_shapes():
        return ((48, 48), (48, 48))


def _leaf_knobs(config=DriverConfig(), path=()):
    """(attribute path from a ``DriverConfig``, owning class, field) for
    every config knob holding a plain value; a dataclass-valued knob is
    its leaves."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_knobs(value, path + (f.name,))
        else:
            yield path + (f.name,), type(config).__name__, f


def _changed(config, path, f):
    """``config`` with the knob at ``path`` set to some other value."""
    if len(path) > 1:
        child = _changed(getattr(config, path[0]), path[1:], f)
        return dataclasses.replace(config, **{path[0]: child})
    value, kind = getattr(config, f.name), str(f.type)
    if "bool" in kind:
        other = not value
    elif "int" in kind or "float" in kind:
        other = (value or 0) + 1
    else:
        other = (value or "") + "x"
    return dataclasses.replace(config, **{f.name: other})


_LEAVES = list(_leaf_knobs())


class TestDerivedFingerprint:
    def test_every_config_class_is_reached(self):
        assert {owner for _, owner, _ in _LEAVES} == set(KNOB_CONFIG_CLASSES)

    @pytest.mark.parametrize(
        "path,f", [(p, f) for p, _, f in _LEAVES],
        ids=[".".join(p) for p, _, _ in _LEAVES])
    def test_changes_fingerprint_iff_declared_fingerprinted(self, path, f):
        base = DriverConfig()
        moved = (_fingerprint(_StubStore(), _changed(base, path, f))
                 != _fingerprint(_StubStore(), base))
        assert moved == (provenance_of(f) == "fingerprinted"), MANIFEST_HINT

    def test_inputs_are_fingerprinted(self):
        fp = _fingerprint(_StubStore(), DriverConfig())
        assert fp["n_fields"] == 2
        assert fp["field_shapes"] == ((48, 48), (48, 48))


@pytest.mark.slow
@pytest.mark.parametrize("block,legacy", [
    ((), {"elbo_backend": "fused", "kernel_target": "numpy"}),
    (("parallel", "joint", "single"),
     {"backend": "fused", "kernel_target": None}),
    ((), {"dedup_radius": 2.0, "image_margin": 16.0, "halo_margin": 16.0}),
    (("parallel", "joint", "single"),
     {"method": "newton", "initial_radius": 1.0,
      "variance_correction": True}),
    ((), {"elbo_batch_size": 1}),
    (("parallel",), {"elbo_batch_size": 1}),
], ids=["top_level_copies", "optimizer_selectors", "driver_constants",
        "optimizer_constants", "driver_lane_limit", "parallel_lane_limit"])
def test_checkpoint_with_parent_commit_fingerprint_restarts(
        tmp_path, block, legacy):
    """Checkpoints written by earlier commits carry fingerprint keys this
    commit no longer writes: the top-level copies of the backend and kernel
    target (before the fingerprint was derived), ``backend: "fused"`` and
    ``kernel_target: null`` in the optimizer block (before both stopped
    being fields), the driver's merge and margin radii and the
    optimizer's method, initial radius and variance correction (before
    they became class constants), or either spelling of the lane limit
    (before it became ``neutral``).  Each is incompatible, even at the
    values the constants hold: the run restarts from nothing and lands on
    the golden catalog, never half-resumes."""
    fields = _fields()
    path = str(tmp_path / "ckpt.json")
    config = dataclasses.replace(_golden_config(), checkpoint_path=path)
    seeded = run_pipeline(
        fields, dataclasses.replace(config, stop_after="seed"))
    assert seeded.stopped_early
    with open(path, encoding="utf-8") as fh:
        ckpt = json.load(fh)
    target = ckpt["fingerprint"]
    for key in block:
        target = target[key]
    assert not set(target) & set(legacy)
    target.update(legacy)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ckpt, fh)
    result = run_pipeline(fields, config)
    assert result.resumed_stages == []
    assert catalog_content_hash(result.catalog) == GOLDEN_CATALOG_SHA256
    # ...and the control: the untouched kind of checkpoint does resume.
    assert run_pipeline(fields, config).resumed_stages != []


@pytest.mark.slow
def test_parent_checkpoint_killed_mid_stage_never_half_applies(tmp_path):
    """A run killed mid-stage under a fingerprint that still carried both
    lane-limit keys (what the parent commit wrote) left a checkpoint and a
    task journal behind.  The next run restarts from nothing, replays no
    journaled task, and lands on an uninterrupted run's bits."""
    from test_fault_injection import _abort_after

    fields = _fields()
    path = str(tmp_path / "ckpt.json")
    config = dataclasses.replace(_golden_config(), checkpoint_path=path)
    with pytest.raises(RuntimeError, match="fault injection"), \
            _abort_after(1):
        run_pipeline(fields, config)
    assert any(".tasks." in f for f in os.listdir(tmp_path))
    with open(path, encoding="utf-8") as fh:
        ckpt = json.load(fh)
    assert ckpt["completed"] == ["seed"]
    fingerprint = ckpt["fingerprint"]
    assert "elbo_batch_size" not in fingerprint
    fingerprint["elbo_batch_size"] = 1
    fingerprint["parallel"]["elbo_batch_size"] = 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ckpt, fh)
    result = run_pipeline(fields, config)
    assert result.resumed_stages == []
    assert not [rec for rec in result.report.recoveries
                if rec["kind"] == "task_replay"]
    assert (catalog_bits_digest(result.catalog)
            == catalog_bits_digest(
                run_pipeline(fields, _golden_config()).catalog))


#: Knobs that became class constants or went away, with their old
#: defaults: no config accepts them as an argument any more.
_REMOVED_KNOBS = [
    (DriverConfig, "dedup_radius", 2.0),
    (DriverConfig, "image_margin", 16.0),
    (DriverConfig, "halo_margin", 16.0),
    (DriverConfig, "max_batch", 16),
    (DriverConfig, "mp_start_method", "spawn"),
    (DriverConfig, "dtree", DriverConfig.dtree),
    (OptimizeConfig, "method", "newton"),
    (OptimizeConfig, "initial_radius", 1.0),
    (OptimizeConfig, "variance_correction", True),
]


@pytest.mark.parametrize("how", ["constructor", "replace"])
@pytest.mark.parametrize(
    "cls,name,value", _REMOVED_KNOBS,
    ids=["%s.%s" % (cls.__name__, name) for cls, name, _ in _REMOVED_KNOBS])
def test_removed_knob_is_rejected(cls, name, value, how):
    """A stale caller that still sets a removed knob fails loudly, even
    with the value the constant holds, instead of being ignored."""
    with pytest.raises(TypeError, match=name):
        if how == "constructor":
            cls(**{name: value})
        else:
            dataclasses.replace(cls(), **{name: value})


def test_checkpoint_with_pinned_kernel_target_restarts(tmp_path):
    """A checkpoint written while the driver still pinned the kernel
    target recorded ``kernel_target: "numpy"`` next to ``backend:
    "fused"``; neither key is written now, so such a checkpoint restarts
    instead of resuming."""
    _, fields = generate_survey_fields(
        1, field_shape_hw=(30, 30), overlap=6.0,
        config=SyntheticSkyConfig(source_density=60.0),
        rng=np.random.default_rng(3), bands=(2,))
    path = str(tmp_path / "ckpt.json")
    config = DriverConfig(n_nodes=1, checkpoint_path=path,
                          stop_after="seed")
    assert run_pipeline(fields, config).stopped_early
    with open(path, encoding="utf-8") as fh:
        ckpt = json.load(fh)
    single = ckpt["fingerprint"]["parallel"]["joint"]["single"]
    assert "kernel_target" not in single
    single.update(backend="fused", kernel_target="numpy")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ckpt, fh)
    assert run_pipeline(fields, config).resumed_stages == []
    # ...and the control: the checkpoint that run rewrote does resume.
    assert run_pipeline(fields, config).resumed_stages == ["seed"]


# ---------------------------------------------------------------------------
# Dynamic half: the neutrality fuzzer


def _set(**kw):
    return lambda cfg: (dataclasses.replace(cfg, **kw), {})


def _set_parallel(**kw):
    return lambda cfg: (dataclasses.replace(
        cfg, parallel=dataclasses.replace(cfg.parallel, **kw)), {})


def _set_env(env):
    return lambda cfg: (cfg, dict(env))


#: knob qualname -> variant: DriverConfig -> (config, env overrides).
#: The literal "__EXECUTOR__" is replaced by the executor under test.
FUZZ_MATRIX = {
    "DriverConfig.n_nodes": _set(n_nodes=1),
    "DriverConfig.executor": lambda cfg: (
        dataclasses.replace(cfg, executor=None),
        {"REPRO_DRIVER_EXECUTOR": "__EXECUTOR__"}),
    "ParallelRegionConfig.race_detect": _set_parallel(race_detect=True),
    "ParallelRegionConfig.verify_schedule": _set_parallel(
        verify_schedule=True),
    "ParallelRegionConfig.numeric_check": _set_parallel(numeric_check=True),
    "REPRO_DRIVER_EXECUTOR": lambda cfg: (
        dataclasses.replace(cfg, executor=None),
        {"REPRO_DRIVER_EXECUTOR": "__EXECUTOR__"}),
    "DriverConfig.pgas_transport": _set(pgas_transport="socket"),
    "REPRO_PGAS_TRANSPORT": _set_env({"REPRO_PGAS_TRANSPORT": "socket"}),
    "REPRO_RACE_DETECT": _set_env({"REPRO_RACE_DETECT": "1"}),
    "REPRO_VERIFY_SCHEDULE": _set_env({"REPRO_VERIFY_SCHEDULE": "1"}),
    "REPRO_NUMERIC_CHECK": _set_env({"REPRO_NUMERIC_CHECK": "1"}),
    "REPRO_BENCH_SMOKE": _set_env({"REPRO_BENCH_SMOKE": "1"}),
    # The lane limit, unset in the baseline (16 lanes), against one lane
    # through each of its three spellings.
    "DriverConfig.elbo_batch_size": _set(elbo_batch_size=1),
    "ParallelRegionConfig.elbo_batch_size": _set_parallel(elbo_batch_size=1),
    "REPRO_ELBO_BATCH": _set_env({"REPRO_ELBO_BATCH": "1"}),
}

#: Schedule shapes the driver does not run by default: a name -> the class
#: constants of ``DriverConfig`` patched to get there.  The Dtree's shape
#: and grant size are constants, not knobs, so ``FUZZ_MATRIX`` cannot name
#: them; ``TestNeutralityFuzzer`` runs these instead.
SCHEDULE_SHAPES = {
    "max_batch": {"max_batch": 5},
    "dtree": {"dtree": DtreeConfig(fanout=2, initial_fraction=0.6,
                                   drain_fraction=0.3, min_batch=2)},
    "fanout": {"dtree": DtreeConfig(fanout=2)},
    "initial_fraction": {"dtree": DtreeConfig(initial_fraction=0.6)},
    "drain_fraction": {"dtree": DtreeConfig(drain_fraction=0.3)},
    "min_batch": {"dtree": DtreeConfig(min_batch=3)},
}

#: Non-fingerprinted knobs deliberately not fuzzed, each with its reason.
FUZZ_SKIPS = {
    "DriverConfig.checkpoint_path": (
        "changes on-disk persistence, not the returned catalog; "
        "kill/resume equivalence is pinned by the driver checkpoint "
        "tests"),
    "DriverConfig.stop_after": (
        "deliberately truncates the run (staged operation), so its "
        "output is not comparable to a full run by construction"),
    "DriverConfig.task_checkpoint": (
        "only consulted when checkpoint_path is set; mid-stage "
        "crash/resume equivalence is pinned by the fault-injection "
        "tests"),
}


class TestFuzzMatrixComplete:
    def test_every_nonfingerprinted_knob_fuzzed_or_skipped(self):
        """A new neutral/observational/scheduling knob cannot land without
        a fuzz variant or a written skip reason."""
        quals = {k.qualname for k in knob_inventory()
                 if k.provenance != "fingerprinted"}
        covered = set(FUZZ_MATRIX) | set(FUZZ_SKIPS)
        assert quals <= covered, (
            "non-fingerprinted knobs with no fuzz variant and no skip "
            "reason: %s" % sorted(quals - covered))
        assert set(FUZZ_MATRIX) <= quals, (
            "stale FUZZ_MATRIX entries: %s"
            % sorted(set(FUZZ_MATRIX) - quals))
        assert set(FUZZ_SKIPS) <= quals, (
            "stale FUZZ_SKIPS entries: %s"
            % sorted(set(FUZZ_SKIPS) - quals))
        assert not set(FUZZ_MATRIX) & set(FUZZ_SKIPS)

    def test_skips_have_reasons(self):
        for qual, reason in FUZZ_SKIPS.items():
            assert len(reason) > 20, qual


def _fuzz_config(executor):
    """The golden run at the default lane limit (``None``, 16 lanes)."""
    return dataclasses.replace(
        _golden_config(elbo_batch_size=None), executor=executor)


_FIELDS_CACHE = {}
#: executor -> the catalog of the unperturbed fuzz run.
_BASELINE = {}


def _fields():
    if "fields" not in _FIELDS_CACHE:
        _FIELDS_CACHE["fields"] = _golden_fields()[1]
    return _FIELDS_CACHE["fields"]


def _run_hash(config):
    """The run's unrounded digest: a same-run comparison is exact."""
    return catalog_bits_digest(run_pipeline(_fields(), config).catalog)


def _baseline_catalog(executor):
    if executor not in _BASELINE:
        _BASELINE[executor] = run_pipeline(
            _fields(), _fuzz_config(executor)).catalog
    return _BASELINE[executor]


def _baseline_hash(executor):
    return catalog_bits_digest(_baseline_catalog(executor))


@pytest.mark.slow
@pytest.mark.parametrize("executor", ["thread", "process"])
class TestNeutralityFuzzer:
    """Every declared-not-fingerprinted knob, toggled, must leave the
    tier-1-scale catalog bit-identical (the unrounded digest) — under both
    executors."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in ENV_REGISTRY:
            monkeypatch.delenv(name, raising=False)

    def test_baseline_is_the_golden_pin(self, executor):
        """Anchors the fuzzer absolutely: both executors reproduce the
        golden catalog pin (rounded, the cross-commit check), so the
        bit-invariance below is invariance of the real result, not of some
        drifted baseline."""
        assert (catalog_content_hash(_baseline_catalog(executor))
                == GOLDEN_CATALOG_SHA256)

    @pytest.mark.parametrize("qual", sorted(FUZZ_MATRIX))
    def test_knob_toggle_is_result_invariant(self, executor, qual,
                                             monkeypatch):
        config, env = FUZZ_MATRIX[qual](_fuzz_config(executor))
        for name, value in env.items():
            monkeypatch.setenv(
                name, value.replace("__EXECUTOR__", executor))
        assert _run_hash(config) == _baseline_hash(executor), (
            "toggling %s changed the catalog's bits: the knob is "
            "declared '%s' but is result-affecting; %s" % (
                qual,
                {k.qualname: k.provenance
                 for k in knob_inventory()}.get(qual),
                MANIFEST_HINT,
            ))

    @pytest.mark.parametrize("shape", sorted(SCHEDULE_SHAPES))
    def test_schedule_shape_is_result_invariant(self, executor, shape,
                                                monkeypatch):
        """Who computes what and when is all the Dtree's shape and grant
        size decide, so patching those constants must not move the
        catalog.  The stage loop reads both in the parent, so a patched
        class constant reaches process seats' schedules too."""
        baseline = _baseline_hash(executor)  # in the default shape
        grants = []

        class RecordingDtree(Dtree):
            def request(self, worker_id, max_batch=None):
                grants.append((self.config, max_batch))
                return super().request(worker_id, max_batch)

        monkeypatch.setattr("repro.driver.stage.Dtree", RecordingDtree)
        default = (DriverConfig.dtree, DriverConfig.max_batch)
        for name, value in SCHEDULE_SHAPES[shape].items():
            monkeypatch.setattr(DriverConfig, name, value)
        patched = (DriverConfig.dtree, DriverConfig.max_batch)
        assert patched != default
        assert _run_hash(_fuzz_config(executor)) == baseline, (
            "schedule shape %r changed the catalog's bits" % shape)
        # ...and the run really was scheduled in the patched shape.
        assert set(grants) == {patched}
