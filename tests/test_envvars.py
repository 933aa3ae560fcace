"""Tests for the central ``REPRO_*`` environment-variable registry
(:mod:`repro.envvars`): typed reads with attributed parse errors, the
unregistered-name contract, mandatory provenance declarations, and the
generated docs table staying in sync with ``docs/determinism.md`` and
``docs/performance.md``."""

import os

import pytest

from repro.envvars import (
    ENV_REGISTRY,
    EnvVar,
    env_flag,
    env_int,
    env_raw,
    registry_markdown,
)

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                    "determinism.md")
PERF_DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                         "performance.md")


class TestRegistry:
    def test_every_name_is_repro_prefixed(self):
        for name, var in ENV_REGISTRY.items():
            assert name.startswith("REPRO_")
            assert var.name == name
            assert var.kind in ("flag", "int", "str")
            assert var.doc  # the contract line is mandatory

    def test_known_knobs_registered(self):
        expected = {
            "REPRO_ELBO_BACKEND", "REPRO_DRIVER_EXECUTOR",
            "REPRO_ELBO_BATCH", "REPRO_RACE_DETECT",
            "REPRO_VERIFY_SCHEDULE", "REPRO_NUMERIC_CHECK",
            "REPRO_BENCH_SMOKE", "REPRO_KERNEL_TARGET",
        }
        assert expected <= set(ENV_REGISTRY)

    def test_unregistered_read_raises(self):
        with pytest.raises(KeyError, match="unregistered"):
            env_raw("REPRO_NOT_A_KNOB")

    def test_entries_are_frozen_records(self):
        var = ENV_REGISTRY["REPRO_NUMERIC_CHECK"]
        assert isinstance(var, EnvVar)
        with pytest.raises(AttributeError):
            var.kind = "str"

    def test_every_entry_declares_provenance(self):
        for name, var in ENV_REGISTRY.items():
            assert var.provenance in (
                "fingerprinted", "neutral", "observational", "scheduling"
            ), name

    def test_fingerprinted_entries_resolve_to_a_config_field(self):
        """A fingerprinted env var must name the config field it feeds —
        that is how the KNOB3xx pass ties it to the checkpoint schema."""
        for name, var in ENV_REGISTRY.items():
            if var.provenance == "fingerprinted":
                assert var.resolves_to, name
                assert "." in var.resolves_to, name


class TestTypedReads:
    def test_raw_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_ELBO_BACKEND", raising=False)
        assert env_raw("REPRO_ELBO_BACKEND") is None

    def test_raw_returns_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_ELBO_BACKEND", "taylor")
        assert env_raw("REPRO_ELBO_BACKEND") == "taylor"

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_flag_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NUMERIC_CHECK", value)
        assert env_flag("REPRO_NUMERIC_CHECK") is True

    @pytest.mark.parametrize("value", ["0", "false", "off", "", "2"])
    def test_flag_other_values_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NUMERIC_CHECK", value)
        assert env_flag("REPRO_NUMERIC_CHECK") is False

    def test_flag_unset_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUMERIC_CHECK", raising=False)
        assert env_flag("REPRO_NUMERIC_CHECK") is False

    def test_int_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_ELBO_BATCH", "8")
        assert env_int("REPRO_ELBO_BATCH") == 8

    def test_int_unset_or_empty_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_ELBO_BATCH", raising=False)
        assert env_int("REPRO_ELBO_BATCH") is None
        monkeypatch.setenv("REPRO_ELBO_BATCH", "")
        assert env_int("REPRO_ELBO_BATCH") is None

    def test_int_parse_error_names_variable_and_value(self, monkeypatch):
        """A typo'd value must fail with the variable name and the raw
        string, not a bare ``invalid literal for int()``."""
        monkeypatch.setenv("REPRO_ELBO_BATCH", "eight")
        with pytest.raises(ValueError) as exc:
            env_int("REPRO_ELBO_BATCH")
        assert "REPRO_ELBO_BATCH" in str(exc.value)
        assert "'eight'" in str(exc.value)


class TestGeneratedDocs:
    def test_markdown_covers_every_variable(self):
        table = registry_markdown()
        for name in ENV_REGISTRY:
            assert "`%s`" % name in table
        assert table.splitlines()[0].startswith("| Variable |")

    def test_markdown_has_provenance_column(self):
        header = registry_markdown().splitlines()[0]
        assert "Provenance" in header

    @pytest.mark.parametrize("path", [DOCS, PERF_DOCS],
                             ids=["determinism.md", "performance.md"])
    def test_docs_table_in_sync(self, path):
        """Both docs embed the generated registry table byte-for-byte;
        regenerate them (repro.envvars.registry_markdown()) when a
        variable is added or its contract line changes."""
        with open(path) as f:
            docs = f.read()
        assert registry_markdown() in docs, (
            "%s env-var table is stale; regenerate with "
            "repro.envvars.registry_markdown()" % os.path.basename(path)
        )
