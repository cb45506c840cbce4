"""The model-invariant validation pass: registry, oracles, golden.

Three layers of coverage:

* unit tests of the registry machinery (registration, kinds, crash
  containment) and of the golden baseline (roundtrip, drift, missing);
* the validation pass over real sweeps — the healthy model must come
  back clean, including under the opt-in ``check_invariants=`` hook of
  ``simulate``;
* property-style randomized sweeps: no invariant fires on any healthy
  (stencil, platform, variant, domain, tile) combination hypothesis
  can reach.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dsl, gpu, harness, validate
from repro.bricks.layout import BrickDims
from repro.errors import ValidationError
from repro.validate import golden as golden_mod
from repro.validate import invariants as inv_mod

PLATFORMS = [("A100", "CUDA"), ("A100", "SYCL"), ("MI250X", "HIP"),
             ("MI250X", "SYCL"), ("PVC", "SYCL")]
NAMES = ("7pt", "13pt", "19pt", "25pt", "27pt", "125pt")

SMALL_CONFIG = harness.ExperimentConfig(
    stencils=("7pt", "13pt", "19pt", "25pt"),
    domain=(64, 64, 64),
    platform_filter=("A100-CUDA", "MI250X-SYCL"),
)


def sim(name="13pt", variant="bricks_codegen", plat=("A100", "CUDA"), **kw):
    return gpu.simulate(dsl.by_name(name).build(), variant,
                        gpu.platform(*plat), stencil_name=name, **kw)


@pytest.fixture(scope="module")
def small_study():
    return harness.run_study(SMALL_CONFIG)


class TestRegistry:
    def test_kinds_partition_the_registry(self):
        invs = inv_mod.registered()
        assert invs, "registry must not be empty"
        assert {i.kind for i in invs} == {"result", "study", "probe"}
        assert len({i.name for i in invs}) == len(invs)
        assert inv_mod.registered("result")
        assert inv_mod.registered("study")
        assert inv_mod.registered("probe")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            inv_mod.invariant("x", "bogus", "desc")(lambda r: [])

    def test_expected_invariants_present(self):
        names = {i.name for i in inv_mod.registered()}
        for expected in (
            "hbm-at-least-compulsory",
            "reuse-miss-bytes-sane",
            "timing-terms-physical",
            "occupancy-is-a-fraction",
            "measured-ai-below-theoretical",
            "pennycook-pinched-by-efficiencies",
            "hbm-monotone-in-radius",
            "shuffle-time-monotone-in-radius",
            "unknown-vendor-error-contract",
            "brick-reread-proportional-to-shared-planes",
            "speedup-band-partition",
            "resume-reattempts-failures",
            "layer-condition-matches-lru-replay",
            "coalescing-sectors-match-replay",
            "cache-stats-coherent",
        ):
            assert expected in names, f"missing invariant {expected}"

    def test_crashing_checker_becomes_violation(self):
        inv = inv_mod.Invariant(
            "crashy", "result", "always crashes",
            lambda r: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        out = inv_mod._run(inv, "p", object())
        assert len(out) == 1
        assert out[0].invariant == "crashy"
        assert "crashed" in out[0].message

    def test_render_violations_table(self):
        rows = [
            inv_mod.Violation("some-invariant", "7pt/A100-CUDA/array", "bad"),
            inv_mod.Violation("other", "<study>", "worse"),
        ]
        text = validate.render_violations(rows)
        assert "some-invariant" in text and "7pt/A100-CUDA/array" in text
        assert "worse" in text
        assert validate.render_violations([]) == "(no violations)"


class TestHealthyModelIsClean:
    def test_single_result_clean(self):
        assert inv_mod.check_result(sim()) == []

    def test_small_study_clean(self, small_study):
        assert inv_mod.check_study(small_study) == []

    def test_probes_clean(self):
        violations, count = inv_mod.run_probes()
        assert violations == []
        assert count == len(inv_mod.registered("probe"))

    def test_validate_study_report(self, small_study):
        report = validate.validate_study(small_study, golden_path=None)
        assert report.ok
        assert report.checked_points == len(small_study.results)
        assert report.probes_run > 0
        assert report.golden == "skipped"
        assert "all invariants hold" in report.render()


class TestSimulateHook:
    def test_hook_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert sim() is not None  # no validation, no error

    def test_hook_raises_on_violation(self, monkeypatch):
        bad = [validate.Violation("fake-invariant", "p", "synthetic")]
        monkeypatch.setattr(validate, "check_result", lambda r: bad)
        with pytest.raises(ValidationError) as exc:
            sim(check_invariants=True)
        assert "fake-invariant" in str(exc.value)

    def test_hook_env_variable(self, monkeypatch):
        bad = [validate.Violation("fake-invariant", "p", "synthetic")]
        monkeypatch.setattr(validate, "check_result", lambda r: bad)
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        with pytest.raises(ValidationError):
            sim()
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert sim() is not None
        # Explicit argument beats the environment.
        with pytest.raises(ValidationError):
            sim(check_invariants=True)

    def test_hook_clean_on_healthy_model(self):
        assert sim(check_invariants=True) is not None


class TestGolden:
    def test_roundtrip_ok(self, small_study, tmp_path):
        path = str(tmp_path / "golden.json")
        golden_mod.write_golden(small_study, path)
        violations, status = golden_mod.check_golden(small_study, path)
        assert status == "ok" and violations == []

    def test_missing_baseline(self, small_study, tmp_path):
        violations, status = golden_mod.check_golden(
            small_study, str(tmp_path / "absent.json")
        )
        assert status == "missing"
        assert len(violations) == 1
        assert "--update-golden" in violations[0].message

    def test_drift_names_row_and_field(self, small_study, tmp_path):
        path = str(tmp_path / "golden.json")
        golden_mod.write_golden(small_study, path)
        doc = json.load(open(path))
        key = sorted(doc["rows"])[0]
        doc["rows"][key]["gflops"] = 123456.0
        json.dump(doc, open(path, "w"))
        violations, status = golden_mod.check_golden(small_study, path)
        assert status == "drift"
        assert any(v.point == key and "gflops" in v.message
                   for v in violations)

    def test_schema_version_mismatch(self, small_study, tmp_path):
        path = str(tmp_path / "golden.json")
        golden_mod.write_golden(small_study, path)
        doc = json.load(open(path))
        doc["schema_version"] = 999
        json.dump(doc, open(path, "w"))
        violations, status = golden_mod.check_golden(small_study, path)
        assert status == "drift" and violations

    def test_missing_and_extra_rows(self, small_study, tmp_path):
        path = str(tmp_path / "golden.json")
        golden_mod.write_golden(small_study, path)
        doc = json.load(open(path))
        dropped = sorted(doc["rows"])[0]
        del doc["rows"][dropped]
        doc["rows"]["99pt/Q800-Metal/array"] = {"stencil": "99pt"}
        json.dump(doc, open(path, "w"))
        violations, _ = golden_mod.check_golden(small_study, path)
        points = {v.point for v in violations}
        assert dropped in points
        assert "99pt/Q800-Metal/array" in points

    def test_checked_in_baseline_matches_tree(self):
        """The committed golden file is in sync with the current model."""
        study = harness.run_study()
        violations, status = golden_mod.check_golden(study)
        assert status == "ok", [v.message for v in violations]


class TestPropertySweeps:
    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        plat=st.sampled_from(PLATFORMS),
        variant=st.sampled_from(("array", "array_codegen", "bricks_codegen")),
        domain=st.sampled_from([(64, 64, 64), (128, 128, 128),
                                (128, 64, 64), (256, 128, 128)]),
    )
    def test_no_invariant_fires_on_healthy_results(
        self, name, plat, variant, domain
    ):
        result = sim(name, variant, plat, domain=domain)
        assert inv_mod.check_result(result) == []

    @settings(max_examples=8, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        plat=st.sampled_from(PLATFORMS),
        bi_mult=st.sampled_from([1, 2]),
        bjk=st.sampled_from([4, 8]),  # brick extents must cover radius <= 4
    )
    def test_no_invariant_fires_across_tiles(self, name, plat, bi_mult, bjk):
        platform = gpu.platform(*plat)
        bi = platform.arch.simd_width * bi_mult
        result = gpu.simulate(
            dsl.by_name(name).build(),
            "bricks_codegen",
            platform,
            domain=(256, 64, 64),
            stencil_name=name,
            dims=BrickDims((bi, bjk, bjk)),
        )
        assert inv_mod.check_result(result) == []

    @settings(max_examples=6, deadline=None)
    @given(
        plat=st.sampled_from(["A100-CUDA", "MI250X-HIP", "PVC-SYCL"]),
        domain=st.sampled_from([(64, 64, 64), (128, 128, 128)]),
    )
    def test_study_invariants_hold_on_random_subsweeps(self, plat, domain):
        config = harness.ExperimentConfig(
            stencils=("7pt", "13pt", "19pt", "25pt"),
            domain=domain,
            platform_filter=(plat,),
        )
        study = harness.run_study(config)
        study_checks = [
            inv for inv in inv_mod.registered("study")
        ]
        for inv in study_checks:
            assert inv_mod._run(inv, "<study>", study) == []
