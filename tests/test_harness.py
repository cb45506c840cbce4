"""Integration tests for the experiment harness (tables + figures)."""

import pytest

from repro import harness
from repro.dsl import theoretical_ai, by_name
from repro.errors import MetricError


@pytest.fixture(scope="module")
def study():
    # A reduced domain keeps the suite fast; ratios are domain-invariant
    # for everything asserted here except absolute byte counts.
    return harness.run_study(harness.ExperimentConfig(domain=(256, 256, 256)))


@pytest.fixture(scope="module")
def full_study():
    return harness.run_study()  # the paper's 512^3


class TestStudy:
    def test_matrix_size(self, study):
        # 6 stencils x 5 platforms x 3 variants.
        assert len(study) == 90

    def test_result_keys_are_shared_across_studies(self, study):
        other = harness.ExperimentConfig(stencils=("13pt",))
        key = ("13pt", "A100-CUDA", "bricks_codegen")
        shared = [k for k in study.results if k == key][0]
        assert [k for k in other.keys() if k == key][0] is shared

    def test_lookup(self, study):
        r = study.get("13pt", "A100-CUDA", "bricks_codegen")
        assert r.stencil_name == "13pt"
        with pytest.raises(MetricError):
            study.get("9pt", "A100-CUDA", "array")

    def test_for_platform(self, study):
        rs = study.for_platform("PVC-SYCL")
        assert len(rs) == 18
        assert all(r.platform.name == "PVC-SYCL" for r in rs)

    def test_for_variant(self, study):
        rs = study.for_variant("array")
        assert len(rs) == 30


class TestTables:
    def test_table2_rows(self):
        rows = harness.table2()
        assert [r["points"] for r in rows] == [7, 13, 19, 25, 27, 125]
        assert [r["unique_coefficients"] for r in rows] == [2, 3, 4, 5, 4, 10]
        text = harness.render_table2()
        assert "Unique Coefficients" in text

    def test_table4_values(self):
        rows = harness.table4()
        by_points = {r["points"]: r["theoretical_ai"] for r in rows}
        assert by_points[7] == pytest.approx(0.5)
        assert by_points[125] == pytest.approx(8.375)
        assert "Theoretical AI" in harness.render_table4()

    def test_table3_matches_paper_band(self, full_study):
        t3 = harness.table3(full_study)
        # Paper: bricks codegen attains P > 60% overall... our model's
        # aggregate lands at ~62% vs the paper's 61%.
        assert 0.55 <= t3.overall <= 0.68
        # 125pt is the worst row (paper: 38%).
        ps = {name: p for name, (effs, p) in t3.rows.items()}
        assert min(ps, key=ps.get) == "125pt"
        # 7pt the best (paper: 77%).
        assert max(ps, key=ps.get) == "7pt"

    def test_table5_matches_paper_band(self, full_study):
        t5 = harness.table5(full_study)
        # Paper: nearly 70% overall (68%).
        assert 0.62 <= t5.overall <= 0.74
        # Paper conclusion: data movement within ~1.5x of the infinite-
        # cache bound on average -> per-stencil P around 2/3.
        for name, (effs, p) in t5.rows.items():
            assert p > 0.5

    def test_tables_render(self, full_study):
        text3 = harness.table3(full_study).render()
        assert "A100-CUDA" in text3 and "overall" in text3
        text5 = harness.table5(full_study).render()
        assert "theoretical AI" in text5


class TestFigures:
    def test_fig3_panels(self, full_study):
        panels = harness.fig3(full_study)
        assert [p.platform for p in panels] == full_study.platform_names()
        for panel in panels:
            for variant, pts in panel.series.items():
                assert len(pts) == 6
                for _, ai, gf in pts:
                    # No kernel may beat its Roofline.
                    assert gf * 1e9 <= panel.roofline.attainable(ai) * 1.02
            assert "Figure 3" in panel.render()

    def test_fig3_bricks_rightmost(self, full_study):
        # Bricks codegen has the highest AI per stencil per panel
        # (vs array codegen; the paper's layout comparison).
        for panel in harness.fig3(full_study):
            arr = dict((s, ai) for s, ai, _ in panel.series["array_codegen"])
            bricks = dict((s, ai) for s, ai, _ in panel.series["bricks_codegen"])
            for name in arr:
                assert bricks[name] > arr[name]

    def test_fig4_ordering(self, full_study):
        data = harness.fig4(full_study)
        for pname, variants in data.items():
            naive = dict(variants["array"])
            codegen = dict(variants["bricks_codegen"])
            for name in naive:
                assert naive[name] > codegen[name]
        assert "Figure 4" in harness.render_fig4(full_study)

    def test_fig5_fig6(self, full_study):
        perf5, bytes5 = harness.fig5(full_study)
        assert perf5.y_label == "CUDA" and perf5.x_label == "SYCL"
        assert len(perf5.points) == 18
        perf6, bytes6 = harness.fig6(full_study)
        assert perf6.y_label == "HIP"
        # Paper Figure 6: "a more balanced scenario" on AMD — codegen
        # kernels sit closer to the diagonal than on NVIDIA.
        assert perf6.diagonal_distance("bricks_codegen") < perf5.diagonal_distance(
            "array"
        )
        text = harness.render_correlation(bytes6)
        assert "lower bound" in text

    def test_fig7(self, full_study):
        pts = harness.fig7(full_study)
        assert len(pts) == 30
        # Paper: bricks codegen attained over 50% of Roofline and
        # theoretical AI overall -> most points in the <=4x bands.
        good = [p for p in pts if p.potential_speedup <= 4.5]
        assert len(good) >= len(pts) * 0.8
        assert "potential" in harness.render_fig7(full_study)


class TestReporting:
    def test_csv(self, study):
        csv_text = harness.to_csv(study)
        lines = csv_text.strip().splitlines()
        assert len(lines) == 91  # header + 90 rows
        assert lines[0].startswith("stencil,platform,variant")

    def test_write_csv(self, study, tmp_path):
        path = tmp_path / "study.csv"
        harness.write_csv(study, str(path))
        assert path.read_text().count("\n") == 91

    def test_summary(self, study):
        text = harness.summary(study)
        assert "90 kernel runs" in text

    def test_theoretical_ai_against_catalog(self):
        for name in ("7pt", "125pt"):
            assert theoretical_ai(by_name(name).build()) > 0
