"""The batch-vectorized engine: bit-exact equivalence with the oracle.

``simulate_batch`` replaces the scalar ``simulate()`` loop for large
sweeps, so the scalar path is its oracle: every result field — floats
*bitwise*, ints by value, types by identity — must match, across every
dispatch mode, including failure degradation under injected faults.
These tests pin that contract, plus the dispatch decision layer that
routes between the engines.
"""

import gc
import struct
from dataclasses import fields

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import harness, obs
from repro.dsl.shapes import by_name
from repro.errors import ExecutionError, SimulationError
from repro.exec import (
    DISPATCH_MODES,
    break_even_points,
    choose_dispatch,
    clear_cost_model,
    microbatch_study_points,
    observed_cost,
    parallel_map,
    record_cost,
)
from repro.exec.workers import simulate_point
from repro.gpu import (
    BatchPoint,
    TimingBreakdown,
    Traffic,
    platform,
    simulate,
    simulate_batch,
    study_platforms,
)
from repro.resilience import FaultPlan, RetryPolicy, TaskFailure
from repro.tuning.space import TuningSpace

SMALL = harness.ExperimentConfig(stencils=("7pt",), domain=(64, 64, 64))
STENCILS = ("7pt", "13pt", "27pt", "125pt")
VARIANTS = ("array", "array_codegen", "bricks_codegen")
PLATFORMS = study_platforms()
#: Domains both engines must reject: not a tile multiple, an empty
#: extent, a negative extent.
BAD_DOMAINS = ((65, 64, 64), (0, 64, 64), (-64, 64, 64))
#: Valid domains whose byte counts leave the int64 range: the first once
#: multiplied out (2**60 points), the second already in its point count.
HUGE_DOMAINS = ((64 * 2**20, 4 * 2**20, 4 * 2**10), (64 * 2**22, 4 * 2**20, 4 * 2**20))
#: The per-point counters a batch must bump exactly like a scalar loop.
POINT_COUNTERS = ("simulate.calls", "simulate.tiles", "codegen.vector_ops")


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


@pytest.fixture
def tracer():
    prev_t, prev_r = obs.get_tracer(), obs.get_registry()
    t = obs.set_tracer(obs.Tracer(enabled=True))
    obs.set_registry(obs.MetricsRegistry())
    yield t
    obs.set_tracer(prev_t)
    obs.set_registry(prev_r)


def _bits(result) -> bytes:
    """Every float field of a result, packed — equality here is bitwise."""
    tr, tm = result.traffic, result.timing
    return struct.pack(
        "<12d",
        tr.hbm_read_bytes,
        tr.hbm_write_bytes,
        tr.l1_bytes,
        tr.reuse_miss_bytes,
        tm.t_hbm,
        tm.t_l1,
        tm.t_fp,
        tm.t_shuffle,
        tm.t_issue,
        tm.launch_overhead,
        tm.occupancy,
        result.time_s,
    )


def assert_bit_identical(batch_result, scalar_result):
    assert batch_result == scalar_result
    assert _bits(batch_result) == _bits(scalar_result)
    # Same *types* too: the scalar path hands back native ints for
    # sector counts; ndarray.tolist() must not leak numpy scalars.
    for field in ("load_sectors", "store_sectors"):
        assert type(getattr(batch_result.traffic, field)) is type(
            getattr(scalar_result.traffic, field)
        )
    assert type(batch_result.traffic.hbm_read_bytes) is float


class TestBitExactness:
    @given(
        name=st.sampled_from(STENCILS),
        plat_idx=st.integers(0, len(PLATFORMS) - 1),
        variant=st.sampled_from(VARIANTS),
        ni=st.integers(1, 4).map(lambda m: 64 * m),
        nj=st.integers(1, 8).map(lambda m: 4 * m),
        nk=st.integers(1, 8).map(lambda m: 4 * m),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_point_matches_oracle(
        self, name, plat_idx, variant, ni, nj, nk
    ):
        stencil = by_name(name).build()
        plat = PLATFORMS[plat_idx]
        domain = (ni, nj, nk)
        scalar = simulate(
            stencil, variant, plat, domain=domain, stencil_name=name,
            check_invariants=False,
        )
        (batch,) = simulate_batch(
            [
                BatchPoint(
                    stencil=stencil, variant=variant, platform=plat,
                    domain=domain, stencil_name=name,
                )
            ],
            check_invariants=False,
        )
        assert_bit_identical(batch, scalar)

    def test_tuning_overrides_match_oracle(self):
        # dims/vector_length overrides (the tuner's use of the engine).
        stencil = by_name("13pt").build()
        plat = platform("A100", "CUDA")
        domain = (128, 64, 64)
        points = list(
            TuningSpace().candidates(
                plat.arch.simd_width, stencil.radius, domain
            )
        )[:12]
        bpoints = [
            BatchPoint(
                stencil=stencil, variant="bricks_codegen", platform=plat,
                domain=domain, dims=p.brick_dims(),
                vector_length=p.vector_length,
            )
            for p in points
        ]
        batch = simulate_batch(bpoints, check_invariants=False)
        for p, b in zip(points, batch):
            scalar = simulate(
                stencil, "bricks_codegen", plat, domain=domain,
                dims=p.brick_dims(), vector_length=p.vector_length,
                check_invariants=False,
            )
            assert_bit_identical(b, scalar)

    def test_mixed_matrix_matches_oracle(self):
        points = [
            BatchPoint(
                stencil=by_name(name).build(), variant=variant,
                platform=plat, domain=(128, 32, 32), stencil_name=name,
            )
            for name in ("7pt", "25pt")
            for plat in PLATFORMS
            for variant in VARIANTS
        ]
        batch = simulate_batch(points, check_invariants=False)
        for p, b in zip(points, batch):
            scalar = simulate(
                p.stencil, p.variant, p.platform, domain=p.domain,
                stencil_name=p.stencil_name, check_invariants=False,
            )
            assert_bit_identical(b, scalar)


class TestStudyEquivalence:
    def test_three_way_results_identical(self):
        serial = harness.run_study(SMALL, dispatch="serial")
        vectorized = harness.run_study(SMALL, dispatch="vectorized")
        pool = harness.run_study(SMALL, parallel=2, dispatch="pool")
        assert list(vectorized.results) == list(serial.results)
        assert vectorized.results == serial.results
        assert pool.results == serial.results
        for key in serial.results:
            assert _bits(vectorized.results[key]) == _bits(serial.results[key])

    def test_vectorized_counters_match_serial(self, registry):
        harness.run_study(SMALL, dispatch="serial")
        serial = {
            name: registry.counter(name).value
            for name in ("simulate.calls", "simulate.tiles",
                         "codegen.vector_ops", "study.points")
        }
        obs.set_registry(obs.MetricsRegistry())
        reg = obs.get_registry()
        harness.run_study(SMALL, dispatch="vectorized")
        vectorized = {
            name: reg.counter(name).value for name in serial
        }
        assert vectorized == serial

    def test_three_way_identical_under_faults(self):
        config = SMALL

        def plan_for():
            return FaultPlan.seeded(
                3, config.keys(), raise_rate=0.3, corrupt_rate=0.15
            )

        assert len(plan_for()) > 0
        policy = RetryPolicy(retries=3, backoff_s=0.0)
        clean = harness.run_study(config, dispatch="serial")
        runs = {
            mode: harness.run_study(
                config, parallel=2 if mode == "pool" else None,
                policy=policy, fault_plan=plan_for(), dispatch=mode,
            )
            for mode in DISPATCH_MODES
        }
        for mode, study in runs.items():
            assert study.complete, mode
            assert study.results == clean.results, mode

    def test_failed_points_identical_across_modes(self):
        # Zero retries: every injected transient raise becomes a
        # degraded FAILED entry; the records must agree byte for byte.
        config = SMALL
        policy = RetryPolicy(retries=0, backoff_s=0.0)

        def plan_for():
            return FaultPlan.seeded(
                3, config.keys(), raise_rate=0.3, corrupt_rate=0.0
            )

        assert plan_for().count("raise") > 0
        runs = {
            mode: harness.run_study(
                config, parallel=2 if mode == "pool" else None,
                policy=policy, fault_plan=plan_for(), dispatch=mode,
            )
            for mode in DISPATCH_MODES
        }
        serial = runs["serial"]
        assert serial.failed  # the seed injects at least one raise
        for mode in ("vectorized", "pool"):
            assert runs[mode].failed == serial.failed, mode
            assert runs[mode].results == serial.results, mode

    def test_vectorized_span_tree(self, tracer):
        harness.run_study(SMALL, dispatch="vectorized")
        (root,) = tracer.roots()
        assert root.name == "run_study"
        assert root.attrs["dispatch"] == "vectorized"
        (batch,) = root.find("sweep.batch")
        assert batch.attrs["points"] == 15
        assert batch.attrs["groups"] == 15  # one group per combo here
        assert [c.name for c in batch.children] == ["sweep.chunk"]

    def test_checkpoint_and_resume(self, tmp_path):
        first = harness.run_study(
            SMALL, dispatch="vectorized", cache_dir=str(tmp_path),
            checkpoint_every=4,
        )
        resumed = harness.run_study(
            SMALL, dispatch="vectorized", cache_dir=str(tmp_path),
            resume=True,
        )
        assert resumed.results == first.results


class TestBatchFailureSemantics:
    def test_bad_domain_raises_like_scalar(self):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        for domain in BAD_DOMAINS:
            bad = BatchPoint(
                stencil=stencil, variant="array", platform=plat,
                domain=domain,
            )
            with pytest.raises(SimulationError) as batch_err:
                simulate_batch([bad], check_invariants=False)
            with pytest.raises(SimulationError) as scalar_err:
                simulate(
                    stencil, "array", plat, domain=domain,
                    check_invariants=False,
                )
            assert str(batch_err.value) == str(scalar_err.value)

    def test_unknown_variant_raises_like_scalar(self):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        bad = BatchPoint(stencil=stencil, variant="nope", platform=plat)
        with pytest.raises(SimulationError) as batch_err:
            simulate_batch([bad])
        with pytest.raises(SimulationError) as scalar_err:
            simulate(stencil, "nope", plat)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_capture_degrades_to_task_failure(self):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        good = BatchPoint(
            stencil=stencil, variant="array", platform=plat,
            domain=(64, 64, 64),
        )
        for domain in BAD_DOMAINS:
            bad = BatchPoint(
                stencil=stencil, variant="array", platform=plat,
                domain=domain,
            )
            out = simulate_batch(
                [good, bad, good], capture_failures=True, check_invariants=False
            )
            assert isinstance(out[1], TaskFailure)
            assert out[1].error_type == "SimulationError"
            assert out[1].attempts == 1 and not out[1].timed_out
            assert out[0] == out[2]
            assert not isinstance(out[0], TaskFailure)

    def test_failure_does_not_bump_counters(self, registry):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        bad = BatchPoint(
            stencil=stencil, variant="array", platform=plat,
            domain=(65, 64, 64),
        )
        simulate_batch([bad], capture_failures=True, check_invariants=False)
        assert registry.counter("simulate.calls").value == 0

    def test_on_result_fires_in_order(self):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        points = [
            BatchPoint(
                stencil=stencil, variant=v, platform=plat,
                domain=(64, 64, 64),
            )
            for v in VARIANTS
        ]
        seen = []
        out = simulate_batch(
            points, check_invariants=False, chunk_size=2,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert [i for i, _ in seen] == [0, 1, 2]
        assert [r for _, r in seen] == out


def _scalar(p, check_invariants=False):
    return simulate(
        p.stencil, p.variant, p.platform, domain=p.domain,
        stencil_name=p.stencil_name, check_invariants=check_invariants,
    )


def _counters(registry):
    return {name: registry.counter(name).value for name in POINT_COUNTERS}


def _mixed_chunk():
    """Good points interleaved with every kind of scalar-route point."""
    seven, thirteen = by_name("7pt").build(), by_name("13pt").build()
    plat = platform("A100", "CUDA")
    domains = [(64, 64, 64), (128, 32, 16)] + list(BAD_DOMAINS) + list(HUGE_DOMAINS)
    points = [
        BatchPoint(stencil=stencil, variant=variant, platform=plat,
                   domain=domain, stencil_name=name)
        for domain in domains
        for name, stencil in (("7pt", seven), ("13pt", thirteen))
        for variant in ("array", "bricks_codegen")
    ]
    points.insert(3, BatchPoint(stencil=seven, variant="nope", platform=plat))
    return points


#: Domains the flat int64 gather must not take: a float extent (valid
#: for the scalar path) and a wrong arity.
ODD_DOMAINS = ((64.0, 4, 4), (64, 4))


def _odd_chunk():
    """The mixed chunk plus points with a float and a 2-tuple domain."""
    seven, thirteen = by_name("7pt").build(), by_name("13pt").build()
    plat = platform("A100", "CUDA")
    return _mixed_chunk() + [
        BatchPoint(stencil=stencil, variant=variant, platform=plat,
                   domain=domain, stencil_name=name)
        for domain in ODD_DOMAINS
        for name, stencil in (("7pt", seven), ("13pt", thirteen))
        for variant in ("array", "bricks_codegen")
    ]


class TestColumnarFallback:
    """Points failing the columnar domain mask take the scalar route and
    must come out exactly as a scalar loop leaves them."""

    @pytest.mark.parametrize("domain", HUGE_DOMAINS)
    def test_int64_overflow_domain_matches_oracle(self, domain):
        # Neither an int64 wrap (a negative byte count) nor a bare
        # OverflowError: the result is the oracle's.
        point = BatchPoint(
            stencil=by_name("7pt").build(), variant="bricks_codegen",
            platform=PLATFORMS[0], domain=domain,
        )
        (batch,) = simulate_batch([point], check_invariants=False)
        assert_bit_identical(batch, _scalar(point))
        assert batch.traffic.hbm_read_bytes > 0

    @pytest.mark.parametrize("chunk_size", [3, 1024])
    @pytest.mark.parametrize("check", [False, True])
    def test_mixed_chunk_captures_like_scalar(self, chunk_size, check):
        points = _mixed_chunk()
        batch = simulate_batch(
            points, capture_failures=True, check_invariants=check,
            chunk_size=chunk_size,
        )
        scalar = parallel_map(
            lambda p: _scalar(p, check), points, capture_failures=True
        )
        assert [type(b) for b in batch] == [type(s) for s in scalar]
        assert batch == scalar
        assert sum(isinstance(b, TaskFailure) for b in batch) == 4 * 3 + 1

    @pytest.mark.parametrize("chunk_size", [3, 1024])
    def test_mixed_chunk_raises_like_scalar(self, registry, chunk_size):
        points = _mixed_chunk()
        with pytest.raises(Exception) as scalar_err:
            for p in points:
                _scalar(p)
        scalar_counts = _counters(registry)
        assert scalar_counts["simulate.calls"] == 3
        obs.set_registry(obs.MetricsRegistry())
        with pytest.raises(Exception) as batch_err:
            simulate_batch(points, check_invariants=False, chunk_size=chunk_size)
        assert type(batch_err.value) is type(scalar_err.value)
        assert str(batch_err.value) == str(scalar_err.value)
        assert _counters(obs.get_registry()) == scalar_counts

    def test_counters_match_scalar_with_fallback_points(self, registry):
        points = [p for p in _mixed_chunk() if p.variant != "nope"]
        points = [p for p in points if p.domain not in BAD_DOMAINS]
        for p in points:
            _scalar(p)
        scalar_counts = _counters(registry)
        obs.set_registry(obs.MetricsRegistry())
        simulate_batch(points, check_invariants=False)
        assert _counters(obs.get_registry()) == scalar_counts

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, enabled):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        good = BatchPoint(stencil=stencil, variant="array", platform=plat,
                          domain=(64, 64, 64))
        bad = BatchPoint(stencil=stencil, variant="array", platform=plat,
                         domain=(65, 64, 64))
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            seen = []
            simulate_batch(
                [good] * 3, check_invariants=False, chunk_size=2,
                on_result=lambda i, r: seen.append(gc.isenabled()),
            )
            assert seen == [enabled] * 3
            assert gc.isenabled() is enabled
            with pytest.raises(SimulationError):
                simulate_batch([good, bad], check_invariants=False)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_chunk_phase_spans_cover_the_chunk(self, tracer):
        points = [
            BatchPoint(stencil=by_name(name).build(), variant=variant,
                       platform=plat, domain=(64 * m, 32, 16))
            for name in ("7pt", "27pt")
            for plat in PLATFORMS
            for variant in VARIANTS
            for m in range(1, 81)
        ]
        simulate_batch(points, check_invariants=False, chunk_size=1200)
        (batch,) = tracer.find("sweep.batch")
        assert [c.name for c in batch.children] == ["sweep.chunk"] * 2
        for chunk in batch.children:
            assert [c.name for c in chunk.children] == [
                "sweep.resolve", "sweep.evaluate", "sweep.assemble",
            ]
            covered = sum(c.duration_s for c in chunk.children)
            assert covered >= 0.9 * chunk.duration_s

    @pytest.mark.parametrize("chunk_size", [3, 1024])
    @pytest.mark.parametrize("check", [False, True])
    def test_odd_domains_capture_like_scalar(self, chunk_size, check):
        # A float extent is valid for the scalar path; a 2-tuple is not.
        points = _odd_chunk()
        batch = simulate_batch(
            points, capture_failures=True, check_invariants=check,
            chunk_size=chunk_size,
        )
        scalar = parallel_map(
            lambda p: _scalar(p, check), points, capture_failures=True
        )
        assert [type(b) for b in batch] == [type(s) for s in scalar]
        assert batch == scalar
        assert sum(isinstance(b, TaskFailure) for b in batch) == 4 * 4 + 1
        floats = [b for p, b in zip(points, batch) if p.domain == ODD_DOMAINS[0]]
        assert floats and all(type(b.domain[0]) is float for b in floats)

    @pytest.mark.parametrize("domain", ODD_DOMAINS)
    def test_odd_domain_raises_or_matches_like_scalar(self, registry, domain):
        point = BatchPoint(
            stencil=by_name("7pt").build(), variant="array",
            platform=platform("A100", "CUDA"), domain=domain,
        )
        good = BatchPoint(
            stencil=point.stencil, variant="array", platform=point.platform,
        )
        try:
            expected = [_scalar(good), _scalar(point)]
        except Exception as exc:
            scalar_counts = _counters(registry)
            obs.set_registry(obs.MetricsRegistry())
            with pytest.raises(Exception) as batch_err:
                simulate_batch([good, point], check_invariants=False)
            assert type(batch_err.value) is type(exc)
            assert str(batch_err.value) == str(exc)
            assert _counters(obs.get_registry()) == scalar_counts
        else:
            batch = simulate_batch([good, point], check_invariants=False)
            assert batch == expected


def _matrix(domains=((128, 32, 32), (64, 8, 4))):
    """Every study stencil x platform x variant, over ``domains``."""
    return [
        BatchPoint(stencil=by_name(name).build(), variant=variant,
                   platform=plat, domain=domain, stencil_name=name)
        for name in harness.ExperimentConfig().stencils
        for plat in PLATFORMS
        for variant in VARIANTS
        for domain in domains
    ]


#: Every column a frame serves, with the row attribute it mirrors.
FRAME_COLUMNS = {
    "flops": lambda r: r.flops,
    "time_s": lambda r: r.time_s,
    **{f.name: (lambda r, n=f.name: getattr(r.traffic, n)) for f in fields(Traffic)},
    **{f.name: (lambda r, n=f.name: getattr(r.timing, n))
       for f in fields(TimingBreakdown)},
}


class TestStudyFrame:
    """``simulate_batch`` returns a StudyFrame: columns plus lazily built,
    cached rows that behave like the old eager list."""

    @pytest.mark.parametrize("check", [False, True])
    def test_columns_bit_equal_to_rows(self, check):
        points = _matrix()
        assert len({(p.stencil_name, p.platform.name, p.variant)
                    for p in points}) == 6 * 5 * 3
        frame = simulate_batch(points, check_invariants=check, chunk_size=64)
        for name, attr in FRAME_COLUMNS.items():
            column = frame.column(name)
            assert column.shape == (len(points),), name
            values = [attr(frame[i]) for i in range(len(frame))]
            if column.dtype.kind == "f":
                assert all(type(v) is float for v in values), name
                assert [v.hex() for v in column.tolist()] == [
                    v.hex() for v in values
                ], name
            else:
                assert column.dtype == np.int64, name
                assert all(type(v) is int for v in values), name
                assert column.view(np.int64).tolist() == values, name
        assert frame == [_scalar(p, check) for p in points]

    def test_unknown_column_raises(self):
        frame = simulate_batch(_matrix()[:3])
        with pytest.raises(KeyError, match="time_s"):
            frame.column("gflops")

    def test_equality_against_sequences(self):
        points = _matrix()[:40]
        frame = simulate_batch(points, check_invariants=False, chunk_size=16)
        rows = list(frame)
        assert frame == rows and rows == frame
        assert frame == tuple(rows) and tuple(rows) == frame
        assert frame == simulate_batch(points, check_invariants=False)
        assert frame != rows[:-1] and rows[:-1] != frame
        assert frame != rows[::-1]
        assert frame != "not a frame" and frame != 7
        assert [_scalar(p) for p in points] == frame

    def test_indexing(self):
        points = _matrix()[:10]
        frame = simulate_batch(points, check_invariants=False, chunk_size=4)
        scalar = [_scalar(p) for p in points]
        assert frame[-1] == scalar[-1] and frame[-1] is frame[9]
        assert frame[-10] is frame[0]
        assert isinstance(frame[2:5], list) and frame[2:5] == scalar[2:5]
        assert frame[::-3] == scalar[::-3]
        assert frame[7:2] == [] and frame[:] == scalar
        assert frame[np.int64(3)] is frame[3]
        for bad in (10, -11, 1 << 40):
            with pytest.raises(IndexError):
                frame[bad]
        with pytest.raises(TypeError):
            frame["0"]

    def test_rows_are_built_once(self):
        points = _matrix()[:20]
        frame = simulate_batch(points, check_invariants=False)
        first = frame[5]
        assert frame[5] is first
        rows = list(frame)
        assert rows[5] is first
        assert all(a is b for a, b in zip(rows, frame))
        assert all(a is b for a, b in zip(rows, frame[:]))

    @pytest.mark.parametrize("chunk_size", [3, 1024])
    def test_failures_sit_at_their_input_indices(self, chunk_size):
        points = _matrix()[:12] + _mixed_chunk() + _matrix()[12:24]
        frame = simulate_batch(
            points, capture_failures=True, check_invariants=False,
            chunk_size=chunk_size,
        )
        scalar = parallel_map(_scalar, points, capture_failures=True)
        failed = [i for i, s in enumerate(scalar) if isinstance(s, TaskFailure)]
        assert failed
        assert [i for i, r in enumerate(frame) if isinstance(r, TaskFailure)] == failed
        assert frame == scalar
        for i in failed:
            assert frame.column("time_s")[i] == 0 and frame.column("flops")[i] == 0

    def test_float_domain_chunk_keeps_other_chunks_exact(self):
        # The middle chunk holds a float-extent point, so its columns mix
        # ints and floats; joining it must not turn the columnar chunks'
        # ints (a FLOP count beyond 2**53 among them) into floats.
        seven = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        big = BatchPoint(stencil=seven, variant="array", platform=plat,
                         domain=(64 * 1_000_003, 4 * 1_000_001, 8))
        odd = BatchPoint(stencil=seven, variant="array", platform=plat,
                         domain=(64.0, 4, 4))
        columnar = _matrix()[:3] + [big]
        points = columnar + [odd] + _matrix()[3:6] + columnar
        assert simulate_batch([big]).column("flops").dtype == np.int64
        assert _scalar(big).flops > 2**53
        frame = simulate_batch(points, check_invariants=False, chunk_size=4)
        scalar = [_scalar(p) for p in points]
        columns = {name: frame.column(name).tolist() for name in FRAME_COLUMNS}
        for i, (row, want) in enumerate(zip(frame, scalar)):
            assert row == want and _bits(row) == _bits(want), i
            for name, attr in FRAME_COLUMNS.items():
                assert type(attr(row)) is type(attr(want)), (i, name)
                assert type(columns[name][i]) is type(attr(want)), (i, name)
                assert columns[name][i] == attr(want), (i, name)
        assert type(frame[0].flops) is int and type(frame[4].flops) is float
        assert frame[3].flops == frame[-1].flops == _scalar(big).flops

    def test_microbatch_returns_plain_lists(self):
        items = [
            (p.stencil_name, p.stencil, p.platform, p.variant, p.domain)
            for p in _matrix()[:9]
        ]
        groups = [items[:4], items[4:5], items[5:]]
        split = microbatch_study_points(groups, check_invariants=False)
        assert [type(g) for g in split] == [list, list, list]
        assert [len(g) for g in split] == [4, 1, 4]
        assert split == [[simulate_point(item) for item in g] for g in groups]


class TestDispatchDecision:
    def test_single_point_stays_serial(self, registry):
        assert choose_dispatch(1, 8).mode == "serial"

    def test_large_sweep_vectorizes_even_serial(self, registry):
        decision = choose_dispatch(100_000, 1)
        assert decision.mode == "vectorized"

    def test_parallel_request_vectorizes(self, registry):
        assert choose_dispatch(90, 4).mode == "vectorized"

    def test_small_serial_sweep_stays_serial(self, registry):
        assert choose_dispatch(90, 1).mode == "serial"

    def test_unvectorizable_parallel_goes_pool(self, registry):
        assert choose_dispatch(90, 4, vectorizable=False).mode == "pool"

    def test_forced_mode_wins(self, registry):
        for mode in DISPATCH_MODES:
            assert choose_dispatch(90, 4, forced=mode).mode == mode

    def test_unknown_forced_mode_raises(self, registry):
        with pytest.raises(ExecutionError, match="unknown dispatch"):
            choose_dispatch(90, 4, forced="quantum")

    def test_decisions_are_counted(self, registry):
        choose_dispatch(90, 4)
        assert registry.counter("exec.dispatch.vectorized").value == 1

    def test_break_even_infinite_without_parallelism(self):
        assert break_even_points(0.01, 4, cpus=1) == float("inf")
        assert break_even_points(0.01, 1, cpus=8) == float("inf")

    def test_break_even_finite_with_parallelism(self):
        n = break_even_points(0.01, 4, cpus=4)
        assert 0 < n < float("inf")
        # Cheaper items need more of them to amortise pool startup.
        assert break_even_points(0.001, 4, cpus=4) > n

    def test_cost_model_ewma(self, registry):
        clear_cost_model()
        try:
            record_cost(_costed, 0.1)
            record_cost(_costed, 0.2)
            assert observed_cost(_costed) == pytest.approx(0.15)
        finally:
            clear_cost_model()
        assert observed_cost(_costed) is None


def _costed(x):
    return x


def _double(x):
    return 2 * x


class TestPoolAutoFallback:
    def test_cheap_parallel_map_falls_back_to_serial(self, registry):
        clear_cost_model()
        try:
            record_cost(_double, 1e-6)  # far below any break-even
            out = parallel_map(_double, list(range(50)), jobs=4)
            assert out == [2 * x for x in range(50)]
            assert registry.counter("exec.dispatch.serial_fallback").value == 1
        finally:
            clear_cost_model()

    def test_probe_path_records_cost(self, registry):
        clear_cost_model()
        try:
            out = parallel_map(_double, list(range(40)), jobs=2)
            assert out == [2 * x for x in range(40)]
            assert observed_cost(_double) is not None
        finally:
            clear_cost_model()

    def test_auto_fallback_off_keeps_the_pool(self, registry):
        clear_cost_model()
        try:
            record_cost(_double, 1e-6)
            out = parallel_map(
                _double, list(range(12)), jobs=2, auto_fallback=False
            )
            assert out == [2 * x for x in range(12)]
            assert registry.counter("exec.dispatch.serial_fallback").value == 0
        finally:
            clear_cost_model()


class TestTuningDispatch:
    def test_batch_and_pool_tuning_agree(self, registry):
        from repro.tuning import Autotuner

        stencil = by_name("13pt").build()
        plat = platform("A100", "CUDA")
        domain = (64, 64, 64)
        batch = Autotuner().tune(
            stencil, plat, domain=domain, stencil_name="13pt"
        )
        assert registry.counter("tune.mode.batch").value == 1
        pool = Autotuner().tune(
            stencil, plat, domain=domain, stencil_name="13pt", jobs=2
        )
        assert registry.counter("tune.mode.scalar").value == 1
        assert batch.best == pool.best
        assert batch.ranking == pool.ranking
        assert _bits(batch.best_result) == _bits(pool.best_result)
