"""Structural tests for generated vector programs."""

import random

import pytest

from repro import harness
from repro.bricks import BrickDims
from repro.codegen import CodegenOptions, clear_codegen_memo, cost_of, generate, vector_ir
from repro.codegen.vector_ir import Add, Init, Load, Mac, Shift, Store, VectorProgram
from repro.dsl import by_name, cube, star
from repro.dsl.coeffs import Coeff
from repro.errors import CodegenError
from repro.gpu import simulate
from repro.gpu.progmodel import platform
from repro.gpu.simulator import resolve

DIMS = BrickDims((16, 4, 4))  # bi=16, bj=4, bk=4


def gen(stencil, strategy, vl=16, dims=DIMS, reuse=True):
    return generate(stencil, dims, CodegenOptions(vl, strategy, reuse))


class TestOptions:
    def test_bad_strategy(self):
        with pytest.raises(CodegenError):
            CodegenOptions(16, "magic")

    def test_bad_vl(self):
        with pytest.raises(CodegenError):
            CodegenOptions(1)

    def test_vl_must_divide_extent(self):
        with pytest.raises(CodegenError, match="divide"):
            generate(star(1), DIMS, CodegenOptions(12, "naive"))

    def test_radius_must_fit_brick(self):
        with pytest.raises(Exception):
            generate(star(3), BrickDims((16, 2, 2)), CodegenOptions(16, "naive"))

    def test_radius_must_be_below_vl(self):
        with pytest.raises(CodegenError, match="radius"):
            generate(star(3), BrickDims((4, 4, 4)), CodegenOptions(2, "naive"))


class TestNaive:
    def test_load_count_is_taps_times_outputs(self):
        s = star(2)
        prog = gen(s, "naive")
        loads = [op for op in prog.ops if isinstance(op, Load)]
        # 4*4 rows, 1 vector each, 13 taps.
        assert len(loads) == 16 * s.points

    def test_no_shuffles(self):
        prog = gen(star(2), "naive")
        assert not any(isinstance(op, Shift) for op in prog.ops)

    def test_unaligned_loads_present(self):
        c = cost_of(gen(star(2), "naive"))
        # Taps with oi != 0: 4 of 13 -> 4 unaligned loads per output vector.
        assert c.loads_unaligned == 16 * 4
        assert c.loads_aligned == 16 * 9

    def test_validates(self):
        for s in (star(1), star(4), cube(1), cube(2)):
            gen(s, "naive").validate()


class TestGather:
    def test_each_row_loaded_once_with_reuse(self):
        s = star(2)
        prog = gen(s, "gather")
        loads = [op for op in prog.ops if isinstance(op, Load) and op.kind == "aligned"]
        rows = {(op.k, op.j) for op in loads}
        assert len(loads) == len(rows)  # no duplicate row loads

    def test_reuse_reduces_loads(self):
        s = cube(2)
        with_reuse = cost_of(gen(s, "gather", reuse=True))
        without = cost_of(gen(s, "gather", reuse=False))
        assert with_reuse.loads_total < without.loads_total

    def test_shuffles_replace_unaligned(self):
        c = cost_of(gen(star(2), "gather"))
        assert c.loads_unaligned == 0
        assert c.shuffles > 0

    def test_star_loads_cross_region_only(self):
        # Star taps never need rows with both oj != 0 and ok != 0.
        prog = gen(star(2), "gather")
        for op in prog.ops:
            if isinstance(op, Load):
                out_k = any(0 <= op.k - ok < 4 for ok in range(-2, 3))
                assert out_k  # every loaded row is within k-halo


class TestScatter:
    def test_each_row_loaded_once(self):
        s = cube(2)
        prog = gen(s, "scatter")
        loads = [op for op in prog.ops if isinstance(op, Load) and op.kind == "aligned"]
        rows = {(op.k, op.j) for op in loads}
        assert len(loads) == len(rows)

    def test_cube_loads_full_halo_rows(self):
        prog = gen(cube(1), "scatter")
        loads = {(op.k, op.j) for op in prog.ops if isinstance(op, Load) and op.kind == "aligned"}
        assert loads == {(k, j) for k in range(-1, 5) for j in range(-1, 5)}

    def test_star_skips_corner_rows(self):
        prog = gen(star(2), "scatter")
        loads = {(op.k, op.j) for op in prog.ops if isinstance(op, Load) and op.kind == "aligned"}
        assert (-2, -2) not in loads  # corner row contributes to no star output
        assert (-2, 0) in loads

    def test_mac_count_equals_taps_times_outputs(self):
        s = cube(1)
        c = cost_of(gen(s, "scatter"))
        assert c.macs == s.points * 16  # 16 output vectors

    def test_no_unaligned(self):
        assert cost_of(gen(cube(2), "scatter")).loads_unaligned == 0


class TestAuto:
    @pytest.mark.parametrize("name", ["7pt", "13pt", "19pt", "25pt", "27pt", "125pt"])
    def test_auto_no_worse_than_either(self, name):
        s = by_name(name).build()
        a = len(gen(s, "auto").ops)
        g = len(gen(s, "gather").ops)
        sc = len(gen(s, "scatter").ops)
        assert a == min(g, sc)

    def test_codegen_beats_naive_on_loads(self):
        for name in ("7pt", "25pt", "125pt"):
            s = by_name(name).build()
            naive = cost_of(gen(s, "naive"))
            auto = cost_of(gen(s, "auto"))
            assert auto.loads_total < naive.loads_total

    def test_l1_ratio_grows_with_stencil_size(self):
        # The paper's Figure 4: naive L1 traffic is ~points/footprint x codegen's.
        small = by_name("7pt").build()
        big = by_name("125pt").build()
        ratio_small = (
            cost_of(gen(small, "naive")).load_lanes()
            / cost_of(gen(small, "auto")).load_lanes()
        )
        ratio_big = (
            cost_of(gen(big, "naive")).load_lanes()
            / cost_of(gen(big, "auto")).load_lanes()
        )
        assert ratio_big > ratio_small > 1.0


class TestProgramInvariants:
    @pytest.mark.parametrize("strategy", ["naive", "gather", "scatter"])
    @pytest.mark.parametrize("name", ["7pt", "13pt", "27pt", "125pt"])
    def test_validate_and_pressure(self, strategy, name):
        s = by_name(name).build()
        prog = gen(s, strategy)
        prog.validate()
        assert prog.max_live_registers() >= 1

    def test_multi_vector_rows(self):
        # bi=32 with vl=16 -> 2 vectors per row.
        prog = generate(star(2), BrickDims((32, 4, 4)), CodegenOptions(16, "scatter"))
        prog.validate()
        assert prog.nvec == 2

    def test_pretty_output(self):
        prog = gen(star(1), "gather")
        text = prog.pretty(limit=10)
        assert "gather" in text and "load" in text and "more ops" in text


class TestValidateMessages:
    def _program(self, *ops):
        return VectorProgram(
            ops=[Load("a", 0, 0, 0, "aligned"), *ops],
            tile=(1, 1, 4), radius=1, vl=4, strategy="gather",
        )

    def test_shift_names_undefined_register(self):
        prog = self._program(Shift("s", "a", "ghost", 1))
        with pytest.raises(CodegenError, match=r"op 1: shift .* ghost$"):
            prog.validate()

    def test_add_names_undefined_registers(self):
        prog = self._program(Add("t", "lost", "missing"))
        with pytest.raises(CodegenError, match=r"op 1: add .* lost, missing$"):
            prog.validate()


def _uses(op):
    if isinstance(op, Shift):
        return (op.lo, op.hi)
    if isinstance(op, Add):
        return (op.a, op.b)
    if isinstance(op, Mac):
        return (op.src, op.dst)
    if isinstance(op, Store):
        return (op.src,)
    return ()


def _defines(op):
    if isinstance(op, (Load, Shift, Init, Add)):
        return op.dst
    return None


def rescan_max_live(ops):
    """The register-pressure definition the one-pass count must reproduce:
    a backward last-use table, then a forward scan that rescans the whole
    live set after every op (O(ops x live))."""
    last_use = {}
    for idx, op in enumerate(ops):
        for reg in _uses(op):
            last_use[reg] = idx
        if isinstance(op, (Mac, Init)):
            last_use[op.dst] = max(last_use.get(op.dst, idx), idx)
    live = set()
    peak = 0
    for idx, op in enumerate(ops):
        d = _defines(op)
        if d is not None:
            live.add(d)
        for reg in _uses(op):
            live.add(reg)
        peak = max(peak, len(live))
        dead = {r for r in live if last_use.get(r, -1) <= idx}
        live -= dead
    return peak


def study_tiles():
    """Distinct (stencil, tile dims, vl) of the paper's 90-point study."""
    config = harness.ExperimentConfig()
    tiles = set()
    for name in config.stencils:
        for plat in config.platforms():
            for variant in config.variants:
                _, _, dims, vl = resolve(variant, plat)
                tiles.add((name, dims.dims, vl))
    return sorted(tiles)


#: The programs behind each study tile: naive for ``array``, and both
#: ``auto`` candidates (the chosen one and the loser) for the codegen
#: variants.
STUDY_STRATEGIES = ("naive", "gather", "scatter")

#: Strategy grid beyond the study: (strategy, reuse).
GRID_STRATEGIES = (("naive", True), ("gather", True), ("gather", False), ("scatter", True))


@pytest.fixture
def fresh_memo():
    clear_codegen_memo()
    yield
    clear_codegen_memo()


class TestRegisterPressure:
    def test_matches_rescan_on_every_study_program(self, fresh_memo):
        programs = [
            gen(by_name(name).build(), strategy, vl=vl, dims=BrickDims(dims))
            for name, dims, vl in study_tiles()
            for strategy in STUDY_STRATEGIES
        ]
        assert len(programs) == 54
        for prog in programs:
            assert cost_of(prog).registers == rescan_max_live(prog.ops), (
                prog.meta["stencil"], prog.tile, prog.strategy
            )

    @pytest.mark.parametrize("vl", [4, 8, 16, 32, 64])
    def test_matches_rescan_on_tile_grid(self, vl, fresh_memo):
        shapes = ((vl, 2, 2), (2 * vl, 2, 2), (vl, 2, 4), (vl, 4, 2), (vl, 2, 8))
        checked = 0
        for name in harness.ExperimentConfig().stencils:
            s = by_name(name).build()
            for shape in shapes:
                if s.radius >= vl or s.radius > min(shape):
                    continue
                for strategy, reuse in GRID_STRATEGIES:
                    prog = gen(s, strategy, vl=vl, dims=BrickDims(shape), reuse=reuse)
                    assert prog.max_live_registers() == rescan_max_live(prog.ops), (
                        name, shape, strategy, reuse
                    )
                    checked += 1
        assert checked >= 80

    def test_matches_rescan_on_random_programs(self):
        # Hand-built programs reach what generated ones rarely do: uses of
        # undefined registers, registers never used, and redefinitions
        # after a register's last use.
        rng = random.Random(13)
        coeff = Coeff.symbol("c")
        for _ in range(3000):
            regs = [f"r{i}" for i in range(rng.randint(1, 6))]

            def reg():
                return rng.choice(regs)

            makers = (
                lambda: Load(reg(), 0, 0, 0, "aligned"),
                lambda: Shift(reg(), reg(), reg(), 1),
                lambda: Init(reg()),
                lambda: Add(reg(), reg(), reg()),
                lambda: Mac(reg(), reg(), coeff),
                lambda: Store(reg(), 0, 0, 0),
            )
            ops = [rng.choice(makers)() for _ in range(rng.randint(0, 16))]
            prog = VectorProgram(ops=ops, tile=(1, 1, 4), radius=1, vl=4, strategy="naive")
            assert prog.max_live_registers() == rescan_max_live(ops), ops

    def test_cold_study_scans_each_program_once(self, fresh_memo, monkeypatch):
        expected = len(study_tiles()) * len(STUDY_STRATEGIES)
        scans = []
        scan = vector_ir._peak_live

        def counting(ops):
            scans.append(len(ops))
            return scan(ops)

        monkeypatch.setattr(vector_ir, "_peak_live", counting)
        harness.clear_study_cache()
        study = harness.run_study(harness.ExperimentConfig())
        assert len(study.results) == 90
        assert len(scans) == expected == 54

    def test_cost_is_computed_once_per_program(self):
        prog = gen(star(2), "gather")
        assert cost_of(prog) is cost_of(prog)

    def test_simulations_share_one_cost(self):
        # A100 under CUDA and SYCL share one tile and vector length, so
        # their codegen variants run one memoised program.
        a, b = (
            simulate(star(2), "bricks_codegen", platform("A100", model))
            for model in ("CUDA", "SYCL")
        )
        assert a.cost is b.cost

    def test_equal_op_sequences_share_one_tuple(self, fresh_memo):
        # One vector per row: the naive program does not depend on vl.
        narrow = gen(star(2), "naive", vl=16, dims=BrickDims((16, 4, 4)))
        wide = gen(star(2), "naive", vl=32, dims=BrickDims((32, 4, 4)))
        assert narrow is not wide and narrow.vl != wide.vl
        assert narrow.ops is wide.ops

    def test_caches_take_no_part_in_equality(self):
        ops = gen(star(1), "gather").ops
        fresh = VectorProgram(ops=list(ops), tile=(4, 4, 16), radius=1, vl=16,
                              strategy="gather")
        other = VectorProgram(ops=ops, tile=(4, 4, 16), radius=1, vl=16,
                              strategy="gather")
        cost_of(fresh)
        assert fresh == other and repr(fresh) == repr(other)
        assert isinstance(fresh.ops, tuple)
