"""Tests for primitive signatures, behaviors, and the cost model."""

import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UndefinedError, ValidationError
from repro.stdlib.behaviors import PrimitiveModel, comb_paths, port_names
from repro.stdlib.costs import Resources, mux_cost
from repro.stdlib.primitives import all_primitives, get_primitive, is_primitive, make_model
from tests.conftest import verilog_module_ports


class TestSignatures:
    def test_reg_signature(self):
        sig = get_primitive("std_reg").signature((8,))
        assert sig["in"].width == 8
        assert sig["write_en"].width == 1
        assert sig["out"].width == 8
        assert sig["done"].width == 1

    def test_cmp_output_is_one_bit(self):
        sig = get_primitive("std_lt").signature((32,))
        assert sig["out"].width == 1

    def test_mem_d2_signature(self):
        sig = get_primitive("std_mem_d2").signature((8, 4, 4, 2, 2))
        assert sig["addr0"].width == 2
        assert sig["read_data"].width == 8

    def test_arity_check(self):
        with pytest.raises(ValidationError):
            get_primitive("std_reg").bind((8, 9))

    def test_unknown_primitive(self):
        with pytest.raises(UndefinedError):
            get_primitive("std_nothing")
        assert not is_primitive("std_nothing")

    def test_share_attributes(self):
        assert get_primitive("std_add").is_shareable()
        assert not get_primitive("std_reg").is_shareable()

    def test_static_latencies(self):
        assert get_primitive("std_reg").latency == 1
        assert get_primitive("std_mult_pipe").latency == 4
        assert get_primitive("std_sqrt").latency is None

    def test_every_primitive_has_model_and_cost(self):
        """Every entry builds a model and a cost, and its Verilog module's
        header names exactly its signature's ports, plus ``clk`` if and
        only if it is not combinational."""
        for prim in all_primitives():
            args = _args_for(prim)
            model = make_model(prim.name, args)
            assert model is not None
            assert isinstance(prim.cost(args), Resources)
            expected = list(prim.signature(args)) + ([] if prim.combinational else ["clk"])
            assert verilog_module_ports(prim.verilog, prim.name) == sorted(expected), prim.name


def _args_for(prim):
    """Small, valid parameters for any primitive."""
    return {
        "std_mem_d2": (8, 4, 4, 2, 2),
        "std_mem_d1": (8, 4, 2),
        "std_slice": (8, 4),
        "std_pad": (8, 4),
    }.get(prim.name, tuple(8 for _ in prim.params))


class Ports:
    """Drive a model by port name, through its primitive's signature.

    ``comb``/``tick`` take ``{port: value}`` (unnamed inputs are 0) and
    translate to and from the positional protocol the simulator uses.
    """

    def __init__(self, name, args):
        self.model = make_model(name, args)
        self.ins, self.outs = port_names(get_primitive(name).signature(args))

    def _vector(self, values):
        assert set(values) <= set(self.ins), f"unknown ports {set(values) - set(self.ins)}"
        return [values.get(port, 0) for port in self.ins]

    def comb(self, values=None):
        outs = self.model.comb(self._vector(values or {}))
        assert len(outs) == len(self.outs)
        return dict(zip(self.outs, outs))

    def tick(self, values=None):
        self.model.tick(self._vector(values or {}))


class TestChildProtocol:
    @pytest.mark.parametrize("prim", all_primitives(), ids=lambda p: p.name)
    def test_primitive_conformance(self, prim):
        """From a signature-ordered input vector, comb returns one value per
        output port (before and after a clock edge), and comb_deps names
        only ports of the signature."""
        args = _args_for(prim)
        model = make_model(prim.name, args)
        ins, outs = port_names(prim.signature(args))
        vector = [1] * len(ins)
        assert len(model.comb(vector)) == len(outs)
        assert model.tick(vector) in (True, False)
        assert len(model.comb(vector)) == len(outs)
        assert set(model.comb_deps) <= set(outs)
        for deps in model.comb_deps.values():
            assert set(deps) <= set(ins)
        assert comb_paths(model, prim.signature(args))[1]  # declared

    def test_undeclared_comb_deps_mean_every_path(self):
        class Opaque(PrimitiveModel):
            def comb(self, ins):
                return (0,)

        sig = get_primitive("std_add").signature((8,))
        paths, declared = comb_paths(Opaque((8,)), sig)
        assert not declared
        assert paths == [("left", "out"), ("right", "out")]


#: Every stdlib model with state, and the parameters the contract drives.
STATEFUL = {
    "std_reg": (8,),
    "std_mem_d1": (8, 4, 2),
    "std_mem_d2": (8, 2, 3, 1, 2),
    "std_mult_pipe": (8,),
    "std_div_pipe": (8,),
    "std_sqrt": (8,),
}


class TestTickReport:
    """``tick`` returns ``False`` only when ``comb`` cannot have moved."""

    def _inputs(self, name, args, rng, control):
        """A random input vector; the last input (``write_en``/``go``) is
        ``control``, and addresses stay in bounds."""
        sig = get_primitive(name).signature(args)
        ins, _ = port_names(sig)
        vector = [rng.randrange(1 << sig[port].width) for port in ins]
        if name.startswith("std_mem"):
            for i, size in enumerate(args[1 : 1 + (len(args) - 1) // 2]):
                vector[i] = rng.randrange(size)
        vector[-1] = control
        return vector

    def _probes(self, name, args, rng):
        """Input vectors to compare ``comb`` on: every address of a memory,
        a few random vectors otherwise."""
        if name.startswith("std_mem"):
            ins, _ = port_names(get_primitive(name).signature(args))
            dims = args[1 : 1 + (len(args) - 1) // 2]
            return [
                list(addrs) + [0] * (len(ins) - len(addrs))
                for addrs in itertools.product(*(range(d) for d in dims))
            ]
        return [self._inputs(name, args, rng, rng.randrange(2)) for _ in range(4)]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(STATEFUL))
    def test_false_tick_keeps_comb(self, name, seed):
        args = STATEFUL[name]
        rng = random.Random(seed)
        model = make_model(name, args)
        probes = self._probes(name, args, rng)
        pipelined = hasattr(model, "counter")
        reports = []
        control = 0
        for _ in range(300):
            # Hold write_en/go for runs of cycles so pipelined units finish.
            if rng.random() < 0.2:
                control ^= 1
            vector = self._inputs(name, args, rng, control)
            before = [tuple(model.comb(p)) for p in probes]
            counting = pipelined and control and not model.done
            counter = model.counter if pipelined else None
            report = model.tick(vector)
            assert report in (True, False)
            reports.append(report)
            if report is False:
                assert [tuple(model.comb(p)) for p in probes] == before
                if counting:
                    # A hidden step still counts, so latencies stay put.
                    assert model.counter == counter + 1
        assert True in reports and False in reports


class TestTickContract:
    """A model that declares ``enable``: once a tick saw it low and
    returned ``False``, a further tick with it low is a no-op returning
    ``False``, so the levelized engine may skip it."""

    def test_every_stateful_model_declares_its_enable(self):
        for name, args in STATEFUL.items():
            ins, _ = port_names(get_primitive(name).signature(args))
            assert make_model(name, args).enable in ins, name

    @pytest.mark.parametrize("name", sorted(STATEFUL))
    @settings(max_examples=40, deadline=None)
    @given(
        enables=st.lists(st.sampled_from([0, 0, 1]), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_idle_tick_is_a_no_op(self, name, enables, seed):
        args = STATEFUL[name]
        rng = random.Random(seed)
        model = make_model(name, args)
        sig = get_primitive(name).signature(args)
        ins, _ = port_names(sig)
        position = ins.index(model.enable)
        dims = args[1 : 1 + (len(args) - 1) // 2] if name.startswith("std_mem") else ()

        def inputs(enable):
            vector = [rng.randrange(1 << sig[port].width) for port in ins]
            for i, size in enumerate(dims):
                vector[i] = rng.randrange(size)  # a write in bounds
            vector[position] = enable
            return vector

        for enable in enables:
            if model.tick(inputs(enable)) is not False or enable:
                continue
            probes = [inputs(rng.randrange(2)) for _ in range(4)]
            before = [tuple(model.comb(p)) for p in probes], copy.deepcopy(vars(model))
            assert model.tick(inputs(0)) is False
            assert ([tuple(model.comb(p)) for p in probes], vars(model)) == before


class TestRegModel:
    def test_write_and_done_pulse(self):
        reg = Ports("std_reg", (8,))
        reg.tick({"in": 5, "write_en": 1})
        assert reg.comb()["out"] == 5
        assert reg.comb()["done"] == 1
        reg.tick({"write_en": 0})
        assert reg.comb()["done"] == 0
        assert reg.comb()["out"] == 5

    def test_masks_to_width(self):
        reg = Ports("std_reg", (4,))
        reg.tick({"in": 0x1F, "write_en": 1})
        assert reg.comb()["out"] == 0xF

    def test_no_write_without_enable(self):
        reg = Ports("std_reg", (8,))
        reg.tick({"in": 5, "write_en": 0})
        assert reg.comb()["out"] == 0


class TestMemModels:
    def test_d1_read_write(self):
        mem = Ports("std_mem_d1", (8, 4, 2))
        mem.model.data = [1, 2, 3, 4]
        assert mem.comb({"addr0": 2})["read_data"] == 3
        mem.tick({"addr0": 1, "write_data": 9, "write_en": 1})
        assert mem.model.data[1] == 9
        assert mem.comb({"addr0": 1})["done"] == 1

    def test_d1_out_of_bounds_read_is_zero(self):
        mem = Ports("std_mem_d1", (8, 2, 2))
        assert mem.comb({"addr0": 3})["read_data"] == 0

    def test_d1_out_of_bounds_write_raises(self):
        from repro.errors import SimulationError

        mem = Ports("std_mem_d1", (8, 2, 2))
        with pytest.raises(SimulationError):
            mem.tick({"addr0": 3, "write_data": 1, "write_en": 1})

    def test_d2_row_major(self):
        mem = Ports("std_mem_d2", (8, 2, 3, 1, 2))
        mem.tick({"addr0": 1, "addr1": 2, "write_data": 7, "write_en": 1})
        assert mem.model.data[1 * 3 + 2] == 7
        assert mem.comb({"addr0": 1, "addr1": 2})["read_data"] == 7


class TestPipelinedModels:
    def run_unit(self, name, width, inputs, max_cycles=64):
        """Hold go high until done; return (cycles, outputs)."""
        unit = Ports(name, (width,))
        for cycle in range(1, max_cycles):
            unit.tick(dict(inputs, go=1))
            out = unit.comb()
            if out["done"]:
                return cycle, out
        raise AssertionError("unit never finished")

    def test_mult_latency_and_result(self):
        cycles, out = self.run_unit("std_mult_pipe", 32, {"left": 6, "right": 7})
        assert out["out"] == 42
        assert cycles == 4

    def test_mult_wraps_at_width(self):
        _, out = self.run_unit("std_mult_pipe", 8, {"left": 100, "right": 100})
        assert out["out"] == (100 * 100) & 0xFF

    def test_div_and_rem(self):
        cycles, out = self.run_unit("std_div_pipe", 32, {"left": 17, "right": 5})
        assert out["out_quotient"] == 3
        assert out["out_remainder"] == 2

    def test_div_by_zero_all_ones(self):
        _, out = self.run_unit("std_div_pipe", 8, {"left": 9, "right": 0})
        assert out["out_quotient"] == 0xFF

    def test_go_drop_resets(self):
        unit = Ports("std_mult_pipe", (32,))
        unit.tick({"left": 3, "right": 3, "go": 1})
        unit.tick({"go": 0})
        assert unit.model.counter == 0

    def test_sqrt_data_dependent_latency(self):
        small, out_small = self.run_unit("std_sqrt", 32, {"in": 4})
        big, out_big = self.run_unit("std_sqrt", 32, {"in": 1 << 30})
        assert out_small["out"] == 2
        assert out_big["out"] == 1 << 15
        assert big > small  # latency grows with operand size

    def test_sqrt_exact_at_width_64(self):
        """Operands beyond a double's 53-bit mantissa still floor exactly."""
        _, out = self.run_unit("std_sqrt", 64, {"in": 2**64 - 1})
        assert out["out"] == 2**32 - 1
        _, out = self.run_unit("std_sqrt", 64, {"in": (2**32 - 1) ** 2})
        assert out["out"] == 2**32 - 1


class TestArithModels:
    @given(
        st.sampled_from(["std_add", "std_sub", "std_and", "std_or", "std_xor"]),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_binops_match_python(self, name, left, right):
        out = Ports(name, (8,)).comb({"left": left, "right": right})["out"]
        expected = {
            "std_add": (left + right) & 0xFF,
            "std_sub": (left - right) & 0xFF,
            "std_and": left & right,
            "std_or": left | right,
            "std_xor": left ^ right,
        }[name]
        assert out == expected

    @given(
        st.sampled_from(["std_lt", "std_gt", "std_eq", "std_neq", "std_le", "std_ge"]),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_comparisons_match_python(self, name, left, right):
        out = Ports(name, (8,)).comb({"left": left, "right": right})["out"]
        expected = {
            "std_lt": left < right,
            "std_gt": left > right,
            "std_eq": left == right,
            "std_neq": left != right,
            "std_le": left <= right,
            "std_ge": left >= right,
        }[name]
        assert out == int(expected)

    def test_slice_truncates(self):
        assert Ports("std_slice", (8, 4)).comb({"in": 0xAB})["out"] == 0xB

    def test_pad_passes_through(self):
        assert Ports("std_pad", (4, 8)).comb({"in": 0xB})["out"] == 0xB


class TestCosts:
    def test_mux_cost_zero_for_unique_driver(self):
        assert mux_cost(32, 1) == 0.0
        assert mux_cost(32, 0) == 0.0

    def test_mux_cost_grows_with_drivers(self):
        assert mux_cost(32, 3) > mux_cost(32, 2) > 0

    def test_adder_scales_with_width(self):
        assert get_primitive("std_add").cost((32,)).luts == 32

    def test_register_costs_flipflops_not_luts(self):
        cost = get_primitive("std_reg").cost((32,))
        assert cost.registers == 33
        assert cost.luts == 0

    def test_bram_threshold(self):
        small = get_primitive("std_mem_d1").cost((8, 4, 2))
        big = get_primitive("std_mem_d1").cost((32, 1024, 10))
        assert small.brams == 0 and small.luts > 0
        assert big.brams >= 1

    def test_mult_uses_dsps(self):
        assert get_primitive("std_mult_pipe").cost((32,)).dsps > 0

    def test_resources_add(self):
        a = Resources(luts=10, registers=5)
        b = Resources(luts=1, dsps=2)
        total = a.add(b)
        assert total.luts == 11 and total.registers == 5 and total.dsps == 2

    def test_unknown_primitive_cost(self):
        with pytest.raises(UndefinedError):
            get_primitive("std_alien").cost((1,))
