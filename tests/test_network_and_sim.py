"""Tests for gate-level networks, simulation and the bench format."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    alu_bit_slice,
    c17,
    equality_comparator,
    majority_voter,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.logic import (
    Network,
    exhaustive_truth_table,
    parse_bench,
    simulate,
    simulate_outputs,
    vectors_differ,
    write_bench,
)
from repro.logic.eval import BINARY_FUNCS, eval_binary, eval_ternary
from repro.logic.values import X


class TestNetworkStructure:
    def test_build_and_validate(self):
        n = Network("t")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("g1", "NAND2", ["a", "b"], "y")
        n.add_output("y")
        n.validate()
        assert n.depth() == 1
        assert n.stats()["gates"] == 1

    def test_rejects_double_driver(self):
        n = Network("t")
        n.add_input("a")
        n.add_gate("g1", "INV", ["a"], "y")
        with pytest.raises(ValueError):
            n.add_gate("g2", "INV", ["a"], "y")

    def test_rejects_driving_primary_input(self):
        n = Network("t")
        n.add_input("a")
        with pytest.raises(ValueError):
            n.add_gate("g1", "INV", ["a"], "a")

    def test_rejects_bad_arity(self):
        n = Network("t")
        n.add_input("a")
        with pytest.raises(ValueError):
            n.add_gate("g1", "NAND2", ["a"], "y")

    def test_rejects_unknown_type(self):
        n = Network("t")
        n.add_input("a")
        with pytest.raises(ValueError):
            n.add_gate("g1", "FROB", ["a"], "y")

    def test_detects_combinational_loop(self):
        n = Network("loop")
        n.add_input("a")
        n.add_gate("g1", "NAND2", ["a", "y2"], "y1")
        n.add_gate("g2", "INV", ["y1"], "y2")
        with pytest.raises(ValueError):
            n.validate()

    def test_missing_driver(self):
        n = Network("t")
        n.add_input("a")
        n.add_gate("g1", "NAND2", ["a", "ghost"], "y")
        n.add_output("y")
        with pytest.raises(ValueError):
            n.validate()

    def test_fanout_and_driver_queries(self):
        n = c17()
        assert n.driver_of("g1") is None
        assert n.driver_of("g22").name == "g_g22"
        assert len(n.fanout_of("g11")) == 2


def _scan_fanout(network, net):
    """The brute-force reference: every gate reading ``net``, once."""
    return [g for g in network.gates.values() if net in g.inputs]


def _wave_levelized(network):
    """Reference levelization: place every ready gate, one wave at a
    time, each wave in name order."""
    order = []
    placed = set(network.primary_inputs) | set(network.flops)
    remaining = dict(network.gates)
    while remaining:
        ready = [
            g for g in remaining.values()
            if all(n in placed for n in g.inputs)
        ]
        assert ready, "combinational loop or missing driver"
        for g in sorted(ready, key=lambda g: g.name):
            order.append(g)
            placed.add(g.output)
            del remaining[g.name]
    return order


def _structure_circuits():
    from repro.campaign.registry import get_registry
    from repro.circuits.random_circuits import random_network

    registry = get_registry()
    corpus = registry.names(tags=["corpus"])
    assert len(corpus) == 6
    circuits = [c17()] + [registry.load(name) for name in corpus]
    circuits += [
        random_network(seed, n_gates=25 + 9 * seed, n_inputs=3 + seed % 4,
                       dp_fraction=0.3)
        for seed in range(10)
    ]
    return circuits


class TestIndexedStructure:
    """``fanout_of`` and ``levelized`` against their brute-force forms."""

    def test_fanout_matches_scan(self):
        for network in _structure_circuits():
            for net in network.nets():
                assert network.fanout_of(net) == _scan_fanout(network, net)

    def test_fanout_dedupes_repeated_pin(self):
        n = Network("t")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("g1", "NAND2", ["a", "a"], "y")
        n.add_gate("g2", "XOR2", ["b", "a"], "z")
        assert [g.name for g in n.fanout_of("a")] == ["g1", "g2"]
        assert n.fanout_of("a") == _scan_fanout(n, "a")
        n.fanout_of("a").clear()  # callers get a copy, not the index
        assert len(n.fanout_of("a")) == 2

    def test_levelized_matches_wave_scan(self):
        for network in _structure_circuits():
            assert network.levelized() == _wave_levelized(network)

    def test_levelized_is_name_sorted_within_a_wave(self):
        n = Network("t")
        n.add_input("a")
        n.add_gate("z1", "INV", ["a"], "p")
        n.add_gate("b2", "INV", ["p"], "q")
        n.add_gate("a3", "INV", ["a"], "r")
        n.add_gate("c4", "NAND2", ["q", "r"], "y")
        assert [g.name for g in n.levelized()] == ["a3", "z1", "b2", "c4"]


class TestEvalFunctions:
    @pytest.mark.parametrize("gtype", sorted(BINARY_FUNCS))
    def test_ternary_agrees_with_binary(self, gtype):
        from repro.logic.network import GATE_ARITY

        arity = GATE_ARITY[gtype]
        for bits in itertools.product((0, 1), repeat=arity):
            assert eval_ternary(gtype, bits) == eval_binary(gtype, bits)

    def test_x_blocked_by_controlling(self):
        assert eval_ternary("NAND2", (0, X)) == 1
        assert eval_ternary("NOR2", (1, X)) == 0
        assert eval_ternary("MAJ3", (1, 1, X)) == 1
        assert eval_ternary("MAJ3", (0, 0, X)) == 0

    def test_x_propagates_otherwise(self):
        assert eval_ternary("XOR2", (1, X)) == X
        assert eval_ternary("MAJ3", (0, 1, X)) == X


class TestBenchmarks:
    def test_c17_truth_sample(self):
        n = c17()
        out = simulate_outputs(
            n, {"g1": 1, "g2": 0, "g3": 1, "g6": 1, "g7": 0}
        )
        # g10 = !(1&1)=0, g11 = !(1&1)=0, g16 = !(0&0)=1,
        # g19 = !(0&0)=1, g22 = !(0&1)=1, g23 = !(1&1)=0.
        assert out == (1, 0)

    def test_rca_adds_exhaustively(self):
        n = ripple_carry_adder(3)
        for a in range(8):
            for b in range(8):
                for cin in (0, 1):
                    vec = {f"a{k}": (a >> k) & 1 for k in range(3)}
                    vec.update(
                        {f"b{k}": (b >> k) & 1 for k in range(3)}
                    )
                    vec["cin"] = cin
                    out = simulate_outputs(n, vec)
                    total = sum(bit << k for k, bit in enumerate(out[:3]))
                    total += out[3] << 3
                    assert total == a + b + cin

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=40)
    def test_parity_property(self, value):
        n = parity_tree(8)
        vec = {f"d{k}": (value >> k) & 1 for k in range(8)}
        assert simulate_outputs(n, vec)[0] == bin(value).count("1") % 2

    def test_majority_voter(self):
        n = majority_voter()
        for bits in itertools.product((0, 1), repeat=3):
            vec = dict(zip(("m0", "m1", "m2"), bits))
            assert simulate_outputs(n, vec)[0] == (
                1 if sum(bits) >= 2 else 0
            )

    def test_equality_comparator(self):
        n = equality_comparator(3)
        for a in range(8):
            for b in range(8):
                vec = {f"a{k}": (a >> k) & 1 for k in range(3)}
                vec.update({f"b{k}": (b >> k) & 1 for k in range(3)})
                assert simulate_outputs(n, vec)[0] == int(a == b)

    def test_mux_tree(self):
        n = mux_tree(2)
        for data in range(16):
            for sel in range(4):
                vec = {f"d{k}": (data >> k) & 1 for k in range(4)}
                vec.update({f"s{k}": (sel >> k) & 1 for k in range(2)})
                assert simulate_outputs(n, vec)[0] == (data >> sel) & 1

    def test_alu_slice(self):
        n = alu_bit_slice()
        ops = {
            (0, 0): lambda a, b, c: a & b,
            (1, 0): lambda a, b, c: a | b,
            (0, 1): lambda a, b, c: a ^ b,
            (1, 1): lambda a, b, c: a ^ b ^ c,
        }
        for a, b, c, o0, o1 in itertools.product((0, 1), repeat=5):
            out = simulate_outputs(
                n, {"a": a, "b": b, "cin": c, "op0": o0, "op1": o1}
            )
            assert out[0] == ops[(o0, o1)](a, b, c)
            assert out[1] == (1 if a + b + c >= 2 else 0)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            ripple_carry_adder(0)
        with pytest.raises(ValueError):
            parity_tree(1)
        with pytest.raises(KeyError):
            from repro.circuits import build_benchmark

            build_benchmark("c9000")


class TestSimulatorOverrides:
    def test_line_override(self):
        n = c17()
        vec = {"g1": 1, "g2": 1, "g3": 1, "g6": 1, "g7": 1}
        good = simulate_outputs(n, vec)
        bad = simulate_outputs(n, vec, line_overrides={"g11": 1})
        assert vectors_differ(good, bad)

    def test_pin_override_local(self):
        n = c17()
        vec = {"g1": 0, "g2": 1, "g3": 1, "g6": 1, "g7": 1}
        values = simulate(n, vec, pin_overrides={("g_g16", 0): 0})
        # Forcing g16's first input to 0 makes g16 = 1.
        assert values["g16"] == 1

    def test_missing_inputs_default_x(self):
        n = c17()
        out = simulate_outputs(n, {})
        assert all(v in (0, 1, X) for v in out)

    def test_vectors_differ_strict_x(self):
        assert not vectors_differ((X,), (1,))
        assert vectors_differ((0,), (1,))
        assert vectors_differ((X,), (1,), strict=False)


class TestBenchFormat:
    def test_roundtrip_c17(self):
        n = c17()
        text = write_bench(n)
        n2 = parse_bench(text, name="c17rt")
        assert exhaustive_truth_table(n) == exhaustive_truth_table(n2)

    def test_parse_aliases(self):
        n = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
        )
        assert n.gates["g_y"].gtype == "NAND2"

    def test_parse_arity_suffix(self):
        n = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NAND(a, b, c)\n"
        )
        assert n.gates["g_y"].gtype == "NAND3"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_bench("INPUT(a)\nwhat is this line\n")

    def test_comments_ignored(self):
        n = parse_bench("# hello\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        assert simulate_outputs(n, {"a": 0}) == (1,)

    def test_exhaustive_table_guard(self):
        n = Network("big")
        for k in range(21):
            n.add_input(f"i{k}")
        with pytest.raises(ValueError):
            exhaustive_truth_table(n)
