"""Handler cost-model tests: Table I/II calibration is exact here."""

import pytest

from repro.pspin import isa


def test_header_handler_matches_table1():
    c = isa.header_handler_cost()
    assert c.instructions == 120
    assert c.compute_ns(1.0) == pytest.approx(211, abs=1)


def test_plain_payload_matches_table1():
    c = isa.payload_handler_cost()
    assert c.instructions == 55
    assert c.compute_ns(1.0) == pytest.approx(92, abs=1)


def test_completion_matches_table1():
    c = isa.completion_handler_cost()
    assert c.instructions == 66
    assert c.compute_ns(1.0) == pytest.approx(107, abs=1)


def test_forward_cost_scales_with_children():
    assert isa.forward_payload_cost(0).instructions == 55
    assert isa.forward_payload_cost(1).instructions == 105  # ring (Table I)
    assert isa.forward_payload_cost(2).instructions == 130  # pbt (Table I)


def test_completion_cost_children():
    assert isa.completion_handler_cost(1).instructions == 66
    assert isa.completion_handler_cost(2).instructions == 82  # pbt (Table I)


def test_ec_instruction_counts_match_table2():
    # RS(3,2): 5 instr/byte * 2048 + 1432 = 11672 (Table II)
    c32 = isa.ec_data_payload_cost(m=2, payload_bytes=2048)
    assert c32.instructions == 11672
    # RS(6,3): 7 instr/byte * 2048 + 1692 = 16028 (Table II)
    c63 = isa.ec_data_payload_cost(m=3, payload_bytes=2048)
    assert c63.instructions == 16028


def test_ec_durations_match_table2():
    assert isa.ec_data_payload_cost(2, 2048).compute_ns(1.0) == pytest.approx(16681, rel=0.02)
    assert isa.ec_data_payload_cost(3, 2048).compute_ns(1.0) == pytest.approx(23018, rel=0.02)


def test_ec_ipc_is_07():
    c = isa.ec_data_payload_cost(2, 2048)
    ipc = c.instructions / c.compute_cycles()
    assert ipc == pytest.approx(0.7, abs=0.01)


def test_ec_per_byte_model():
    assert isa.ec_instructions_per_byte(2) == 5
    assert isa.ec_instructions_per_byte(3) == 7
    assert isa.ec_instructions_per_byte(1) == 3
    # unknown m falls back to the generic fixed model
    c = isa.ec_data_payload_cost(4, 1024)
    assert c.instructions == 9 * 1024 + isa.ec_fixed_instructions(4)


def test_ec_completion_cost_is_35_instructions():
    assert isa.ec_completion_cost().instructions == 35


def test_parity_cost_scales_with_payload():
    small = isa.ec_parity_payload_cost(256)
    big = isa.ec_parity_payload_cost(2048)
    assert big.instructions > small.instructions
    assert big.mem_intensive and small.mem_intensive


def test_mem_intensive_contention_scaling():
    c = isa.ec_data_payload_cost(2, 2048)
    base = c.compute_ns(1.0)
    contended = c.compute_ns(1.0, contention_factor=1.1)
    assert contended == pytest.approx(base * 1.1)
    # non-mem-intensive handlers ignore contention
    h = isa.header_handler_cost()
    assert h.compute_ns(1.0, contention_factor=2.0) == h.compute_ns(1.0)


def test_frequency_scaling():
    c = isa.header_handler_cost()
    assert c.compute_ns(2.0) == pytest.approx(c.compute_ns(1.0) / 2)


def test_cleanup_cost_is_modest():
    c = isa.cleanup_handler_cost()
    assert 0 < c.compute_ns(1.0) < 500


def test_handler_costs_are_shared_instances():
    """Handlers run several times per request: the cost functions hand
    out one frozen instance per distinct cost, with unchanged values."""
    assert isa.header_handler_cost() is isa.header_handler_cost()
    assert isa.payload_handler_cost() is isa.payload_handler_cost()
    for n in (0, 1, 2, 3, 6):
        assert isa.completion_handler_cost(n) is isa.completion_handler_cost(n)
        assert isa.forward_payload_cost(n) is isa.forward_payload_cost(n)
    assert isa.completion_handler_cost(3) == isa.HandlerCost(90, isa.CPI_CH)
    assert isa.forward_payload_cost(3) == isa.HandlerCost(155, isa.CPI_PH)
    assert isa.payload_handler_cost() == isa.HandlerCost(55, isa.CPI_PH)
