"""Unit tests for geometric extraction and the [8] inductance window."""

import math

import pytest

from repro.circuit import WireGeometry, extract_line, inductance_window
from repro.errors import ElementValueError


@pytest.fixture
def clock_wire():
    """A wide upper-metal clock wire: 4 x 1 um, 2 um over the plane."""
    return WireGeometry(width=4e-6, thickness=1e-6, height=2e-6,
                        resistivity=2.65e-8)


@pytest.fixture
def signal_wire():
    """A narrow signal wire: 0.5 x 0.5 um, 1 um over the plane."""
    return WireGeometry(width=0.5e-6, thickness=0.5e-6, height=1e-6,
                        resistivity=2.65e-8)


class TestPerUnitLengthValues:
    def test_resistance_formula(self, clock_wire):
        expected = 2.65e-8 / (4e-6 * 1e-6)
        assert clock_wire.resistance_per_meter == pytest.approx(expected)

    def test_values_in_physical_range(self, clock_wire):
        # Sanity bands for mid-90s upper metal: ohm/mm, fF/mm, nH/mm.
        assert 1.0 < clock_wire.resistance_per_meter * 1e-3 < 50.0
        assert 50e-15 < clock_wire.capacitance_per_meter * 1e-3 < 500e-15
        assert 0.1e-9 < clock_wire.inductance_per_meter * 1e-3 < 2e-9

    def test_narrow_wire_is_more_resistive(self, clock_wire, signal_wire):
        assert (
            signal_wire.resistance_per_meter
            > 10 * clock_wire.resistance_per_meter
        )

    def test_wider_wire_more_capacitance_less_inductance(self, clock_wire):
        wider = WireGeometry(width=8e-6, thickness=1e-6, height=2e-6,
                             resistivity=2.65e-8)
        assert wider.capacitance_per_meter > clock_wire.capacitance_per_meter
        assert wider.inductance_per_meter < clock_wire.inductance_per_meter

    def test_propagation_slower_than_light(self, clock_wire, signal_wire):
        c0 = 299792458.0
        for wire in (clock_wire, signal_wire):
            assert 0.1 * c0 < wire.propagation_velocity < c0

    def test_characteristic_impedance_plausible(self, clock_wire):
        assert 10.0 < clock_wire.characteristic_impedance < 200.0

    def test_very_wide_line_uses_plate_limit(self):
        plate = WireGeometry(width=100e-6, thickness=1e-6, height=1e-6)
        mu0 = 4e-7 * math.pi
        assert plate.inductance_per_meter == pytest.approx(
            mu0 * 1e-6 / 100e-6
        )

    def test_validation(self):
        with pytest.raises(ElementValueError):
            WireGeometry(width=0.0, thickness=1e-6, height=1e-6)
        with pytest.raises(ElementValueError):
            WireGeometry(width=1e-6, thickness=1e-6, height=1e-6,
                         resistivity=-1.0)
        with pytest.raises(ElementValueError):
            WireGeometry(width=1e-6, thickness=1e-6, height=1e-6,
                         dielectric_constant=0.5)


class TestExtractLine:
    def test_totals_match_geometry(self, clock_wire):
        length = 5e-3
        tree = extract_line(clock_wire, length, num_sections=25)
        assert tree.total_resistance() == pytest.approx(
            clock_wire.resistance_per_meter * length
        )
        assert tree.total_inductance() == pytest.approx(
            clock_wire.inductance_per_meter * length
        )
        assert tree.total_capacitance() == pytest.approx(
            clock_wire.capacitance_per_meter * length
        )

    def test_load_at_sink(self, clock_wire):
        tree = extract_line(clock_wire, 1e-3, num_sections=10,
                            load_capacitance="30f")
        assert tree.section("n10").capacitance == pytest.approx(
            clock_wire.capacitance_per_meter * 1e-4 + 30e-15
        )

    def test_string_length_uses_spice_suffixes(self, clock_wire):
        # "5m" is SPICE milli: a 5-mm wire, not a 5-meter one.
        tree = extract_line(clock_wire, "5m", num_sections=4)
        assert tree.total_resistance() == pytest.approx(
            clock_wire.resistance_per_meter * 5e-3
        )

    def test_bad_length(self, clock_wire):
        with pytest.raises(ElementValueError):
            extract_line(clock_wire, -1.0)

    def test_extracted_wide_wire_is_underdamped(self, clock_wire):
        """The motivating physics: a 5-mm wide clock wire rings."""
        from repro.analysis import TreeAnalyzer

        tree = extract_line(clock_wire, 5e-3, load_capacitance="50f")
        analyzer = TreeAnalyzer(tree)
        assert analyzer.zeta(tree.leaves()[0]) < 1.0

    def test_extracted_narrow_wire_is_overdamped(self, signal_wire):
        from repro.analysis import TreeAnalyzer

        tree = extract_line(signal_wire, 5e-3, load_capacitance="5f")
        analyzer = TreeAnalyzer(tree)
        assert analyzer.zeta(tree.leaves()[0]) > 1.0


class TestInductanceWindow:
    def test_bounds_formulas(self, clock_wire):
        window = inductance_window(clock_wire, 5e-3, 50e-12)
        r = clock_wire.resistance_per_meter
        l = clock_wire.inductance_per_meter
        c = clock_wire.capacitance_per_meter
        assert window.lower == pytest.approx(50e-12 / (2 * math.sqrt(l * c)))
        assert window.upper == pytest.approx((2 / r) * math.sqrt(l / c))

    def test_wide_wire_has_window(self, clock_wire):
        window = inductance_window(clock_wire, 5e-3, "50p")
        assert window.exists
        assert window.matters
        assert window.regime == "rlc"

    def test_narrow_wire_has_no_window(self, signal_wire):
        # Resistive narrow wires: upper bound collapses below lower.
        window = inductance_window(signal_wire, 5e-3, "50p")
        assert not window.exists
        assert window.regime == "rc"
        assert not window.matters

    def test_short_line_capacitive(self, clock_wire):
        window = inductance_window(clock_wire, 0.1e-3, "50p")
        assert window.regime == "capacitive"

    def test_long_line_rc(self, clock_wire):
        window = inductance_window(clock_wire, 100e-3, "50p")
        assert window.regime == "rc"

    def test_slower_input_shrinks_window(self, clock_wire):
        fast = inductance_window(clock_wire, 5e-3, 20e-12)
        slow = inductance_window(clock_wire, 5e-3, 500e-12)
        assert slow.lower > fast.lower
        assert slow.upper == fast.upper

    def test_window_agrees_with_damping(self, clock_wire):
        """Inside the window the extracted line must actually ring."""
        from repro.analysis import TreeAnalyzer

        window = inductance_window(clock_wire, 5e-3, "50p")
        assert window.matters
        tree = extract_line(clock_wire, 5e-3)
        assert TreeAnalyzer(tree).zeta(tree.leaves()[0]) < 1.0

    def test_validation(self, clock_wire):
        with pytest.raises(ElementValueError):
            inductance_window(clock_wire, -1.0, 1e-12)
        with pytest.raises(ElementValueError):
            inductance_window(clock_wire, 1e-3, 0.0)
