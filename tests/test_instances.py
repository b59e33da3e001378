import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdsp import (
    InstanceConfig,
    InstanceError,
    RawInstance,
    Setting,
    Site,
    SolomonParseError,
    build_instance,
    parse_solomon,
    write_solomon,
)
from cdsp.instances import triangle_violations

SOLOMON_SNIPPET = """\
C101

VEHICLE
NUMBER     CAPACITY
  25         200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME   DUE DATE   SERVICE TIME

    0      40         50          0          0       1236          0
    1      45         68         10        912        967         90
    2      45         70         30        825        870         90
"""


class TestParseSolomon:
    def test_depot_row(self):
        raw = parse_solomon(SOLOMON_SNIPPET)
        depot = raw.sites[0]
        assert depot == Site(id=0, x=40, y=50, release=0, deadline=1236, service=0)

    def test_customer_row(self):
        raw = parse_solomon(SOLOMON_SNIPPET)
        assert raw.sites[1] == Site(id=1, x=45, y=68, release=912, deadline=967, service=90)

    def test_vehicle_block(self):
        raw = parse_solomon(SOLOMON_SNIPPET)
        assert raw.name == "C101"
        assert raw.vehicle_number == 25
        assert raw.vehicle_capacity == 200
        assert raw.demands == (0, 10, 30)

    def test_missing_depot(self):
        text = SOLOMON_SNIPPET.replace("    0      40", "    9      40")
        with pytest.raises(SolomonParseError, match="no depot"):
            parse_solomon(text)

    def test_missing_vehicle_block(self):
        with pytest.raises(SolomonParseError, match="VEHICLE"):
            parse_solomon("C101\n\nCUSTOMER\n 0 0 0 0 0 10 0\n")

    def test_non_numeric_field_names_line(self):
        text = SOLOMON_SNIPPET.replace("825", "abc")
        with pytest.raises(SolomonParseError, match="line 12"):
            parse_solomon(text)

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("  25         200", "  inf        200", 5),  # vehicle NUMBER
            ("  25         200", "  nan        200", 5),
            ("  25         200", "  25        -inf", 5),  # CAPACITY
            ("    2      45", "    1e400  45", 12),  # site id
            ("    2      45", "    nan    45", 12),
            ("    1      45", "    1      inf", 11),  # XCOORD
            ("68         10", "68         nan", 11),  # DEMAND
            ("912", "nan", 11),  # READY TIME
            ("1236", "Infinity", 10),  # DUE DATE
            ("870         90", "870         -inf", 12),  # SERVICE TIME
        ],
    )
    def test_non_finite_field_names_line(self, old, new, line):
        text = SOLOMON_SNIPPET.replace(old, new)
        assert text != SOLOMON_SNIPPET
        with pytest.raises(SolomonParseError, match=rf"^line {line}: non-finite field"):
            parse_solomon(text)

    @pytest.mark.parametrize(
        "old, new, line, what",
        [
            ("  25         200", "  1.7        200", 5, "vehicle number 1.7"),
            ("  25         200", "  25.5       200", 5, "vehicle number 25.5"),
            ("    2      45", "    2.5    45", 12, "site id 2.5"),
        ],
    )
    def test_fractional_count_names_line(self, old, new, line, what):
        # int() would truncate these; the file is rejected instead
        text = SOLOMON_SNIPPET.replace(old, new)
        assert text != SOLOMON_SNIPPET
        with pytest.raises(SolomonParseError, match=rf"^line {line}: non-integer {what}$"):
            parse_solomon(text)

    def test_integral_float_vehicle_number_is_accepted(self):
        raw = parse_solomon(SOLOMON_SNIPPET.replace("  25         200", "  25.0       200"))
        assert raw.vehicle_number == 25

    def test_duplicate_id(self):
        text = SOLOMON_SNIPPET + "    2      10         10          5          0         99          0\n"
        with pytest.raises(SolomonParseError, match="duplicate id 2"):
            parse_solomon(text)

    def test_roundtrip_preserves_fields(self):
        raw = parse_solomon(SOLOMON_SNIPPET)
        again = parse_solomon(write_solomon(raw))
        assert again == raw

    def test_roundtrip_preserves_fractional_fields(self):
        for old, new in [
            ("45         68", "45.25      67.875"),
            # full-precision texts are wider than a column
            ("    0      40", "    0      12.3456789012345"),
            ("  25         200", "  25         1234567890123.5"),
        ]:
            raw = parse_solomon(SOLOMON_SNIPPET.replace(old, new))
            again = parse_solomon(write_solomon(raw))
            assert again == raw


class TestBuildInstance:
    def test_euclidean_345(self):
        raw = _raw_at([(0, 0), (0, 3), (4, 0)])
        inst = build_instance(raw, InstanceConfig())
        assert inst.travel.tolist() == [[0, 3, 4], [3, 0, 5], [4, 5, 0]]

    def test_size_class_fleet_rule(self):
        raw = _raw_at([(i % 10, i // 10) for i in range(26)])
        inst = build_instance(raw, InstanceConfig(fleet_size="size-class"))
        assert inst.n == 25
        assert inst.fleet_size == 10

    def test_size_class_from_setting_metadata(self):
        raw = _raw_at([(0, 0), (1, 0), (2, 0)])
        inst = build_instance(raw, InstanceConfig(), setting=Setting(size=50, klass="C", tw="tight"))
        assert inst.fleet_size == 15

    def test_size_class_falls_back_to_file(self):
        raw = _raw_at([(0, 0), (1, 0), (2, 0)])  # n=2, no size class
        inst = build_instance(raw, InstanceConfig(fleet_size="size-class"))
        assert inst.fleet_size == raw.vehicle_number

    def test_explicit_fleet(self):
        raw = _raw_at([(0, 0), (1, 0)])
        assert build_instance(raw, InstanceConfig(fleet_size=3)).fleet_size == 3

    def test_shift_cap_defaults_to_depot_deadline(self):
        raw = parse_solomon(SOLOMON_SNIPPET)
        inst = build_instance(raw, InstanceConfig())
        assert inst.shift_cap == 1236
        assert inst.depot_deadline == 1236

    def test_fleet_below_one_rejected(self):
        raw = _raw_at([(0, 0), (1, 0)])
        with pytest.raises(InstanceError, match="fleet size"):
            build_instance(raw, InstanceConfig(fleet_size=0))

    def test_gap_in_site_ids_rejected(self):
        raw = _raw_at([(0, 0), (1, 0), (2, 0)])
        sites = (*raw.sites[:2], Site(3, 2.0, 0.0, 0.0, 10_000.0))
        with pytest.raises(InstanceError, match=r"site ids must be 0\.\.2, got \[0, 1, 3\]"):
            build_instance(dataclasses.replace(raw, sites=sites), InstanceConfig())

    def test_rounding_can_break_triangle(self):
        # 0.5 + 0.5 rounds to 0 + 0 < 1: construction must refuse
        raw = _raw_at([(0, 0), (0.5, 0), (1, 0)])
        with pytest.raises(InstanceError, match="triangle"):
            build_instance(raw, InstanceConfig(rounding=0))

    def test_fold_service_times(self):
        raw = _raw_at([(0, 0), (0, 3), (4, 0)], service=5.0)
        inst = build_instance(raw, InstanceConfig(service_mode="fold"))
        # every outgoing arc of 1 and 2 gains 5; depot outgoing unchanged
        assert inst.travel.tolist() == [[0, 3, 4], [8, 0, 10], [9, 10, 0]]

    def test_tiny2_file(self, tiny2_file):
        inst = build_instance(parse_solomon(tiny2_file.read_text()), InstanceConfig())
        assert inst.fleet_size == 1
        assert inst.n == 2
        assert inst.travel[1, 2] == 5.0


class TestTriangle:
    def test_constructed_violation(self):
        matrix = np.array([[0.0, 1.0, 100.0], [1.0, 0.0, 1.0], [100.0, 1.0, 0.0]])
        violations = triangle_violations(matrix)
        assert ((0, 1, 2, -98.0) in violations) and violations

    def test_euclidean_clean(self):
        rng = np.random.default_rng(7)
        xy = rng.uniform(0, 50, size=(12, 2))
        matrix = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
        assert triangle_violations(matrix) == []


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_folding_preserves_triangle(seed, n):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 100, size=(n + 1, 2))
    service = rng.uniform(0, 50, size=n + 1)
    raw = _raw_at([tuple(p) for p in xy], service_vec=service)
    inst = build_instance(raw, InstanceConfig(service_mode="fold", fleet_size=1))
    assert triangle_violations(inst.travel) == []


def test_site_invariants():
    with pytest.raises(InstanceError, match="release"):
        Site(1, 0, 0, release=5, deadline=4)
    with pytest.raises(InstanceError, match="negative"):
        Site(1, 0, 0, release=0, deadline=4, service=-1)


def test_instance_requires_depot_release_zero():
    from cdsp import Instance

    travel = np.array([[0.0, 1.0], [1.0, 0.0]])
    ok = Instance(
        sites=(Site(0, 0, 0, 0, 10), Site(1, 1, 0, 0, 10)),
        travel=travel,
        fleet_size=1,
        shift_cap=10,
        depot_deadline=10,
    )
    assert ok.n == 1
    with pytest.raises(InstanceError, match="depot release"):
        Instance(
            sites=(Site(0, 0, 0, 2, 10), Site(1, 1, 0, 0, 10)),
            travel=travel,
            fleet_size=1,
            shift_cap=10,
            depot_deadline=10,
        )


def _raw_at(points, service=0.0, service_vec=None) -> RawInstance:
    sites = []
    for idx, (x, y) in enumerate(points):
        s = service_vec[idx] if service_vec is not None else (0.0 if idx == 0 else service)
        sites.append(Site(idx, float(x), float(y), 0.0, 10_000.0, float(s)))
    return RawInstance(
        name="synthetic",
        vehicle_number=7,
        vehicle_capacity=200.0,
        sites=tuple(sites),
        demands=tuple(0.0 for _ in sites),
    )
