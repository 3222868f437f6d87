"""The report records: read-only, equal field by field, and shown as `Name(field=value, ...)`."""

import pytest

from lurwit.cli import simulate_counts
from lurwit.measurement import EstimatedReport, estimate_witnesses
from lurwit.states import parse_state_spec
from lurwit.witness import PairStats, WitnessReport, evaluate, standard_sets

# each record's fields, in order
FIELDS = {
    PairStats: ("label", "var_a", "var_b", "var_sum", "covariance"),
    WitnessReport: ("pairs", "l_value", "ml_value", "separable_bound", "verdict_l", "verdict_ml"),
    EstimatedReport: ("bases", "l_value", "l_se", "ml_value", "ml_se", "separable_bound", "verdict_l",
                      "verdict_ml"),
}


def _records():
    """One record of each type, from the package's own calls."""
    report = evaluate(parse_state_spec("werner:p=0.5"), standard_sets()["L3"])
    estimated = estimate_witnesses(simulate_counts(parse_state_spec("u2-singlet"), 100, 3))
    return [report.pairs[1], report, estimated]


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in FIELDS[type(record)]}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_report_records_are_read_only(record):
    before = _fields(record)
    for name in (*before, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == before and not hasattr(record, "extra")


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_report_records_compare_equal_field_by_field(record):
    fields = _fields(record)
    rebuilt = type(record)(**fields)
    assert rebuilt == record and not rebuilt != record and hash(rebuilt) == hash(record)
    assert type(record)(*fields.values()) == record
    for name in fields:
        assert type(record)(**{**fields, name: object()}) != record, name


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_report_records_repr_lists_their_fields_in_order(record):
    cells = ", ".join(f"{name}={value!r}" for name, value in _fields(record).items())
    assert repr(record) == f"{type(record).__name__}({cells})"


@pytest.mark.parametrize("spec", ["singlet", "werner:p=0.3", "polarized:p=0.8", "u1-singlet"])
@pytest.mark.parametrize("shots", [2, 100, 10**6])
def test_estimated_report_equals_one_rebuilt_from_its_own_fields(spec, shots):
    tables = simulate_counts(parse_state_spec(spec), shots, 11)
    for report in (estimate_witnesses(tables[:2]), estimate_witnesses(tables)):
        assert type(report) is EstimatedReport
        assert EstimatedReport(**_fields(report)) == report
