"""kalvar's records are named tuples.  A record with a rule on its
fields checks it on every route that builds one: the constructor,
`_make` and `_replace`.  No record can be assigned to, and
`CheckReport` gets a new details list and data dict per call."""

import pytest

from kalvar.bott import BottOutcome, dotted_bott
from kalvar.partitions import Partition
from kalvar.report import CheckReport
from kalvar.resolution import (
    BettiTable,
    BettiTerm,
    GeneratorRecord,
    HilbertSeries,
    KalmanParams,
)
from kalvar.verify import KalmanPoint, PrimeFieldConfig

EMPTY = Partition(())
TERM = BettiTerm(0, 0, (0,), 1, EMPTY, EMPTY)
BOTT_RULE = "degree and eta must be present iff cohomology survives"

# (a valid record, a change of fields that breaks its rule, the
# constructor's message for the changed fields)
INVALID = [
    (BottOutcome(False, 0, (0,)), {"degree": None}, BOTT_RULE),
    (BottOutcome(False, 0, (0,)), {"vanishes": True}, BOTT_RULE),
    (BottOutcome(True, None, None), {"eta": ()}, BOTT_RULE),
    (KalmanParams(1, 2, 3), {"s": 0}, "need 1 <= s <= d < n, got KalmanParams(s=0, d=2, n=3)"),
    (KalmanParams(1, 2, 3), {"n": 2}, "need 1 <= s <= d < n, got KalmanParams(s=1, d=2, n=2)"),
    (
        TERM,
        {"multiplicity": 0},
        "non-positive multiplicity in BettiTerm(hom_degree=0, twist=0, eta=(0,), multiplicity=0, lam=Partition(), mu=Partition())",
    ),
    (
        TERM,
        {"hom_degree": -1},
        "negative homological degree in BettiTerm(hom_degree=-1, twist=0, eta=(0,), multiplicity=1, lam=Partition(), mu=Partition())",
    ),
    (PrimeFieldConfig(), {"modulus": 32001}, "modulus 32001 is not prime"),
]


@pytest.mark.parametrize(
    "record, change, message", INVALID, ids=[f"{type(r).__name__}-{next(iter(c))}" for r, c, _ in INVALID]
)
def test_every_route_checks_the_fields(record, change, message):
    cls = type(record)
    fields = {**record._asdict(), **change}
    routes = {
        "constructor": lambda: cls(**fields),
        "_make": lambda: cls._make(fields.values()),
        "_replace": lambda: record._replace(**change),
    }
    for route, build in routes.items():
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message, route


@pytest.mark.parametrize("record", [r for r, _, _ in INVALID], ids=lambda r: type(r).__name__)
def test_valid_replace_and_make_keep_the_class(record):
    assert type(record._replace()) is type(record)
    assert record._replace() == record
    assert type(record)._make(record) == record
    assert type(type(record)._make(record)) is type(record)


def test_replace_changes_only_the_named_field():
    assert KalmanParams(1, 2, 3)._replace(n=5) == KalmanParams(1, 2, 5)
    assert TERM._replace(twist=4).twist == 4
    assert TERM._replace(twist=4)[2:] == TERM[2:]


def records():
    params = KalmanParams(1, 2, 3)
    report = CheckReport("c", {"d": 2})
    return [
        dotted_bott((0, 1)),
        dotted_bott((1, 0)),
        report,
        params,
        TERM,
        BettiTable("chain", params, [TERM]),
        GeneratorRecord(1, EMPTY, EMPTY, 1, 1, (1,)),
        HilbertSeries(((0, 1),), 4),
        PrimeFieldConfig(),
        KalmanPoint(((0, 0), (0, 0)), (1,), 0, 5),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned(record):
    before = tuple(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")
    assert tuple(record) == before


def test_check_report_defaults_are_fresh():
    a, b = CheckReport("c", {}), CheckReport("c", {})
    assert a.details is not b.details and a.data is not b.data
    a.details.append({"kind": "found"})
    a.data["rows"] = []
    assert (b.details, b.data) == ([], {})
    assert CheckReport("c", {}).passed
    kept = [{"kind": "found"}]
    assert CheckReport("c", {}, kept).details is kept

