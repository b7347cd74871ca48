"""The eight records: value semantics, immutability, and checks that every
construction path runs (constructor, `from_alpha`, pickle, copy), also
under `python -O`."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import glpgalois
from glpgalois.certify import CONTAINS_AN, INCONCLUSIVE, GaloisCertificate
from glpgalois.errors import DomainError
from glpgalois.glp import GROUP_AN, Classification, GlpParams, classify
from glpgalois.modp import CycleType, factor_degrees
from glpgalois.newton import (
    NewtonIndexReport,
    NewtonPolygon,
    Segment,
    newton_index,
    newton_polygon,
)
from glpgalois.polys import Poly, parse_poly

RECORDS = (Poly, CycleType, Segment, NewtonPolygon, NewtonIndexReport,
           GaloisCertificate, GlpParams, Classification)


def samples():
    """Two unequal instances of each record, built by the library."""
    f, g = parse_poly("6,18,9,1"), parse_poly("-2,0,0,1")
    c20, c21 = classify(GlpParams.from_alpha(20, 0)), classify(GlpParams.from_alpha(21, 0))
    return {
        Poly: (f, g),
        CycleType: (factor_degrees(g, 5), factor_degrees(g, 7)),
        Segment: tuple(newton_polygon(parse_poly("4,-1/2,0,0,16"), 2).segments),
        NewtonPolygon: (newton_polygon(f, 3), newton_polygon(f, 2)),
        NewtonIndexReport: (newton_index(f), newton_index(g)),
        GaloisCertificate: (c20.certificate, c21.certificate),
        GlpParams: (c20.params, GlpParams.from_alpha(9, Fraction(5, 3))),
        Classification: (c20, c21),
    }


SAMPLES = samples()


def fields(obj):
    return [getattr(obj, name) for name in type(obj).__slots__]


def forge(cls, *values):
    """An instance whose fields were set without running the constructor."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


def dataclass_twin(obj):
    """The frozen dataclass with the same name, fields and values."""
    cls = type(obj)
    twin = dataclasses.make_dataclass(cls.__qualname__, cls.__slots__, frozen=True)
    return twin(*fields(obj))


def test_every_record_sampled():
    assert set(SAMPLES) == set(RECORDS)
    for cls, (a, b) in SAMPLES.items():
        assert type(a) is cls and type(b) is cls and a != b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestValueSemantics:
    def test_eq(self, cls):
        a, b = SAMPLES[cls]
        again = cls(*fields(a))
        assert a == again and not a != again
        assert a != b
        assert a != tuple(fields(a))
        assert a != dataclass_twin(a)

    def test_hash(self, cls):
        a, _ = SAMPLES[cls]
        if cls is NewtonIndexReport:  # holds dicts, as the dataclass did
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(cls(*fields(a))) == hash(dataclass_twin(a))

    def test_repr(self, cls):
        a, _ = SAMPLES[cls]
        if cls is Poly:
            assert repr(a) == "Poly('6,18,9,1')"
        else:
            assert repr(a) == repr(dataclass_twin(a))

    def test_fields_cannot_be_assigned(self, cls):
        a, _ = SAMPLES[cls]
        name = cls.__slots__[0]
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert getattr(a, name) is before

    def test_pickle_and_copy_round_trip(self, cls):
        a, _ = SAMPLES[cls]
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(b) is cls and b == a and repr(b) == repr(a)


def test_repr_examples():
    assert repr(GlpParams(9, 5, 3)) == "GlpParams(n=9, lam=5, mu=3)"
    assert repr(CycleType((1, 2), 5)) == "CycleType(degrees=(1, 2), prime=5)"
    assert repr(SAMPLES[Segment][0]) == (
        "Segment(slope=Fraction(-3, 1), length=1, start=(0, 2), end=(1, -1))"
    )


def test_constructor_signatures():
    assert GaloisCertificate(INCONCLUSIVE, 4, Fraction(0), 1, None) == GaloisCertificate(
        verdict=INCONCLUSIVE, n=4, shift_used=Fraction(0), newton_index=1,
        irreducibility_basis=None, witness_prime_q=None, valuation_prime_p=None, slope=None,
    )
    assert GlpParams(n=9, lam=5, mu=3) == GlpParams.from_alpha(9, "5/3")


def invalid_values():
    """(record, field values) pairs that each record's checks reject."""
    polygon = SAMPLES[NewtonPolygon][0]
    cert = SAMPLES[GaloisCertificate][0]
    c = SAMPLES[Classification][0]
    no_claim = GaloisCertificate(INCONCLUSIVE, 20, Fraction(0), 1, None)
    return [
        (NewtonPolygon, (polygon.prime, polygon.points, ((0, 0), (3, 0)), polygon.segments)),
        (NewtonPolygon, (polygon.prime, polygon.points, polygon.vertices, polygon.segments * 2)),
        (GaloisCertificate, (CONTAINS_AN, 9, Fraction(0), 7 * 2520, "assumed", 7, 7, None)),
        (GaloisCertificate, (CONTAINS_AN, 9, Fraction(0), 7 * 2520, "assumed", None, 7, None)),
        (GaloisCertificate, (CONTAINS_AN, 20, Fraction(0), cert.newton_index * 13, "assumed",
                             13 * 13, 13, None)),
        (GaloisCertificate, (CONTAINS_AN, 20, Fraction(0), 1, "assumed", 17, 17, None)),
        (GlpParams, (0, 0, 1)),
        (GlpParams, (5, 1, 0)),
        (GlpParams, (5, 2, 4)),
        (GlpParams, (5, -2, 1)),
        (Classification, (GROUP_AN, c.discriminant, True, no_claim, None, None, c.params)),
        (Classification, (GROUP_AN, c.discriminant, False, c.certificate,
                          c.criterion_prime, c.ell, c.params)),
    ]


def _ended(build) -> str:
    try:
        build()
    except DomainError:
        return "DomainError"
    except Exception as exc:  # reported, so that the test names it
        return type(exc).__name__
    return "accepted"


def rejections() -> list[str]:
    """For each invalid case and each construction path, how the path ended:
    'DomainError' when it was rejected.  Uses no assert, so that it means the
    same under `python -O`."""
    out = []
    for cls, values in invalid_values():
        paths = {
            "constructor": lambda: cls(*values),
            "keywords": lambda: cls(**dict(zip(cls.__slots__, values))),
            "pickle": lambda: pickle.loads(pickle.dumps(forge(cls, *values))),
            "copy": lambda: copy.copy(forge(cls, *values)),
            "deepcopy": lambda: copy.deepcopy(forge(cls, *values)),
        }
        out += [f"{cls.__name__} {path} {_ended(build)}" for path, build in paths.items()]
    for n, alpha in ((0, 0), (5, -2), (7, "-7"), (3, Fraction(-1))):
        out.append(f"GlpParams from_alpha({n}, {alpha}) "
                   + _ended(lambda: GlpParams.from_alpha(n, alpha)))
    return out


def test_invalid_values_rejected_on_every_path():
    results = rejections()
    assert len(results) == len(invalid_values()) * 5 + 4
    assert [r for r in results if not r.endswith(" DomainError")] == []


def test_invalid_values_rejected_under_python_optimize():
    code = "from test_records import rejections\nprint('\\n'.join(rejections()))\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(glpgalois.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == len(invalid_values()) * 5 + 4
    assert [r for r in lines if not r.endswith(" DomainError")] == []
