"""The immutable record base: parity with frozen dataclasses, validation on
``replace``, the angle order, a ``wildcv.cli`` import without
``dataclasses``, and no import of another module's private names."""

import ast
import copy
import dataclasses
import itertools
import json
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import wildcv
from wildcv.model import CASE_NAMES, ClosureCondition, case_spec, validate_spec
from wildcv.pipeline import derive_case, oracle_sampling, oracle_verify
from wildcv.polyring import var_id
from wildcv.record import Record
from wildcv.stokes import RationalAngle

_RECORD_TYPES = ("EigenvaluePairSpec", "StokesEntryLayout", "ClosureCondition", "CovStep",
                 "CubicSurface", "CaseSpec", "Violation", "RationalAngle",
                 "ClosureSystem", "OracleVerdict", "ExpectedComparison", "CaseReport",
                 "OracleSampling")


def _shipped_records():
    """Every record reachable from the six specs, their reports and verdicts
    and oracle samplings, plus a violation of a spec with a bad divisor."""
    seen, out = set(), []

    def walk(value):
        if isinstance(value, Record):
            if id(value) not in seen:
                seen.add(id(value))
                out.append(value)
                for name in value._fields:
                    walk(getattr(value, name))
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)

    for name in CASE_NAMES:
        spec = case_spec(name)
        report = derive_case(name, trials=20)
        walk(report)
        walk(spec.closure)
        walk(oracle_sampling(report))
        walk(validate_spec(spec.replace(divisor="2{0}+{inf}")))
    return out


@pytest.fixture(scope="module")
def by_type():
    out = {}
    for record in _shipped_records():
        out.setdefault(type(record).__name__, []).append(record)
    return out


def _twins(records):
    """Each record as an instance of one frozen dataclass of the same name and
    fields, with the same field values."""
    cls = dataclasses.make_dataclass(type(records[0]).__name__, records[0]._fields,
                                     frozen=True)
    return [cls(*r._astuple()) for r in records]


def test_every_record_type_is_shipped(by_type):
    assert sorted(by_type) == sorted(_RECORD_TYPES)


@pytest.mark.parametrize("name", _RECORD_TYPES)
def test_record_matches_a_frozen_dataclass(by_type, name):
    records = by_type[name]
    twins = _twins(records)
    for record, twin in zip(records, twins):
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert record == record.replace() and record.replace() is not record
    for (a, ta), (b, tb) in itertools.product(zip(records, twins), repeat=2):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)


def test_equality_with_another_record_type_is_not_implemented(by_type):
    for name, other in zip(_RECORD_TYPES, _RECORD_TYPES[1:] + _RECORD_TYPES[:1]):
        record, stranger = by_type[name][0], by_type[other][0]
        assert record.__eq__(stranger) is NotImplemented
        assert record != stranger


@pytest.mark.parametrize("name", _RECORD_TYPES)
def test_records_refuse_assignment_and_deletion(by_type, name):
    record = by_type[name][0]
    field = record._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_replace_runs_the_validators_again():
    spec = case_spec("JKTIVb")
    with pytest.raises(ValueError, match="not normalized"):
        spec.schedule[0].direction.replace(turns=Fraction(2))
    with pytest.raises(TypeError, match="unexpected"):
        spec.replace(unknown=1)


def test_angles_sort_by_turns(by_type):
    angles = by_type["RationalAngle"]
    assert sorted(angles) == sorted(angles, key=lambda a: a.turns)
    for a, b in itertools.product(angles, repeat=2):
        assert (a < b, a <= b, a > b, a >= b) == (a.turns < b.turns, a.turns <= b.turns,
                                                  a.turns > b.turns, a.turns >= b.turns)
    with pytest.raises(TypeError):
        angles[0] < angles[0].turns


def test_defaults_fill_the_trailing_fields():
    assert ClosureCondition("identity") == ClosureCondition("identity", ())
    with pytest.raises(TypeError, match="missing"):
        ClosureCondition()
    with pytest.raises(TypeError, match="takes 2 fields"):
        ClosureCondition("identity", (), ())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_specs_deep_copy_and_reports_pickle(name):
    """A deep copy of a case spec, and a pickle round trip and a deep copy
    of its report after an oracle run, equal the originals: a Monomial is
    rebuilt from its packed int, a VarId is the interned one, which the
    polynomials' lookups compare by identity, and a record is rebuilt from
    its fields, without the compiled trial that the run cached.  The copies
    give the run's verdict again."""
    spec = case_spec(name)
    assert copy.deepcopy(spec) == spec
    report = derive_case(name, trials=20)
    verdict = oracle_verify(report, trials=20)
    assert "compiled_oracle" in vars(report)
    for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert clone == report and "compiled_oracle" not in vars(clone)
        assert repr(oracle_verify(clone, trials=20)) == repr(verdict)
    x1 = var_id("x1")
    assert copy.deepcopy(x1) is x1
    assert pickle.loads(pickle.dumps(x1)) is x1


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
def test_copy_replace_makes_a_validated_variant():
    angle = RationalAngle.of(1, 3)
    assert copy.replace(angle, turns=Fraction(1, 2)) == RationalAngle.of(1, 2)
    with pytest.raises(ValueError):
        copy.replace(angle, turns=Fraction(-1))


def test_cli_import_loads_no_dataclasses_or_inspect():
    """``import wildcv.cli`` in a fresh interpreter adds neither module; the
    modules ``site`` loaded before the import do not count."""
    probe = ("import json, sys; before = set(sys.modules); import wildcv.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(wildcv.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    added = json.loads(out)
    assert "wildcv.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


def test_no_module_imports_another_modules_private_names():
    """A data format that two modules know belongs behind one of them: no
    ``src/wildcv`` module imports an underscore name from another, by a
    relative or an absolute import."""
    found = []
    for path in sorted(pathlib.Path(wildcv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "wildcv"):
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
