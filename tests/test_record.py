"""The package's record classes: immutable, compared by value or identity.

Every record subclasses `record.Record`, which builds ``__init__``,
``__repr__`` and, for value records, ``__eq__`` and ``__hash__`` without
generating code.  Each class is checked against a frozen dataclass with
the same fields, which is what the records were before.  Checks raise
through `oracles.require`, so they also run under ``python -O``.
"""

from __future__ import annotations

import dataclasses
import importlib
from functools import cached_property

import pytest

from contextuality import embedding, exactlp, polytope, qsl, quantum, scenario, sheaf
from contextuality.classify import ParsedInput, RunConfig
from contextuality.qsl import QslProgram, QslState
from contextuality.record import Record
from contextuality.scenario import MeasurementScenario, make_scenario

import oracles
from oracles import SequentialStats, require

# The package exports a function named `classify`, which hides the module.
MODULES = (importlib.import_module("contextuality.classify"), embedding, exactlp, polytope, qsl, quantum, scenario, sheaf,
           oracles)
RECORDS = sorted((obj for module in MODULES for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Record)
                  and obj.__module__ == module.__name__),
                 key=lambda cls: (cls.__module__, cls.__qualname__))
IDENTITY_RECORDS = {"EmbedLpResult", "EmbedSharpResult", "Gpt", "PrepEnsembleProblem",
                    "PrepNcCase", "PrepNcResult", "PuseyResult", "QuantumPass"}

HALF = {1: 0.5, -1: 0.5}
# Field values for the records whose __post_init__ checks them.
SIX = embedding.qubit_prep_ensemble(0)
VALID = {
    RunConfig: ("empirical",),
    embedding.PrepEnsembleProblem: tuple(getattr(SIX, name) for name in SIX._fields),
    QslState: (0, 1),
    QslProgram: (("Z", 0), ("X", "Z"), "Y", 5, 7, False),
    SequentialStats: (HALF, HALF, {(1, 1): 1.0}, {(1, -1): 1.0}, None, None),
}


def field_values(cls) -> tuple:
    """Valid values for ``cls``'s fields; distinct strings where nothing is checked."""
    if cls in VALID:
        return VALID[cls]
    return tuple(f"{cls.__qualname__}.{name}" for name in cls._fields)


def frozen_dataclass(cls):
    """A frozen dataclass with ``cls``'s name and fields: the former definition."""
    return dataclasses.make_dataclass(cls.__qualname__, list(cls._fields), frozen=True,
                                      eq=cls.__qualname__ not in IDENTITY_RECORDS)


def is_hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


def record_id(cls) -> str:
    return cls.__qualname__


class TestRecords:
    def test_every_record_class_is_found(self):
        counts = {}
        for cls in RECORDS:
            module = cls.__module__.rsplit(".", 1)[-1]
            counts[module] = counts.get(module, 0) + 1
        require(counts == {"classify": 3, "embedding": 7, "exactlp": 2, "oracles": 2,
                           "polytope": 6, "qsl": 3, "quantum": 1, "scenario": 4, "sheaf": 1},
                f"record classes per module: {counts}")
        identity = {cls.__qualname__ for cls in RECORDS if cls.__eq__ is Record.__eq__}
        require(identity == IDENTITY_RECORDS, f"identity records: {sorted(identity)}")

    @pytest.mark.parametrize("cls", RECORDS, ids=record_id)
    def test_fields_match_the_annotations(self, cls):
        require(cls._fields == tuple(cls.__annotations__),
                f"{cls.__qualname__}: fields {cls._fields}")
        require(not any(name.startswith("__") for name in cls._fields),
                f"{cls.__qualname__}: a dunder field")

    @pytest.mark.parametrize("cls", RECORDS, ids=record_id)
    def test_assignment_and_deletion_raise(self, cls):
        values = field_values(cls)
        record = cls(*values)
        for name in (*cls._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, "changed")
            with pytest.raises(AttributeError):
                delattr(record, name)
        now = tuple(getattr(record, name) for name in cls._fields)
        require(now == values, f"{cls.__qualname__}: fields changed to {now}")

    @pytest.mark.parametrize("cls", RECORDS, ids=record_id)
    def test_equality_and_hash(self, cls):
        values = field_values(cls)
        a, b = cls(*values), cls(*values)
        ref_a, ref_b = (frozen_dataclass(cls)(*values) for _ in range(2))
        if cls.__qualname__ in IDENTITY_RECORDS:
            require(a != b and a == a, f"{cls.__qualname__} compares by value")
            require(hash(a) == object.__hash__(a), f"{cls.__qualname__} hashes by value")
            require(ref_a != ref_b, "the reference compares by value")
            return
        require(a == b and not a != b, f"{cls.__qualname__}: equal fields compare unequal")
        require(a.__eq__(ref_a) is NotImplemented and a != ref_a,
                f"{cls.__qualname__} equals another class")
        if is_hashable(values):
            require(hash(a) == hash(b) == hash(values) == hash(ref_a),
                    f"{cls.__qualname__}: hash is not the fields' tuple hash")
        else:
            with pytest.raises(TypeError):
                hash(a)
            with pytest.raises(TypeError):
                hash(ref_a)
        if cls not in VALID:
            for k, name in enumerate(cls._fields):
                other = cls(*values[:k], "different", *values[k + 1:])
                require(a != other, f"{cls.__qualname__}: {name} is not compared")

    @pytest.mark.parametrize("cls", RECORDS, ids=record_id)
    def test_repr_names_the_class_and_fields(self, cls):
        values = field_values(cls)
        text = repr(cls(*values))
        require(text == repr(frozen_dataclass(cls)(*values)),
                f"{cls.__qualname__}: repr {text}")
        require(text.startswith(f"{cls.__qualname__}(")
                and all(f"{name}=" in text for name in cls._fields),
                f"{cls.__qualname__}: repr {text}")

    @pytest.mark.parametrize("cls", RECORDS, ids=record_id)
    def test_keywords_and_positions_build_the_same_record(self, cls):
        values = field_values(cls)
        by_name = cls(**dict(zip(cls._fields, values)))
        mixed = cls(values[0], **dict(zip(cls._fields[1:], values[1:])))
        for record in (by_name, mixed):
            got = tuple(getattr(record, name) for name in cls._fields)
            require(got == values, f"{cls.__qualname__}: built {got}")
        with pytest.raises(TypeError):
            cls(*values, "one too many")
        with pytest.raises(TypeError):
            cls(**dict(zip(cls._fields, values)), not_a_field=1)
        with pytest.raises(TypeError):
            cls(values[0], **{cls._fields[0]: values[0]})

    def test_post_init_refusals(self):
        refusals = [
            (ValueError, lambda: RunConfig(kind="bogus")),
            (TypeError, lambda: RunConfig(seed=0)),
            (ValueError, lambda: QslState(2, 0)),
            (ValueError, lambda: QslState(0, -1)),
            (ValueError, lambda: QslProgram(("Q", 0))),
            (ValueError, lambda: QslProgram(("Z", 2))),
            (ValueError, lambda: QslProgram(("Z", 0), gates=("SWAP",))),
            (ValueError, lambda: QslProgram(("Z", 0), measurement="W")),
            (ValueError, lambda: QslProgram(("Z", 0), shots=0)),
            (ValueError, lambda: QslProgram(("Z", 0), seed=-1)),
            (ValueError, lambda: SequentialStats({1: 1.5, -1: -0.5}, HALF, {}, {})),
            (ValueError, lambda: SequentialStats(HALF, HALF, {(1, 1): 0.5}, {(1, 1): 1.0})),
        ]
        for error, build in refusals:
            with pytest.raises(error):
                build()
        program = QslProgram(["X", 1], gates=["SWAP"], extensions=True)
        require(program.preparation == ("X", 1) and program.gates == ("SWAP",),
                f"__post_init__ did not normalize: {program}")

    def test_defaults(self):
        config = RunConfig()
        require(config.kind is None, f"defaults: {config}")
        require(config == RunConfig(None), "defaults differ from the given values")
        program = QslProgram(("Z", 0))
        require((program.gates, program.measurement, program.shots, program.seed,
                 program.extensions) == ((), "Z", 1, 0, False), f"defaults: {program}")

    def test_a_field_without_a_default_is_required(self):
        with pytest.raises(TypeError, match="missing field 'claims'"):
            ParsedInput(kind="empirical")
        parsed = ParsedInput(kind="empirical", claims={})
        require(parsed.claims == {} and parsed.model is None, f"built {parsed!r}")

    def test_mutable_defaults_are_fresh_per_instance(self):
        # No field default is mutable (tests/test_ci.py); a mutable cache is a
        # cached property, made anew for each instance.
        s1 = make_scenario({"A": (0, 1), "B": (0, 1)}, [["A", "B"]])
        s2 = make_scenario({"A": (0, 1), "B": (0, 1)}, [["A", "B"]])
        require(s1 == s2 and s1._joint_outcomes is not s2._joint_outcomes,
                "MeasurementScenario._joint_outcomes is shared")
        s1.outcome_tuples(("A", "B"))
        require(s2._joint_outcomes == {} and len(s1._joint_outcomes) == 1,
                "joint outcomes leaked into another scenario")
        require("_joint_outcomes" not in MeasurementScenario._fields
                and "_joint_outcomes" not in repr(s1), "the cache is a field")

    def test_cached_properties_survive_immutability(self):
        sc = make_scenario({"A": (0, 1), "B": (0, 1), "C": (0, 1)},
                           [["A", "B"], ["B", "C"]])
        require(sc.overlaps is sc.overlaps and sc.overlaps[0][2] == ("B",),
                f"overlaps {sc.overlaps}")

    def test_the_base_on_a_local_record(self):
        calls = []

        class Point(Record):
            x: int
            y: int = 0
            tags: tuple = ()

            def __post_init__(self):
                calls.append((self.x, self.y))
                object.__setattr__(self, "x", int(self.x))

            @cached_property
            def norm(self) -> int:
                return self.x * self.x + self.y * self.y

        p = Point("3", y=4)
        require(calls == [("3", 4)] and p.x == 3 and p.norm == 25 and p.tags == (),
                f"built {p!r}, calls {calls}")
        require(repr(p) == f"{Point.__qualname__}(x=3, y=4, tags=())", repr(p))
        with pytest.raises(TypeError):
            Point()
        with pytest.raises(TypeError):
            Point(1, z=2)

        class Shifted(Point):  # adds no fields: keeps Point's methods
            def shifted(self):
                return Shifted(self.x + 1, self.y)

        q = Shifted(1, 2).shifted()
        require(q == Shifted(2, 2) and q != Point(2, 2), f"subclass built {q!r}")
        with pytest.raises(TypeError):
            class Extended(Point):
                z: int
