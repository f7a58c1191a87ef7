"""The value records: immutable, equal and hashed by the fields they compare,
and built without dataclasses or inspect."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import replace

from littleweyl import catalog, cones, lie, limits, linalg, spherical, verify, weyl
from littleweyl.catalog import get_entry
from littleweyl.cones import ChamberSet, Cone
from littleweyl.lie import LieAlgebraData, build_from_cartan, cartan_matrix_of_type
from littleweyl.limits import float_flow_oracle, graded_direction
from littleweyl.linalg import Frozen, Subspace
from littleweyl.spherical import (
    QData,
    SphericalAnalysis,
    WordEntry,
    analyze,
    boundary_degeneration,
    compression_cone,
    cone_faces,
    find_admissible,
    order_regular_chambers,
    recover_q,
)
from littleweyl.verify import CheckResult
from littleweyl.weyl import little_weyl_group, quotient_by_a_h, spherical_roots, weyl_from_limits

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def records():
    """One instance of every record class, all read off A2_so3."""
    entry = get_entry("A2_so3")
    a2 = entry.lie()
    point = entry.base_point()
    an = analyze(a2, point.h_z)
    table = order_regular_chambers(a2)
    group = little_weyl_group(an)
    out = [
        entry,
        table.chambers[0],
        table,
        compression_cone(an),
        an.h_z,
        next(iter(a2.weyl_group.values())),
        a2.weyl_lift((0, 1)),
        a2,
        graded_direction(a2, (-1, 2)),
        float_flow_oracle(a2, an.h_z, (-1, 2)),
        WordEntry.torus((1, 0), 2),
        point,
        recover_q(a2, point.h_z),
        an.s_z[0],
        an,
        boundary_degeneration(an, cone_faces(an)[1]),
        find_admissible(an),
        CheckResult("row", True, "detail"),
        quotient_by_a_h(an),
        group.generators[0],
        group,
        weyl_from_limits(an)[0],
        spherical_roots(an),
    ]
    return {type(r).__name__: r for r in out}


def _record_classes():
    """Every class in littleweyl's modules that is a NamedTuple or a Frozen."""
    modules = (catalog, cones, lie, limits, linalg, spherical, verify, weyl)
    return {
        cls.__name__
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and cls is not Frozen
        and (issubclass(cls, Frozen) or (issubclass(cls, tuple) and hasattr(cls, "_fields")))
    }


RECORD_CLASSES = sorted(_record_classes())


def test_the_records_are_the_twenty_three_classes(records):
    assert len(RECORD_CLASSES) == 23
    assert sorted(records) == RECORD_CLASSES


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_a_record_refuses_assignment_and_deletion(records, name):
    record = records[name]
    assert record._fields
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_a_record_equals_and_hashes_as_its_copy(records, name):
    record = records[name]
    copy = replace(record)
    assert copy is not record and copy == record and not copy != record
    if name != "CatalogEntry":  # its expected results are a dict
        assert hash(copy) == hash(record)


QDATA_FIELDS = (
    "sigma0",
    "sigma_q",
    "l_q",
    "l_q_nc",
    "n_q",
    "nbar_q",
    "a_perp_h",
    "l_cap_h",
)

# the constructor's parameters of each Frozen class, in order
FROZEN_FIELDS = {
    Subspace: ("ambient_dim", "rows"),
    Cone: ("ambient_dim", "inequalities", "rays", "lineality"),
    ChamberSet: ("hyperplanes", "chambers", "ends", "pairs"),
    LieAlgebraData: (
        "rank",
        "center_dim",
        "cartan_matrix",
        "symmetrizer",
        "positive_roots",
        "bracket_table",
        "form_matrix",
        "weights",
    ),
    SphericalAnalysis: QDATA_FIELDS
    + (
        "lie",
        "h_z",
        "a_h",
        "a_circ",
        "t_map",
        "tperp_map",
        "supports",
        "s_z",
        "indecomposables",
        "h_empty",
    ),
}


def test_frozen_fields_are_the_annotated_names_in_order(records):
    frozen = {name for name, record in records.items() if isinstance(record, Frozen)}
    assert frozen == {cls.__name__ for cls in FROZEN_FIELDS}
    for cls, fields in FROZEN_FIELDS.items():
        assert cls._fields == fields
        assert "__init__" not in vars(cls)
    assert QData._fields == QDATA_FIELDS
    assert SphericalAnalysis._fields[:8] == QData._fields


@pytest.mark.parametrize("cls", FROZEN_FIELDS, ids=lambda cls: cls.__name__)
def test_frozen_positional_keyword_and_mixed_calls_build_equal_instances(records, cls):
    record = records[cls.__name__]
    values = [getattr(record, name) for name in cls._fields]
    named = dict(zip(cls._fields, values))
    mixed = cls(*values[:1], **dict(zip(cls._fields[1:], values[1:])))
    builds = [cls(*values), cls(**named), mixed]
    for built in builds:
        assert built == record and hash(built) == hash(record)
        assert all(getattr(built, name) is value for name, value in named.items())


@pytest.mark.parametrize("cls", FROZEN_FIELDS, ids=lambda cls: cls.__name__)
def test_frozen_refuses_a_bad_call_with_the_binder_message(records, cls):
    record = records[cls.__name__]
    first, last = cls._fields[0], cls._fields[-1]
    values = [getattr(record, name) for name in cls._fields]
    calls = [
        ((values[:-1], {}), f"missing a required argument: {last!r}"),
        ((values, {"extra": 1}), "got an unexpected keyword argument 'extra'"),
        ((values, {first: values[0]}), f"multiple values for argument {first!r}"),
        ((values + [1], {}), "too many positional arguments"),
    ]
    for (args, kwargs), message in calls:
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert str(info.value) == message


def test_cones_are_unequal_to_other_objects():
    cone = Cone.from_rays(2, [(1, 0), (0, 1)])
    assert (cone == object()) is False and (cone != object()) is True


def test_stages_are_created_on_first_use(a2):
    space = Subspace.from_spanning(3, [(2, 1, 0)])
    cone = Cone.from_rays(2, [(1, 0), (0, 1)])
    algebra = replace(a2)
    assert all("_stages" not in vars(x) for x in (space, cone, algebra))
    order_regular_chambers(algebra)
    assert vars(algebra)["_stages"]


def test_algebras_ignore_the_bracket_table_objects(a2):
    table = tuple(tuple(dict(comp) for comp in row) for row in a2.bracket_table)
    copy = replace(a2, bracket_table=table)
    assert copy.bracket_table[0][0] is not a2.bracket_table[0][0]
    assert copy == a2 and hash(copy) == hash(a2)
    assert copy._stages == {} and copy._stages is not a2._stages
    form = tuple(tuple(2 * c for c in row) for row in a2.form_matrix)
    assert replace(a2, form_matrix=form) != a2


def test_chamber_sets_ignore_their_root_pair_tables(a2):
    table = order_regular_chambers(a2)
    bare = replace(table, ends=(), pairs={})
    assert bare == table and hash(bare) == hash(table)
    assert replace(table, chambers=table.chambers[:1]) != table


def test_reprs_are_the_dataclass_reprs():
    space = Subspace.from_spanning(3, [(2, 1, 0), (0, 0, 3)])
    assert repr(space) == (
        "Subspace(ambient_dim=3, basis_matrix=((Fraction(1, 1), Fraction(1, 2), "
        "Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))))"
    )
    cone = Cone.from_rays(3, [(1, 0, 0), (1, 2, 0)], Subspace.from_spanning(3, [(0, 0, 1)]))
    assert repr(cone) == (
        "Cone(ambient_dim=3, inequalities=((Fraction(-2, 1), Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(-1, 1), Fraction(0, 1))), rays=((Fraction(1, 1), "
        "Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(2, 1), Fraction(0, 1))), "
        "lineality=Subspace(ambient_dim=3, basis_matrix=((Fraction(0, 1), Fraction(0, 1), "
        "Fraction(1, 1)),)))"
    )
    assert repr(build_from_cartan(cartan_matrix_of_type("A1"), 1)) == (
        "LieAlgebraData(rank=1, center_dim=1, cartan_matrix=((2,),), symmetrizer=(1,), "
        "positive_roots=((1,),))"
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """-S keeps site hooks from loading either module first."""
    code = (
        "import sys; import littleweyl.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
