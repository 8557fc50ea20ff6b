"""The eleven records against the frozen dataclasses they replaced.

tests/dataclass_records.py keeps the dataclass declarations.  For sample
values of each record, a plain record and its dataclass twin, built from
the same field values, must agree on ==, !=, hash and repr, on the
instance dict __init__ fills (or Coloring's slots), on Coloring's
ordering, on the FrozenInstanceError raised by setting or deleting each
field, on the errors of the checks __post_init__ ran, and on which
fields and cached properties stay outside equality and hashing.  Every
record must survive pickle and copy.deepcopy round trips.
"""

import copy
import dataclasses
import operator
import pickle
from dataclasses import FrozenInstanceError
from itertools import product

import dataclass_records as ref
import pytest

from foxcolor.coloring import Coloring, ColoringProfile, coloring_matrix, profile
from foxcolor.diagram import (MoveError, MoveSite, PdCode, PdError, PlanarDiagram,
                              build_diagram, catalog)
from foxcolor.linalg import (IntegerMatrix, ModularKernel, SmithDecomposition, block_kernel,
                             smith_normal_form, unit_kernel)
from foxcolor.orbits import (GroupSpec, OrbitPartition, VerifyReport, build_group,
                             orbit_partition, verify_counts)
from foxcolor.record import Record

RECORDS = (PdCode, PlanarDiagram, MoveSite, IntegerMatrix, SmithDecomposition, ModularKernel,
           Coloring, ColoringProfile, GroupSpec, OrbitPartition, VerifyReport)
REFS = {cls: getattr(ref, cls.__name__) for cls in RECORDS}


def field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(REFS[cls]))


def twin(x):
    """The dataclass record with x's field values, nested records twinned."""
    if isinstance(x, Record):
        cls = type(x)
        return REFS[cls](*(twin(getattr(x, name)) for name in field_names(cls)))
    return x


def samples() -> dict:
    """Per record class, sample values: distinct ones, and equal ones that
    are distinct objects."""
    codes = [catalog(name) for name in ("3_1", "4_1", "9_40")] + [PdCode(()), catalog("3_1")]
    diagrams = [build_diagram(pd) for pd in codes]
    smiths = [smith_normal_form(coloring_matrix(d)) for d in diagrams]
    kernels = [unit_kernel(sd, m) for sd in smiths[:3] for m in (3, 5)]
    kernels += [block_kernel(smiths[2], 5), unit_kernel(smiths[4], 3)]
    groups = [build_group(kind, m) for kind in ("aut", "inn") for m in (3, 6, 7)]
    groups.append(build_group("aut", 3))
    pr = profile(diagrams[2])
    colorings = list(pr.colorings(5))[:6] + list(profile(diagrams[0]).colorings(3))
    colorings += [Coloring(7, (1, 2)), Coloring(5, (0, 1, 2)), Coloring(5, (0, 1)),
                  Coloring(5, ()), Coloring(3, (0, 1, 2))]
    partitions = [orbit_partition(pr.colorings(5, nontrivial_only=True), g)
                  for g in (build_group("aut", 5), build_group("inn", 5))]
    partitions += [OrbitPartition(()), OrbitPartition(partitions[0].orbits)]
    reports = list(verify_counts(diagrams[2], (3, 5), label="9_40", variants=1, seed=7))
    reports += verify_counts(diagrams[0], (3,), label="3_1", variants=0)
    reports.append(VerifyReport(*(getattr(reports[-1], n) for n in field_names(VerifyReport))))
    matrices = [coloring_matrix(d) for d in diagrams[:3]]
    matrices += [IntegerMatrix.from_rows([[1, 2], [3, 4]]), IntegerMatrix(0, 3, ()),
                 IntegerMatrix.from_nonzeros(2, [((0, 1),), ((1, 4),)]),
                 IntegerMatrix.from_rows([[1, 0], [0, 4]]), IntegerMatrix(2, 0, ((), ()))]
    return {
        PdCode: codes,
        PlanarDiagram: diagrams,
        MoveSite: [MoveSite("R1_insert", (1,), True), MoveSite("R1_insert", (1,)),
                   MoveSite("R1_insert", (1,), over=False), MoveSite("R2_insert", (1, 3)),
                   MoveSite("R3"), MoveSite(kind="R3", edges=(), over=False)],
        IntegerMatrix: matrices,
        SmithDecomposition: smiths,
        ModularKernel: kernels,
        Coloring: colorings,
        ColoringProfile: [profile(d) for d in diagrams],
        GroupSpec: groups,
        OrbitPartition: partitions,
        VerifyReport: reports,
    }


SAMPLES = samples()


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def pairs(request):
    """(record, dataclass twin) for each sample of one class."""
    return [(x, twin(x)) for x in SAMPLES[request.param]]


def test_every_record_is_a_plain_class():
    for cls in RECORDS:
        assert issubclass(cls, Record) and not dataclasses.is_dataclass(cls)
        assert dataclasses.is_dataclass(REFS[cls])
    for cls, values in SAMPLES.items():
        assert len(values) > 2 and {type(x) for x in values} == {cls}
        assert any(a == b and a is not b for a, b in product(values, repeat=2)), cls


def test_equality_both_ways(pairs):
    for (a, ra), (b, rb) in product(pairs, repeat=2):
        assert (a == b) is (ra == rb) and (b == a) is (rb == ra)
        assert (a != b) is (ra != rb) and (b != a) is (rb != ra)
        assert (a == b) is (b == a) is (a.__eq__(b) is True)


def test_equality_against_other_classes(pairs):
    for x, rx in pairs:
        for other in (rx, tuple(getattr(x, n) for n in field_names(type(x))), None,
                      *(SAMPLES[cls][0] for cls in RECORDS if cls is not type(x))):
            assert x != other and other != x
            assert not x == other and not other == x
        assert x.__eq__(rx) is NotImplemented and rx.__eq__(x) is NotImplemented


def test_hash_and_repr(pairs):
    for x, rx in pairs:
        assert hash(x) == hash(rx)
        assert repr(x) == repr(rx)
    for (a, _), (b, _) in product(pairs, repeat=2):
        if a == b:
            assert hash(a) == hash(b)


def test_init_fills_the_fields_as_the_dataclass_did(pairs):
    for x, rx in pairs:
        cls = type(x)
        values = [getattr(x, name) for name in field_names(cls)]
        y, ry = cls(*values), REFS[cls](*values)
        if cls is Coloring:
            assert not hasattr(y, "__dict__") and not hasattr(ry, "__dict__")
            assert Coloring.__slots__ == REFS[cls].__slots__ == ("modulus", "values")
            assert (y.modulus, y.values) == (ry.modulus, ry.values)
            continue
        assert list(vars(y)) == list(vars(ry))
        assert all(vars(y)[k] == vars(ry)[k] for k in vars(y) if k in field_names(cls))
        assert [vars(y)[k] for k in vars(y)][len(values):] == \
            [vars(ry)[k] for k in vars(ry)][len(values):]


def test_fields_are_frozen(pairs):
    for x, rx in pairs:
        # the slotted dataclass Coloring raised TypeError, not FrozenInstanceError,
        # for a name that is not a field; every record raises the latter
        for name, objs in [(n, (x, rx)) for n in field_names(type(x))] + [("x", (x,))]:
            for obj in objs:
                with pytest.raises(FrozenInstanceError) as set_error:
                    setattr(obj, name, 0)
                with pytest.raises(FrozenInstanceError) as del_error:
                    delattr(obj, name)
                assert str(set_error.value) == f"cannot assign to field {name!r}"
                assert str(del_error.value) == f"cannot delete field {name!r}"
        assert repr(x) == repr(rx) and hash(x) == hash(rx)


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_coloring_order(op):
    values = SAMPLES[Coloring]
    for a, b in product(values, repeat=2):
        assert op(a, b) is op(twin(a), twin(b))
    for other in (None, (5, (0,)), twin(values[0])):
        with pytest.raises(TypeError):
            op(values[0], other)
    assert [twin(c) for c in sorted(values)] == sorted(map(twin, values))
    assert [twin(c) for c in sorted(values, reverse=True)] == sorted(map(twin, values),
                                                                     reverse=True)


def test_move_site_defaults_and_errors():
    for site in (MoveSite("R3"), MoveSite("R3", ()), MoveSite(kind="R3")):
        assert (site.kind, site.edges, site.over) == ("R3", (), False)
        assert repr(site) == repr(ref.MoveSite("R3")) == "MoveSite(kind='R3', edges=(), over=False)"
    assert MoveSite("R1_insert", over=True) == MoveSite("R1_insert", (), True)
    for args in [("R4",), ("r1_insert", (1,)), (None,), ("",)]:
        with pytest.raises(MoveError) as got:
            MoveSite(*args)
        with pytest.raises(MoveError) as want:
            ref.MoveSite(*args)
        assert str(got.value) == str(want.value)


BAD_CODES = [[(1, 2, 3, 4)], ((1, 2, 3, 4), [2, 1, 4, 3]), ((1, 2, 3),), ((0, 1, 1, 0),),
             ((1, 2, 2, True),), ((1, 2, 2, "1"),), ((1, 1, 2, 3),), ((1, 2, 4, 5), (5, 4, 2, 1)),
             ((1, 3, 1, 2), (2, 4, 3, 4)), ((1, 2, 3, 4),), "((1,2,2,1),)", None]


@pytest.mark.parametrize("crossings", BAD_CODES, ids=repr)
def test_pd_code_errors(crossings):
    with pytest.raises((PdError, TypeError)) as got:
        PdCode(crossings)
    with pytest.raises((PdError, TypeError)) as want:
        ref.PdCode(crossings)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("args", [(-1, 0, ()), (0, -2, ()), (2, 1, ((1,),)),
                                  (1, 2, ((1, 2), (3, 4))), (2, 2, ((1, 2), (3,))),
                                  (1, 1, ((1, 2),))], ids=repr)
def test_integer_matrix_errors(args):
    with pytest.raises(ValueError) as got:
        IntegerMatrix(*args)
    with pytest.raises(ValueError) as want:
        ref.IntegerMatrix(*args)
    assert str(got.value) == str(want.value)


def test_uncompared_fields_stay_outside_equality():
    sd = SAMPLES[SmithDecomposition][2]
    other = SmithDecomposition(sd.shape, sd.nonzeros, (1, 7), ((0, {0: 1}),), ((1, 2, 3),))
    rsd = twin(sd)
    rother = ref.SmithDecomposition(sd.shape, sd.nonzeros, (1, 7), ((0, {0: 1}),),
                                    ((1, 2, 3),))
    assert sd == other and rsd == rother
    assert hash(sd) == hash(other) == hash(rsd) == hash(rother)
    assert repr(other) == repr(rother) != repr(sd)
    assert "nonzeros" not in repr(sd) and "pivots" not in repr(sd)
    moved = SmithDecomposition((sd.shape[0], sd.shape[1] + 1), sd.nonzeros,
                               sd.invariant_factors, sd.pivots, sd.block_ops)
    assert moved != sd and twin(moved) != rsd


def test_cached_properties_stay_outside_equality():
    for values in SAMPLES.values():
        for x in values:
            y = twin_plain(x)
            assert x == y and hash(x) == hash(y)
    read = [(pd, ("faces", "components")) for pd in SAMPLES[PdCode]]
    read += [(sd, ("col_ops", "c")) for sd in SAMPLES[SmithDecomposition]]
    read += [(g, ("byte_tables",)) for g in SAMPLES[GroupSpec]]
    read += [(m, ("nonzeros", "entries")) for m in SAMPLES[IntegerMatrix]]
    for x, names in read:
        y, rx = twin_plain(x), twin(x)
        for name in names:
            getattr(x, name)
            getattr(rx, name)
            assert name in vars(x) and name in vars(rx)
        assert x == y and y == x and hash(x) == hash(y) == hash(rx) and repr(x) == repr(rx)


def twin_plain(x):
    """A fresh record with x's field values, built by its own __init__ (or,
    for a matrix from from_nonzeros, by from_nonzeros)."""
    cls = type(x)
    if cls is IntegerMatrix and "entries" not in vars(x):
        return IntegerMatrix.from_nonzeros(x.cols, x.nonzeros)
    return cls(*(getattr(x, name) for name in field_names(cls)))


@pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)),
                                       lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
                                       copy.deepcopy, copy.copy],
                         ids=["pickle", "pickle0", "deepcopy", "copy"])
def test_pickle_and_copy(pairs, roundtrip):
    for x, rx in pairs:
        y = roundtrip(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(rx)
        if type(x) is not Coloring:
            assert vars(y).keys() == vars(x).keys()
        with pytest.raises(FrozenInstanceError):
            y.not_a_field = 0


def test_lazy_matrix_survives_pickling():
    m = IntegerMatrix.from_nonzeros(3, [((0, 2), (2, -1)), ()])
    back = pickle.loads(pickle.dumps(m))
    assert "entries" not in vars(back)
    assert back.entries == ((2, 0, -1), (0, 0, 0)) == m.entries
    assert back == IntegerMatrix.from_rows([[2, 0, -1], [0, 0, 0]])
