"""verify_counts against the per-prime verification it replaced.

The reference below is the earlier `verify_counts`: one call per prime,
rebuilding the seeded variants and decomposing every diagram for each
prime.  The shared-profile version must return the same reports, field
for field, while computing one Smith form per diagram.
"""

import sys

import pytest

import foxcolor.coloring as coloring
import foxcolor.orbits as orbits
from foxcolor.coloring import ENUMERATION_BUDGET, enumerate_colorings, is_odd_prime, profile
from foxcolor.diagram import build_diagram, catalog, catalog_names, parse_pd, random_variants
from foxcolor.orbits import (AUT, DEFAULT_SEED, INN, VerifyReport, build_group,
                             orbit_partition, predicted_class_count, verify_counts)

KNOTS = {name: build_diagram(catalog(name)) for name in catalog_names()}
UNLINK2 = "[[2,4,3,1],[3,4,2,1]]"  # two circles, one over the other: m^2 colorings at every m


def _class_counts(d, p, budget):
    nontrivial = enumerate_colorings(d, p, nontrivial_only=True, budget=budget)
    aut = orbit_partition(nontrivial, build_group(AUT, p))
    inn = orbit_partition(nontrivial, build_group(INN, p))
    return nontrivial, aut, inn


def reference_verify(d, p, *, label="diagram", variants=3, moves_per_variant=3,
                     seed=DEFAULT_SEED, budget=ENUMERATION_BUDGET):
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    failures = []
    n = profile(d).nullity(p)
    if n >= 2:
        pred_aut = predicted_class_count(AUT, p, n)
        pred_inn = predicted_class_count(INN, p, n)
    else:
        pred_aut = pred_inn = 0

    nontrivial, aut, inn = _class_counts(d, p, budget)
    expected_nontrivial = p ** n - p
    if len(nontrivial) != expected_nontrivial:
        failures.append(f"non-trivial count {len(nontrivial)} != p^n - p = {expected_nontrivial}")
    if aut.class_count != pred_aut:
        failures.append(f"aut classes {aut.class_count} != predicted {pred_aut}")
    if inn.class_count != pred_inn:
        failures.append(f"inn classes {inn.class_count} != predicted {pred_inn}")
    if any(s != p * (p - 1) for s in aut.sizes()):
        failures.append(f"aut orbit sizes {aut.sizes()} not all p(p-1) = {p * (p - 1)}")
    if any(s != 2 * p for s in inn.sizes()):
        failures.append(f"inn orbit sizes {inn.sizes()} not all 2p = {2 * p}")

    stable = True
    for vi, variant in enumerate(random_variants(d, variants, moves_per_variant, seed)):
        vn = profile(variant).nullity(p)
        _, vaut, vinn = _class_counts(variant, p, budget)
        if (vn, vaut.class_count, vinn.class_count) != (n, aut.class_count, inn.class_count):
            stable = False
            failures.append(
                f"variant {vi}: (nullity, aut, inn) = ({vn}, {vaut.class_count}, "
                f"{vinn.class_count}) != base ({n}, {aut.class_count}, {inn.class_count})")
    return VerifyReport(label, p, n, aut.class_count, inn.class_count, pred_aut, pred_inn,
                        aut.sizes(), inn.sizes(), stable, tuple(failures))


@pytest.mark.parametrize("name", sorted(KNOTS))
@pytest.mark.parametrize("primes", [(3, 5, 7, 11, 13), (3, 3)])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_same_reports_as_per_prime_reference(name, primes, seed):
    d = KNOTS[name]
    for variants in range(4):
        got = verify_counts(d, primes, label=name, variants=variants, seed=seed)
        want = tuple(reference_verify(d, p, label=name, variants=variants, seed=seed)
                     for p in primes)
        assert got == want, (name, primes, seed, variants)


def test_same_failures_as_reference(monkeypatch):
    # variants of other knots and an off-by-one closed form make checks fail
    real_prediction = orbits.predicted_class_count

    def other_knots(d, count, moves_per_variant, seed):
        return [KNOTS["4_1"], KNOTS["9_40"], KNOTS["5_1"]][:count]

    def off_by_one(kind, p, n):
        return real_prediction(kind, p, n) + 1

    for module in (orbits, sys.modules[__name__]):
        monkeypatch.setattr(module, "random_variants", other_knots)
        monkeypatch.setattr(module, "predicted_class_count", off_by_one)
    d = KNOTS["9_40"]
    got = verify_counts(d, (3, 5, 7), label="9_40", variants=3)
    want = tuple(reference_verify(d, p, label="9_40", variants=3) for p in (3, 5, 7))
    assert got == want
    assert all(len(r.failures) >= 3 for r in got[:2])


def test_same_budget_error_as_reference():
    d = KNOTS["9_40"]
    with pytest.raises(coloring.EnumerationBudgetError) as want:
        reference_verify(d, 5, budget=100)
    with pytest.raises(coloring.EnumerationBudgetError) as got:
        verify_counts(d, (3, 5), budget=100)
    assert str(got.value) == str(want.value)


def _count_smith_forms(monkeypatch):
    calls = []
    real = coloring.smith_normal_form

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(coloring, "smith_normal_form", counting)
    return calls


def test_one_smith_form_per_diagram(monkeypatch):
    calls = _count_smith_forms(monkeypatch)
    reports = verify_counts(KNOTS["9_40"], (3, 5, 7, 11), variants=3)
    assert [r.p for r in reports] == [3, 5, 7, 11]
    assert all(r.passed for r in reports)
    assert len(calls) == 4


def test_primes_validated_before_any_work(monkeypatch):
    calls = _count_smith_forms(monkeypatch)
    with pytest.raises(ValueError, match="odd prime, got 9"):
        verify_counts(KNOTS["9_40"], (3, 5, 9), variants=3)
    assert calls == []


@pytest.mark.parametrize("name", ["unlink2", "9_40"])
@pytest.mark.parametrize("variants", [0, 1])
def test_every_word_width(name, variants):
    # verify partitions the walk's words: bytes cut from 1-byte lanes (127),
    # low bytes of 2-byte lanes (131, 251), tuples above 256 (257); the
    # reference partitions Coloring objects from enumerate_colorings
    d = build_diagram(parse_pd(UNLINK2)) if name == "unlink2" else KNOTS[name]
    primes = (127, 131, 251, 257)
    got = verify_counts(d, primes, label=name, variants=variants)
    want = tuple(reference_verify(d, p, label=name, variants=variants) for p in primes)
    assert got == want
    assert [r.nullity for r in got] == [2] * 4 if name == "unlink2" else [1] * 4
