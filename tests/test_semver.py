"""Version parsing, compliance, and upgrade classification."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jarcompat.semver import (
    NotAnUpgrade,
    SemverLevel,
    Unparseable,
    classify_upgrade,
    complies_with_semver,
    parse_version,
)


def test_parse_compliant_three_component():
    v = parse_version("3.0.1")
    assert (v.major, v.minor, v.patch) == (3, 0, 1)
    assert v.qualifier is None
    assert v.compliant


def test_parse_two_component():
    v = parse_version("2.4")
    assert (v.major, v.minor, v.patch) == (2, 4, None)
    assert v.compliant
    assert v.key() == (2, 4, 0)


def test_parse_qualified_is_non_compliant():
    v = parse_version("4.0.0-b02")
    assert v.qualifier == "b02"
    assert not v.compliant
    assert v.noncompliance_reason == "qualified"


@pytest.mark.parametrize("raw", ["1.0.0-rc1", "2.1.1-beta2", "5.0-M1", "1.2.3-jre"])
def test_parse_common_qualifiers(raw):
    assert not parse_version(raw).compliant


def test_parse_date_like_is_non_compliant():
    v = parse_version("2.5.20110712")
    assert not v.compliant
    assert v.noncompliance_reason == "date_like"


def test_large_build_number_is_still_compliant():
    assert parse_version("1.2.9999999").compliant  # 7 digits: not a date
    assert not parse_version("1.2.10000000").compliant  # 8 digits


def test_parse_extra_component_is_non_compliant():
    v = parse_version("1.2.3.4")
    assert not v.compliant


def test_parse_unparseable():
    with pytest.raises(Unparseable):
        parse_version("alpha")
    with pytest.raises(Unparseable):
        parse_version("1")


def test_classify_levels():
    assert classify_upgrade(parse_version("3.1.0"), parse_version("4.0.0")) is SemverLevel.MAJOR
    assert classify_upgrade(parse_version("3.0.1"), parse_version("3.1.0")) is SemverLevel.MINOR
    assert classify_upgrade(parse_version("4.0.0"), parse_version("4.0.1")) is SemverLevel.PATCH
    assert classify_upgrade(parse_version("0.9.0"), parse_version("0.9.1")) is SemverLevel.DEV


def test_dev_dominates_any_component_change():
    assert classify_upgrade(parse_version("0.9.0"), parse_version("1.0.0")) is SemverLevel.DEV
    assert classify_upgrade(parse_version("0.1.0"), parse_version("0.2.0")) is SemverLevel.DEV


def test_not_an_upgrade():
    with pytest.raises(NotAnUpgrade):
        classify_upgrade(parse_version("1.0.0"), parse_version("1.0.0"))
    with pytest.raises(NotAnUpgrade):
        classify_upgrade(parse_version("2.0.0"), parse_version("1.9.9"))
    with pytest.raises(NotAnUpgrade):
        classify_upgrade(parse_version("1.0.0"), parse_version("2.0.0-rc1"))


def test_complies_with_semver():
    assert complies_with_semver(SemverLevel.MAJOR, True)
    assert complies_with_semver(SemverLevel.DEV, True)
    assert not complies_with_semver(SemverLevel.PATCH, True)
    assert not complies_with_semver(SemverLevel.MINOR, True)
    assert complies_with_semver(SemverLevel.MINOR, False)
    assert complies_with_semver(SemverLevel.PATCH, False)


_component = st.integers(min_value=0, max_value=9999999)


@given(_component, _component, st.one_of(st.none(), _component))
def test_parse_print_identity_on_compliant(major, minor, patch):
    text = f"{major}.{minor}" if patch is None else f"{major}.{minor}.{patch}"
    reparsed = parse_version(text)
    assert (reparsed.major, reparsed.minor, reparsed.patch) == (major, minor, patch)
    assert reparsed.compliant
    assert reparsed.raw == text


_small = st.integers(min_value=0, max_value=20)


@given(st.integers(min_value=1, max_value=5), _small, _small, _small, _small, _small, _small)
def test_level_severity_respects_order_within_major(major, n1, p1, n2, p2, n3, p3):
    # For v1 < v2 < v3 sharing a (non-zero) major, the direct level is at
    # least as severe as every step along the way.
    severity = {SemverLevel.PATCH: 0, SemverLevel.MINOR: 1, SemverLevel.MAJOR: 2}
    keys = sorted({(major, n1, p1), (major, n2, p2), (major, n3, p3)})
    if len(keys) < 3:
        return
    v1, v2, v3 = (parse_version(".".join(str(c) for c in key)) for key in keys)
    direct = severity[classify_upgrade(v1, v3)]
    steps = max(severity[classify_upgrade(v1, v2)], severity[classify_upgrade(v2, v3)])
    assert direct >= steps
