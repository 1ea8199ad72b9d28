"""Version parsing, semver compliance, and upgrade-level classification.

Compliant versions have the form ``X.Y`` or ``X.Y.Z`` with numeric
components. Hyphen-suffixed qualifiers (release candidates, betas, build
metadata) and date-like components (8+ digits, e.g. 2.5.20110712) make a
version non-compliant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

_VERSION_RE = re.compile(r"^(\d+)\.(\d+)(?:\.(\d+))?(.*)$")

# A single numeric component with this many digits is read as a date stamp.
DATE_DIGITS = 8


class Unparseable(ValueError):
    """Version string has no leading numeric components."""


class NotAnUpgrade(ValueError):
    """The second version does not come after the first."""


class SemverLevel(str, Enum):
    MAJOR = "major"
    MINOR = "minor"
    PATCH = "patch"
    DEV = "dev"


@dataclass(frozen=True)
class Version:
    major: int
    minor: int
    patch: int | None
    qualifier: str | None
    raw: str

    @property
    def compliant(self) -> bool:
        return self.noncompliance_reason is None

    @property
    def noncompliance_reason(self) -> str | None:
        if self.qualifier is not None:
            return "qualified"
        if any(self._date_like(c) for c in (self.major, self.minor, self.patch)):
            return "date_like"
        return None

    @staticmethod
    def _date_like(component: int | None) -> bool:
        return component is not None and len(str(component)) >= DATE_DIGITS

    def key(self) -> tuple[int, int, int]:
        """Ordering key; absent patch counts as 0."""
        return (self.major, self.minor, self.patch or 0)

    def __str__(self) -> str:
        return self.raw


def parse_version(text: str) -> Version:
    """Parse a version string, attaching a compliance verdict.

    A hyphen-separated suffix (or any trailing non-numeric residue, such as
    a fourth dotted component) is captured as the qualifier and renders the
    version non-compliant. Raises Unparseable when no ``X.Y`` prefix exists.
    """
    match = _VERSION_RE.match(text.strip())
    if not match:
        raise Unparseable(f"no numeric X.Y prefix in {text!r}")
    major, minor, patch, rest = match.groups()
    qualifier: str | None = None
    if rest:
        qualifier = rest[1:] if rest.startswith("-") else rest
        if not qualifier:
            qualifier = rest
    return Version(
        major=int(major),
        minor=int(minor),
        patch=int(patch) if patch is not None else None,
        qualifier=qualifier,
        raw=text.strip(),
    )


def classify_upgrade(v1: Version, v2: Version) -> SemverLevel:
    """Classify an upgrade between two compliant versions.

    The version being upgraded FROM defines expectations, so any upgrade
    from a 0.Y[.Z] release is initial-development regardless of what
    changed.
    """
    if not v1.compliant or not v2.compliant:
        raise NotAnUpgrade(f"non-compliant version in <{v1.raw} -> {v2.raw}>")
    if v2.key() <= v1.key():
        raise NotAnUpgrade(f"{v2.raw} does not come after {v1.raw}")
    if v1.major == 0:
        return SemverLevel.DEV
    if v1.major != v2.major:
        return SemverLevel.MAJOR
    if v1.minor != v2.minor:
        return SemverLevel.MINOR
    return SemverLevel.PATCH


def complies_with_semver(level: SemverLevel, breaking: bool) -> bool:
    """Majors and initial-development releases may break; minors and patches must not."""
    if level in (SemverLevel.MAJOR, SemverLevel.DEV):
        return True
    return not breaking
