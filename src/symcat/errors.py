"""Error types shared across the workbench, and the verification report.

Every failure mode that callers are expected to catch gets its own class here;
modules raise these rather than bare ValueError so the CLI can map them to
exit codes: a `UsageError` is bad or oversized input (exit 2), a
`VerificationFailure` a violated check (exit 1).

`Report` is the one shape of a verifier's result: a list of entries
{check, <tags>, pass, detail}, where the tags (m, n, k, relation, level and,
per entry, lambda) say where the check ran.  A verifier records every check
and then closes the report, which raises VerificationFailure at the first
failing entry with the whole list attached, or returns the list.
`report_json` serializes it.
"""

import json

__all__ = [
    'SymcatError',
    'UsageError',
    'ParseError',
    'NonIntegralResult',
    'InsufficientVariables',
    'LatticeMismatch',
    'RankMismatch',
    'FlavorMismatch',
    'VerificationFailure',
    'BoundExceeded',
    'IllFormedSlice',
    'SignatureMismatch',
    'NotBraidOnly',
    'UnrealizableAtRank',
    'Report',
    'report_json',
]


class SymcatError(Exception):
    """Base class for all workbench errors."""


class UsageError(SymcatError):
    """Base class for input that is malformed or out of range."""


class ParseError(UsageError):
    """A textual literal does not match its documented grammar."""


class NonIntegralResult(UsageError):
    """A conversion out of the powersum basis produced a non-integer coefficient."""


class InsufficientVariables(UsageError):
    """A polynomial expansion was requested in fewer variables than the degree."""


class LatticeMismatch(UsageError):
    """Operands live in different polynomial lattices (monomial vs divided-power)."""


class RankMismatch(UsageError):
    """Operands belong to algebras of different ranks."""


class FlavorMismatch(UsageError):
    """Grothendieck-group vectors of different flavors were combined."""


class VerificationFailure(SymcatError):
    """A verification routine found a violated check.

    Carries the offending check's name and, when available, the full report.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BoundExceeded(UsageError):
    """A requested computation exceeds the documented size bounds."""


class IllFormedSlice(UsageError):
    """A diagram slice does not type-check against the strand configuration."""


class SignatureMismatch(UsageError):
    """Diagram composition or addition with incompatible boundary signatures."""


class NotBraidOnly(UsageError):
    """A permutation image was requested for a diagram containing cups or caps."""


class UnrealizableAtRank(UsageError):
    """A diagram or path needs a negative symmetric-group rank at the given level."""


class Report:
    """The entries of one verification run, all sharing the tags given here.

    >>> report = Report(k=2)
    >>> report.check('dimension', 3 == 1 + 2, '3 = 1 + 2')
    >>> report.close('check {check} fails at k = {k}'.format_map)
    [{'check': 'dimension', 'k': 2, 'pass': True, 'detail': '3 = 1 + 2'}]
    """

    __slots__ = ('tags', 'entries')

    def __init__(self, **tags):
        self.tags = tags
        self.entries = []

    def check(self, name, ok, detail, **where):
        """Record one check; `where` adds per-entry tags such as lambda."""
        self.entries.append({'check': name, **self.tags, **where, 'pass': bool(ok),
                             'detail': detail})

    def close(self, message):
        """The entries as a list, or VerificationFailure(message(entry), report=
        entries) for the first failing entry; a template's bound `format_map`
        makes a message from the entry's keys."""
        bad = next((e for e in self.entries if not e['pass']), None)
        if bad is not None:
            raise VerificationFailure(message(bad), report=self.entries)
        return self.entries


def report_json(report):
    """Serialize a verification report as JSON (stable key order)."""
    return json.dumps(report, sort_keys=True)
