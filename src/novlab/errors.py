"""Exception hierarchy shared by all modules.

The command line maps these onto process exit codes: configuration
problems exit 2, numerical guard trips exit 3, analysis failures exit 4.
"""

from __future__ import annotations


class NovlabError(Exception):
    """Base class for all package errors."""


class ConfigError(NovlabError):
    """Bad user-facing configuration: unknown keys, invalid values."""


class ContractError(NovlabError):
    """A caller violated an API precondition (shape, range, ordering)."""


class NumericalAbort(NovlabError):
    """A computation left its validity region: guard bounds, failed
    root finds, non-finite intermediates.  Carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class EvolveAbort(NumericalAbort):
    """Time stepping tripped the state guard.  It is raised from the
    iteration of a Trajectory, whose logs keep the records before the
    trip, and its diagnostics name the step."""


class AnalysisError(NovlabError):
    """A diagnostic or fit could not be carried out (thin sample
    windows, all-masked fields, failed validation checks)."""


class QueryError(ContractError):
    """A point query fell outside the represented range."""
