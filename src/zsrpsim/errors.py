"""Exception types shared across the package.

The CLI maps these onto process exit codes (see cli.main): configuration
problems exit 2 and numerical-accuracy failures exit 3.  An unavailable
closed form is reported by the CLI as a configuration problem.
"""


class ConfigError(Exception):
    """Invalid or missing configuration (file, schema, or value range)."""


class AccuracyError(Exception):
    """A numerical routine could not reach its stated tolerance."""


class AnalyticUnavailableError(Exception):
    """No closed-form evaluator exists for the requested scheme/config."""
