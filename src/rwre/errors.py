"""The error for a bad value passed in by the caller.

It lives apart from the modules that raise it, and imports nothing, so
that any of them can import it without a cycle.
"""


class ParameterError(ValueError):
    """A value passed to a public function or constructor is not usable.

    ``rwre`` reports it as a parameter error (exit code 2).  A plain
    ``ValueError`` is left for checks of values the program computed
    itself, so that an internal failure is not mistaken for a user error.
    """
