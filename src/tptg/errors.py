"""Shared exception types, the summary of a list of problems, the collector pause."""

import functools
import gc
from typing import Sequence


class ModelError(ValueError):
    """A model, game or argument violates a structural requirement."""


class StateLimitError(ModelError):
    """State-space construction exceeded the configured state limit."""

    def __init__(self, limit: int, explored: int):
        super().__init__(
            f"state limit of {limit} exceeded after exploring {explored} states; "
            f"raise the limit (--state-limit / TPTG_STATE_LIMIT) to continue"
        )
        self.limit = limit
        self.explored = explored

    def __reduce__(self):  # rebuilt from its fields, so that it pickles and copies
        return type(self), (self.limit, self.explored)


class ParseError(ValueError):
    """Syntax or local semantic error in model text, with source position."""

    def __init__(self, message: str, line: int, column: int, hint: str = ""):
        location = f"{line}:{column}"
        text = f"{location}: {message}"
        if hint:
            text += f" ({hint})"
        super().__init__(text)
        self.message = message
        self.line = line
        self.column = column
        self.hint = hint

    def __reduce__(self):  # rebuilt from its fields, so that it pickles and copies
        return type(self), (self.message, self.line, self.column, self.hint)


def summarize(problems: Sequence) -> str:
    """The first five problems joined by ``; ``, then how many are left out."""
    more = f"; and {len(problems) - 5} more" if len(problems) > 5 else ""
    return "; ".join(str(p) for p in problems[:5]) + more


def _gc_paused(run):
    """`run` with the cyclic garbage collector paused and, on every exit, as
    the caller had it: the states, moves and tokens the library allocates
    are acyclic, yet the collector would scan them again and again."""
    @functools.wraps(run)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return paused
