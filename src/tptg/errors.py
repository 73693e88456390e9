"""Shared exception types, and the one-line summary of a list of problems."""

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


def summarize(problems: Sequence) -> str:
    """The first five problems joined by ``; ``, then how many are left out."""
    more = f"; and {len(problems) - 5} more" if len(problems) > 5 else ""
    return "; ".join(str(p) for p in problems[:5]) + more
