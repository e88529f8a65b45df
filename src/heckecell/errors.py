"""Exceptions shared across the package, and the one reader of JSON input files."""

import json


class HeckecellError(Exception):
    """Base class for all package errors."""


class InputError(HeckecellError):
    """Malformed user input: bad config, unparsable file, invalid shape."""


def read_json(path, what: str):
    """The JSON value in the file at `path`; a file that cannot be opened,
    decoded as UTF-8 or parsed raises InputError naming `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


class VerificationError(HeckecellError):
    """An exact mathematical identity that must hold was violated."""


class ComputationError(HeckecellError):
    """Internal inconsistency; indicates a bug, not bad input."""
