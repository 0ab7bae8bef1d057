"""The input vocabularies and the JSON field tables, with no numpy.

The closed vocabularies of token categories and method groups, InputError,
`Param`, the declaration of a parameter or JSON field, which `_check_params`
and `_fields` check, and `read_json` and `_schema`, which read a JSON
document and name its file in errors. `ingest` re-exports all of them, and
the other modules import them from there; `synth` imports them from here, so
generating a corpus imports no numpy.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Callable, Mapping, NamedTuple, Optional

# Token categories (closed vocabulary; Unlabeled covers unknown tokens).
CATEGORIES = (
    "Cryptocurrency",
    "Stablecoin",
    "Marketplace",
    "Other",
    "NFT & Metaverse",
    "Network",
    "Financial Service",
    "Synthetic",
    "Bridge",
    "Unlabeled",
)

# The eight method groups retained for classification.
METHOD_GROUPS = (
    "Transfer",
    "Swap",
    "Withdraw",
    "Deposit",
    "ClaimReward",
    "Borrow",
    "Repay",
    "Mint",
)

# Groups merged into a retained group.
GROUP_ALIASES = {"Exchange": "Swap", "Redeem": "Withdraw", "Claim Reward": "ClaimReward"}

# Groups that exist in the raw data but fall below the sample-size cutoff.
EXCLUDED_GROUPS = ("Exit", "Burn", "Stake")

UNKNOWN = "Unknown"


class InputError(ValueError):
    """Unusable input file or configuration (CLI exit code 2)."""


class Param(NamedTuple):
    """A parameter or JSON field: type (str, bool, int, float, list or dict; an
    int is also a float, a bool neither; None: choices or rule decide), default
    (... if required; None allows null), rule (what, test ok), choices, help."""

    type: Optional[type]
    default: object = ...
    what: Optional[str] = None
    ok: Optional[Callable] = None
    choices: tuple = ()
    help: Optional[str] = None


def _check_params(values: Mapping, params: Mapping[str, Param], name) -> None:
    """Raise InputError for the first key of `params` whose value in `values`
    its Param refuses; a key missing from `values`, or None where the default
    is None, is unset. name(key) says where the value came from."""
    for key, param in params.items():
        value = values.get(key)
        if key not in values or value is None and param.default is None:
            continue
        if param.type and type(value) not in (param.type, int if param.type is float else None):
            raise InputError(f"{name(key)} must be {param.type.__name__}, "
                             f"got {type(value).__name__} {value!r}")
        if param.choices and value not in param.choices:
            raise InputError(f"{name(key)} must be one of {list(param.choices)}, got {value!r}")
        if param.ok and not param.ok(value):
            raise InputError(f"{name(key)} must be {param.what}, got {value!r}")


def _fields(obj, fields: Mapping[str, Param], where: str = "") -> dict:
    """The values of JSON object `obj` by its table `fields`, defaults filled
    in. A non-object, a value that _check_params refuses, an unknown key and a
    missing required key, in that order, raise InputError starting `where`."""
    prefix = f"{where} " if where else ""
    if type(obj) is not dict:
        raise InputError(f"{where or 'the document'} must be an object, got {type(obj).__name__}")
    _check_params(obj, fields, lambda key: f"{prefix}{key!r}")
    if unknown := [key for key in obj if key not in fields]:
        raise InputError(f"{prefix}{unknown[0]!r} is not one of the keys {list(fields)}")
    if missing := [key for key, p in fields.items() if p.default is ... and key not in obj]:
        raise InputError(f"{prefix}{missing[0]!r} is missing")
    return {key: obj.get(key, param.default) for key, param in fields.items()}


def _strings(v, n=None) -> bool:
    return type(v) is list and n in (None, len(v)) and all(type(s) is str for s in v)


def read_json(path, what: str = "JSON file"):
    """The JSON document in `path`; a file that cannot be opened, is not
    UTF-8 or is not JSON raises InputError naming `what` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def _schema(what: str, path):
    """The JSON document in `path`; the block's errors become InputError naming the file."""
    doc = read_json(path, what)
    try:
        yield doc
    except InputError as exc:
        raise InputError(f"bad {what} {path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} {path}: {type(exc).__name__}: {exc}") from exc
