"""Search configuration, shared by the planner and the batch driver.

A `poplar.cfg` file in the source tree root carries the same keys as the
command-line flags; flags win on conflict.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional


class SearchConfig:
    """What bounds and steers the search of one run."""

    def __init__(self, plan_budget: int = 10000, max_plan_length: int = 12,
                 summary_rewrite_policy: str = "reject",  # "reject" | "rewrite"
                 api_precedence: Optional[dict[str, int]] = None):
        self.plan_budget = plan_budget
        self.max_plan_length = max_plan_length
        self.summary_rewrite_policy = summary_rewrite_policy
        self.api_precedence = {} if api_precedence is None else api_precedence
        if self.plan_budget <= 0:
            raise ValueError("plan budget must be strictly positive")
        if self.max_plan_length <= 0:
            raise ValueError("max plan length must be strictly positive")
        if self.summary_rewrite_policy not in ("reject", "rewrite"):
            raise ValueError("summary rewrite policy must be 'reject' or 'rewrite'")


# Each key of a `poplar.cfg` line, with the SearchConfig argument it sets.
CONFIG_KEYS = {"budget": "plan_budget", "max-len": "max_plan_length",
               "rewrite-summaries": "summary_rewrite_policy",
               "precedence": "api_precedence"}
BOOLEANS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def read_utf8(path: Path) -> str:
    """The text of a file. One that is not UTF-8 or cannot be read is a
    ValueError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8: byte 0x{e.object[e.start]:02x} "
                         f"at offset {e.start} ({e.reason})") from None
    except OSError as e:
        raise ValueError(f"{path}: cannot read: {e.strerror}") from None


def load_config_file(path: Path) -> dict:
    """The SearchConfig arguments of a file's `key = value` lines; '#'
    starts a comment. `precedence` lines add up in file order, as repeated
    `--precedence` flags do; any other key may be set once. A malformed or
    repeated line is a ValueError naming the file and the line."""
    values: dict = {}
    set_on: dict[str, int] = {}  # the line that set each key
    for n, raw_line in enumerate(read_utf8(path).splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if line:
            try:
                key, value = _config_entry(line)
                if key == "precedence":
                    value = {**values.get("api_precedence", {}), **value}
                elif key in set_on:
                    raise ValueError(f"{key!r} is already set on line {set_on[key]}")
            except ValueError as e:
                raise ValueError(f"{path}:{n}: {e}") from None
            set_on[key] = n
            values[CONFIG_KEYS[key]] = value
    return values


def _config_entry(line: str) -> tuple[str, object]:
    key, eq, value = (part.strip() for part in line.partition("="))
    if not eq:
        raise ValueError(f"expected 'key = value', not {line!r}")
    if key not in CONFIG_KEYS:
        raise ValueError(f"unknown key {key!r} (keys: {', '.join(CONFIG_KEYS)})")
    if key == "precedence":
        return key, parse_precedence(value.split(","))
    if key == "rewrite-summaries":
        if value.lower() not in BOOLEANS:
            raise ValueError(f"{key} must be one of {', '.join(BOOLEANS)}, not {value!r}")
        return key, "rewrite" if BOOLEANS[value.lower()] else "reject"
    if not value.isdecimal() or int(value) <= 0:
        raise ValueError(f"{key} must be a positive integer, not {value!r}")
    return key, int(value)


def parse_precedence(entries: list[str]) -> dict[str, int]:
    """`Type=N` entries, from `--precedence` flags or a `precedence` line."""
    prec: dict[str, int] = {}
    for entry in entries:
        name, _, num = entry.partition("=")
        try:
            if not name.strip():
                raise ValueError("no type name")
            prec[name.strip()] = int(num)
        except ValueError:
            raise ValueError(f"bad precedence entry '{entry.strip()}' "
                             f"(expected Type=N)") from None
    return prec


def config_from_tree(root: Path, overrides: dict | None = None) -> SearchConfig:
    """Build a SearchConfig from a tree's poplar.cfg plus explicit overrides."""
    cfg_path = root / "poplar.cfg"
    values = load_config_file(cfg_path) if cfg_path.is_file() else {}
    if overrides:
        merged_prec = dict(values.get("api_precedence", {}))
        merged_prec.update(overrides.pop("api_precedence", {}))
        values.update(overrides)
        if merged_prec:
            values["api_precedence"] = merged_prec
    return SearchConfig(**values)
