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


def load_config_file(path: Path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for raw_line in path.read_text().splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw_line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


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
    values: dict = {}
    cfg_path = root / "poplar.cfg"
    if cfg_path.is_file():
        raw = load_config_file(cfg_path)
        if "budget" in raw:
            values["plan_budget"] = int(raw["budget"])
        if "max-len" in raw:
            values["max_plan_length"] = int(raw["max-len"])
        if "rewrite-summaries" in raw:
            values["summary_rewrite_policy"] = (
                "rewrite" if raw["rewrite-summaries"].lower() in ("1", "true", "yes")
                else "reject")
        if "precedence" in raw:
            values["api_precedence"] = parse_precedence(raw["precedence"].split(","))
    if overrides:
        merged_prec = dict(values.get("api_precedence", {}))
        merged_prec.update(overrides.pop("api_precedence", {}))
        values.update(overrides)
        if merged_prec:
            values["api_precedence"] = merged_prec
    return SearchConfig(**values)
