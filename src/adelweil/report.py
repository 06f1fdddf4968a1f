"""Deterministic run reports in plain text and JSON.

Every CLI command builds one Report: named inputs with content digests,
a list of result items in a fixed order, and an overall status.  Exact
rationals are rendered as p/q strings so the JSON form is lossless.
"""

import json
import os
from fractions import Fraction

from .exactalg import format_rational


def digest_path(path: str) -> str:
    # loaded here: only a report with inputs computes a digest
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:12]


def _render(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, Fraction):
        return format_rational(value)
    if value is None:
        return "-"
    return str(value)


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class Report:
    """Ordered result items for one command invocation."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: list = []
        self.items: list = []

    def add_input(self, path: str) -> None:
        # basename only: content digest carries the identity, paths vary
        self.inputs.append((os.path.basename(str(path)),
                            digest_path(str(path))))

    def add(self, label: str, **fields) -> dict:
        item = {"label": label, **fields}
        self.items.append(item)
        return item

    @property
    def passed(self) -> bool:
        return all(item.get("ok") is not False for item in self.items)

    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for name, dig in self.inputs:
            lines.append(f"input: {name} sha256={dig}")
        for item in self.items:
            parts = [f"{item['label']}:"]
            for key, value in item.items():
                if key in ("label", "ok"):
                    continue
                parts.append(f"{key}={_render(value)}")
            if "ok" in item:
                parts.append("[ok]" if item["ok"] else "[FAIL]")
            lines.append(" ".join(parts))
        lines.append(f"status: {self.status()}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": [{"name": n, "sha256": d} for n, d in self.inputs],
            "items": _jsonable(self.items),
            "status": self.status(),
        }
        return json.dumps(payload, indent=2) + "\n"
