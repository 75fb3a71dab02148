"""Verification reports and their JSON-lines wire form."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class VerificationReport:
    """One named check on one instance.

    inputs holds whatever identifies the instance (graph6 strings, n, a vertex
    set S, a seed); computed holds only integers and booleans; verdict is
    "pass" or "fail".
    """

    check_name: str
    inputs: dict
    computed: dict
    verdict: str
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self, *, timings: bool = False) -> str:
        """Single-line JSON. Timings are zeroed unless asked for, so that
        repeat runs of the same instances serialise byte-identically."""
        payload = {
            "check_name": self.check_name,
            "inputs": self.inputs,
            "computed": self.computed,
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms if timings else 0,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "VerificationReport":
        """One wire line back; ValueError naming each field it lacks."""
        raw = json.loads(line)
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if not isinstance(raw, dict) or name not in raw]
        if missing:
            raise ValueError(f"report line lacks {', '.join(missing)}")
        return cls(*(raw[name] for name in names))


def reports_to_json_lines(reports, *, timings: bool = False) -> str:
    return "".join(r.to_json(timings=timings) + "\n" for r in reports)


def elapsed_ms_since(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def verdict_of(ok: bool) -> str:
    return "pass" if ok else "fail"
