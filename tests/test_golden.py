"""Seeded outputs match the committed record in ``tests/golden/record.json``."""

import json
import math

from .golden.make import RECORD, probes


def _mismatches(found, recorded, tolerant: bool, path: str) -> list[str]:
    """Paths where ``found`` differs from ``recorded``: floats within 1e-12 when ``tolerant``,
    everything else exactly."""
    if isinstance(recorded, dict) and isinstance(found, dict):
        if found.keys() != recorded.keys():
            return [f"{path}: keys {sorted(found)} != {sorted(recorded)}"]
        return [m for key in recorded for m in _mismatches(found[key], recorded[key], tolerant, f"{path}/{key}")]
    if isinstance(recorded, list) and isinstance(found, list):
        if len(found) != len(recorded):
            return [f"{path}: length {len(found)} != {len(recorded)}"]
        return [m for i, (a, b) in enumerate(zip(found, recorded)) for m in _mismatches(a, b, tolerant, f"{path}/{i}")]
    if tolerant and type(found) is float and type(recorded) is float:
        same = math.isclose(found, recorded, rel_tol=1e-12, abs_tol=1e-12)
    else:
        same = type(found) is type(recorded) and found == recorded
    return [] if same else [f"{path}: {found!r} != {recorded!r}"]


def test_seeded_outputs_match_the_record():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    found = json.loads(json.dumps(probes()))  # through JSON, as the record was written
    mismatches = [m for section in ("exact", "shots")
                  for m in _mismatches(found[section], recorded[section], section == "exact", section)]
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:5]}"
