"""Correctness gate for one `mobflow report` run against the scenario's ground truth.

A run fails if the process exited non-zero, if a stored municipality OD day
differs from the planned cells, if the headline flow drop leaves its band, or
if its result tree differs from the set's reference tree.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from mobflow import od, synth

FLOW_DROP_BAND = (55.0, 65.0)  # the lockdown preset scales inter-province trips by 0.4


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_run(
    returncode: int,
    out_dir: Path,
    plan: synth.ScenarioPlan,
    reference_digest: str | None,
) -> tuple[list[str], str | None]:
    """Return (failure reasons, result digest); no reasons means the run passed."""
    if returncode != 0:
        return [f"exit code {returncode}"], None
    reasons = []
    store = out_dir / "od-store"
    stored = od.list_od_dates(store, "municipality")
    if stored != plan.config.dates:
        reasons.append(f"stored days {len(stored)} != planned days {len(plan.config.dates)}")
    for day in stored:
        try:
            cells = od.load_daily_od(store, day, "municipality").cells
        except (ValueError, KeyError) as exc:
            reasons.append(f"municipality OD {day.isoformat()} unreadable: {exc}")
            continue
        if cells != plan.daily_cells.get(day):
            reasons.append(f"municipality OD {day.isoformat()} differs from the plan")
    summary_path = out_dir / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.is_file() else {}
    drop = summary.get("flow_drop_pct")
    if drop is None or not FLOW_DROP_BAND[0] <= drop <= FLOW_DROP_BAND[1]:
        reasons.append(f"flow_drop_pct {drop} outside {FLOW_DROP_BAND}")
    digest = tree_digest(out_dir)
    if reference_digest is not None and digest != reference_digest:
        reasons.append(f"result digest {digest[:12]} != reference {reference_digest[:12]}")
    return reasons, digest
