"""Persistence for experiment runs (JSON lines).

A full 1258-loop sweep takes minutes; persisting the
:class:`~repro.experiments.metrics.LoopRun` records lets figures be
re-rendered, re-sliced and diffed without rescheduling anything.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List, Sequence

from ..errors import ReproError
from .metrics import LoopRun


def dump_runs(runs: Sequence[LoopRun], path: str) -> None:
    """Write runs as JSON lines (one record per line), creating the
    file's directory when it does not exist yet."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for run in runs:
            handle.write(json.dumps(dataclasses.asdict(run), sort_keys=True))
            handle.write("\n")


def load_runs(path: str) -> List[LoopRun]:
    """Read runs written by :func:`dump_runs`."""
    field_names = {f.name for f in dataclasses.fields(LoopRun)}
    runs: List[LoopRun] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ReproError(
                    f"{path}:{line_number}: invalid JSON ({err})"
                ) from None
            unknown = set(record) - field_names
            missing = field_names - set(record)
            if unknown or missing:
                raise ReproError(
                    f"{path}:{line_number}: field mismatch "
                    f"(unknown={sorted(unknown)}, missing={sorted(missing)})"
                )
            runs.append(LoopRun(**record))
    return runs
