"""One result shape for every row-table experiment.

A paper table is a tuple of rows plus a few run-level values.  Each
experiment module declares its row dataclass, which row fields key a
lookup, its render columns and the lines around the table; this
frozen :class:`ExperimentResult` does the rest — ``row(*key)``,
``render()`` and ``to_dict()`` — for all of them.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional, Tuple

from repro.experiments.common import Column, table
from repro.scenario import ScenarioResult


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """An experiment's rows, their render columns and run-level values.

    ``summary`` holds the run-level values the experiment reports beside
    its rows; ``to_dict()`` writes them next to the rows.  ``head`` and
    ``foot`` are the rendered lines above and below the table.
    ``scenario`` is the :class:`~repro.scenario.ScenarioResult` the rows
    were selected from, where one run produced them all.
    """

    rows: Tuple[Any, ...]
    columns: Tuple[Column, ...]
    summary: Mapping[str, Any]
    key: Tuple[str, ...] = ("scheduling",)
    head: Tuple[str, ...] = ()
    foot: Tuple[str, ...] = ()
    scenario: Optional[ScenarioResult] = None

    def row(self, *key):
        """The row whose ``self.key`` fields equal ``key``."""
        for row in self.rows:
            if tuple(getattr(row, field) for field in self.key) == key:
                return row
        raise KeyError(key[0] if len(key) == 1 else key)

    @property
    def invariants_clean(self) -> bool:
        """False if any row reports an invariant violation."""
        return all(getattr(row, "invariants_clean", True) for row in self.rows)

    def render(self) -> str:
        return "\n".join((*self.head, table(self.columns, self.rows), *self.foot))

    def to_dict(self) -> dict:
        return {
            "rows": [dataclasses.asdict(row) for row in self.rows],
            **self.summary,
        }
