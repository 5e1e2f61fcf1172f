"""Per-pass run records and their CSV serialization.

CSV dialect: comma-separated, LF line endings, header row exactly
``pass,iteration,train_loss,log10_loss,grad_sq_norm,mistake_rate,elapsed_ms``,
floats rendered with repr (shortest round-trip, locale-free). Output for a
fixed seed is byte-identical across invocations; to that end elapsed_ms is
written as 0 unless wall-clock timing is explicitly requested, in the same
spirit as fixed timestamps in reproducible builds. Measured wall times stay
available on the in-memory record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CSV_HEADER", "DIVERGENCE_FACTOR", "MetricRow", "RunRecord", "LOSS_FLOOR"]

CSV_HEADER = "pass,iteration,train_loss,log10_loss,grad_sq_norm,mistake_rate,elapsed_ms"

# Loss floor for log plots and rate fits; below double-precision resolution
# of the bound comparisons.
LOSS_FLOOR = 1e-14
_LOG_CLIP = 1e-300
# A run diverged when some row's loss exceeds this multiple of the first's.
DIVERGENCE_FACTOR = 10.0


def log10_loss(train_loss: float) -> float:
    return math.log10(max(train_loss, _LOG_CLIP))


@dataclass
class MetricRow:
    pass_index: int
    iteration: int
    train_loss: float
    grad_sq_norm: float
    mistake_rate: float
    elapsed_ms: int = 0

    def __post_init__(self):
        # builtin types keep repr()-based CSV output byte-stable
        self.pass_index = int(self.pass_index)
        self.iteration = int(self.iteration)
        self.train_loss = float(self.train_loss)
        self.grad_sq_norm = float(self.grad_sq_norm)
        self.mistake_rate = float(self.mistake_rate)
        self.elapsed_ms = int(self.elapsed_ms)

    @property
    def log10_loss(self) -> float:
        return log10_loss(self.train_loss)


@dataclass
class RunRecord:
    """Time series of per-pass metrics, one row per logged pass."""

    rows: list[MetricRow] = field(default_factory=list)

    def append(self, row: MetricRow) -> None:
        if self.rows and row.pass_index < self.rows[-1].pass_index:
            raise ValueError("rows must be appended in pass order")
        self.rows.append(row)

    def losses(self) -> list[float]:
        return [r.train_loss for r in self.rows]

    def diverged(self) -> bool:
        """Whether some row's loss exceeds DIVERGENCE_FACTOR times the first
        row's (a nan loss counts): the rule by which grid search discards a
        candidate and run and reproduce warn."""
        bound = DIVERGENCE_FACTOR * self.rows[0].train_loss
        return not all(row.train_loss <= bound for row in self.rows)

    def final_loss(self) -> float:
        if not self.rows:
            raise ValueError("empty record")
        return self.rows[-1].train_loss

    def to_csv(self, wall_clock: bool = False) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            elapsed = r.elapsed_ms if wall_clock else 0
            lines.append(
                f"{r.pass_index},{r.iteration},{r.train_loss!r},"
                f"{r.log10_loss!r},{r.grad_sq_norm!r},{r.mistake_rate!r},{elapsed}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path, wall_clock: bool = False) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv(wall_clock=wall_clock))
