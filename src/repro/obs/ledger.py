"""The privacy-budget ledger: one event per composition step.

A final ε says nothing about *how* the budget was spent.  The ledger turns
the Theorem 3 accountant into a replayable trace: every time the
accountant records a composition step it appends an event carrying the
step index, the running ε at the ledger's δ, and a summary of the α-curve
(the optimising Rényi order and the cumulative γ there).  The ε in each
event is computed from the accountant's cached γ curve through the same
array conversion as :meth:`repro.dp.accountant.PrivacyAccountant.epsilon`,
so the final ledger entry equals ``accountant.epsilon(delta)``
bit-for-bit; :meth:`repro.core.trainer.DPGNNTrainer.train` checks this at
the end of every run.

Attach a ledger with ``accountant.attach_ledger(PrivacyLedger(delta))``;
the pipelines do this automatically when observability is enabled.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.dp.rdp import best_epsilon
from repro.errors import PrivacyError

__all__ = ["PrivacyLedger"]


class PrivacyLedger:
    """Records the ε trajectory of a :class:`PrivacyAccountant`.

    Args:
        delta: the δ at which running ε values are reported.
        sink: optional callable receiving each event dict (e.g.
            :meth:`repro.obs.record.RunRecorder.record_event`).
        logger: optional :class:`repro.obs.logging.Logger`; events are
            mirrored at debug level.
    """

    def __init__(
        self,
        delta: float,
        *,
        sink: Callable[[dict[str, Any]], Any] | None = None,
        logger=None,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise PrivacyError(f"delta must be in (0, 1), got {delta}")
        self.delta = float(delta)
        self.events: list[dict[str, Any]] = []
        self._sink = sink
        self._logger = logger

    def record_step(self, accountant) -> dict[str, Any]:
        """Append the event for the accountant's current step count."""
        epsilon, alpha = best_epsilon(
            accountant.rdp_curve(), self.delta, accountant.alphas
        )
        event = {
            "type": "ledger",
            "step": int(accountant.steps),
            "epsilon": float(max(epsilon, 0.0)),
            "delta": self.delta,
            "best_alpha": float(alpha),
            "gamma": accountant.rdp(alpha),
        }
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        if self._logger is not None:
            self._logger.debug(
                "privacy_step",
                step=event["step"],
                epsilon=event["epsilon"],
                best_alpha=event["best_alpha"],
            )
        return event

    @property
    def final_epsilon(self) -> float:
        """The last recorded running ε (0.0 before any step)."""
        return self.events[-1]["epsilon"] if self.events else 0.0

    @property
    def steps(self) -> int:
        """How many composition steps have been recorded."""
        return len(self.events)
