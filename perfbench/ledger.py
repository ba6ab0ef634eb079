"""Reference-ledger check: is the final stable output exactly the reference's?

A ledger is a list of replica-independent rows ``(stable_seq, repr(stime),
payload items)`` as :func:`repro.live.worker.stable_ledger_rows` extracts
them.  The reference comes from an independent run of the same job (another
topology, no failures, or the other backend); the checked ledger must carry
every reference row, unchanged, at the same ``stable_seq``.

Two kinds of defect are kept apart:

* *missing or wrong* rows are counted (``failed``), so a stalled
  reconciliation shows up as a share of the workload rather than as a
  boolean;
* a *duplicate* or *out-of-order* row is a hard failure of the run, whatever
  the count says.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LedgerCheck:
    """Outcome of comparing one stable ledger against its reference."""

    attempted: int
    missing: int
    wrong: int
    extra: int
    duplicates: int
    reordered: int

    @property
    def failed(self) -> int:
        """Reference rows the ledger lost or changed, plus rows it invented."""
        return self.missing + self.wrong + self.extra

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ordered(self) -> bool:
        """No duplicate and no reordering: the conditions that fail a run outright."""
        return self.duplicates == 0 and self.reordered == 0

    @property
    def exact(self) -> bool:
        return self.ordered and self.failed == 0 and self.attempted > 0


def check_ledger(rows: list, reference: list) -> LedgerCheck:
    """Compare ``rows`` (the run's stable ledger) with ``reference``.

    A row is a duplicate when its ``stable_seq`` or its payload already
    appeared earlier in the ledger; it is reordered when its ``stable_seq``
    or its stime is smaller than its predecessor's.
    """
    duplicates = reordered = 0
    seen_seq: set = set()
    seen_payload: set = set()
    previous = None
    by_seq: dict = {}
    for row in rows:
        seq, stime, payload = row
        if seq in seen_seq or payload in seen_payload:
            duplicates += 1
        seen_seq.add(seq)
        seen_payload.add(payload)
        if previous is not None and (
            seq < previous[0] or float(stime) < float(previous[1])
        ):
            reordered += 1
        previous = row
        by_seq.setdefault(seq, row)
    missing = wrong = 0
    for row in reference:
        got = by_seq.pop(row[0], None)
        if got is None:
            missing += 1
        elif got != row:
            wrong += 1
    return LedgerCheck(
        attempted=len(reference),
        missing=missing,
        wrong=wrong,
        extra=len(by_seq),
        duplicates=duplicates,
        reordered=reordered,
    )
