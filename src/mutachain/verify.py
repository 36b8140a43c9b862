"""Whole-history verification over pruned intervals.

A verifier replays segments in order: first every structural rule
(links, interval chains, p_lists, transaction roots), then the stateful
transaction rules, stopping at the first violation.  Interval bodies
may legitimately be missing, because deletion is the point: a gap is
accepted only when the permanent spine contains a confirmed delete for
that exact interval.  A replay raises the broken rule's own error, or
``MissingDeleteEvidence`` listing the heights of the unbacked gaps;
``verify_chain`` turns either into a report on the prefix that verified.

The replay runs on an ordinary ``Chain`` with no rule relaxed: a
restricted delete may count a gap as holding duplicates only as far as
the gap's header shows (see ``Chain._check_duplicates``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingDeleteEvidence, MutachainError
from .ledger import Chain, ChainParams


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    height: int                 # last height accepted (-1 when genesis failed)
    present: int                # intervals with bodies on hand
    deleted: int                # intervals absent, backed by delete evidence
    problem: str | None = None

    def __str__(self) -> str:
        if self.ok:
            return (f"valid: height {self.height}, {self.present} intervals "
                    f"present, {self.deleted} deleted")
        return f"invalid at height {self.height + 1}: {self.problem}"


def replay_segments(segments, params: ChainParams | None = None, *,
                    onto: Chain | None = None,
                    check_signatures: bool = True) -> Chain:
    """The one replay path for stored, synced and audited histories:
    rebuild a chain from (interval_blocks, permanent_block) pairs, then
    require a confirmed delete for every absent interval.

    ``segments`` may be any iterable; it is read once.  ``None``
    interval blocks mark a gap.  The first rule violation raises that
    rule's error, and gaps no delete backs raise
    ``MissingDeleteEvidence``.  In the chain returned every gap has its
    delete, so no gap can stand in for a duplicate any more.

    With ``onto`` the segments extend that live chain in place instead
    of a fresh one, all or nothing: on an error it is left exactly as
    it was.  Its own gaps already carry their deletes, so
    only the new heights are checked for evidence.

    ``check_signatures=False`` skips the Ed25519 checks and nothing else;
    only ``BlockStore.load_chain`` passes it, for a history its own node
    accepted (see ``store``).
    """
    if onto is None:
        return _replay(Chain(params), segments, check_signatures)
    with onto.stage():
        _replay(onto, segments, check_signatures)
        onto.commit()
    return onto


def _replay(chain: Chain, segments, check_signatures: bool) -> Chain:
    start = chain.height + 1
    for removable_blocks, block in segments:
        if removable_blocks is None and block.header.interval_len > 0:
            chain.append_gap_segment(block, check_signatures=check_signatures)
        else:
            chain.append_segment(removable_blocks or (), block,
                                 check_signatures=check_signatures)
    unbacked = gaps_without_evidence(chain, start)
    if unbacked:
        raise MissingDeleteEvidence(unbacked)
    return chain


def gaps_without_evidence(chain: Chain, start: int) -> list[int]:
    heights = []
    for x in range(start, chain.height + 1):
        rec = chain.interval_record(x)
        if rec.blocks is None and rec.length > 0 and chain.delete_record(x) is None:
            heights.append(x)
    return heights


def verify_chain(segments, params: ChainParams | None = None) -> VerifyReport:
    """Full verification of a stored or received history."""
    chain = Chain(params)   # held here: on an error it is the prefix that verified
    try:
        _replay(chain, segments, check_signatures=True)
    except MutachainError as exc:
        accepted = chain.height
        if isinstance(exc, MissingDeleteEvidence):
            # judged after the whole replay: the first unbacked gap fails
            accepted = exc.intervals[0] - 1
        return chain_report(chain, problem=f"{type(exc).__name__}: {exc}",
                            height=accepted)
    return chain_report(chain)


def chain_report(chain: Chain, problem: str | None = None,
                 height: int | None = None) -> VerifyReport:
    """Report on a replayed chain up to ``height``, its tip by default;
    ``problem`` names the rule that stopped it."""
    height = chain.height if height is None else height
    absent = [chain.interval_record(x).blocks is None for x in range(height + 1)
              if chain.interval_record(x).length > 0]
    return VerifyReport(ok=problem is None, height=height,
                        present=absent.count(False), deleted=absent.count(True),
                        problem=problem)
