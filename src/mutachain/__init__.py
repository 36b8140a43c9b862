"""A blockchain whose block intervals can be verifiably deleted.

The permanent spine carries registrations, deletion bookkeeping, and
consent records; erasable data lives in removable blocks grouped into
intervals between spine blocks.  A deletion is announced, duplicated
where other parties' data is affected, authorized on the spine, and
only then physically erased, so a verifier can replay the full history
and justify every byte that is gone.
"""

from .blocks import (
    MAX_P_LIST,
    PermanentBlock,
    PermanentHeader,
    RemovableBlock,
    RemovableHeader,
    build_permanent_block,
    build_removable_block,
    compute_p_list,
    compute_tx_root,
    header_overhead,
)
from .consent import ConsentChain, InfoRecord, labels_for_mask, mask_for_labels
from .crypto import (
    HASH_SIZE,
    NULL_HASH,
    PUBKEY_SIZE,
    SIGNATURE_SIZE,
    KeyPair,
    digest,
    keypair_from_seed,
    sign_payload,
    verify_signature,
)
from .ledger import (
    Chain,
    ChainParams,
    DeleteRecord,
    IntervalRecord,
    IntervalStatus,
    PrepareRecord,
)
from .mempool import MAX_BLOCK_TXS, Mempool, accept_all
from .scenario import Scenario, entity_keypair, run_scenario
from .simnet import SimNet, SimNode
from .store import BlockStore
from .tx import (
    OutPoint,
    Transaction,
    TxKind,
    build_consent,
    build_delete,
    build_info,
    build_prepare,
    build_register,
    build_removable,
    validate_stateless,
)
from .verify import VerifyReport, replay_segments, verify_chain

__version__ = "0.1.0"

__all__ = [
    "MAX_P_LIST", "MAX_BLOCK_TXS",
    "PermanentBlock", "PermanentHeader", "RemovableBlock", "RemovableHeader",
    "build_permanent_block", "build_removable_block",
    "compute_p_list", "compute_tx_root", "header_overhead",
    "ConsentChain", "InfoRecord", "labels_for_mask", "mask_for_labels",
    "HASH_SIZE", "NULL_HASH", "PUBKEY_SIZE", "SIGNATURE_SIZE",
    "KeyPair", "digest", "keypair_from_seed", "sign_payload",
    "verify_signature",
    "Chain", "ChainParams", "DeleteRecord", "IntervalRecord",
    "IntervalStatus", "PrepareRecord",
    "Mempool", "accept_all",
    "Scenario", "entity_keypair", "run_scenario",
    "SimNet", "SimNode",
    "BlockStore",
    "OutPoint", "Transaction", "TxKind",
    "build_consent", "build_delete", "build_info", "build_prepare",
    "build_register", "build_removable",
    "validate_stateless",
    "VerifyReport", "replay_segments", "verify_chain",
    "__version__",
]
