(* pmlint fixture: a transaction commit-record flip whose flush + fence
   was dropped (the bug class of the [txn/wal/commit] drop mutation) — the state
   word becomes visible as [Committed] without a dominating clwb, so the
   persisted record can stay [Prepared] and recovery rolls an
   acknowledged transaction back.  Parsed by the linter, never
   compiled. *)

module W = Pmem.Words

let st_committed = 2

let bad_flip wal =
  W.set wal 8 st_committed;
  W.sanitize_publish wal 8

let good_flip ?site wal =
  W.set wal 8 st_committed;
  W.clwb ?site wal 8;
  Pmem.sfence ?site ();
  W.sanitize_publish wal 8
