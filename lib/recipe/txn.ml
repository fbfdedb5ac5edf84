(* Failure-atomic multi-key transactions over the RECIPE-converted indexes
   (DESIGN.md §14).

   A transaction stages ordinary index operations through the usual
   {!Persist} combinators; while it is open the combinators snapshot the
   pre-image of every cache line they dirty ({!Persist.txn_begin}).  The
   protocol over the per-domain write-ahead log built on {!Pmem.Words} is
   undo logging with a strict write-ahead rule:

   1. {b begin}: write the record header (tid, entry count 0, coordinated
      flag), flush, fence; then write the state word to [Prepared], flush,
      fence.  From here until the flip, a crash rolls back whatever the
      log has captured.
   2. {b append} (write-ahead, once per dirtied line, from the capture
      hook *before* the triggering store executes): serialize the
      pre-image entry, flush its lines, fence; bump the header's entry
      count, flush, fence.  Deferral does not protect a staged store from
      early durability — index code issues raw line flushes
      (persist-before-publish of a neighboring slot on the same line), so
      the only safe order is entry-durable-before-store-executes.  A crash
      between the entry flush and the count flush simply drops the entry:
      its store has not run yet.
   3. {b data flush}: flush every data line the transaction dirtied — with
      deferral on these are exactly the deferred commit lines, so
      {!Persist.epoch_advance} flushes each once and fences once.
   4. {b flip}: write the state word to [Committed], flush, fence — the
      commit point.  A crash strictly before the flip's fence finds
      [Prepared] and rolls the undo images back; a crash after finds
      [Committed] (or a later transaction's record) and keeps the data,
      which step 3 already persisted.

   Cross-shard transactions coordinate with presumed-abort two-phase
   commit: every participant runs steps 1–3, the last one to prepare
   persists a commit decision in the global {!Decision} table, and only
   then does each participant flip its own record.  Recovery of a
   [Prepared] record therefore consults the decision table when the record
   is marked coordinated: committed decision → roll forward, anything else
   → roll back.  Decision slots are released only after every participant
   has flipped, so a [Prepared] record's tid can never have been recycled.

   The WAL state word lives alone on its own cache line: flushing header
   or entry lines can never accidentally persist a state transition, and
   vice versa.

   Simulation caveat: {!Pmem.Refs} slots hold boxed OCaml values with no
   word serialization, so their pre-images ride in volatile restore
   closures ({!Persist.Undo_refs}) rather than in WAL words; the WAL entry
   records the line so the persistent record still names everything the
   rollback touches.  Word lines — everything the nine indexes put on the
   commit path — restore from the WAL itself: the rollback closure reads
   the pre-image back out of the persisted WAL words, so the campaign
   genuinely exercises the durability ordering of step 1. *)

(* --- WAL layout ---------------------------------------------------------

   word 0..7   header line: [tid; entry count; coordinated flag]
   word 8      state word, alone on its line: 0 Idle / 1 Prepared /
               2 Committed
   word 16+    entries, 10 words each:
               [global line id; kind lor (npre lsl 1); pre[0..7]]
               kind 0 = Words (pre words valid), 1 = Refs (volatile stash) *)

let hdr_tid = 0
let hdr_count = 1
let hdr_coord = 2
let state_word = 8
let entry_base = 16
let entry_words = 10
let max_entries = 512
let wal_len = entry_base + (max_entries * entry_words)
let st_idle = 0
let st_prepared = 1
let st_committed = 2

exception Overflow
(** The transaction dirtied more than [max_entries] distinct lines. *)

let s_wal = Obs.Site.v ~index:"txn" "wal/entries"
let s_state = Obs.Site.v ~index:"txn" "wal/state"

(* The commit flip's own flush and fence, apart from the other state-word
   writes so that a mutation test can drop exactly this pair
   ({!Pmem.Hook.drop}). *)
let s_commit = Obs.Site.v ~index:"txn" "wal/commit"
let s_rollback = Obs.Site.v ~index:"txn" "wal/rollback"
let s_decision = Obs.Site.v ~index:"txn" "decision"

type t = {
  words : Pmem.Words.t;
  mutable restores : (unit -> unit) list;
      (* volatile mirror of the logged undo entries, most recent first.
         Words closures read their pre-image back from the WAL at
         execution time; Refs closures carry the boxed values. *)
  mutable overflowed : bool;
      (* the open transaction dirtied more than [max_entries] lines; its
         tail is captured only volatilely, so {!seal} must refuse to
         commit (the caller rolls back and aborts). *)
}

(* Every WAL ever created, so post-crash recovery can scan records left by
   worker domains that no longer exist.  The campaign's fresh_env calls
   {!clear_registry} between states. *)
let reg_mu = Mutex.create ()
let registry : t list ref = ref []

let next_tid = Atomic.make 1
let[@pm.volatile] fresh_tid () = Atomic.fetch_and_add next_tid 1

(* DRAM-side bookkeeping, not PM state. *)
let[@pm.volatile] set_restores t rs = t.restores <- rs
let[@pm.volatile] set_overflowed t v = t.overflowed <- v
let[@pm.volatile] register t = registry := t :: !registry

let make_wal () =
  let words = Pmem.Words.make ~name:"txn-wal" wal_len 0 in
  (* Persist the all-idle baseline so a crash before the first transaction
     recovers an explicitly Idle record. *)
  Pmem.Words.clwb_all ~site:s_wal words;
  Pmem.sfence ~site:s_wal ();
  let t = { words; restores = []; overflowed = false } in
  Mutex.lock reg_mu;
  register t;
  Mutex.unlock reg_mu;
  t

let wal_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(** The calling domain's WAL, created and registered on first use. *)
let[@pm.volatile] domain_wal () =
  let cell = Domain.DLS.get wal_key in
  match !cell with
  | Some t -> t
  | None ->
      let t = make_wal () in
      cell := Some t;
      t

(* --- the coordinator decision table (presumed-abort 2PC) -----------------

   A global [Pmem.Words] region of [n_slots] two-word entries
   [tid; decision]; an entry sits at an even offset so one clwb covers
   both words.  All words are declared atomic: the submitter claims and
   releases slots while shard workers write and read decisions, and the
   sanitizer's race checker must see those cross-domain accesses as
   ordered. *)

module Decision = struct
  let n_slots = 64

  (* Built at first use, so the region takes its shadow image from the
     mode in effect then.  The first claims race from every client domain:
     the table is built under [mu] and published only once complete, so a
     domain that reads [Some w] without the lock sees a whole table. *)
  let table : Pmem.Words.t option Atomic.t = Atomic.make None
  let mu = Mutex.create ()

  let make () =
    let w =
      Pmem.Words.make ~name:"txn-decisions"
        ~atomic_words:(List.init (n_slots * 2) Fun.id)
        (n_slots * 2) 0
    in
    Pmem.Words.clwb_all ~site:s_decision w;
    Pmem.sfence ~site:s_decision ();
    w

  let words () =
    match Atomic.get table with
    | Some w -> w
    | None ->
        Mutex.protect mu (fun () ->
            match Atomic.get table with
            | Some w -> w
            | None ->
                let w = make () in
                Atomic.set table (Some w);
                w)

  (** Claim a free slot for [tid] (decision = abort, the presumption).
      [None] when all slots are in flight — the router backpressures. *)
  let claim ~tid =
    let w = words () in
    Mutex.lock mu;
    let slot = ref None in
    (try
       for s = 0 to n_slots - 1 do
         if Pmem.Words.get w (2 * s) = 0 then begin
           Pmem.Words.set w (2 * s) tid;
           Pmem.Words.set w ((2 * s) + 1) 0;
           slot := Some s;
           raise Exit
         end
       done
     with Exit -> ());
    Mutex.unlock mu;
    (match !slot with
    | Some s ->
        Pmem.Words.clwb ~site:s_decision w (2 * s);
        Pmem.sfence ~site:s_decision ()
    | None -> ());
    !slot

  (** Persist the commit decision for [slot] — called by the last
      participant to prepare, strictly before any participant flips. *)
  let commit ~slot =
    let w = words () in
    Pmem.Words.set w ((2 * slot) + 1) 1;
    Pmem.Words.clwb ~site:s_decision w (2 * slot);
    Pmem.sfence ~site:s_decision ()

  (** Free [slot] after every participant has flipped; its tid can only be
      recycled once no Prepared record references it. *)
  let release ~slot =
    let w = words () in
    Pmem.Words.set w (2 * slot) 0;
    Pmem.Words.set w ((2 * slot) + 1) 0;
    Pmem.Words.clwb ~site:s_decision w (2 * slot);
    Pmem.sfence ~site:s_decision ()

  (** Did [tid] reach a durable commit decision? *)
  let committed ~tid =
    let w = words () in
    let found = ref false in
    for s = 0 to n_slots - 1 do
      if Pmem.Words.get w (2 * s) = tid && Pmem.Words.get w ((2 * s) + 1) = 1
      then found := true
    done;
    !found

  (* Recovery wipes the table: after every WAL has been rolled, no
     Prepared record survives, so no decision is needed again. *)
  let reset () =
    let w = words () in
    for i = 0 to (n_slots * 2) - 1 do
      Pmem.Words.set w i 0
    done;
    Pmem.Words.clwb_all ~site:s_decision w;
    Pmem.sfence ~site:s_decision ()
end

(** Drop every registered WAL and wipe the decision table — the crash
    campaign's fresh-state reset.  Worker domains of the next server
    create and register fresh WALs on first use. *)
let[@pm.volatile] clear_registry () =
  Mutex.lock reg_mu;
  (registry := []);
  Mutex.unlock reg_mu;
  if Option.is_some (Atomic.get Decision.table) then Decision.reset ()

(* --- prepare / flip / rollback ------------------------------------------ *)

(* [@pm.deferred]: the restore closures flush the line they rewrite but
   leave the fence to rollback_prepared / volatile_rollback, which order
   all restores with one sfence before retiring the record. *)
let[@pm.deferred] restore_of_entry t e = function
  | Persist.Undo_words { w; lo; pre; _ } ->
      let off = entry_base + (e * entry_words) + 2 in
      let n = Array.length pre in
      fun () ->
        for k = 0 to n - 1 do
          Pmem.Words.set w (lo + k) (Pmem.Words.get t.words (off + k))
        done;
        Pmem.Words.clwb ~site:s_rollback w lo
  | Persist.Undo_refs { restore; _ } -> restore

(** Step 1: open the commit record.  After this returns, the record is
    durably [Prepared] with zero entries; a crash from here to the flip's
    fence rolls back whatever {!append} has logged by then.  The WAL is
    left [Committed] or [Idle] by the previous transaction — overwriting
    the header first is safe because the state word lives alone on its own
    line and only leaves its persisted value when that line is flushed,
    after the fence that made the new header durable. *)
let[@pm.deferred] begin_txn t ~tid ~coordinated =
  let w = t.words in
  set_restores t [];
  set_overflowed t false;
  Pmem.Words.set w hdr_tid tid;
  Pmem.Words.set w hdr_count 0;
  Pmem.Words.set w hdr_coord (if coordinated then 1 else 0);
  Pmem.Words.clwb ~site:s_wal w hdr_tid;
  Pmem.sfence ~site:s_wal ();
  Pmem.Words.set w state_word st_prepared;
  Pmem.Words.clwb ~site:s_state w state_word;
  Pmem.sfence ~site:s_state ()

(** Step 2, the write-ahead append, called from the {!Persist} capture
    hook strictly *before* the store that dirtied the line executes.
    Serialize the entry, flush its lines, fence; then publish it by
    bumping the durable entry count (its own flush + fence — a count that
    runs ahead of its entry could make recovery restore garbage).  Once
    the count's fence returns, the store may hit PM in any order: rollback
    has its pre-image.

    A transaction past [max_entries] keeps capturing volatilely but stops
    logging; {!seal} then refuses to commit it. *)
let[@pm.deferred] append t u =
  if t.overflowed then ()
  else
    let w = t.words in
    let e = Pmem.Words.get w hdr_count in
    if e >= max_entries then set_overflowed t true
    else begin
      let off = entry_base + (e * entry_words) in
      (match u with
      | Persist.Undo_words { line; pre; _ } ->
          Pmem.Words.set w off line;
          Pmem.Words.set w (off + 1) (Array.length pre lsl 1);
          Array.iteri (fun k v -> Pmem.Words.set w (off + 2 + k) v) pre;
          for k = 2 + Array.length pre to entry_words - 1 do
            Pmem.Words.set w (off + k) 0
          done
      | Persist.Undo_refs { line; _ } ->
          Pmem.Words.set w off line;
          Pmem.Words.set w (off + 1) 1;
          for k = 2 to entry_words - 1 do
            Pmem.Words.set w (off + k) 0
          done);
      (* A 10-word entry straddles at most two lines; flush each.  The
         state line (words 8..15) sits below [entry_base] and is never
         touched here. *)
      for l = off / 8 to (off + entry_words - 1) / 8 do
        Pmem.Words.clwb ~site:s_wal w (l * 8)
      done;
      Pmem.sfence ~site:s_wal ();
      Pmem.Words.set w hdr_count (e + 1);
      Pmem.Words.clwb ~site:s_wal w hdr_tid;
      Pmem.sfence ~site:s_wal ();
      set_restores t (restore_of_entry t e u :: t.restores)
    end

(** Commit-time check, between the last member and the data flush.

    @raise Overflow when the transaction dirtied more than [max_entries]
    lines: part of its undo was never logged, so it must not commit (the
    caller rolls back the volatile state and retires the record). *)
let seal t = if t.overflowed then raise Overflow

(** Durably retire the record to [Idle] — the abort path of a transaction
    that never flipped (overflow, or a 2PC peer aborted before this
    participant prepared). *)
let retire t =
  set_restores t [];
  Pmem.Words.set t.words state_word st_idle;
  Pmem.Words.clwb ~site:s_state t.words state_word;
  Pmem.sfence ~site:s_state ()

(** Step 3: the commit point.  The caller has already flushed and fenced
    every data line (step 2); this flips the record and makes the flip
    durable with the commit-record fence — the fence a mutation test drops
    at [txn/wal/commit] and the crash campaign must catch. *)
let flip_commit t =
  let w = t.words in
  Pmem.Words.set w state_word st_committed;
  Pmem.Words.clwb ~site:s_commit w state_word;
  Pmem.sfence ~site:s_commit ()
(* [t.restores] is deliberately left in place until the next begin_txn
   clears it: if the flip's flush+fence was dropped (the mutation) the
   persisted state is still [Prepared], and recovery must be able to roll
   the — acknowledged! — transaction back so the campaign sees the loss. *)

(** Roll a [Prepared] record back: write every captured pre-image over the
    data lines, flush them, fence, then durably retire the record to
    [Idle].  Oldest capture last — restores are applied in reverse capture
    order, though with first-capture-wins images any order lands on the
    same pre-state. *)
let rollback_prepared t =
  List.iter (fun restore -> restore ()) t.restores;
  set_restores t [];
  (* The restores flushed each line they rewrote; one fence orders them
     all before the record retires. *)
  Pmem.Words.set t.words state_word st_idle;
  Pmem.Words.clwb ~site:s_rollback t.words state_word;
  Pmem.sfence ~site:s_rollback ()

(** Abort a transaction that never flipped (overflow, or a 2PC peer
    failed): undo the staged stores in volatile memory.  The
    restored lines are flushed eagerly — they may already have been
    ordering-flushed during staging — and one fence closes the abort when
    anything was rewritten. *)
let volatile_rollback undo =
  let n =
    List.fold_left
      (fun n u ->
        (match u with
        | Persist.Undo_words { w; lo; pre; _ } ->
            Array.iteri (fun k v -> Pmem.Words.set w (lo + k) v) pre;
            Pmem.Words.clwb ~site:s_rollback w lo
        | Persist.Undo_refs { restore; _ } -> restore ());
        n + 1)
      0 (List.rev undo)
  in
  if n > 0 then Pmem.sfence ~site:s_rollback ()

(* --- recovery ------------------------------------------------------------ *)

(** Scan every registered WAL and resolve what the crash left, *before*
    the per-partition structural recovery runs (the rolled-back pre-images
    must be in place when the indexes repair themselves).  Returns the
    {!Recovery.txn_stats} tally; resets the decision table at the end —
    once no record is [Prepared], no decision is needed again. *)
let recover_all () =
  Mutex.lock reg_mu;
  let wals = !registry in
  Mutex.unlock reg_mu;
  let stats =
    List.fold_left
      (fun acc t ->
        match Pmem.Words.get t.words state_word with
        | s when s = st_prepared ->
            let coordinated = Pmem.Words.get t.words hdr_coord = 1 in
            let tid = Pmem.Words.get t.words hdr_tid in
            if coordinated && Decision.committed ~tid then begin
              (* Data lines were persisted at prepare; just retire. *)
              set_restores t [];
              Pmem.Words.set t.words state_word st_idle;
              Pmem.Words.clwb ~site:s_state t.words state_word;
              Pmem.sfence ~site:s_state ();
              { acc with Recovery.rolled_forward = acc.Recovery.rolled_forward + 1 }
            end
            else begin
              rollback_prepared t;
              { acc with Recovery.rolled_back = acc.Recovery.rolled_back + 1 }
            end
        | s when s = st_committed ->
            set_restores t [];
            Pmem.Words.set t.words state_word st_idle;
            Pmem.Words.clwb ~site:s_state t.words state_word;
            Pmem.sfence ~site:s_state ();
            { acc with Recovery.rolled_forward = acc.Recovery.rolled_forward + 1 }
        | _ -> { acc with Recovery.idle = acc.Recovery.idle + 1 })
      Recovery.txn_zero wals
  in
  Decision.reset ();
  stats
