(* Sharded request router with epoch-batched durability.

   Keys are hash-partitioned across [shards] partitions, each owned by one
   worker domain draining a bounded MPSC queue.  A worker dequeues up to
   [batch] operations, applies them against its partition, and *parks*
   their acks in its open epoch; an {!Epoch_ctl} controller decides when to
   {!Recipe.Persist.epoch_advance}, after which every parked ack releases
   (DESIGN.md §12).  The configured {!persist_mode} only picks the
   controller and whether commits defer their fence:

   - [Epoch _]: buffered durable linearizability.  Applies are fence-free
     (commit lines deferred), and the advance flushes each dirty line once
     + one fence.  The controller closes an epoch the moment the queue is
     empty, so at low load the mode degenerates to per-op persistence;
     under load epochs grow to a cap, preserving fence amortization.
     [{ max_ops = 1 }] closes after every dequeued batch — one fence per
     batch, the classic group commit (DESIGN.md §10);
   - [Per_op]: the ablation.  Every commit flushes and fences inline and
     the controller closes after every batch, so the advance has nothing
     left to flush.

   In every mode an acknowledged write is durable; an unacknowledged write
   may be lost wholesale by a crash, which is the group-commit contract.

   Partition exclusivity is the concurrency keystone: a partition is only
   ever written by its shard worker, so index operations never contend
   across workers, and a worker that crashes mid-operation (fault
   injection) cannot leave a lock that another worker spins on.  The one
   exception is read-only: a request made only of [Get]s on partitions
   whose lookup takes no lock is answered on the submitting domain,
   checked by each shard's persistence sequence (see [direct_read] and
   DESIGN.md §12).

   Backpressure is explicit: a request whose operations do not all fit in
   their target shards' queues is rejected with [Overloaded] having
   enqueued nothing — shard mutexes are taken in ascending id order, every
   capacity check passes before the first push, so an op is never lost or
   double-applied on the rejection path (asserted by the backpressure
   test). *)

(* One key-partition of the service: an index instance restricted to the
   keys that hash to its shard.  [p_scan] is [None] for unordered (hash)
   partitions.  [p_insert] has upsert semantics where the index supports
   update, put-if-absent otherwise.  [p_lockfree_lookup] says [p_lookup]
   takes no lock, never waits on a writer and never writes, so it may run
   on a submitting domain beside the shard worker (a direct read).
   [p_key_ok k] says the index can hold [k] at all (hash indexes take only
   keys that map to a positive integer); a request naming any other key is
   answered [Bad_request] before anything is queued. *)
type partition = {
  p_name : string;
  p_insert : string -> int -> bool;
  p_lookup : string -> int option;
  p_lockfree_lookup : bool;
  p_key_ok : string -> bool;
  p_delete : string -> bool;
  p_scan : (string -> int -> (string * int) list) option;
  p_recover : unit -> unit;
  p_sweep : (unit -> Recipe.Recovery.stats) option;
}

(** How applied operations become durable (and thus ackable). *)
type persist_mode =
  | Per_op  (** every commit flushes + fences inline (the ablation) *)
  | Epoch of Epoch_ctl.cfg
      (** fence-free applies; acks parked until the adaptive controller
          advances the epoch (flush deferred lines + one fence) *)

let mode_name = function Per_op -> "per_op" | Epoch _ -> "epoch"

type config = {
  shards : int;
  batch : int;  (** max operations dequeued (and applied) together *)
  queue_cap : int;  (** per-shard queue bound, in operations *)
  mode : persist_mode;
}

let default_config =
  { shards = 2; batch = 32; queue_cap = 256; mode = Epoch Epoch_ctl.default_cfg }

(* FNV-1a, folded to 62 bits so shard selection stays positive. *)
let hash_key k =
  let h = ref 0x4BF29CE484222325 (* FNV offset basis, top bit dropped *) in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001B3)
    k;
  !h land max_int

let shard_of_key cfg k = hash_key k mod cfg.shards

(* --- request completion -------------------------------------------------- *)

(* Scan results arrive per shard; the submitter merges once all have
   contributed.  [unsupported] latches if any partition lacks scan. *)
type scan_acc = {
  want : int;
  parts : (string * int) list array;
  mutable unsupported : bool;
}

(* A transaction's member replies accumulate here: participants write
   disjoint member indices during staging (ordered before the submitter's
   read by the completion mutex), and any participant that aborts latches
   [t_failed] — the whole batch then reports [Txn_aborted]. *)
type txn_acc = {
  t_replies : Wire.reply array;  (* one per txn member, in member order *)
  mutable t_failed : bool;
}

type slot =
  | Unfilled
  | Direct of Wire.reply
  | Scan_parts of scan_acc
  | Txn_parts of txn_acc

(* Volatile 2PC coordination cell for one cross-shard transaction (the
   durable commit decision lives in {!Recipe.Txn.Decision} slot [cslot]).
   The last participant to prepare persists the decision and wakes the
   rest; {!kill} aborts any still-pending cell so no participant waits on
   a dead peer. *)
type coord = {
  cmu : Mutex.t;
  ccond : Condition.t;
  tid : int;
  cslot : int;
  total : int;  (* participating shards *)
  mutable prepared : int;
  mutable decision : int;  (* 0 pending | 1 commit | 2 abort *)
}

(* Completion cell shared by the submitter and every worker holding one of
   the request's items.  [pmu] is a leaf lock: it is only ever taken while
   holding no shard mutex (submit) or after releasing it (workers). *)
type pending = {
  pmu : Mutex.t;
  pcond : Condition.t;
  slots : slot array;
  mutable remaining : int;
  mutable aborted : bool;  (* a contributing worker crashed / shut down *)
}

(* What a queued item asks its shard worker to do: one ordinary operation,
   or one shard's share of a transaction (executed alone, never inside an
   ordinary batch — the txn brings its own fences). *)
type payload =
  | Single of Wire.op
  | Txn_part of {
      tp_ops : (int * Wire.op) list;  (* (member index, op), member order *)
      tp_acc : txn_acc;
      tp_tid : int;
      tp_coord : coord option;  (* [None]: sole participant, no 2PC *)
      tp_lead : bool;  (* exactly one participant counts the txn *)
    }

(* [sp] is the request-lifecycle span for this routed op: a constant [None]
   when spans are disabled, so the hot path allocates no span state and only
   ever pays option-pattern branches. *)
type item = { pl : payload; opi : int; pend : pending; sp : Obs.Span.t option }

(* --- shards -------------------------------------------------------------- *)

type shard = {
  sid : int;
  part : partition;
  smu : Mutex.t;
  nonempty : Condition.t;
  ring : item option array;
  mutable head : int;
  mutable len : int;
  mutable stopping : bool;  (* drain remaining work, then exit *)
  mutable dead : bool;  (* crashed: fail remaining work, reject new *)
  seq : int Atomic.t;
      (* Persistence sequence: odd from just before the worker applies a
         write until the fence that makes it durable, even otherwise, and
         -1 (odd for good) once the shard is stopping or dead.  Only the
         worker advances it, by compare-and-set, so it never overwrites
         the -1 that [stop]/[kill] store. *)
  m_depth : Obs.Hist.t;  (* queue depth sampled at enqueue *)
  m_batch : Obs.Hist.t;  (* operations per executed batch *)
  m_eops : Obs.Hist.t;  (* operations released per epoch advance *)
  (* Worker-only writes, unlocked metric-grade reads (stats endpoint). *)
  mutable pending_acks : int;  (* applied-but-unacked ops parked right now *)
  mutable last_epoch : int;  (* highest persisted epoch on this shard *)
  (* Per-phase latency (ns), observed at ack time from each op's span; all
     five stay empty while spans are disabled. *)
  m_queue : Obs.Hist.t;
  m_apply : Obs.Hist.t;
  m_epoch : Obs.Hist.t;  (* epoch_wait: parked / batch-tail wait *)
  m_fence : Obs.Hist.t;
  m_sack : Obs.Hist.t;
}

type t = {
  cfg : config;
  shards_ : shard array;
  crashed : bool Atomic.t;
  mutable workers : unit Domain.t list;
  c_ops : Obs.Counter.t;
  c_batches : Obs.Counter.t;
  c_overloaded : Obs.Counter.t;
  c_group_lines : Obs.Counter.t;
  c_epochs : Obs.Counter.t;  (* epoch advances that released >= 1 ack *)
  c_txns : Obs.Counter.t;  (* committed transactions *)
  c_txn_aborted : Obs.Counter.t;  (* aborted transactions *)
  c_direct_gets : Obs.Counter.t;  (* Gets answered on the submitting domain *)
  c_direct_fallbacks : Obs.Counter.t;  (* direct Gets sent to the queue *)
  direct : bool;  (* every partition's lookup is lock-free *)
  m_ack : Obs.Hist.t;  (* submit-to-ack latency, successful requests *)
  coords_mu : Mutex.t;
  mutable live_coords : coord list;  (* in-flight 2PC cells, for [kill] *)
}

let crashed t = Atomic.get t.crashed

let shard_metrics t sid = (t.shards_.(sid).m_depth, t.shards_.(sid).m_batch)
let ack_hist t = t.m_ack
let partitions t = Array.map (fun sh -> sh.part) t.shards_

(* --- completion plumbing ------------------------------------------------- *)

let contribute it sid reply =
  let p = it.pend in
  Mutex.lock p.pmu;
  (match p.slots.(it.opi) with
  | Scan_parts acc -> (
      match reply with
      | Wire.Scanned items -> acc.parts.(sid) <- items
      | Wire.Unsupported -> acc.unsupported <- true
      | _ -> acc.unsupported <- true)
  | Txn_parts acc -> (
      (* Member replies were already written into [acc.t_replies] by the
         participant; this contribution only signals the outcome. *)
      match reply with Wire.Txn_aborted -> acc.t_failed <- true | _ -> ())
  | _ -> p.slots.(it.opi) <- Direct reply);
  p.remaining <- p.remaining - 1;
  if p.remaining = 0 then Condition.broadcast p.pcond;
  Mutex.unlock p.pmu

let abort_item it =
  let p = it.pend in
  Mutex.lock p.pmu;
  p.aborted <- true;
  p.remaining <- p.remaining - 1;
  if p.remaining = 0 then Condition.broadcast p.pcond;
  Mutex.unlock p.pmu

(* Merge per-shard sorted scan fragments: shards hold disjoint keys, so a
   global sort of the concatenation is the global key order. *)
let assemble_scan acc =
  if acc.unsupported then Wire.Unsupported
  else begin
    let all =
      Array.fold_left (fun l p -> List.rev_append p l) [] acc.parts
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    Wire.Scanned (take acc.want all)
  end

(* --- worker -------------------------------------------------------------- *)

let apply part op =
  match op with
  | Wire.Get k -> (
      match part.p_lookup k with Some v -> Wire.Found v | None -> Wire.Absent)
  | Wire.Put (k, v) -> Wire.Done (part.p_insert k v)
  | Wire.Delete k -> Wire.Done (part.p_delete k)
  | Wire.Scan (k, n) -> (
      match part.p_scan with
      | Some scan -> Wire.Scanned (scan k n)
      | None -> Wire.Unsupported)
  | Wire.Stats | Wire.Txn _ ->
      (* Stats is answered at routing time; Txn is split into per-shard
         [Txn_part] payloads before enqueue.  A worker can only see either
         through a future routing bug. *)
      Wire.Unsupported

let pop sh =
  match sh.ring.(sh.head) with
  | None -> assert false
  | Some it ->
      sh.ring.(sh.head) <- None;
      sh.head <- (sh.head + 1) mod Array.length sh.ring;
      sh.len <- sh.len - 1;
      it

(* --- the persistence sequence -------------------------------------------- *)

(* Test-only mutation: skip the odd mark, so a direct read may return a
   write that is applied but not yet fenced.  The read-durability crash
   test must catch it. *)
let mutate_skip_odd_mark = ref false

(* Worker only, before a write touches the partition. *)
let seq_dirty sh =
  let v = Atomic.get sh.seq in
  if v land 1 = 0 && not !mutate_skip_odd_mark then
    ignore (Atomic.compare_and_set sh.seq v (v + 1))

(* Worker only, once every applied write is fenced; before any contribute,
   so a client that got an ack and then reads sees its own write. *)
let seq_clean sh =
  let v = Atomic.get sh.seq in
  if v > 0 && v land 1 = 1 then ignore (Atomic.compare_and_set sh.seq v (v + 1))

let seq_close sh = Atomic.set sh.seq (-1)

(* Abort a pending 2PC cell (crash path); a decision already taken is
   respected — a durably committed transaction must still flip everywhere. *)
let abort_coord co =
  Mutex.lock co.cmu;
  if co.decision = 0 then begin
    co.decision <- 2;
    Condition.broadcast co.ccond
  end;
  Mutex.unlock co.cmu

(* Crash path: declare the whole server dead (a process crash takes every
   shard down), abort every pending cross-shard transaction so no worker
   waits on a peer that will never prepare, and wake all workers so they
   fail-drain their queues. *)
let kill t =
  Atomic.set t.crashed true;
  Array.iter seq_close t.shards_;
  Mutex.lock t.coords_mu;
  let cs = t.live_coords in
  Mutex.unlock t.coords_mu;
  List.iter abort_coord cs;
  Array.iter
    (fun sh ->
      Mutex.lock sh.smu;
      sh.dead <- true;
      Condition.broadcast sh.nonempty;
      Mutex.unlock sh.smu)
    t.shards_

let worker t sh =
  (* Commit deferral is domain-local: each epoch-mode worker opts in for
     itself, so other servers' workers (any mode) are unaffected, and the
     flag dies with the domain.  Per-op mode leaves it off and closes an
     epoch after every batch: its acks take the same park -> advance ->
     release path, and the advance finds nothing left to flush. *)
  let ctl =
    match t.cfg.mode with
    | Per_op -> Epoch_ctl.create { Epoch_ctl.default_cfg with max_ops = 1 }
    | Epoch c ->
        Recipe.Persist.set_group true;
        Epoch_ctl.create c
  in
  let batch_buf = Array.make t.cfg.batch None in
  let replies = Array.make t.cfg.batch Wire.Absent in
  (* Applied-but-unacked (item, reply) pairs parked until their epoch's
     fence, newest first; [sh.pending_acks] mirrors the length for the
     stats endpoint. *)
  let parked = ref [] in
  let parked_n = ref 0 in
  (* Crash path: parked ops were applied but never fenced — they are
     unacked, so aborting them is exactly the open-epoch loss the crash
     contract allows. *)
  let abort_parked () =
    if !parked_n > 0 then begin
      let ps = List.rev !parked in
      parked := [];
      parked_n := 0;
      sh.pending_acks <- 0;
      List.iter (fun (it, _) -> abort_item it) ps
    end
  in
  (* Close the open epoch: flush each deferred line once, one fence, then
     release every parked ack — the only place a single op is acked.  The
     count add happens *before* the contributes: the contribute releases
     the submitter, and the stats endpoint promises that a snapshot taken
     after an ack never undercounts acked ops (the add happens-before the
     submitter's wake via [pmu]).  Self-contained against injected crashes
     — it is called outside the batch exception guard, and a crash
     escaping the worker would strand submitters. *)
  let release_parked () =
    if !parked_n > 0 then begin
      let ps = List.rev !parked in
      let n = !parked_n in
      (* Epoch close: parked wait ends here, flush work begins. *)
      (if Obs.Span.enabled () then
         let ts = Obs.Span.now () in
         List.iter
           (fun (it, _) ->
             match it.sp with
             | Some sp -> sp.Obs.Span.t_epoch <- ts
             | None -> ())
           ps);
      match Recipe.Persist.epoch_advance () with
      | epoch, lines ->
          seq_clean sh;
          parked := [];
          parked_n := 0;
          sh.pending_acks <- 0;
          sh.last_epoch <- epoch;
          Obs.Counter.add t.c_group_lines lines;
          Obs.Counter.incr t.c_epochs;
          (if Obs.Span.enabled () then
             let ts = Obs.Span.now () in
             List.iter
               (fun (it, _) ->
                 match it.sp with
                 | Some sp -> sp.Obs.Span.t_fenced <- ts
                 | None -> ())
               ps);
          Obs.Hist.observe sh.m_eops n;
          Obs.Counter.add t.c_ops n;
          Epoch_ctl.advanced ctl;
          List.iter (fun (it, r) -> contribute it sh.sid r) ps
      | exception e ->
          (* Injected crash at the epoch fence: the whole open epoch is
             abandoned — no parked op was acked, so the crash contract
             holds.  Same cleanup as the mid-batch crash path; the loop
             re-enters, sees [dead], and fail-drains the ring. *)
          (match e with
          | Pmem.Crash.Simulated_crash | Pmem.Hook.Alloc_failed _ -> ()
          | e ->
              Printf.eprintf "kvserve worker %d (epoch fence): %s\n%!" sh.sid
                (Printexc.to_string e));
          Recipe.Persist.group_reset ();
          kill t;
          abort_parked ()
    end
  in
  (* Execute one shard's share of a transaction (DESIGN.md §14): stage the
     members through the ordinary combinators (undo capture on), write the
     per-domain WAL, flush the data lines, then flip the commit record —
     with a 2PC decision in between when the batch spans shards.  Called
     with no locks held, the deferral table drained (release_parked ran)
     and inside the caller's exception guard: an injected crash takes the
     worker's usual kill path.  In per-op mode the worker opts into
     deferral for just this transaction, so member commits stay unflushed
     until the WAL says they may persist. *)
  let exec_txn it tp_ops tp_acc tp_tid tp_coord tp_lead =
    seq_dirty sh;
    let temp_defer = t.cfg.mode = Per_op in
    if temp_defer then Recipe.Persist.set_group true;
    let finish_mode () = if temp_defer then Recipe.Persist.set_group false in
    let wal = Recipe.Txn.domain_wal () in
    (* Open the record before the first member store: every captured line
       write-ahead-logs through [Txn.append] before its store executes, so
       a crash anywhere inside the members rolls back even stores that a
       raw index flush made durable early (line sharing). *)
    Recipe.Txn.begin_txn wal ~tid:tp_tid
      ~coordinated:(match tp_coord with Some _ -> true | None -> false);
    Recipe.Persist.txn_begin ~log:(Recipe.Txn.append wal) ();
    List.iter
      (fun (mi, op) -> tp_acc.t_replies.(mi) <- apply sh.part op)
      tp_ops;
    (match it.sp with
    | Some sp -> sp.Obs.Span.t_applied <- Obs.Span.now ()
    | None -> ());
    let undo = Recipe.Persist.txn_undo_log () in
    let commit_done () =
      Recipe.Persist.txn_end_commit ();
      finish_mode ();
      seq_clean sh;
      (* Count before contributing — the stats no-undercount promise. *)
      Obs.Counter.add t.c_ops (List.length tp_ops);
      if tp_lead then Obs.Counter.incr t.c_txns;
      Obs.Counter.incr t.c_batches;
      (match it.sp with
      | Some sp -> sp.Obs.Span.t_fenced <- Obs.Span.now ()
      | None -> ());
      contribute it sh.sid (Wire.Txn_ok [])
    and abort_done () =
      Recipe.Persist.txn_end_abort ();
      finish_mode ();
      seq_clean sh;
      if tp_lead then Obs.Counter.incr t.c_txn_aborted;
      (match it.sp with
      | Some sp -> sp.Obs.Span.t_fenced <- Obs.Span.now ()
      | None -> ());
      contribute it sh.sid Wire.Txn_aborted
    in
    (match it.sp with
    | Some sp -> sp.Obs.Span.t_epoch <- Obs.Span.now ()
    | None -> ());
    match Recipe.Txn.seal wal with
    | exception Recipe.Txn.Overflow ->
        (* Part of the undo never reached the WAL: roll the staged stores
           back in volatile memory, durably retire the record (it has been
           [Prepared] since begin), and tell any peers to abort.  The
           rollback flushed and fenced every line the members' commits had
           deferred (the table was drained when the transaction began), so
           drop those entries: left in place, the next epoch advance would
           find them clean and fence for nothing. *)
        Recipe.Txn.volatile_rollback undo;
        Recipe.Persist.group_reset ();
        Recipe.Txn.retire wal;
        (match tp_coord with None -> () | Some co -> abort_coord co);
        abort_done ()
    | () -> (
        (* Step 3, the data flush: every line the members dirtied (their
           deferred commit lines) flushed once, one fence. *)
        Obs.Counter.add t.c_group_lines (snd (Recipe.Persist.epoch_advance ()));
        match tp_coord with
        | None ->
            Recipe.Txn.flip_commit wal;
            commit_done ()
        | Some co ->
            Mutex.lock co.cmu;
            co.prepared <- co.prepared + 1;
            if co.prepared = co.total && co.decision = 0 then begin
              (* Last to prepare: persist the commit decision, then wake
                 the peers.  Every participant's data is durable, so the
                 transaction survives any crash from here on. *)
              Recipe.Txn.Decision.commit ~slot:co.cslot;
              co.decision <- 1;
              Condition.broadcast co.ccond
            end;
            while co.decision = 0 do
              Condition.wait co.ccond co.cmu
            done;
            let d = co.decision in
            Mutex.unlock co.cmu;
            if d = 1 then begin
              Recipe.Txn.flip_commit wal;
              commit_done ()
            end
            else begin
              (* A peer failed (or the server crashed before the decision):
                 durable rollback — restore the undo images from the WAL
                 and retire the record. *)
              Recipe.Txn.rollback_prepared wal;
              abort_done ()
            end)
  in
  let running = ref true in
  while !running do
    Mutex.lock sh.smu;
    while sh.len = 0 && not sh.stopping && not sh.dead do
      if !parked_n > 0 then begin
        (* Advance-before-wait: an empty queue with parked acks closes the
           epoch immediately (the controller's empty-queue rule) — never
           sleep on someone's unacknowledged write. *)
        Mutex.unlock sh.smu;
        release_parked ();
        Mutex.lock sh.smu
      end
      else Condition.wait sh.nonempty sh.smu
    done;
    if sh.dead then begin
      (* Fail-drain: every queued op gets an aborted completion so no
         submitter blocks forever; none is applied. *)
      while sh.len > 0 do
        let it = pop sh in
        Mutex.unlock sh.smu;
        abort_item it;
        Mutex.lock sh.smu
      done;
      Mutex.unlock sh.smu;
      abort_parked ();
      running := false
    end
    else if sh.len = 0 (* && stopping *) then begin
      Mutex.unlock sh.smu;
      (* Drain the open epoch before exiting so stop => all applied ops
         acked and durable (campaigns power-fail only after [stop]). *)
      release_parked ();
      running := false
    end
    else begin
      (* A transaction part always runs alone — it brings its own fences
         and completion protocol — so batch formation stops at (or starts
         and ends with) a txn item. *)
      let navail = min t.cfg.batch sh.len in
      let is_txn it =
        match it.pl with Txn_part _ -> true | Single _ -> false
      in
      let first = pop sh in
      batch_buf.(0) <- Some first;
      let nb = ref 1 in
      if not (is_txn first) then
        while
          !nb < navail
          && (match sh.ring.(sh.head) with
             | Some it -> not (is_txn it)
             | None -> false)
        do
          batch_buf.(!nb) <- Some (pop sh);
          incr nb
        done;
      let n = !nb in
      Mutex.unlock sh.smu;
      Obs.Hist.observe sh.m_batch n;
      (if Obs.Span.enabled () then
         let ts = Obs.Span.now () in
         for i = 0 to n - 1 do
           match batch_buf.(i) with
           | Some { sp = Some sp; _ } -> sp.Obs.Span.t_dequeue <- ts
           | _ -> ()
         done);
      match batch_buf.(0) with
      | Some
          ({ pl = Txn_part { tp_ops; tp_acc; tp_tid; tp_coord; tp_lead }; _ }
           as it) -> (
          batch_buf.(0) <- None;
          (* Epoch boundary first: parked acks must not ride the
             transaction's fences, and the txn protocol starts from a
             drained deferral table. *)
          release_parked ();
          if Atomic.get t.crashed then abort_item it
          else
            match exec_txn it tp_ops tp_acc tp_tid tp_coord tp_lead with
            | () -> ()
            | exception e ->
                (* Injected crash mid-transaction: the WAL's persisted
                   state decides at recovery; nothing was acknowledged. *)
                (match e with
                | Pmem.Crash.Simulated_crash | Pmem.Hook.Alloc_failed _ ->
                    ()
                | e ->
                    Printf.eprintf "kvserve worker %d (txn): %s\n%!" sh.sid
                      (Printexc.to_string e));
                if Recipe.Persist.txn_active () then
                  Recipe.Persist.txn_end_abort ();
                (match tp_coord with
                | Some co -> abort_coord co
                | None -> ());
                Recipe.Persist.group_reset ();
                kill t;
                abort_item it;
                abort_parked ())
      | _ -> (
      match
        for i = 0 to n - 1 do
          match batch_buf.(i) with
          | Some ({ pl = Single op; _ } as it) -> (
              (match op with
              | Wire.Put _ | Wire.Delete _ -> seq_dirty sh
              | _ -> ());
              replies.(i) <- apply sh.part op;
              match it.sp with
              | Some sp -> sp.Obs.Span.t_applied <- Obs.Span.now ()
              | None -> ())
          | Some { pl = Txn_part _; _ } | None ->
              (* batch formation runs txn parts alone *)
              assert false
        done
      with
      | () ->
          (* Park the batch in the open epoch and ask the controller whether
             to close it now.  Acks release only at the epoch fence
             (possibly several batches later). *)
          Obs.Counter.incr t.c_batches;
          for i = 0 to n - 1 do
            match batch_buf.(i) with
            | Some it ->
                parked := (it, replies.(i)) :: !parked;
                batch_buf.(i) <- None
            | None -> ()
          done;
          parked_n := !parked_n + n;
          sh.pending_acks <- !parked_n;
          let now = Obs.Span.now () in
          Epoch_ctl.note ctl ~now n;
          (* Re-sample the queue depth *after* the apply, not at pop time:
             ops that arrived while this batch applied should join the open
             epoch rather than trigger a premature advance — the empty-queue
             rule means "the shard is going idle", and a pop-time snapshot
             can't see that. *)
          let depth_now =
            Mutex.lock sh.smu;
            let d = sh.len in
            Mutex.unlock sh.smu;
            d
          in
          if
            Epoch_ctl.decide ctl ~now
              ~pending_lines:(Recipe.Persist.group_pending ())
              ~queue_depth:depth_now
          then release_parked ()
      | exception e ->
          (* Injected crash (or any fault) mid-batch: the batch is abandoned
             wholesale.  Deferred commit lines are dropped un-flushed — the
             power failure that follows a crash discards them anyway, and
             none of these ops (nor any parked op) was acknowledged. *)
          (match e with
          | Pmem.Crash.Simulated_crash | Pmem.Hook.Alloc_failed _ -> ()
          | e ->
              (* Unexpected exception: still take the server down rather
                 than hang clients, but surface the error for tests. *)
              Printf.eprintf "kvserve worker %d: %s\n%!" sh.sid
                (Printexc.to_string e));
          Recipe.Persist.group_reset ();
          kill t;
          for i = 0 to n - 1 do
            match batch_buf.(i) with
            | Some it ->
                abort_item it;
                batch_buf.(i) <- None
            | None -> ()
          done;
          abort_parked ()
          (* Keep running: ops may have been enqueued to this shard between
             the batch pop (smu released) and [kill] marking it dead, and no
             other worker drains a foreign ring.  The loop re-enters, takes
             the [sh.dead] branch, fail-drains them, and only then exits —
             otherwise their submitters would block forever. *))
    end
  done

(* --- lifecycle ----------------------------------------------------------- *)

let start cfg parts =
  if cfg.shards <= 0 then invalid_arg "Server.start: shards must be positive";
  if cfg.batch <= 0 then invalid_arg "Server.start: batch must be positive";
  (match cfg.mode with Epoch c -> Epoch_ctl.validate c | Per_op -> ());
  if cfg.queue_cap < cfg.batch then
    invalid_arg "Server.start: queue_cap must be >= batch";
  if Array.length parts <> cfg.shards then
    invalid_arg "Server.start: one partition per shard required";
  let shards_ =
    Array.init cfg.shards (fun sid ->
        {
          sid;
          part = parts.(sid);
          smu = Mutex.create ();
          nonempty = Condition.create ();
          ring = Array.make cfg.queue_cap None;
          head = 0;
          len = 0;
          stopping = false;
          dead = false;
          seq = Atomic.make 0;
          m_depth = Obs.Hist.v (Printf.sprintf "serve.queue_depth.%d" sid);
          m_batch = Obs.Hist.v (Printf.sprintf "serve.batch_ops.%d" sid);
          m_eops = Obs.Hist.v (Printf.sprintf "serve.epoch_ops.%d" sid);
          pending_acks = 0;
          last_epoch = 0;
          m_queue = Obs.Hist.v (Printf.sprintf "serve.phase.queue.%d" sid);
          m_apply = Obs.Hist.v (Printf.sprintf "serve.phase.apply.%d" sid);
          m_epoch = Obs.Hist.v (Printf.sprintf "serve.phase.epoch_wait.%d" sid);
          m_fence = Obs.Hist.v (Printf.sprintf "serve.phase.fence.%d" sid);
          m_sack = Obs.Hist.v (Printf.sprintf "serve.phase.ack.%d" sid);
        })
  in
  let t =
    {
      cfg;
      shards_;
      crashed = Atomic.make false;
      workers = [];
      c_ops = Obs.Counter.v "serve.ops";
      c_batches = Obs.Counter.v "serve.batches";
      c_overloaded = Obs.Counter.v "serve.overloaded";
      c_group_lines = Obs.Counter.v "serve.group_lines";
      c_epochs = Obs.Counter.v "serve.epochs";
      c_txns = Obs.Counter.v "serve.txns";
      c_txn_aborted = Obs.Counter.v "serve.txn_aborted";
      c_direct_gets = Obs.Counter.v "serve.direct_gets";
      c_direct_fallbacks = Obs.Counter.v "serve.direct_fallbacks";
      direct = Array.for_all (fun p -> p.p_lockfree_lookup) parts;
      m_ack = Obs.Hist.v "serve.ack_ns";
      coords_mu = Mutex.create ();
      live_coords = [];
    }
  in
  t.workers <-
    List.init cfg.shards (fun sid ->
        Domain.spawn (fun () -> worker t shards_.(sid)));
  t

(* Stop serving: drain queued work (unless crashed, in which case workers
   fail-drain), join every worker.  Commit deferral needs no teardown — it
   is domain-local to the workers and dies with them.  After [stop] no batch
   is mid-flight, so a campaign may power-fail / recover the partitions. *)
let stop t =
  Array.iter
    (fun sh ->
      Mutex.lock sh.smu;
      sh.stopping <- true;
      seq_close sh;
      Condition.broadcast sh.nonempty;
      Mutex.unlock sh.smu)
    t.shards_;
  List.iter Domain.join t.workers;
  t.workers <- []

(* --- submit (the in-process transport) ----------------------------------- *)

let ok_response rid replies = { Wire.rrid = rid; status = Wire.Ok; replies }
let status_response rid status = { Wire.rrid = rid; status; replies = [] }

(* --- live stats snapshot -------------------------------------------------- *)

(* The serving state as flat named non-negative fields — the [Stats_reply]
   wire shape, rendered by [bin/kv_stats].  Histogram means are fixed-point
   (suffix [_x1000] = value × 1000) so they survive the integer-only wire.
   Queue depths are unlocked reads: metrics-grade, not linearizable.  The
   one ordering promise (checked by the crash campaign): a snapshot taken
   by a client after it received an ack for N ops reports [ops_acked >= N]
   — see the counter placement in [worker]. *)
let stats_snapshot t =
  let module H = Util.Histogram in
  let fields = ref [] in
  let add k v = fields := (k, max 0 v) :: !fields in
  let add_hist prefix h =
    let m = Obs.Hist.merged h in
    add (prefix ^ ".count") (H.count m);
    add (prefix ^ ".mean_x1000") (int_of_float (H.mean m *. 1000.));
    add (prefix ^ ".p50") (H.percentile m 0.50);
    add (prefix ^ ".p99") (H.percentile m 0.99)
  in
  add "shards" t.cfg.shards;
  add "batch" t.cfg.batch;
  add "queue_cap" t.cfg.queue_cap;
  (* Wire codes are stable for clients: 0 per_op, 2 epoch. *)
  (match t.cfg.mode with
  | Per_op -> add "persist_mode" 0
  | Epoch c ->
      add "persist_mode" 2;
      add "epoch.max_ops" c.Epoch_ctl.max_ops;
      add "epoch.max_lines" c.Epoch_ctl.max_lines;
      add "epoch.max_delay_ns" c.Epoch_ctl.max_delay_ns);
  add "crashed" (if Atomic.get t.crashed then 1 else 0);
  add "spans_enabled" (if Obs.Span.enabled () then 1 else 0);
  add "ops_acked" (Obs.Counter.value t.c_ops);
  add "batches" (Obs.Counter.value t.c_batches);
  add "overloaded" (Obs.Counter.value t.c_overloaded);
  add "group_lines" (Obs.Counter.value t.c_group_lines);
  add "epochs" (Obs.Counter.value t.c_epochs);
  add "txns" (Obs.Counter.value t.c_txns);
  add "txn_aborted" (Obs.Counter.value t.c_txn_aborted);
  add "direct_gets" (Obs.Counter.value t.c_direct_gets);
  add "direct_fallbacks" (Obs.Counter.value t.c_direct_fallbacks);
  let s = Pmem.Stats.snapshot () in
  add "pmem.clwb" s.Pmem.Stats.s_clwb;
  add "pmem.sfence" s.Pmem.Stats.s_sfence;
  add_hist "ack_ns" t.m_ack;
  Array.iter
    (fun sh ->
      let p = Printf.sprintf "shard.%d" sh.sid in
      add (p ^ ".queue_depth") sh.len;
      add (p ^ ".pending_acks") sh.pending_acks;
      add (p ^ ".last_epoch") sh.last_epoch;
      add_hist (p ^ ".batch_ops") sh.m_batch;
      add_hist (p ^ ".epoch_ops") sh.m_eops;
      add_hist (p ^ ".queue_ns") sh.m_queue;
      add_hist (p ^ ".apply_ns") sh.m_apply;
      add_hist (p ^ ".epoch_wait_ns") sh.m_epoch;
      add_hist (p ^ ".fence_ns") sh.m_fence;
      add_hist (p ^ ".ack_ns") sh.m_sack)
    t.shards_;
  List.rev !fields

exception Reject of Wire.status

(* The shard owning [k], or [Reject Bad_request] for a key its partition
   cannot hold — checked on the submitting domain, so a bad key never
   reaches (and never crashes) a worker. *)
let shard_for t k =
  let sid = shard_of_key t.cfg k in
  if t.shards_.(sid).part.p_key_ok k then sid
  else raise (Reject Wire.Bad_request)

(* Route one request's ops: returns the per-shard item lists, the
   completion cell and the request's 2PC cells ([`Routed]), [`Empty] for
   an empty request, or [`Reject] — a malformed transaction member
   ([Bad_request]) or an exhausted decision table ([Overloaded]); any
   decision slots already claimed are released, nothing was enqueued. *)
let route t (req : Wire.request) =
  let nshards = t.cfg.shards in
  let ops = Array.of_list req.ops in
  let nops = Array.length ops in
  if nops = 0 then `Empty
  else begin
    let slots = Array.make nops Unfilled in
    let per_shard = Array.make nshards [] in
    let total = ref 0 in
    let coords = ref [] in
    let pend =
      {
        pmu = Mutex.create ();
        pcond = Condition.create ();
        slots;
        remaining = 0;
        aborted = false;
      }
    in
    let spans_on = Obs.Span.enabled () in
    let mk_item pl opi sid =
      {
        pl;
        opi;
        pend;
        sp = (if spans_on then Some (Obs.Span.start ~sid) else None);
      }
    in
    match
      for opi = nops - 1 downto 0 do
        match ops.(opi) with
        | Wire.Scan (_, want) ->
            slots.(opi) <-
              Scan_parts
                { want; parts = Array.make nshards []; unsupported = false };
            for sid = 0 to nshards - 1 do
              per_shard.(sid) <-
                mk_item (Single ops.(opi)) opi sid :: per_shard.(sid)
            done;
            total := !total + nshards
        | Wire.Stats ->
            (* Answered at routing time from the router's own view — a stats
               poll must not consume serving capacity or skew ack latency. *)
            slots.(opi) <- Direct (Wire.Stats_reply (stats_snapshot t))
        | Wire.Txn [] ->
            (* Empty transaction: trivially (and atomically) done. *)
            slots.(opi) <- Direct (Wire.Txn_ok [])
        | Wire.Txn mops ->
            let nm = List.length mops in
            let groups = Array.make nshards [] in
            List.iteri
              (fun mi op ->
                match op with
                | Wire.Get k | Wire.Put (k, _) | Wire.Delete k ->
                    let sid = shard_for t k in
                    groups.(sid) <- (mi, op) :: groups.(sid)
                | Wire.Scan _ | Wire.Stats | Wire.Txn _ ->
                    (* The wire decoder already rejects these; guard the
                       in-process transport the same way. *)
                    raise (Reject Wire.Bad_request))
              mops;
            let acc =
              { t_replies = Array.make nm Wire.Absent; t_failed = false }
            in
            slots.(opi) <- Txn_parts acc;
            let nparts =
              Array.fold_left
                (fun a g -> match g with [] -> a | _ -> a + 1)
                0 groups
            in
            let tid = Recipe.Txn.fresh_tid () in
            let co =
              if nparts > 1 then (
                match Recipe.Txn.Decision.claim ~tid with
                | None -> raise (Reject Wire.Overloaded)
                | Some cslot ->
                    let co =
                      {
                        cmu = Mutex.create ();
                        ccond = Condition.create ();
                        tid;
                        cslot;
                        total = nparts;
                        prepared = 0;
                        decision = 0;
                      }
                    in
                    coords := co :: !coords;
                    Some co)
              else None
            in
            let lead = ref true in
            for sid = 0 to nshards - 1 do
              match groups.(sid) with
              | [] -> ()
              | g ->
                  let pl =
                    Txn_part
                      {
                        tp_ops = List.rev g;
                        tp_acc = acc;
                        tp_tid = tid;
                        tp_coord = co;
                        tp_lead = !lead;
                      }
                  in
                  lead := false;
                  per_shard.(sid) <- mk_item pl opi sid :: per_shard.(sid);
                  incr total
            done
        | (Wire.Get k | Wire.Put (k, _) | Wire.Delete k) as op ->
            let sid = shard_for t k in
            per_shard.(sid) <- mk_item (Single op) opi sid :: per_shard.(sid);
            incr total
      done
    with
    | () ->
        pend.remaining <- !total;
        `Routed (pend, per_shard, !coords)
    | exception Reject status ->
        List.iter
          (fun co -> Recipe.Txn.Decision.release ~slot:co.cslot)
          !coords;
        `Reject status
  end

(* All-or-nothing enqueue: take the target shards' mutexes in ascending id
   order, verify every shard is alive and has room, and only then push.  On
   any failure nothing has been enqueued. *)
let enqueue t per_shard =
  let nshards = Array.length per_shard in
  let needed = Array.map List.length per_shard in
  let locked = Array.make nshards false in
  let unlock_all () =
    for sid = 0 to nshards - 1 do
      if locked.(sid) then begin
        locked.(sid) <- false;
        Mutex.unlock t.shards_.(sid).smu
      end
    done
  in
  match
    for sid = 0 to nshards - 1 do
      if needed.(sid) > 0 then begin
        let sh = t.shards_.(sid) in
        Mutex.lock sh.smu;
        locked.(sid) <- true;
        if sh.dead || sh.stopping then raise (Reject Wire.Shutdown);
        if sh.len + needed.(sid) > t.cfg.queue_cap then
          raise (Reject Wire.Overloaded)
      end
    done
  with
  | () ->
      for sid = 0 to nshards - 1 do
        if needed.(sid) > 0 then begin
          let sh = t.shards_.(sid) in
          (* Enqueue stamp taken under [smu], so it is ordered before the
             worker's dequeue stamp (the pop also holds [smu]). *)
          let ts = if Obs.Span.enabled () then Obs.Span.now () else 0 in
          List.iter
            (fun it ->
              (match it.sp with
              | Some sp when ts > 0 -> sp.Obs.Span.t_enqueue <- ts
              | _ -> ());
              let tail = (sh.head + sh.len) mod Array.length sh.ring in
              sh.ring.(tail) <- Some it;
              sh.len <- sh.len + 1)
            per_shard.(sid);
          Obs.Hist.observe sh.m_depth sh.len;
          Condition.broadcast sh.nonempty
        end
      done;
      unlock_all ();
      None
  | exception Reject status ->
      unlock_all ();
      Some status

(* Make a request's 2PC cells visible to [kill] for the enqueue→decision
   window.  Registration happens *before* enqueue and is re-checked against
   [crashed] after appending, so a concurrent [kill] either sees the cells
   in [live_coords] or the submitter sees [crashed] — no coordinator can
   wait out a crash un-aborted. *)
let register_coords t coords =
  if coords <> [] then begin
    Mutex.lock t.coords_mu;
    t.live_coords <- coords @ t.live_coords;
    Mutex.unlock t.coords_mu;
    if Atomic.get t.crashed then List.iter abort_coord coords
  end

let unregister_coords t coords =
  if coords <> [] then begin
    Mutex.lock t.coords_mu;
    t.live_coords <-
      List.filter (fun co -> not (List.memq co coords)) t.live_coords;
    Mutex.unlock t.coords_mu
  end

let release_decision_slots coords =
  List.iter (fun co -> Recipe.Txn.Decision.release ~slot:co.cslot) coords

(* Retain a finished op's span and file its phases under its shard. *)
let observe_span t sp =
  Obs.Span.finish sp;
  let sh = t.shards_.(sp.Obs.Span.sid) in
  Obs.Hist.observe sh.m_queue (Obs.Span.queue_ns sp);
  Obs.Hist.observe sh.m_apply (Obs.Span.apply_ns sp);
  Obs.Hist.observe sh.m_epoch (Obs.Span.epoch_ns sp);
  Obs.Hist.observe sh.m_fence (Obs.Span.fence_ns sp);
  Obs.Hist.observe sh.m_sack (Obs.Span.ack_ns sp)

(* --- direct reads -------------------------------------------------------- *)

(* The keys of a request made only of [Get]s, in order. *)
let rec get_keys acc = function
  | [] -> Some (List.rev acc)
  | Wire.Get k :: rest -> get_keys (k :: acc) rest
  | _ -> None

(* Answer a request of only [Get]s on the calling domain, or [None] to send
   it down the queued path.  Read every target shard's sequence (v1), run
   the lookups, re-read the sequences (v2).  If every v1 was even and every
   v2 equals its v1, no write touched those partitions during the lookups,
   and every write applied before v1 was already fenced — an even sequence
   is only ever stored after the fence — so every value returned is
   durable, and all of them come from one instant.  A stopped or crashed
   shard is odd for good, so its reads fall back to the path that answers
   [Shutdown].  The lookups are optimistic: their racy reads run inside a
   sanitizer speculation window, and an exception discards them like a
   changed sequence does.  A key its partition cannot hold raises
   [Reject Bad_request] before any lookup. *)
let direct_read t rid keys =
  let t0 = Monotonic_clock.now () in
  let targets =
    List.map
      (fun k ->
        let sh = t.shards_.(shard_for t k) in
        (sh, Atomic.get sh.seq, k))
      keys
  in
  let stable () =
    List.for_all (fun (sh, v1, _) -> Atomic.get sh.seq = v1) targets
  in
  let replies =
    if List.exists (fun (_, v1, _) -> v1 land 1 = 1) targets then None
    else begin
      let san = !Pmem.Mode.flags land Pmem.Mode.f_sanitize <> 0 in
      if san then Pmem.Sanhook.spec_enter ();
      let rs =
        match
          List.map
            (fun (sh, _, k) ->
              match sh.part.p_lookup k with
              | Some v -> Wire.Found v
              | None -> Wire.Absent)
            targets
        with
        | rs -> Some rs
        | exception _ -> None
      in
      if san then Pmem.Sanhook.spec_exit ();
      if stable () then rs else None
    end
  in
  let n = List.length targets in
  match replies with
  | None ->
      Obs.Counter.add t.c_direct_fallbacks n;
      None
  | Some rs ->
      (* Count before replying — the stats no-undercount promise. *)
      Obs.Counter.add t.c_direct_gets n;
      Obs.Counter.add t.c_ops n;
      Obs.Hist.observe t.m_ack
        (Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0));
      (* One span per Get whose whole ack is the apply phase. *)
      if Obs.Span.enabled () then begin
        let ts0 = Int64.to_int t0 in
        List.iter
          (fun (sh, _, _) ->
            let sp = Obs.Span.start ~sid:sh.sid in
            sp.Obs.Span.t_submit <- ts0;
            sp.Obs.Span.t_enqueue <- ts0;
            sp.Obs.Span.t_dequeue <- ts0;
            observe_span t sp)
          targets
      end;
      Some (ok_response rid rs)

(* The queued path: route, enqueue, block until every op completes. *)
let submit_queued t (req : Wire.request) =
  match route t req with
  | `Empty -> ok_response req.rid []
  | `Reject status ->
      if status = Wire.Overloaded then Obs.Counter.incr t.c_overloaded;
      status_response req.rid status
  | `Routed (pend, per_shard, coords) -> (
      if Atomic.get t.crashed then begin
        release_decision_slots coords;
        status_response req.rid Wire.Shutdown
      end
      else begin
        register_coords t coords;
        let t0 = Monotonic_clock.now () in
        match enqueue t per_shard with
        | Some Wire.Overloaded ->
            unregister_coords t coords;
            release_decision_slots coords;
            Obs.Counter.incr t.c_overloaded;
            status_response req.rid Wire.Overloaded
        | Some status ->
            unregister_coords t coords;
            release_decision_slots coords;
            status_response req.rid status
        | None ->
            Mutex.lock pend.pmu;
            while pend.remaining > 0 do
              Condition.wait pend.pcond pend.pmu
            done;
            let aborted = pend.aborted in
            Mutex.unlock pend.pmu;
            unregister_coords t coords;
            (* The decision slot must outlive the request only when a crash
               interrupted it: a durably-committed decision with some WAL
               still Prepared is what lets recovery roll that WAL forward.
               [Txn.recover_all] resets the table afterwards. *)
            if not aborted then release_decision_slots coords;
            if aborted then status_response req.rid Wire.Shutdown
            else begin
              (* A request of only routing-time ops (e.g. pure Stats) waited
                 on nothing; don't let it dilute the ack histogram. *)
              let any_routed =
                Array.exists (function [] -> false | _ -> true) per_shard
              in
              if any_routed then
                Obs.Hist.observe t.m_ack
                  (Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0));
              if Obs.Span.enabled () then
                Array.iter
                  (List.iter (fun it -> Option.iter (observe_span t) it.sp))
                  per_shard;
              ok_response req.rid
                (Array.to_list
                   (Array.map
                      (function
                        | Direct r -> r
                        | Scan_parts acc -> assemble_scan acc
                        | Txn_parts acc ->
                            if acc.t_failed then Wire.Txn_aborted
                            else Wire.Txn_ok (Array.to_list acc.t_replies)
                        | Unfilled -> assert false)
                      pend.slots))
            end
      end)

(* Submit a request and block until every op completes (the in-process
   transport; connection handlers call this per decoded frame).  Returns
   [Overloaded]/[Shutdown] without applying anything when rejected.  A
   request of only [Get]s first tries {!direct_read}. *)
let submit t (req : Wire.request) =
  match if t.direct then get_keys [] req.ops else None with
  | Some (_ :: _ as keys) -> (
      match direct_read t req.rid keys with
      | Some resp -> resp
      | None -> submit_queued t req
      | exception Reject status -> status_response req.rid status)
  | Some [] | None -> submit_queued t req

(* --- framed connection (codec-exercising transport) ----------------------- *)

(* Incremental frame processor shared by the in-process tests and the TCP
   front-end: feed raw bytes in, get raw response bytes out.  A malformed
   frame produces one [Bad_request] response and poisons the connection
   (subsequent bytes are discarded — resynchronizing inside a corrupt
   binary stream is not possible). *)
module Conn = struct
  type conn = {
    srv : t;
    inbuf : Buffer.t;
    mutable consumed : int;
    mutable broken : bool;
  }

  let create srv = { srv; inbuf = Buffer.create 256; consumed = 0; broken = false }

  let broken c = c.broken

  (* Compact once this much consumed prefix has accumulated; keeps the
     dead-prefix copy cost amortized O(1) per byte. *)
  let compact_at = 4096

  (* Whether at least one whole frame is buffered (or the length prefix is
     already illegal, which the decoder must turn into [Bad_request]).
     O(1) [Buffer.nth] peeks — no materialization, so a connection
     trickling a large frame costs O(chunk) per feed, not O(buffered). *)
  let frame_ready c =
    let avail = Buffer.length c.inbuf - c.consumed in
    if avail < 4 then false
    else begin
      let byte i = Char.code (Buffer.nth c.inbuf (c.consumed + i)) in
      let len =
        (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
      in
      len > Wire.max_frame || avail >= 4 + len
    end

  let feed c bytes =
    if c.broken then ""
    else begin
      Buffer.add_string c.inbuf bytes;
      if not (frame_ready c) then ""
      else begin
        let data = Buffer.contents c.inbuf in
        let out = Buffer.create 64 in
        let rec step pos =
          match Wire.decode_request data pos with
          | `Ok (req, pos') ->
              Wire.encode_response out (submit c.srv req);
              step pos'
          | `Need_more -> pos
          | `Malformed _ ->
              Wire.encode_response out (status_response 0 Wire.Bad_request);
              c.broken <- true;
              String.length data
        in
        let pos = step c.consumed in
        c.consumed <- pos;
        let remaining = String.length data - c.consumed in
        if remaining = 0 then begin
          Buffer.clear c.inbuf;
          c.consumed <- 0
        end
        else if c.consumed >= compact_at then begin
          Buffer.clear c.inbuf;
          Buffer.add_substring c.inbuf data c.consumed remaining;
          c.consumed <- 0
        end;
        Buffer.contents out
      end
    end
end
