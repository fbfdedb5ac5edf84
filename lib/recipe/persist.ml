(* Conversion-action combinators (paper §4.3–§4.5, §8).

   The mechanical part of every RECIPE conversion is "insert cache line flush
   and memory fence instructions after each store".  §8 notes the authors
   then hand-optimized the converted indexes by *coalescing* flushes — a
   store whose line will be flushed again before the commit point need not
   flush immediately, only the stores surrounding the final atomic commit
   must be fenced.

   Index code in this repository writes through these combinators so both
   behaviours exist in one code path, giving the flush-coalescing ablation
   experiment:

   - [store]/[store_ref]: an ordinary store on the path to a commit point.
     Coalesced mode (default, what §6 ships): no flush here — the commit
     flush covers the whole line.  Naive mode (the literal conversion
     action): flush + fence immediately.
   - [commit]/[commit_ref]: the final atomic store of the operation — always
     followed by flush + fence, in both modes. *)

(* Default: the hand-coalesced behaviour the paper evaluates. *)
let naive = ref false

(** Select the literal flush-after-every-store conversion (for the ablation
    bench); [false] restores coalesced flushing. *)
let[@pm.volatile] set_naive b = naive := b

(* --- commit deferral and epochs (buffered durable linearizability) --------

   Per-operation persistence pays one commit flush + one fence per write.
   The service layer's epoch executor amortizes that cost: while the
   calling domain has deferral on, the commit combinators perform their
   store (the operation becomes *visible* immediately, exactly as before)
   but defer the trailing clwb + sfence, recording the commit's cache line
   in the domain's table.  The domain counts *epochs* — a monotonically
   increasing number naming "everything deferred since the last fence" —
   and {!epoch_advance} is the only place the deferred fence happens: it
   flushes every recorded line once (deduplicated per line, which is where
   the flushes/op saving comes from), issues one fence, marks the open
   epoch persisted and opens the next.  An executor that acks only
   operations whose epoch is persisted provides buffered durable
   linearizability in the sense of Ben-David et al. (Delay-Free Concurrency
   on Faulty Persistent Memory): the critical path runs fence-free,
   durability advances at epoch boundaries, and a crash loses at most the
   *unacked* suffix — the open epoch — never an acked operation.  DESIGN.md
   §12 gives the full argument.

   Ordering safety: only the *commit* flush+fence is deferred.  Explicit
   ordering flushes ([flush], [persist_new_*]) — the "previous state is
   persisted first" actions of Condition #2 — still execute eagerly, so
   every deferred commit's prerequisites are durable by the time the commit
   word itself is flushed.  A crash therefore loses some suffix-subset of
   the deferred single-word commits, each of which is individually a legal
   pre/post state — the same states per-operation crash testing already
   explores — plus unreachable (leak-swept) garbage.

   Both the deferral flag and the table are domain-local (DLS): a shard
   worker defers only its own commits and flushes only its own lines, so
   concurrently running servers cannot observe or disturb each other's
   pending lines.  In particular, starting or stopping one server never
   drops another server's deferred commits (which would let its workers ack
   writes whose commit lines were never flushed).  No locking is needed: a
   domain's table is touched by that domain alone.

   Under sanitize mode the commit combinators no longer skip their
   publication check while deferral is on — they *defer* it: the check runs
   at the epoch fence ({!epoch_advance}), after the sfence, which is exactly
   when the buffered contract first allows the commit to be acknowledged.
   A store the operation relied on that never got flushed (neither eagerly
   nor by the epoch flush) is reported there as an unpersisted publish, so
   moving the fence cannot silently weaken RECIPE Condition #1/#2 — the
   sanitizer follows the fence. *)

(* --- transaction undo capture (DESIGN.md §14) ----------------------------

   While the calling domain has a transaction open ({!txn_begin}), every
   combinator store first snapshots the *pre-image* of the cache line it is
   about to dirty — first capture per line wins, so the snapshot is the
   line's content as of transaction begin.  {!Txn} serializes the captured
   word lines into its per-domain WAL before the commit-record flip;
   rolling a prepared-but-uncommitted transaction back is then "write each
   captured image back and flush it". *)

type undo =
  | Undo_words of {
      w : Pmem.Words.t;
      line : int;  (* global line id, {!Pmem.Words.global_line} *)
      lo : int;  (* within-array index of the first captured word *)
      pre : int array;  (* pre-image, [Array.length pre <= 8] *)
    }
  | Undo_refs of {
      line : int;  (* global line id, {!Pmem.Refs.global_line} *)
      restore : unit -> unit;
          (* writes the captured boxed values back and flushes the line.
             Boxed slots hold OCaml values, which have no word serialization
             into the WAL — the simulation keeps their pre-images in this
             closure instead; DESIGN.md §14 records the caveat. *)
    }

type group_state = {
  mutable on : bool;
  mutable epoch : int;  (* the open (accumulating) epoch, starts at 1 *)
  mutable persisted : int;  (* highest epoch whose fence has run *)
  tbl : (int, unit -> bool) Hashtbl.t;
      (* line id -> the flush thunk that persists it (first recording wins;
         any thunk for the line flushes the same bytes).  A thunk returns
         [false] when it found the line already persisted — an eager flush
         (combinator or raw index clwb) superseded the deferred one — and
         skips the clwb, which the sanitizer would report as redundant. *)
  mutable pubs : (unit -> unit) list;
      (* deferred sanitizer publication checks of the open epoch, run after
         the epoch fence; only populated under sanitize mode. *)
  mutable txn_on : bool;  (* a transaction is capturing undo images *)
  txn_seen : (int, unit) Hashtbl.t;  (* global lines already captured *)
  mutable txn_undo : undo list;  (* capture order, most recent first *)
  mutable txn_pubs_mark : (unit -> unit) list;
      (* [pubs] as of txn_begin; an abort truncates back to it so the
         sanitizer never checks publications of stores that were undone. *)
  mutable txn_log : (undo -> unit) option;
      (* write-ahead hook ({!Txn.append}): called with each captured
         record *before* the triggering store executes, so the undo image
         is durable before the data line can possibly be — a raw index
         clwb on a shared line may persist a staged store long before the
         commit protocol flushes anything. *)
}

let group_key =
  Domain.DLS.new_key (fun () ->
      { on = false; epoch = 1; persisted = 0; tbl = Hashtbl.create 64;
        pubs = []; txn_on = false; txn_seen = Hashtbl.create 64;
        txn_undo = []; txn_pubs_mark = []; txn_log = None })

let[@inline] group_st () = Domain.DLS.get group_key

(* --- transaction capture API (used by {!Txn} and the serving workers) --- *)

(** Start undo capture on the calling domain.  Nested transactions are a
    programming error (the serving workers run one at a time). *)
let[@pm.volatile] txn_begin ?log () =
  let st = group_st () in
  assert (not st.txn_on);
  Hashtbl.reset st.txn_seen;
  st.txn_undo <- [];
  st.txn_pubs_mark <- st.pubs;
  st.txn_log <- log;
  st.txn_on <- true

let txn_active () = (group_st ()).txn_on

(** The captured undo records, oldest capture first. *)
let txn_undo_log () = List.rev (group_st ()).txn_undo

(** Stop capturing, keeping the transaction's deferred publication checks —
    the commit path: its stores stay visible and will be fenced. *)
let[@pm.volatile] txn_end_commit () =
  let st = group_st () in
  Hashtbl.reset st.txn_seen;
  st.txn_undo <- [];
  st.txn_pubs_mark <- [];
  st.txn_log <- None;
  st.txn_on <- false

(** Stop capturing and drop the publication checks deferred *since
    txn_begin* — the abort path: those stores are about to be undone, so
    checking them after the next fence would be checking ghosts. *)
let[@pm.volatile] txn_end_abort () =
  let st = group_st () in
  Hashtbl.reset st.txn_seen;
  st.txn_undo <- [];
  st.pubs <- st.txn_pubs_mark;
  st.txn_pubs_mark <- [];
  st.txn_log <- None;
  st.txn_on <- false

let[@pm.volatile] txn_capture_words st w i =
  let line = Pmem.Words.global_line w i in
  if not (Hashtbl.mem st.txn_seen line) then begin
    Hashtbl.add st.txn_seen line ();
    let lo, hi = Pmem.Words.line_extent w i in
    let pre = Array.init (hi - lo) (fun k -> Pmem.Words.get w (lo + k)) in
    let u = Undo_words { w; line; lo; pre } in
    st.txn_undo <- u :: st.txn_undo;
    (* Write-ahead: the entry must be durable before the store below runs,
       or a colocated raw clwb could persist the store first. *)
    match st.txn_log with Some log -> log u | None -> ()
  end

let[@pm.volatile] [@pm.deferred] txn_capture_refs st r i =
  let line = Pmem.Refs.global_line r i in
  if not (Hashtbl.mem st.txn_seen line) then begin
    Hashtbl.add st.txn_seen line ();
    let lo, hi = Pmem.Refs.line_extent r i in
    let pre = Array.init (hi - lo) (fun k -> Pmem.Refs.get r (lo + k)) in
    let restore () =
      Array.iteri (fun k v -> Pmem.Refs.set r (lo + k) v) pre;
      Pmem.Refs.clwb r lo
    in
    let u = Undo_refs { line; restore } in
    st.txn_undo <- u :: st.txn_undo;
    match st.txn_log with Some log -> log u | None -> ()
  end

(** Enable/disable commit deferral for the *calling domain* (each shard
    worker opts in for itself).  Epoch numbering is per domain and monotone
    for the domain's lifetime, whatever the toggles.  Disabling clears the
    domain's own pending table — a worker stopping mid-batch must not leak
    deferred lines into the next phase — and cannot affect any other
    domain. *)
let[@pm.volatile] set_group b =
  let st = group_st () in
  st.on <- b;
  if not b then begin
    Hashtbl.reset st.tbl;
    st.pubs <- []
  end

let defer line thunk =
  let t = (group_st ()).tbl in
  if not (Hashtbl.mem t line) then Hashtbl.add t line thunk

(* An explicit flush of a deferred line supersedes the deferred one (and
   avoids a redundant clwb at the epoch fence, which the sanitizer would
   report). *)
let group_drop line = Hashtbl.remove (group_st ()).tbl line

(** Deferred commit lines recorded by the calling domain. *)
let group_pending () = Hashtbl.length (group_st ()).tbl

(** Forget the calling domain's deferred lines (and deferred publication
    checks) without flushing — the crashed-worker path: a simulated power
    failure discards those lines anyway. *)
let[@pm.volatile] group_reset () =
  let st = group_st () in
  Hashtbl.reset st.tbl;
  st.pubs <- []

(* --- epochs --------------------------------------------------------------- *)

(** Test-only mutation: "delete" the epoch fence.  When set, an
    {!epoch_advance} drops the open epoch's deferred lines without flushing
    or fencing but still reports the epoch as persisted — the bug class the
    epoch crash campaign must catch as lost acknowledged operations. *)
let mutate_drop_epoch_flush = ref false

(** The calling domain's open (accumulating) epoch number. *)
let epoch_current () = (group_st ()).epoch

(** The highest epoch the calling domain has persisted. *)
let epoch_persisted () = (group_st ()).persisted

(** Close the calling domain's open epoch: flush each deferred commit line
    once (lines an eager flush already persisted are skipped), issue one
    fence for all of them (none when nothing was deferred — an empty epoch
    advances for free), mark the epoch persisted, and open the next.
    Returns [(e, lines)]: the newly persisted epoch number and the count of
    lines actually flushed.  After this returns, every commit tagged with an
    epoch [<= e] is durable and may be acknowledged.

    Under sanitize mode, the deferred publication checks of everything
    committed since the last advance run here, after the fence — the point
    where the buffered-durability contract first permits an ack. *)
let[@pm.volatile] epoch_advance ?site () =
  let st = group_st () in
  let lines =
    if !mutate_drop_epoch_flush then begin
      Hashtbl.reset st.tbl;
      st.pubs <- [];
      0
    end
    else begin
      let n =
        if Hashtbl.length st.tbl = 0 then 0
        else begin
          (* Reset before running thunks: a thunk may crash (injected
             fault), and the epoch is then abandoned wholesale —
             [group_reset] by the catcher must not replay half of it. *)
          let thunks = Hashtbl.fold (fun _ th acc -> th :: acc) st.tbl [] in
          Hashtbl.reset st.tbl;
          let n =
            List.fold_left
              (fun acc th -> if th () then acc + 1 else acc)
              0 thunks
          in
          Pmem.sfence ?site ();
          n
        end
      in
      (match st.pubs with
      | [] -> ()
      | ps ->
          st.pubs <- [];
          (* Commit order: the list was consed, so reverse before checking. *)
          List.iter (fun check -> check ()) (List.rev ps));
      n
    end
  in
  st.persisted <- st.epoch;
  st.epoch <- st.epoch + 1;
  (st.persisted, lines)

(* Every combinator takes an optional [?site] (an {!Obs.Site.t}: index ×
   structural location) forwarded to the flush/fence primitives, feeding the
   per-site attribution of the bench JSON export.

   Under sanitize mode ({!Pmem.Mode.f_sanitize}) the combinators do two more
   things, both free when the mode is off:

   - the [?site] is published to the per-domain store-site context around
     the store itself, so the sanitizer can attribute a line's *store* (not
     just its flushes) when it later reports the line;
   - the commit combinators mark their store as a *publication point* via
     [sanitize_publish]: these are the visibility commits of the conversion
     discipline, exactly where RECIPE Condition #1/#2 requires everything
     reachable to already be persisted.  Raw substrate stores (private
     initialization of unpublished structure) are deliberately not checked. *)

let[@inline] sanitizing () = !Pmem.Mode.flags land Pmem.Mode.f_sanitize <> 0

(* Each writing combinator snapshots the target line's pre-image first when
   the calling domain has a transaction open (one DLS read when it does
   not).  [persist_new_words]/[persist_new_refs] are deliberately *not*
   captured: a fresh object was all-garbage before the transaction, so on
   rollback it is simply unreachable and the leak sweep reclaims it. *)

let store ?site w i v =
  (let st = group_st () in
   if st.txn_on then txn_capture_words st w i);
  if sanitizing () then begin
    Pmem.Sanhook.set_site site;
    Pmem.Words.set w i v;
    Pmem.Sanhook.clear_site ()
  end
  else Pmem.Words.set w i v;
  if !naive then begin
    Pmem.Words.clwb ?site w i;
    Pmem.sfence ?site ()
  end

let store_ref ?site r i v =
  (let st = group_st () in
   if st.txn_on then txn_capture_refs st r i);
  if sanitizing () then begin
    Pmem.Sanhook.set_site site;
    Pmem.Refs.set r i v;
    Pmem.Sanhook.clear_site ()
  end
  else Pmem.Refs.set r i v;
  if !naive then begin
    Pmem.Refs.clwb ?site r i;
    Pmem.sfence ?site ()
  end

(* Run the publication check now (per-op persistence) or park it on the
   calling domain's deferred list to run after the epoch fence — the line
   is intentionally unpersisted until that fence, and the executor acks
   only after it, so the fence is where the check belongs. *)
let[@inline] [@pm.volatile] publish_now_or_deferred check =
  let st = group_st () in
  if st.on then st.pubs <- check :: st.pubs else check ()

(** Commit store: make the operation visible and durable.  Flush + fence
    always — or, with deferral on, deferred to the epoch's {!epoch_advance}
    (the publication check moves to the same fence: see
    [publish_now_or_deferred]). *)
let[@pm.deferred] commit ?site w i v =
  (let st = group_st () in
   if st.txn_on then txn_capture_words st w i);
  if sanitizing () then begin
    Pmem.Sanhook.set_site site;
    Pmem.Words.set w i v;
    Pmem.Sanhook.clear_site ();
    publish_now_or_deferred (fun () -> Pmem.Words.sanitize_publish ?site w i)
  end
  else Pmem.Words.set w i v;
  if (group_st ()).on then
    defer
      (Pmem.Words.global_line w i)
      (fun () ->
        Pmem.Words.line_dirty w i
        && begin
             Pmem.Words.clwb ?site w i;
             true
           end)
  else begin
    Pmem.Words.clwb ?site w i;
    Pmem.sfence ?site ()
  end

let[@pm.deferred] commit_ref ?site r i v =
  (let st = group_st () in
   if st.txn_on then txn_capture_refs st r i);
  if sanitizing () then begin
    Pmem.Sanhook.set_site site;
    Pmem.Refs.set r i v;
    Pmem.Sanhook.clear_site ();
    publish_now_or_deferred (fun () -> Pmem.Refs.sanitize_publish ?site r i)
  end
  else Pmem.Refs.set r i v;
  if (group_st ()).on then
    defer
      (Pmem.Refs.global_line r i)
      (fun () ->
        Pmem.Refs.line_dirty r i
        && begin
             Pmem.Refs.clwb ?site r i;
             true
           end)
  else begin
    Pmem.Refs.clwb ?site r i;
    Pmem.sfence ?site ()
  end

(** Commit CAS: the single-CAS visibility points of Condition #1/#2 indexes
    (BwTree mapping-table install, pointer swaps).  Flushes only when the CAS
    succeeds — P-BwTree's optimization from §6.3: the first flush of an
    indirect pointer persists the most recent successful CAS. *)
let[@pm.deferred] commit_cas_ref ?site r i ~expected ~desired =
  (let st = group_st () in
   if st.txn_on then txn_capture_refs st r i);
  if sanitizing () then Pmem.Sanhook.set_site site;
  let ok = Pmem.Refs.cas r i ~expected ~desired in
  if sanitizing () then begin
    Pmem.Sanhook.clear_site ();
    if ok then
      publish_now_or_deferred (fun () -> Pmem.Refs.sanitize_publish ?site r i)
  end;
  if ok then
    if (group_st ()).on then
      defer
      (Pmem.Refs.global_line r i)
      (fun () ->
        Pmem.Refs.line_dirty r i
        && begin
             Pmem.Refs.clwb ?site r i;
             true
           end)
    else begin
      Pmem.Refs.clwb ?site r i;
      Pmem.sfence ?site ()
    end;
  ok

let[@pm.deferred] commit_cas ?site w i ~expected ~desired =
  (let st = group_st () in
   if st.txn_on then txn_capture_words st w i);
  if sanitizing () then Pmem.Sanhook.set_site site;
  let ok = Pmem.Words.cas w i ~expected ~desired in
  if sanitizing () then begin
    Pmem.Sanhook.clear_site ();
    if ok then
      publish_now_or_deferred (fun () -> Pmem.Words.sanitize_publish ?site w i)
  end;
  if ok then
    if (group_st ()).on then
      defer
      (Pmem.Words.global_line w i)
      (fun () ->
        Pmem.Words.line_dirty w i
        && begin
             Pmem.Words.clwb ?site w i;
             true
           end)
    else begin
      Pmem.Words.clwb ?site w i;
      Pmem.sfence ?site ()
    end;
  ok

(** Flush + fence a line that was written with [store] in coalesced mode —
    used before a dependent store must be ordered after it (the "previous
    state is persisted first" rule of Condition #2). *)
let flush ?site w i =
  if (group_st ()).on then group_drop (Pmem.Words.global_line w i);
  Pmem.Words.clwb ?site w i;
  Pmem.sfence ?site ()

let flush_ref ?site r i =
  if (group_st ()).on then group_drop (Pmem.Refs.global_line r i);
  Pmem.Refs.clwb ?site r i;
  Pmem.sfence ?site ()

(** Persist a freshly initialized object before it is linked into the
    structure (every line flushed, one fence). *)
let persist_new_words ?site w =
  Pmem.Words.clwb_all ?site w;
  Pmem.sfence ?site ()

let persist_new_refs ?site r =
  Pmem.Refs.clwb_all ?site r;
  Pmem.sfence ?site ()
