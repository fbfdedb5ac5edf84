(* Crash-mid-serving campaign: the server-path extension of
   {!Crashtest.recovery_under_load_campaign}.

   Per state:

   1. preload [load] keys *through the server* (submit blocks until the
      epoch fence, so every reply is an acknowledgement);
   2. arm a seed-deterministic fault plan and run closed-loop client
      traffic of [ops_per_request]-op requests (default 4); some shard
      worker crashes mid-batch — or, for a request of at most [batch] ops
      run as a direct write, the client domain applying it crashes — the
      server declares itself dead, in-flight and queued requests fail with
      [Shutdown] (never acknowledged).  The [plan] selector aims the crash:
      [`Random] draws any plan kind ({!Faultinject.random_plan});
      [`Mid_epoch] crashes at a random persistent *store* — in epoch mode
      that is inside the fence-free apply window, with applied-but-unacked
      ops parked in the open epoch; [`Boundary] crashes at a random flush
      or fence — in epoch mode commit flushes only run inside
      {!Recipe.Persist.epoch_advance}, so the crash lands at the
      durability boundary itself (eager ordering flushes can also catch
      it mid-apply, which only widens coverage);
   3. power-fail (every unflushed line discarded — including the crashed
      batch's deferred commit lines), run each partition's timed recovery
      and reclaiming leak sweep;
   4. restart the server on the recovered partitions, resume client
      traffic, then verify every acknowledged binding from all phases via
      served gets, plus a served scan's global order (ordered partitions).

   Zero lost acknowledged operations ([base.lost_keys = 0]) is the
   acceptance invariant: an acked put was fenced (inline or by its epoch)
   before its reply was sent, so it must survive the crash — a mid-epoch fault
   may lose unacked ops of the open epoch, never an acked one. *)

let fresh_env () =
  Pmem.Crash.disarm ();
  Pmem.Mode.set_shadow true;
  ignore (Pmem.persist_everything ());
  (* Drop the previous state's per-domain transaction WALs and decision
     slots — recovery must only ever see this state's transactions. *)
  Recipe.Txn.clear_registry ();
  Util.Lock.new_epoch ()

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Preload through the server; returns the acked flags and the number of
   acknowledged ops (every op of an [Ok] response counts: it was fenced). *)
let preload srv load =
  let completed = Array.make (load + 1) false in
  let acked = ref 0 in
  let chunk = 16 in
  let k = ref 1 in
  while !k <= load do
    let hi = min load (!k + chunk - 1) in
    let ops = ref [] in
    for i = hi downto !k do
      ops :=
        Wire.Put (Util.Keys.encode_int i, Loadgen.value_of_key i) :: !ops
    done;
    let resp = Server.submit srv { Wire.rid = !k; ops = !ops } in
    (if resp.Wire.status = Wire.Ok then begin
       acked := !acked + List.length resp.Wire.replies;
       List.iteri
         (fun j r ->
           match r with
           | Wire.Done true -> completed.(!k + j) <- true
           | _ -> ())
         resp.Wire.replies
     end);
    k := hi + 1
  done;
  (completed, !acked)

let traffic_cfg ?(txn_pct = 0) ?(txn_ops = 6) ?(ops_per_request = 4) ~workers
    ~ops ~load ~key_base ~seed () =
  {
    Loadgen.workers;
    requests = max 1 (ops / workers / 4);
    ops_per_request;
    write_pct = 50;
    scan_pct = 0;
    scan_len = 16;
    read_space = load;
    mode = Loadgen.Fresh_keys;
    key_base;
    txn_pct;
    txn_ops;
    seed;
  }

(* Stats-endpoint consistency after a restart, with every submit returned:
   counter [key] covers at least [floor] (the counter add happens-before
   the ack, see [Server.worker]), the server is healthy, every queue is
   empty and no ack is still parked, and — since every mode parks acks in
   epochs — at least one epoch advanced (the counters are process-global,
   so >= 1 holds across restarts too).  Returns the number of violations:
   each is a serving-path malfunction, reported as [stalled]. *)
let stats_violations srv ~shards ~key ~floor =
  match Server.submit srv { Wire.rid = 0; ops = [ Wire.Stats ] } with
  | { Wire.status = Wire.Ok; replies = [ Wire.Stats_reply fields ]; _ } ->
      let bad = ref 0 in
      let fv k =
        match List.assoc_opt k fields with
        | Some v -> v
        | None ->
            incr bad;
            -1
      in
      if fv key < floor then incr bad;
      if fv "crashed" <> 0 then incr bad;
      if fv "epochs" < 1 then incr bad;
      for sid = 0 to shards - 1 do
        if fv (Printf.sprintf "shard.%d.queue_depth" sid) <> 0 then incr bad;
        if fv (Printf.sprintf "shard.%d.pending_acks" sid) <> 0 then incr bad
      done;
      !bad
  | _ -> 1

let campaign ~make ~(cfg : Server.config) ?(plan = `Random) ?ops_per_request
    ~states ~load ~ops ~workers ~seed () : Crashtest.load_report =
  let traffic_cfg = traffic_cfg ?ops_per_request in
  let rng = Util.Rng.create seed in
  let mk_parts () = Array.init cfg.shards make in
  (* Preview: measure the traffic phase's substrate event counts so plans
     land inside it. *)
  let ev =
    fresh_env ();
    let parts = mk_parts () in
    let srv = Server.start cfg parts in
    ignore (preload srv load);
    let ev =
      Faultinject.count_events (fun () ->
          ignore
            (Loadgen.run srv
               (traffic_cfg ~workers ~ops ~load ~key_base:(load + 1)
                  ~seed ())))
    in
    Server.stop srv;
    ev
  in
  let draw_plan () =
    match plan with
    | `Random ->
        Faultinject.random_plan rng ~max_events:(max 1 ev.Faultinject.flushes)
    | `Mid_epoch ->
        Faultinject.Crash_at_store
          { k = 1 + Util.Rng.below rng (max 1 ev.Faultinject.stores) }
    | `Boundary ->
        if Util.Rng.below rng 2 = 0 then
          Faultinject.Crash_at_flush
            { site = None; k = 1 + Util.Rng.below rng (max 1 ev.Faultinject.flushes) }
        else
          Faultinject.Crash_at_fence
            { site = None; k = 1 + Util.Rng.below rng (max 1 ev.Faultinject.fences) }
  in
  let crashes = ref 0 and lost = ref 0 and wrong = ref 0 and stalled = ref 0 in
  (* Ops this campaign's clients have had acknowledged, across every state
     and server generation — the floor the stats endpoint must report.  The
     serving counters are process-global named metrics, so a restarted
     server re-attaches to them rather than starting a fresh count. *)
  let acked_total = ref 0 in
  let faults0 = Faultinject.fire_count () in
  let recoveries = ref 0 and recover_ns = ref 0 in
  let sweep_stats = ref Recipe.Recovery.zero in
  for state = 1 to states do
    fresh_env ();
    let parts = mk_parts () in
    let srv = Server.start cfg parts in
    let completed, preload_acked = preload srv load in
    acked_total := !acked_total + preload_acked;
    (* Phase 1: traffic under an armed fault plan. *)
    Faultinject.arm (draw_plan ());
    let out1 =
      Loadgen.run srv
        (traffic_cfg ~workers ~ops ~load ~key_base:(load + 1)
           ~seed:(seed + (1000 * state)) ())
    in
    if Server.crashed srv then incr crashes;
    Server.stop srv;
    Faultinject.disarm ();
    Pmem.Crash.disarm ();
    Pmem.sanitize_sync ();
    (* Phase 2: power failure, per-partition timed recovery, leak sweep. *)
    Pmem.simulate_power_failure ();
    Array.iter
      (fun (p : Server.partition) ->
        incr recoveries;
        let t0 = now_ns () in
        (try p.Server.p_recover () with _ -> incr stalled);
        recover_ns := !recover_ns + (now_ns () - t0);
        match p.Server.p_sweep with
        | Some sw -> (
            try sweep_stats := Recipe.Recovery.add !sweep_stats (sw ())
            with _ -> incr stalled)
        | None -> ())
      parts;
    (* Phase 3: resumed serving on the recovered partitions. *)
    let srv2 = Server.start cfg parts in
    let out2 =
      Loadgen.run srv2
        (traffic_cfg ~workers ~ops ~load ~key_base:(load + 100_001)
           ~seed:(seed + (1000 * state) + 1) ())
    in
    acked_total := !acked_total + out1.Loadgen.ops_acked + out2.Loadgen.ops_acked;
    (* Verification, through the serving path. *)
    let get k =
      let resp =
        Server.submit srv2
          { Wire.rid = 0; ops = [ Wire.Get (Util.Keys.encode_int k) ] }
      in
      match (resp.Wire.status, resp.Wire.replies) with
      | Wire.Ok, [ Wire.Found v ] ->
          incr acked_total;
          Some v
      | Wire.Ok, [ Wire.Absent ] ->
          incr acked_total;
          None
      | _ ->
          incr stalled;
          None
    in
    let check k v =
      match get k with
      | Some v' -> if v' <> v then incr wrong
      | None -> incr lost
    in
    let expected = ref [] in
    for i = load downto 1 do
      if completed.(i) then expected := (i, Loadgen.value_of_key i) :: !expected
    done;
    let acked =
      List.rev_append out1.Loadgen.puts_acked out2.Loadgen.puts_acked
    in
    List.iter (fun (k, v) -> check k v) !expected;
    List.iter (fun (k, v) -> check k v) acked;
    (* Served-scan consistency (ordered partitions only): ascending global
       key order and every acknowledged binding present.  The wire scan
       count is u16, so membership can only be checked when the whole index
       fits in one scan reply — beyond the cap the scan truncates and the
       missing tail would count as false losses.  [load + 2*ops] bounds the
       index size: preload plus every put of both traffic phases (acked or
       not). *)
    let scan_cap = 0xFFFF in
    let bindings = !expected @ acked in
    (match (Array.length parts > 0, parts.(0).Server.p_scan) with
    | true, Some _ ->
        let resp =
          Server.submit srv2
            {
              Wire.rid = 0;
              ops = [ Wire.Scan (Util.Keys.encode_int 0, scan_cap) ];
            }
        in
        (match (resp.Wire.status, resp.Wire.replies) with
        | Wire.Ok, [ Wire.Scanned items ] ->
            incr acked_total;
            let rec sorted = function
              | (a, _) :: ((b, _) :: _ as rest) ->
                  if String.compare a b >= 0 then incr wrong;
                  sorted rest
              | [ _ ] | [] -> ()
            in
            sorted items;
            if load + (2 * ops) <= scan_cap then begin
              let tbl = Hashtbl.create (List.length items) in
              List.iter (fun (k, v) -> Hashtbl.replace tbl k v) items;
              List.iter
                (fun (k, v) ->
                  match Hashtbl.find_opt tbl (Util.Keys.encode_int k) with
                  | Some v' -> if v' <> v then incr wrong
                  | None -> incr lost)
                bindings
            end
        | _ -> incr stalled)
    | _ -> ());
    (* Queried after every ack above: the snapshot must never undercount
       acked ops. *)
    stalled :=
      !stalled
      + stats_violations srv2 ~shards:cfg.shards ~key:"ops_acked"
          ~floor:!acked_total;
    Server.stop srv2
  done;
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  Faultinject.disarm ();
  {
    Crashtest.base =
      {
        Crashtest.states_tested = states;
        crashes_fired = !crashes;
        lost_keys = !lost;
        wrong_values = !wrong;
        stalled = !stalled;
      };
    faults_injected = Faultinject.fire_count () - faults0;
    recoveries = !recoveries;
    recover_ns = !recover_ns;
    sweep_stats = !sweep_stats;
  }

(* --- multi-key transaction campaign --------------------------------------- *)

(* The txn campaign reuses the crash-mid-serving skeleton but drives a
   transaction-heavy workload and verifies *batch atomicity* on top of the
   per-op invariants:

   - an acknowledged batch must be applied in full (every put readable,
     every delete absent) — a violation counts as a lost acked batch (and
     as lost keys in the base report, keeping the zero-lost invariant
     binding);
   - any batch — acked or not — must be all-or-nothing: a batch observed
     with some members applied and some not is a [partial_batches]
     atomicity violation.

   The replay model is exact because of how {!Loadgen.build_txn} picks
   keys: every transactional put uses a globally fresh key, and a delete
   only ever targets one of the *same worker's previously acknowledged*
   transactional puts, each key deleted at most once.  So each key has one
   writer batch, at most one deleter batch, and "applied" is unambiguous
   per member.  {!Recipe.Txn.recover_all} runs before the per-partition
   structural recovery, exactly as a real restart would order them. *)
let txn_campaign ~make ~(cfg : Server.config) ?(plan = `Random)
    ?(txn_pct = 60) ?(txn_ops = 6) ~states ~load ~ops ~workers ~seed () :
    Crashtest.txn_report =
  let rng = Util.Rng.create seed in
  let mk_parts () = Array.init cfg.shards make in
  let mk_cfg ~key_base ~seed =
    traffic_cfg ~txn_pct ~txn_ops ~workers ~ops ~load ~key_base ~seed ()
  in
  (* Preview run: measure substrate event counts so plans land inside the
     transactional traffic (prepare/flip fences included). *)
  let ev =
    fresh_env ();
    let parts = mk_parts () in
    let srv = Server.start cfg parts in
    ignore (preload srv load);
    let ev =
      Faultinject.count_events (fun () ->
          ignore (Loadgen.run srv (mk_cfg ~key_base:(load + 1) ~seed)))
    in
    Server.stop srv;
    ev
  in
  let draw_plan () =
    match plan with
    | `Random ->
        Faultinject.random_plan rng ~max_events:(max 1 ev.Faultinject.flushes)
    | `Mid_epoch ->
        Faultinject.Crash_at_store
          { k = 1 + Util.Rng.below rng (max 1 ev.Faultinject.stores) }
    | `Boundary ->
        if Util.Rng.below rng 2 = 0 then
          Faultinject.Crash_at_flush
            {
              site = None;
              k = 1 + Util.Rng.below rng (max 1 ev.Faultinject.flushes);
            }
        else
          Faultinject.Crash_at_fence
            {
              site = None;
              k = 1 + Util.Rng.below rng (max 1 ev.Faultinject.fences);
            }
  in
  let crashes = ref 0 and lost = ref 0 and wrong = ref 0 and stalled = ref 0 in
  let partial = ref 0 and lost_acked = ref 0 in
  let tx_acked = ref 0 and tx_aborted = ref 0 in
  let txn_rec = ref Recipe.Recovery.txn_zero in
  let faults0 = Faultinject.fire_count () in
  let recoveries = ref 0 and recover_ns = ref 0 in
  let sweep_stats = ref Recipe.Recovery.zero in
  for state = 1 to states do
    fresh_env ();
    let parts = mk_parts () in
    let srv = Server.start cfg parts in
    let completed, _ = preload srv load in
    Faultinject.arm (draw_plan ());
    let out1 =
      Loadgen.run srv
        (mk_cfg ~key_base:(load + 1) ~seed:(seed + (1000 * state)))
    in
    if Server.crashed srv then incr crashes;
    Server.stop srv;
    Faultinject.disarm ();
    Pmem.Crash.disarm ();
    Pmem.sanitize_sync ();
    Pmem.simulate_power_failure ();
    (* WAL recovery first: undo/redo of in-flight transactions must be
       settled before the structural repairs walk the indexes. *)
    txn_rec := Recipe.Recovery.txn_add !txn_rec (Recipe.Txn.recover_all ());
    Array.iter
      (fun (p : Server.partition) ->
        incr recoveries;
        let t0 = now_ns () in
        (try p.Server.p_recover () with _ -> incr stalled);
        recover_ns := !recover_ns + (now_ns () - t0);
        match p.Server.p_sweep with
        | Some sw -> (
            try sweep_stats := Recipe.Recovery.add !sweep_stats (sw ())
            with _ -> incr stalled)
        | None -> ())
      parts;
    let srv2 = Server.start cfg parts in
    let out2 =
      Loadgen.run srv2
        (mk_cfg ~key_base:(load + 100_001) ~seed:(seed + (1000 * state) + 1))
    in
    tx_acked := !tx_acked + out1.Loadgen.txns_acked + out2.Loadgen.txns_acked;
    tx_aborted :=
      !tx_aborted + out1.Loadgen.txns_aborted + out2.Loadgen.txns_aborted;
    (* Verification through the serving path. *)
    let get k =
      let resp =
        Server.submit srv2
          { Wire.rid = 0; ops = [ Wire.Get (Util.Keys.encode_int k) ] }
      in
      match (resp.Wire.status, resp.Wire.replies) with
      | Wire.Ok, [ Wire.Found v ] -> Some v
      | Wire.Ok, [ Wire.Absent ] -> None
      | _ ->
          incr stalled;
          None
    in
    let check k v =
      match get k with
      | Some v' -> if v' <> v then incr wrong
      | None -> incr lost
    in
    for i = 1 to load do
      if completed.(i) then check i (Loadgen.value_of_key i)
    done;
    List.iter (fun (k, v) -> check k v)
      (List.rev_append out1.Loadgen.puts_acked out2.Loadgen.puts_acked);
    (* Batch atomicity.  Keys are globally unique across phases and
       workers, so one deleter map over all batches is sound. *)
    let batches = out1.Loadgen.txn_batches @ out2.Loadgen.txn_batches in
    let deleter_acked = Hashtbl.create 64 in
    List.iter
      (fun (b : Loadgen.txn_batch) ->
        List.iter
          (fun (k, m) ->
            if m = None then Hashtbl.replace deleter_acked k b.Loadgen.acked)
          b.Loadgen.members)
      batches;
    List.iter
      (fun (b : Loadgen.txn_batch) ->
        if b.Loadgen.acked then begin
          (* Every member must be in its applied state — except a put
             whose key a *later* batch deleted, where the expected value
             depends on that batch's fate. *)
          let complete = ref true in
          List.iter
            (fun (k, m) ->
              match m with
              | Some v -> (
                  match (Hashtbl.find_opt deleter_acked k, get k) with
                  | Some true, Some _ ->
                      (* an acked delete of [k] was not applied; charged to
                         the deleting batch below *)
                      ()
                  | Some true, None | Some false, None -> ()
                  | (Some false | None), Some v' ->
                      if v' <> v then begin
                        incr wrong;
                        complete := false
                      end
                  | None, None -> complete := false)
              | None -> if get k <> None then complete := false)
            b.Loadgen.members;
          if not !complete then begin
            incr lost_acked;
            incr lost
          end
        end
        else begin
          (* Unacked/aborted batch: all-or-nothing. *)
          let applied = ref 0 and missing = ref 0 in
          List.iter
            (fun (k, m) ->
              match (m, get k) with
              | Some v, Some v' ->
                  if v' = v then incr applied else incr wrong
              | Some _, None -> incr missing
              | None, None -> incr applied
              | None, Some _ -> incr missing)
            b.Loadgen.members;
          if !applied > 0 && !missing > 0 then incr partial
        end)
      batches;
    (* The committed-transaction counter is monotone and process-global;
       it must cover at least this campaign's acks. *)
    stalled :=
      !stalled
      + stats_violations srv2 ~shards:cfg.shards ~key:"txns" ~floor:!tx_acked;
    Server.stop srv2
  done;
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  Faultinject.disarm ();
  {
    Crashtest.tload =
      {
        Crashtest.base =
          {
            Crashtest.states_tested = states;
            crashes_fired = !crashes;
            lost_keys = !lost;
            wrong_values = !wrong;
            stalled = !stalled;
          };
        faults_injected = Faultinject.fire_count () - faults0;
        recoveries = !recoveries;
        recover_ns = !recover_ns;
        sweep_stats = !sweep_stats;
      };
    txns_acked = !tx_acked;
    txns_aborted = !tx_aborted;
    partial_batches = !partial;
    lost_acked_batches = !lost_acked;
    txn_recovery = !txn_rec;
  }
