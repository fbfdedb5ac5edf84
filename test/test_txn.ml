(* Multi-key failure-atomic transactions (DESIGN.md §14):

   - WAL unit protocol: a committed transaction survives a power failure,
     a prepared-but-unflipped one rolls back to its pre-images, and an
     overflowing transaction aborts in volatile memory without touching
     the persistent record;
   - mutation adequacy: deleting the commit-record fence makes recovery
     roll an *acknowledged* transaction back — the loss the crash
     campaign's verdict rests on catching;
   - differential test: a random interleaving of transaction batches and
     single-op traffic through the real sharded server equals a
     sequential Hashtbl model that applies committed batches atomically,
     on an ordered (P-ART) and a hash (P-CLHT) partition set;
   - fence amortization: sfence per member op falls from 1- to 16-member
     batches in both persist modes;
   - crash campaigns over four configurations (single- and cross-shard
     batches, P-ART and P-CLHT) with faults aimed before, inside, and
     after the commit-record flip: zero partially applied batches, zero
     lost acknowledged batches. *)

let () = Harness.Sanitize_env.init ()

let art_part = Harness.Index.(partition art)
let clht_part = Harness.Index.(partition (Option.get (find Clht.name)))

open Kvserve

let fresh_env () =
  Faultinject.disarm ();
  Pmem.Crash.disarm ();
  Pmem.Mode.set_shadow true;
  ignore (Pmem.persist_everything ());
  Recipe.Txn.clear_registry ();
  Util.Lock.new_epoch ()

let teardown () =
  Faultinject.disarm ();
  Pmem.Crash.disarm ();
  Pmem.Hook.undrop ();
  if Recipe.Persist.txn_active () then Recipe.Persist.txn_end_abort ();
  Recipe.Persist.set_group false;
  Pmem.Mode.set_shadow false

let with_env f = Fun.protect ~finally:teardown (fun () -> fresh_env (); f ())

(* --- WAL protocol units --------------------------------------------------- *)

(* Stage two cache lines' worth of commits under undo capture and run the
   snapshot protocol up to [stop_before_flip]; returns the region. *)
let stage_and_prepare ?(stop_before_flip = false) wal =
  let w = Pmem.Words.make ~name:"txn-unit" 64 0 in
  ignore (Pmem.persist_everything ());
  Recipe.Persist.set_group true;
  Recipe.Txn.begin_txn wal ~tid:(Recipe.Txn.fresh_tid ()) ~coordinated:false;
  Recipe.Persist.txn_begin ~log:(Recipe.Txn.append wal) ();
  Recipe.Persist.commit w 0 11;
  Recipe.Persist.commit w 9 22;
  let undo = Recipe.Persist.txn_undo_log () in
  Alcotest.(check int) "two lines captured" 2 (List.length undo);
  Recipe.Txn.seal wal;
  ignore (Recipe.Persist.epoch_advance ());
  if not stop_before_flip then begin
    Recipe.Txn.flip_commit wal;
    Recipe.Persist.txn_end_commit ()
  end;
  Recipe.Persist.set_group false;
  w

let test_commit_survives () =
  with_env (fun () ->
      let wal = Recipe.Txn.make_wal () in
      let w = stage_and_prepare wal in
      Pmem.simulate_power_failure ();
      let st = Recipe.Txn.recover_all () in
      Alcotest.(check int) "rolled forward" 1
        st.Recipe.Recovery.rolled_forward;
      Alcotest.(check int) "rolled back" 0 st.Recipe.Recovery.rolled_back;
      Alcotest.(check int) "w0 committed" 11 (Pmem.Words.get w 0);
      Alcotest.(check int) "w9 committed" 22 (Pmem.Words.get w 9);
      (* Idempotence: a second recovery finds the record retired. *)
      let st2 = Recipe.Txn.recover_all () in
      Alcotest.(check int) "idle after retire" 1 st2.Recipe.Recovery.idle)

let test_crash_before_flip_rolls_back () =
  with_env (fun () ->
      let wal = Recipe.Txn.make_wal () in
      let w = stage_and_prepare ~stop_before_flip:true wal in
      (* Crash between the data flush and the flip: the persisted record
         says Prepared, so recovery must restore the pre-images — even
         though the data lines themselves were durably flushed. *)
      Pmem.simulate_power_failure ();
      Recipe.Persist.txn_end_abort ();
      let st = Recipe.Txn.recover_all () in
      Alcotest.(check int) "rolled back" 1 st.Recipe.Recovery.rolled_back;
      Alcotest.(check int) "w0 restored" 0 (Pmem.Words.get w 0);
      Alcotest.(check int) "w9 restored" 0 (Pmem.Words.get w 9);
      Alcotest.(check int) "nothing dirty after rollback" 0
        (Pmem.dirty_count ()))

(* Mutation adequacy: with the commit-record fence deleted, the flip is
   volatile — the power failure reverts the state word to Prepared and
   recovery rolls the acknowledged transaction back.  That observable loss
   (values gone after an acked commit) is exactly what the campaign
   invariant reports as a lost acked batch, so the harness CATCHES the
   dropped fence; with the fence restored the same sequence survives. *)
let test_dropped_commit_fence_caught () =
  with_env (fun () ->
      Pmem.Hook.drop ~clwb_at:"txn/wal/commit" ~sfence_at:"txn/wal/commit" ();
      let wal = Recipe.Txn.make_wal () in
      let w = stage_and_prepare wal in
      Pmem.simulate_power_failure ();
      let st = Recipe.Txn.recover_all () in
      Alcotest.(check int) "mutant: acked txn rolled back" 1
        st.Recipe.Recovery.rolled_back;
      Alcotest.(check int) "mutant: acked value lost — caught" 0
        (Pmem.Words.get w 0));
  with_env (fun () ->
      let wal = Recipe.Txn.make_wal () in
      let w = stage_and_prepare wal in
      Pmem.simulate_power_failure ();
      let st = Recipe.Txn.recover_all () in
      Alcotest.(check int) "fence restored: rolled forward" 1
        st.Recipe.Recovery.rolled_forward;
      Alcotest.(check int) "fence restored: value survives" 11
        (Pmem.Words.get w 0))

let test_overflow_aborts_volatile () =
  with_env (fun () ->
      let n = Recipe.Txn.max_entries + 1 in
      let w = Pmem.Words.make ~name:"txn-overflow" (8 * n) 0 in
      ignore (Pmem.persist_everything ());
      let wal = Recipe.Txn.make_wal () in
      Recipe.Persist.set_group true;
      Recipe.Txn.begin_txn wal ~tid:(Recipe.Txn.fresh_tid ())
        ~coordinated:false;
      Recipe.Persist.txn_begin ~log:(Recipe.Txn.append wal) ();
      for i = 0 to n - 1 do
        Recipe.Persist.commit w (8 * i) 7
      done;
      let undo = Recipe.Persist.txn_undo_log () in
      Alcotest.(check int) "one entry per line" n (List.length undo);
      (match Recipe.Txn.seal wal with
      | () -> Alcotest.fail "oversized transaction must overflow"
      | exception Recipe.Txn.Overflow ->
          Recipe.Txn.volatile_rollback undo;
          Recipe.Txn.retire wal;
          Recipe.Persist.txn_end_abort ();
          Recipe.Persist.group_reset ());
      Recipe.Persist.set_group false;
      for i = 0 to n - 1 do
        if Pmem.Words.get w (8 * i) <> 0 then
          Alcotest.failf "line %d not rolled back" i
      done;
      (* The WAL never left Idle: nothing for recovery to do. *)
      let st = Recipe.Txn.recover_all () in
      Alcotest.(check int) "record untouched" 1 st.Recipe.Recovery.idle)

(* --- differential test: server vs sequential atomic model ----------------- *)

(* A single closed-loop client makes the served history sequential, so a
   Hashtbl that applies committed batches atomically (members in order,
   read-your-writes included) must predict every reply bit-exactly.
   [upsert] selects the partition's insert semantics: P-ART upserts,
   P-CLHT is put-if-absent. *)
let model_reply model ~upsert op =
  match op with
  | Wire.Get k -> (
      match Hashtbl.find_opt model k with
      | Some v -> Wire.Found v
      | None -> Wire.Absent)
  | Wire.Put (k, v) ->
      if upsert then begin
        Hashtbl.replace model k v;
        Wire.Done true
      end
      else if Hashtbl.mem model k then Wire.Done false
      else begin
        Hashtbl.replace model k v;
        Wire.Done true
      end
  | Wire.Delete k ->
      let present = Hashtbl.mem model k in
      Hashtbl.remove model k;
      Wire.Done present
  | Wire.Scan _ | Wire.Stats | Wire.Txn _ -> assert false

let gen_member rng keyspace =
  let k = Util.Keys.encode_int (1 + Util.Rng.below rng keyspace) in
  match Util.Rng.below rng 10 with
  | 0 | 1 | 2 -> Wire.Get k
  | 3 | 4 -> Wire.Delete k
  | _ -> Wire.Put (k, Util.Rng.below rng 1_000_000)

let run_differential name make ~upsert ~mode =
  let cfg = { Server.shards = 2; batch = 4; queue_cap = 64; mode } in
  let srv = Server.start cfg (Array.init cfg.Server.shards (fun _ -> make ())) in
  let model : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rng = Util.Rng.create 97 in
  let keyspace = 40 in
  for rid = 1 to 250 do
    let ops =
      if Util.Rng.below rng 10 < 4 then
        [
          Wire.Txn
            (List.init
               (1 + Util.Rng.below rng 6)
               (fun _ -> gen_member rng keyspace));
        ]
      else List.init (1 + Util.Rng.below rng 4) (fun _ -> gen_member rng keyspace)
    in
    let resp = Server.submit srv { Wire.rid; ops } in
    if resp.Wire.status <> Wire.Ok then
      Alcotest.failf "%s: request %d not Ok" name rid;
    List.iter2
      (fun op reply ->
        match op with
        | Wire.Txn members ->
            (* Committed batches apply atomically and in member order. *)
            let expected =
              Wire.Txn_ok (List.map (model_reply model ~upsert) members)
            in
            if reply <> expected then
              Alcotest.failf "%s: txn reply diverged at request %d" name rid
        | op ->
            let expected = model_reply model ~upsert op in
            if reply <> expected then
              Alcotest.failf "%s: reply diverged at request %d" name rid)
      ops resp.Wire.replies
  done;
  (* Full-state sweep: every key the model knows (and 20 absent probes)
     must read back identically. *)
  for k = 1 to keyspace + 20 do
    let ks = Util.Keys.encode_int k in
    let resp = Server.submit srv { Wire.rid = 0; ops = [ Wire.Get ks ] } in
    let got =
      match resp.Wire.replies with
      | [ Wire.Found v ] -> Some v
      | [ Wire.Absent ] -> None
      | _ -> Alcotest.failf "%s: sweep get failed" name
    in
    if got <> Hashtbl.find_opt model ks then
      Alcotest.failf "%s: final state diverged at key %d" name k
  done;
  Server.stop srv

let test_differential_art () =
  with_env (fun () ->
      run_differential "art" art_part ~upsert:true
        ~mode:(Server.Epoch { Epoch_ctl.default_cfg with max_ops = 1 }))

let test_differential_clht () =
  with_env (fun () ->
      run_differential "clht" clht_part ~upsert:false
        ~mode:
          (Server.Epoch
             {
               Epoch_ctl.max_ops = 16;
               max_lines = 128;
               max_delay_ns = 100_000;
             }))

(* --- fence amortization ---------------------------------------------------- *)

(* sfence per acked member op of all-transaction traffic with [members]
   puts per batch, over 2 P-ART shards. *)
let sfence_per_member ~mode ~members =
  fresh_env ();
  let srv =
    Server.start
      { Server.shards = 2; batch = 32; queue_cap = 128; mode }
      (Array.init 2 (fun _ -> art_part ()))
  in
  let s0 = Pmem.Stats.snapshot () in
  let out =
    Loadgen.run srv
      {
        Loadgen.default_cfg with
        workers = 2;
        requests = 40;
        ops_per_request = 1;
        write_pct = 100;
        read_space = 64;
        txn_pct = 100;
        txn_ops = members;
        seed = 42;
      }
  in
  let d = Pmem.Stats.(diff (snapshot ()) s0) in
  Server.stop srv;
  Alcotest.(check int)
    (Printf.sprintf "%s, %d members: every txn acked" (Server.mode_name mode)
       members)
    (2 * 40) out.Loadgen.txns_acked;
  float_of_int d.Pmem.Stats.s_sfence /. float_of_int out.Loadgen.ops_acked

(* A transaction pays a constant sfence overhead (WAL begin, data flush,
   commit flip) on top of the per-member undo append, so 16-member batches
   spend fewer fences per member op than single-member ones, in both
   persist modes (EXPERIMENTS.md E25). *)
let test_fence_amortization () =
  with_env (fun () ->
      List.iter
        (fun mode ->
          let one = sfence_per_member ~mode ~members:1
          and sixteen = sfence_per_member ~mode ~members:16 in
          if not (sixteen < one) then
            Alcotest.failf "%s: sfence/op %.2f at 16 members >= %.2f at 1"
              (Server.mode_name mode) sixteen one)
        [ Server.Per_op; Server.Epoch Epoch_ctl.default_cfg ])

(* --- crash campaigns ------------------------------------------------------ *)

(* Four configurations: {P-ART, P-CLHT} × {1 shard (standalone commit),
   2 shards (coordinated 2PC)}.  The [`Boundary] plan aims the crash at a
   random flush or fence — the WAL prepare fences, the data-flush fence,
   and the commit-flip fence itself, i.e. before/inside/after the flip —
   while [`Random] adds store- and alloc-aimed plans (mid-staging). *)
let txn_cfg ~shards ~mode = { Server.shards; batch = 8; queue_cap = 64; mode }

let run_txn_campaign ~make ~shards ~mode ~plan ~seed =
  Servecrash.txn_campaign ~make ~cfg:(txn_cfg ~shards ~mode) ~plan ~txn_pct:60
    ~txn_ops:5 ~states:3 ~load:40 ~ops:120 ~workers:2 ~seed ()

let check_txn_campaign name (r : Crashtest.txn_report) =
  let b = r.Crashtest.tload.Crashtest.base in
  Alcotest.(check int) (name ^ ": partially applied batches") 0
    r.Crashtest.partial_batches;
  Alcotest.(check int) (name ^ ": lost acked batches") 0
    r.Crashtest.lost_acked_batches;
  Alcotest.(check int) (name ^ ": lost acked keys") 0 b.Crashtest.lost_keys;
  Alcotest.(check int) (name ^ ": wrong values") 0 b.Crashtest.wrong_values;
  Alcotest.(check int) (name ^ ": stalled") 0 b.Crashtest.stalled;
  Alcotest.(check bool) (name ^ ": campaign committed txns") true
    (r.Crashtest.txns_acked > 0)

let test_txn_crash_art_single_shard () =
  with_env (fun () ->
      check_txn_campaign "art/1shard"
        (run_txn_campaign
           ~make:(fun _ -> art_part ())
           ~shards:1
           ~mode:(Server.Epoch { Epoch_ctl.default_cfg with max_ops = 1 })
           ~plan:`Boundary ~seed:21))

let test_txn_crash_art_cross_shard () =
  with_env (fun () ->
      check_txn_campaign "art/2shard"
        (run_txn_campaign
           ~make:(fun _ -> art_part ())
           ~shards:2
           ~mode:
             (Server.Epoch
                {
                  Epoch_ctl.max_ops = 16;
                  max_lines = 128;
                  max_delay_ns = 100_000;
                })
           ~plan:`Random ~seed:22))

let test_txn_crash_clht_single_shard () =
  with_env (fun () ->
      check_txn_campaign "clht/1shard"
        (run_txn_campaign
           ~make:(fun _ -> clht_part ())
           ~shards:1 ~mode:Server.Per_op ~plan:`Boundary ~seed:23))

let test_txn_crash_clht_cross_shard () =
  with_env (fun () ->
      check_txn_campaign "clht/2shard"
        (run_txn_campaign
           ~make:(fun _ -> clht_part ())
           ~shards:2
           ~mode:(Server.Epoch { Epoch_ctl.default_cfg with max_ops = 1 })
           ~plan:`Random ~seed:24))

let () =
  Alcotest.run "txn"
    [
      ( "wal",
        [
          Alcotest.test_case "committed txn survives power failure" `Quick
            test_commit_survives;
          Alcotest.test_case "crash before flip rolls back" `Quick
            test_crash_before_flip_rolls_back;
          Alcotest.test_case "dropped commit fence is caught" `Quick
            test_dropped_commit_fence_caught;
          Alcotest.test_case "overflow aborts in volatile memory" `Quick
            test_overflow_aborts_volatile;
        ] );
      ( "differential",
        [
          Alcotest.test_case "server vs atomic model, ordered" `Quick
            test_differential_art;
          Alcotest.test_case "server vs atomic model, hash" `Quick
            test_differential_clht;
        ] );
      ( "amortization",
        [
          Alcotest.test_case "fence amortization" `Quick
            test_fence_amortization;
        ] );
      ( "crash",
        [
          Alcotest.test_case "standalone, ordered" `Quick
            test_txn_crash_art_single_shard;
          Alcotest.test_case "coordinated, ordered" `Quick
            test_txn_crash_art_cross_shard;
          Alcotest.test_case "standalone, hash" `Quick
            test_txn_crash_clht_single_shard;
          Alcotest.test_case "coordinated, hash" `Quick
            test_txn_crash_clht_cross_shard;
        ] );
    ]
