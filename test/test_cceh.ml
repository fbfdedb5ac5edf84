(* Tests for the CCEH baseline: semantics, segment splits, directory
   doubling, concurrency, crash recovery normalization, and the §3
   directory-doubling bug reproduction. *)

(* Under RECIPE_SANITIZE (the @sanitize alias) the whole suite runs with
   the psan sanitizer enabled and must produce zero diagnostics. *)
let () = Harness.Sanitize_env.init ()


let reset () =
  Pmem.Mode.set_shadow false;
  Pmem.Llc.set_enabled false;
  Pmem.Crash.disarm ();
  ignore (Pmem.persist_everything ());
  Pmem.Stats.reset ();
  Util.Lock.new_epoch ()

(* --- Sequential ---------------------------------------------------------- *)

let test_insert_lookup () =
  reset ();
  let t = Cceh.create ~capacity:128 () in
  Alcotest.(check bool) "insert" true (Cceh.insert t 42 420);
  Alcotest.(check bool) "dup" false (Cceh.insert t 42 999);
  Alcotest.(check (option int)) "lookup" (Some 420) (Cceh.lookup t 42);
  Alcotest.(check (option int)) "missing" None (Cceh.lookup t 43)

let test_delete () =
  reset ();
  let t = Cceh.create ~capacity:128 () in
  ignore (Cceh.insert t 7 70);
  Alcotest.(check bool) "delete" true (Cceh.delete t 7);
  Alcotest.(check (option int)) "gone" None (Cceh.lookup t 7);
  Alcotest.(check bool) "delete absent" false (Cceh.delete t 7);
  Alcotest.(check bool) "reinsert" true (Cceh.insert t 7 71);
  Alcotest.(check (option int)) "new value" (Some 71) (Cceh.lookup t 7)

let test_splits_and_doubling () =
  reset ();
  let t = Cceh.create ~capacity:128 () in
  let d0 = Cceh.global_depth t in
  let r = Util.Rng.create 7 in
  let n = 30_000 in
  let keys = Array.init n (fun _ -> Util.Rng.key r) in
  Array.iter (fun k -> ignore (Cceh.insert t k (k land 0xFFFF))) keys;
  Alcotest.(check bool) "splits happened" true (Cceh.split_count t > 0);
  Alcotest.(check bool) "directory doubled" true (Cceh.global_depth t > d0);
  Array.iter
    (fun k ->
      if Cceh.lookup t k <> Some (k land 0xFFFF) then Alcotest.failf "lost %d" k)
    keys

let prop_matches_model =
  QCheck.Test.make ~name:"cceh matches Hashtbl model" ~count:100
    QCheck.(
      make
        ~print:(fun l ->
          String.concat ";"
            (List.map (fun (op, key) -> Printf.sprintf "%d:%d" op key) l))
        (QCheck.Gen.list_size (QCheck.Gen.int_range 0 400)
           (QCheck.Gen.pair (QCheck.Gen.int_range 0 2) (QCheck.Gen.int_range 1 300))))
    (fun ops ->
      reset ();
      let t = Cceh.create ~capacity:128 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (op, key) ->
          match op with
          | 0 ->
              let fresh = not (Hashtbl.mem model key) in
              if fresh then Hashtbl.replace model key (key * 3);
              Cceh.insert t key (key * 3) = fresh
          | 1 ->
              let present = Hashtbl.mem model key in
              Hashtbl.remove model key;
              Cceh.delete t key = present
          | _ -> Cceh.lookup t key = Hashtbl.find_opt model key)
        ops)

(* --- Concurrency ---------------------------------------------------------- *)

let test_concurrent_inserts () =
  reset ();
  let t = Cceh.create ~capacity:128 () in
  let n_domains = 4 and per = 8_000 in
  let body d () =
    for i = 0 to per - 1 do
      let k = (i * n_domains) + d + 1 in
      ignore (Cceh.insert t k k)
    done
  in
  let ds = List.init n_domains (fun d -> Domain.spawn (body d)) in
  List.iter Domain.join ds;
  for k = 1 to n_domains * per do
    if Cceh.lookup t k <> Some k then Alcotest.failf "lost %d" k
  done

let test_concurrent_readers_during_splits () =
  reset ();
  let t = Cceh.create ~capacity:128 () in
  for k = 1 to 2_000 do
    ignore (Cceh.insert t k k)
  done;
  let stop = Atomic.make false in
  let reader () =
    let r = Util.Rng.create 13 in
    let bad = ref 0 in
    while not (Atomic.get stop) do
      let k = 1 + Util.Rng.below r 2_000 in
      if Cceh.lookup t k <> Some k then incr bad
    done;
    !bad
  in
  let writer () =
    for k = 2_001 to 30_000 do
      ignore (Cceh.insert t k k)
    done;
    0
  in
  let rd = Domain.spawn reader and wd = Domain.spawn writer in
  ignore (Domain.join wd);
  Atomic.set stop true;
  Alcotest.(check int) "stable keys readable across splits" 0 (Domain.join rd)

(* Doublings that land inside a split's directory rewrite.  The split
   stores its region's 1-half pointers, then its 0-half ones; a doubling
   that copied the directory in between would publish the new child for
   the 1-half next to the old segment for the 0-half, and the next split
   of the old segment would overwrite the child with a stale copy.  A
   sfence hook on the split site parks the splitting domain after its
   first directory commit and starts a doubling on another domain; the
   split resumes once the doubling has finished or spins on a lock.  Every
   third split is raced, eight in all: whether one race loses a key
   depends on which half the retried insert hashes to. *)
let test_doublings_during_splits () =
  reset ();
  let t = Cceh.create ~capacity:128 () in
  let races = 8 and raced = ref 0 in
  let split_seen = ref (-1) and fences = ref 0 and doubler = ref None in
  let finished = Atomic.make false and spinning = Atomic.make false in
  let sfence = function
    | Some s
      when !raced < races && Obs.Site.name s = Cceh.name ^ "/segment-split"
      ->
        let sc = Cceh.split_count t in
        if sc <> !split_seen then begin
          split_seen := sc;
          fences := 0
        end;
        incr fences;
        if !fences = 2 && sc mod 3 = 0 then begin
          incr raced;
          Atomic.set finished false;
          Atomic.set spinning false;
          doubler :=
            Some
              (Domain.spawn (fun () ->
                   Cceh.double_directory t;
                   Atomic.set finished true));
          while not (Atomic.get finished || Atomic.get spinning) do
            Domain.cpu_relax ()
          done
        end;
        false
    | _ -> false
  in
  let n = 3_000 in
  Fun.protect
    ~finally:(fun () ->
      Pmem.Hook.set Pmem.Hook.Fault None;
      Util.Lock.clear_abort_hook ())
    (fun () ->
      Util.Lock.set_abort_hook (fun () -> Atomic.set spinning true);
      Pmem.Hook.set Pmem.Hook.Fault (Some { Pmem.Hook.noop with sfence });
      for k = 1 to n do
        ignore (Cceh.insert t k k);
        (* Joined with no lock held, so a doubling parked on the
           directory lock completes before the next split. *)
        Option.iter Domain.join !doubler;
        doubler := None
      done);
  Alcotest.(check int) "splits raced" races !raced;
  for k = 1 to n do
    if Cceh.lookup t k <> Some k then Alcotest.failf "lost key %d" k
  done;
  Alcotest.(check int) "every directory region points to one segment" 0
    (Cceh.leak_sweep t).Recipe.Recovery.orphans

(* --- Crash recovery -------------------------------------------------------- *)

(* Crash at every point of a split-heavy insert burst; after recovery no
   previously-persisted key may be lost and writes must proceed. *)
let test_crash_split_recovery () =
  let campaign_points = 80 in
  for point = 1 to campaign_points do
    reset ();
    Pmem.Mode.set_shadow true;
    let t = Cceh.create ~capacity:128 () in
    for k = 1 to 400 do
      ignore (Cceh.insert t k k)
    done;
    Pmem.persist_everything ();
    Pmem.Crash.arm_at point;
    (try
       for k = 401 to 2_000 do
         ignore (Cceh.insert t k k)
       done;
       Pmem.Crash.disarm ()
     with Pmem.Crash.Simulated_crash -> ());
    Pmem.simulate_power_failure ();
    Cceh.recover t;
    for k = 1 to 400 do
      if Cceh.lookup t k <> Some k then
        Alcotest.failf "crash point %d lost key %d" point k
    done;
    ignore (Cceh.insert t 1_000_000 1);
    if Cceh.lookup t 1_000_000 <> Some 1 then
      Alcotest.failf "post-recovery insert broken at point %d" point
  done;
  Pmem.Mode.set_shadow false

(* The §3 doubling bug: the deterministic crash-point sweep must find the
   state (between the directory-pointer and global-depth commits) after
   which operations stall. *)
let test_crash_doubling_bug () =
  reset ();
  let make () =
    let t = Cceh.create ~bug_doubling:true ~capacity:128 () in
    {
      Crashtest.sname = "CCEH(buggy)";
      insert = (fun k v -> Cceh.insert t k v);
      lookup = (fun k -> Cceh.lookup t k);
      recover = (fun () -> Cceh.recover t);
      scan_all = None;
      sweep = Some (fun () -> Cceh.leak_sweep ~reclaim:true t);
    }
  in
  let r = Crashtest.sweep ~make ~points:20_000 ~stride:1 ~load:3_000 () in
  Alcotest.(check bool) "doubling bug produces a stall" true
    (r.Crashtest.stalled > 0);
  (* This test *wants* the bug; under @sanitize, drop the diagnostics the
     buggy variant rightly produced so the at-exit zero check stays clean. *)
  Obs.Diag.clear ()

(* Fixed version: same campaign must never stall. *)
let test_no_stall_when_fixed () =
  for point = 1 to 40 do
    reset ();
    Pmem.Mode.set_shadow true;
    let t = Cceh.create ~capacity:128 () in
    Pmem.Crash.arm_at (point * 53);
    (try
       let r = Util.Rng.create 22 in
       for _ = 1 to 20_000 do
         ignore (Cceh.insert t (Util.Rng.key r) 1)
       done;
       Pmem.Crash.disarm ()
     with Pmem.Crash.Simulated_crash -> ());
    Pmem.simulate_power_failure ();
    (try
       Cceh.recover t;
       ignore (Cceh.insert t 999_999 1)
     with Cceh.Stalled -> Alcotest.fail "fixed CCEH must never stall")
  done;
  Pmem.Mode.set_shadow false

(* --- Durability -------------------------------------------------------------- *)

let test_durability () =
  reset ();
  Pmem.Mode.set_shadow true;
  let t = Cceh.create ~capacity:128 () in
  Alcotest.(check int) "clean after create" 0 (Pmem.dirty_count ());
  let r = Util.Rng.create 31 in
  for i = 1 to 3_000 do
    ignore (Cceh.insert t (Util.Rng.key r) i);
    if Pmem.dirty_count () <> 0 then
      Alcotest.failf "dirty lines after insert %d: %s" i
        (String.concat "," (Pmem.dirty_objects ()))
  done;
  Pmem.Mode.set_shadow false

let () =
  Alcotest.run "cceh"
    [
      ( "sequential",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "splits+doubling" `Quick test_splits_and_doubling;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
      ( "concurrent",
        [
          Alcotest.test_case "inserts" `Quick test_concurrent_inserts;
          Alcotest.test_case "reads during splits" `Quick
            test_concurrent_readers_during_splits;
          Alcotest.test_case "doublings during splits" `Quick
            test_doublings_during_splits;
        ] );
      ( "crash",
        [
          Alcotest.test_case "split recovery" `Quick test_crash_split_recovery;
          Alcotest.test_case "doubling bug stalls" `Quick test_crash_doubling_bug;
          Alcotest.test_case "fixed never stalls" `Quick test_no_stall_when_fixed;
        ] );
      ("durability", [ Alcotest.test_case "no dirty lines" `Quick test_durability ]);
    ]
