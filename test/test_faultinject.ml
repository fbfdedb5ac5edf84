(* The fault-injection subsystem end to end: the off path costs nothing,
   plans fire deterministically and exactly once, every index survives the
   fault-injected recovery-under-load campaign (including crashes during
   recovery itself), structural recovery repairs deliberately interrupted
   CLHT rehashes and FAST & FAIR splits, and crash campaigns are
   seed-deterministic.  Complements test_crashtest.ml, which drives the
   declared-crash-point campaigns. *)

let fresh_env () =
  Faultinject.disarm ();
  Pmem.Crash.disarm ();
  Pmem.Mode.set_shadow true;
  ignore (Pmem.persist_everything ());
  Util.Lock.new_epoch ()

let teardown () =
  Faultinject.disarm ();
  Pmem.Crash.disarm ();
  Pmem.Mode.set_shadow false

let with_env f = Fun.protect ~finally:teardown (fun () -> fresh_env (); f ())

(* --- the off path -------------------------------------------------------

   With the seam's flag bit clear the accessors must not dispatch at all:
   a counting record assigned straight into [Pmem.Hook.h] (bypassing
   [Hook.set], so [f_hooked] stays clear) must see no event from a workload
   of stores, flushes, fences and allocations — an accessor that called the
   hook without testing the flag would be caught here (the mirror of
   test_psan.ml's off-path assertion).  A layer installed and then removed
   through [Faultinject.disarm] must leave the bit clear. *)

let test_off_path_untouched () =
  Faultinject.disarm ();
  Alcotest.(check bool)
    "flag clear" false
    (!Pmem.Mode.flags land Pmem.Mode.f_hooked <> 0);
  let calls = ref 0 in
  let counting =
    {
      Pmem.Hook.alloc = (fun _ _ _ -> incr calls);
      store = (fun _ _ _ _ _ -> incr calls);
      load = (fun _ _ _ _ -> incr calls);
      rmw = (fun _ _ _ op _ -> incr calls; op ());
      clwb = (fun _ _ _ _ -> incr calls; false);
      sfence = (fun _ -> incr calls; false);
      publish = (fun _ _ _ _ -> incr calls);
      crash = (fun () -> incr calls);
      quiesce = (fun () -> incr calls);
      sync = (fun () -> incr calls);
    }
  in
  Fun.protect
    ~finally:(fun () -> Pmem.Hook.h := Pmem.Hook.noop)
    (fun () ->
      Pmem.Hook.h := counting;
      let w = Pmem.Words.make ~name:"fi.off" ~atomic_words:[ 0 ] 32 0 in
      for i = 0 to 31 do
        Pmem.Words.set w i (i + 1)
      done;
      ignore (Pmem.Words.get w 3);
      ignore (Pmem.Words.cas w 0 ~expected:1 ~desired:2);
      Pmem.Words.clwb w 0;
      Pmem.sfence ();
      let t = Clht.create ~capacity:8 () in
      for k = 1 to 64 do
        ignore (Clht.insert t k k)
      done;
      ignore (Clht.lookup t 5));
  Alcotest.(check int) "no hook calls with the flag clear" 0 !calls;
  Faultinject.arm (Faultinject.Crash_at_flush { site = None; k = max_int });
  Alcotest.(check bool)
    "arming sets the flag" true
    (!Pmem.Mode.flags land Pmem.Mode.f_hooked <> 0);
  Faultinject.disarm ();
  Alcotest.(check bool)
    "no layer left after disarm" false
    (!Pmem.Mode.flags land Pmem.Mode.f_hooked <> 0)

(* [count_events] reports the substrate event stream of a closure; two
   identical runs must see identical streams — the foundation of
   deterministic plan positions. *)
let test_count_events_deterministic () =
  with_env (fun () ->
      let run () =
        Faultinject.count_events (fun () ->
            let t = Clht.create ~capacity:8 () in
            for k = 1 to 100 do
              ignore (Clht.insert t k (k * 3))
            done)
      in
      let a = run () and b = run () in
      Alcotest.(check bool)
        "events counted" true
        (a.Faultinject.flushes > 0 && a.Faultinject.fences > 0
        && a.Faultinject.stores > 0 && a.Faultinject.allocs > 0);
      Alcotest.(check bool) "two runs, same stream" true (a = b))

(* --- one-shot plans ------------------------------------------------------ *)

let load_clht ?(n = 100) acked t =
  for k = 1 to n do
    if Clht.insert t k (k * 7) then acked := k :: !acked
  done

(* A flush-position plan fires exactly once, disarms itself, and recovery
   then finds every acknowledged insert (commit combinators flush+fence
   before acking, so the acked set survives any single crash position). *)
let test_flush_plan_fires_once () =
  with_env (fun () ->
      let ev = Faultinject.count_events (fun () -> load_clht (ref []) (Clht.create ~capacity:8 ())) in
      fresh_env ();
      let t = Clht.create ~capacity:8 () in
      let acked = ref [] in
      Faultinject.arm
        (Faultinject.Crash_at_flush { site = None; k = ev.Faultinject.flushes / 2 });
      let before = Faultinject.fire_count () in
      let crashed =
        try load_clht acked t; false
        with Pmem.Crash.Simulated_crash -> true
      in
      Alcotest.(check bool) "plan fired" true crashed;
      Alcotest.(check int) "exactly one fault" (before + 1) (Faultinject.fire_count ());
      Alcotest.(check bool) "one-shot: disarmed after firing" false (Faultinject.armed ());
      Pmem.simulate_power_failure ();
      Clht.recover t;
      List.iter
        (fun k ->
          Alcotest.(check (option int))
            (Printf.sprintf "acked key %d survives" k)
            (Some (k * 7)) (Clht.lookup t k))
        !acked)

(* Allocation failure: the k-th allocation raises before the object exists;
   after disarming, the same construction succeeds. *)
let test_alloc_fail () =
  with_env (fun () ->
      Faultinject.arm (Faultinject.Alloc_fail { k = 1 });
      (match Clht.create ~capacity:8 () with
      | _ -> Alcotest.fail "allocation unexpectedly succeeded"
      | exception Pmem.Hook.Alloc_failed _ -> ());
      Alcotest.(check bool) "one-shot" false (Faultinject.armed ());
      let t = Clht.create ~capacity:8 () in
      ignore (Clht.insert t 1 1);
      Alcotest.(check (option int)) "usable after disarm" (Some 1) (Clht.lookup t 1))

(* Torn line: the chosen flush persists only a store-order prefix of the
   line's pending stores, then crashes.  Recovery must still produce a
   state in which every acknowledged insert reads back correctly. *)
let test_torn_flush_recovers () =
  with_env (fun () ->
      let t = Clht.create ~capacity:8 () in
      let acked = ref [] in
      Faultinject.arm (Faultinject.Torn_flush { k = 17; keep = 1 });
      let crashed =
        try load_clht acked t; false
        with Pmem.Crash.Simulated_crash -> true
      in
      Alcotest.(check bool) "torn plan fired" true crashed;
      Pmem.simulate_power_failure ();
      Clht.recover t;
      List.iter
        (fun k ->
          Alcotest.(check (option int))
            (Printf.sprintf "acked key %d after torn line" k)
            (Some (k * 7)) (Clht.lookup t k))
        !acked)

(* --- recovery under load, all indexes ----------------------------------- *)

module I = Harness.Index

let fastfair = Option.get (I.find Fastfair.name)
let fastfair_split_bug = Option.get (I.variant fastfair "split-order")

(* The capstone: crash a multi-domain run at arbitrary substrate events,
   power-fail, recover (recovery itself crashed and retried, in the first
   input), leak-sweep, resume traffic on fresh domains, and lose nothing
   that was acked. *)
let test_recovery_under_load_all () =
  List.iter
    (fun (states, load, seed, crash_during_recovery) ->
      let total_crashes = ref 0 in
      List.iter
        (fun e ->
          let name = e.I.name and make = I.subject e in
          let r =
            Crashtest.recovery_under_load_campaign ~make ~states ~load
              ~ops:load ~threads:4 ~seed ~faults:true ~crash_during_recovery
              ()
          in
          let b = r.Crashtest.base in
          if
            b.Crashtest.lost_keys <> 0 || b.Crashtest.wrong_values <> 0
            || b.Crashtest.stalled <> 0
          then
            Alcotest.failf "%s failed recovery-under-load (seed %d): %s" name
              seed
              (Format.asprintf "%a" Crashtest.pp_load_report r);
          if r.Crashtest.recoveries < b.Crashtest.states_tested then
            Alcotest.failf "%s: fewer recoveries than states (seed %d)" name
              seed;
          total_crashes := !total_crashes + b.Crashtest.crashes_fired)
        I.all;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: some faults actually fired" seed)
        true (!total_crashes > 0))
    [ (6, 120, 19, true); (5, 150, 7, false) ]

(* --- mutation tests: recovery repairs a deliberately broken structure --- *)

(* Interrupt a CLHT rehash mid-copy with a site-targeted flush crash: the
   pending-intent slot survives, the half-copied table is orphaned until
   [recover] rolls the copy forward, after which nothing is leaked and
   every acknowledged insert is back. *)
let test_clht_interrupted_rehash_repaired () =
  with_env (fun () ->
      let t = Clht.create ~capacity:4 () in
      let acked = ref [] in
      Faultinject.arm
        (Faultinject.Crash_at_flush { site = Some "P-CLHT/rehash"; k = 3 });
      let crashed =
        try
          for k = 1 to 60 do
            if Clht.insert t k (k * 11) then acked := k :: !acked
          done;
          false
        with Pmem.Crash.Simulated_crash -> true
      in
      Alcotest.(check bool) "rehash interrupted" true crashed;
      Pmem.simulate_power_failure ();
      Clht.recover t;
      let s = Clht.leak_sweep t in
      Alcotest.(check bool)
        "roll-forward repaired leftovers" true
        (s.Recipe.Recovery.repaired > 0);
      Alcotest.(check int) "no orphans after repair" 0 s.Recipe.Recovery.orphans;
      List.iter
        (fun k ->
          Alcotest.(check (option int))
            (Printf.sprintf "acked key %d after rehash repair" k)
            (Some (k * 11)) (Clht.lookup t k))
        !acked)

(* Abandon instead of adopt: the reclaiming sweep on the same interrupted
   rehash counts the half-copied bindings as orphans and retires the
   intent, and the live table still answers for every acked key. *)
let test_clht_interrupted_rehash_reclaimed () =
  with_env (fun () ->
      let t = Clht.create ~capacity:4 () in
      let acked = ref [] in
      Faultinject.arm
        (Faultinject.Crash_at_flush { site = Some "P-CLHT/rehash"; k = 4 });
      (try
         for k = 1 to 60 do
           if Clht.insert t k (k * 11) then acked := k :: !acked
         done
       with Pmem.Crash.Simulated_crash -> ());
      Pmem.simulate_power_failure ();
      Util.Lock.new_epoch ();
      let s = Clht.leak_sweep ~reclaim:true t in
      Alcotest.(check bool)
        "interrupted copy orphaned some bindings" true
        (s.Recipe.Recovery.orphans > 0);
      Alcotest.(check int)
        "reclaim retired them" s.Recipe.Recovery.orphans
        s.Recipe.Recovery.reclaimed;
      Clht.recover t;
      List.iter
        (fun k ->
          Alcotest.(check (option int))
            (Printf.sprintf "acked key %d after reclaim" k)
            (Some (k * 11)) (Clht.lookup t k))
        !acked)

(* Interrupt FAST & FAIR leaf/inner splits at every early flush position of
   the split site: a torn sibling (persisted header, unflushed entries, or
   an un-relinked half) must be repaired by recovery's eager fix pass, and
   no acknowledged key may be lost at any position. *)
let test_fastfair_torn_split_repaired () =
  (* Measure how many split-site flushes a clean run performs, then place
     crash positions across the whole window — the repair-worthy states
     (sibling linked, stale suffix not yet nulled) sit well past the first
     sibling persist. *)
  let split_site = Obs.Site.find_or_create ~index:"FAST&FAIR" "split" in
  fresh_env ();
  let probe = I.subject fastfair () in
  let before = Obs.Site.clwb_count split_site in
  for key = 1 to 120 do
    ignore (probe.Crashtest.insert key (key * 5))
  done;
  let n_split = Obs.Site.clwb_count split_site - before in
  Alcotest.(check bool) "clean run splits nodes" true (n_split > 0);
  let positions =
    List.filter
      (fun k -> k <= n_split)
      (List.init 12 (fun i -> 1 + (i * max 1 (n_split / 12))))
  in
  let repairs = ref 0 and fired = ref 0 in
  List.iter (fun k ->
    fresh_env ();
    let s = I.subject fastfair () in
    let acked = ref [] in
    Faultinject.arm
      (Faultinject.Crash_at_flush { site = Some "FAST&FAIR/split"; k });
    (try
       for key = 1 to 120 do
         if s.Crashtest.insert key (key * 5) then acked := key :: !acked
       done
     with Pmem.Crash.Simulated_crash -> incr fired);
    Faultinject.disarm ();
    Pmem.simulate_power_failure ();
    s.Crashtest.recover ();
    (match s.Crashtest.sweep with
    | Some sweep ->
        let st = sweep () in
        repairs := !repairs + st.Recipe.Recovery.repaired + st.Recipe.Recovery.orphans
    | None -> ());
    List.iter
      (fun key ->
        Alcotest.(check (option int))
          (Printf.sprintf "k=%d: acked key %d survives torn split" k key)
          (Some (key * 5))
          (s.Crashtest.lookup key))
      !acked;
    (* Ordered-scan consistency: the repaired tree must enumerate every
       acked key in order, without duplicates from the torn sibling. *)
    (match s.Crashtest.scan_all with
    | None -> ()
    | Some scan ->
        let keys = List.map fst (scan ()) in
        let sorted = List.sort_uniq compare keys in
        if keys <> sorted then
          Alcotest.failf "k=%d: scan out of order or duplicated" k))
    positions;
  teardown ();
  Alcotest.(check bool) "some split crash fired" true (!fired > 0);
  Alcotest.(check bool) "recovery repaired torn splits" true (!repairs > 0)

(* The fault plans still reproduce the paper's §3 bugs behind the bug
   flags: with FAST & FAIR's split commits deliberately reordered, some
   flush position inside the split window must lose an acknowledged key —
   the fault-injection analogue of test_crashtest.ml's campaign catch. *)
let test_fastfair_bug_caught_by_faults () =
  let split_site = Obs.Site.find_or_create ~index:"FAST&FAIR" "split" in
  fresh_env ();
  let probe = I.subject fastfair_split_bug () in
  let before = Obs.Site.clwb_count split_site in
  for key = 1 to 120 do
    ignore (probe.Crashtest.insert key (key * 5))
  done;
  let n_split = Obs.Site.clwb_count split_site - before in
  let lost = ref 0 in
  for k = 1 to n_split do
    fresh_env ();
    let s = I.subject fastfair_split_bug () in
    let acked = ref [] in
    Faultinject.arm
      (Faultinject.Crash_at_flush { site = Some "FAST&FAIR/split"; k });
    (try
       for key = 1 to 120 do
         if s.Crashtest.insert key (key * 5) then acked := key :: !acked
       done
     with Pmem.Crash.Simulated_crash -> ());
    Faultinject.disarm ();
    Pmem.simulate_power_failure ();
    s.Crashtest.recover ();
    List.iter
      (fun key ->
        if s.Crashtest.lookup key <> Some (key * 5) then incr lost)
      !acked
  done;
  teardown ();
  Alcotest.(check bool)
    "split-order bug loses acked keys under fault sweep" true (!lost > 0)

(* --- campaign determinism ------------------------------------------------ *)

(* Fixed seed -> identical crash-state digest across two runs, for both
   fault-injected and declared-crash-point campaigns (the regression that
   keeps the whole harness replayable), and equal to the pinned value for
   every index.  The pins were recorded before the index registry replaced
   the per-tool adapters, so they also fail if a projection changes a
   constructor argument or an operation's semantics.  (WOART delegates to
   P-ART and reproduces its digests; Level and CCEH happen to coincide on
   declared crash points.) *)
let digest_pins =
  [
    ("P-ART", 2059926504676139944, 2629939997911095650);
    ("P-HOT", 3959386080715011494, 3264166850552884642);
    ("P-Masstree", 2445366496722521464, 307108736986097601);
    ("P-BwTree", 1550858843044124144, 2896094648240771327);
    ("FAST&FAIR", 3251397804810190359, 121946252829311930);
    ("WOART", 2059926504676139944, 2629939997911095650);
    ("P-CLHT", 4595984189311372127, 3820132839437360741);
    ("CCEH", 2414005577348732780, 505983633875601236);
    ("Level", 747922686108083304, 505983633875601236);
  ]

let test_digest_deterministic () =
  Alcotest.(check (list string))
    "one pin per index"
    (List.map (fun e -> e.I.name) I.all)
    (List.map (fun (n, _, _) -> n) digest_pins);
  List.iter2
    (fun e (_, with_faults, without) ->
      let make = I.subject e in
      List.iter
        (fun (faults, pinned) ->
          let digest () =
            Crashtest.crash_state_digest ~make ~states:6 ~load:120 ~seed:23
              ~faults ()
          in
          let d1 = digest () in
          let label = Printf.sprintf "%s digest (faults=%b)" e.I.name faults in
          Alcotest.(check int) (label ^ " stable") d1 (digest ());
          Alcotest.(check int) (label ^ " pinned") pinned d1)
        [ (true, with_faults); (false, without) ])
    I.all digest_pins

let () =
  Alcotest.run "faultinject"
    [
      ( "seam",
        [
          Alcotest.test_case "off path untouched" `Quick test_off_path_untouched;
          Alcotest.test_case "event stream deterministic" `Quick
            test_count_events_deterministic;
        ] );
      ( "plans",
        [
          Alcotest.test_case "flush plan fires once" `Quick
            test_flush_plan_fires_once;
          Alcotest.test_case "alloc failure" `Quick test_alloc_fail;
          Alcotest.test_case "torn flush recovers" `Quick
            test_torn_flush_recovers;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "recovery under load, all indexes" `Quick
            test_recovery_under_load_all;
          Alcotest.test_case "digest deterministic" `Quick
            test_digest_deterministic;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "clht rehash roll-forward" `Quick
            test_clht_interrupted_rehash_repaired;
          Alcotest.test_case "clht rehash reclaim" `Quick
            test_clht_interrupted_rehash_reclaimed;
          Alcotest.test_case "fastfair torn split" `Quick
            test_fastfair_torn_split_repaired;
          Alcotest.test_case "fastfair split-order bug caught" `Quick
            test_fastfair_bug_caught_by_faults;
        ] );
    ]
