(* Crash-recovery testing (see crashtest.mli). *)

type subject = {
  sname : string;
  insert : int -> int -> bool;
  lookup : int -> int option;
  recover : unit -> unit;
  scan_all : (unit -> (int * int) list) option;
  sweep : (unit -> Recipe.Recovery.stats) option;
}

type report = {
  states_tested : int;
  crashes_fired : int;
  lost_keys : int;
  wrong_values : int;
  stalled : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "states=%d crashes=%d lost=%d wrong=%d stalled=%d -> %s" r.states_tested
    r.crashes_fired r.lost_keys r.wrong_values r.stalled
    (if r.lost_keys = 0 && r.wrong_values = 0 && r.stalled = 0 then "PASS"
     else "FAIL")

let fresh_env () =
  Pmem.Crash.disarm ();
  Pmem.Mode.set_shadow true;
  ignore (Pmem.persist_everything ());
  Util.Lock.new_epoch ()

(* Recovery, bracketed in the trace ring when tracing is on — a failing
   campaign's dump then shows which recovery preceded the bad lookup. *)
let recover_traced s =
  if Obs.Trace.enabled () then Obs.Trace.record Obs.Trace.Recovery s.sname;
  s.recover ()

(* Keys used by one campaign state: load keys, then per-thread disjoint
   fresh keys for the post-recovery phase. *)
let load_key i = i + 1
let phase2_key ~load tid j = load + 1 + (tid * 1_000_000) + j

(* Verify an ordered subject's full scan: ascending unique keys, and every
   expected binding present with its value.  Returns (wrong, lost). *)
let verify_scan s expected =
  match s.scan_all with
  | None -> (0, 0)
  | Some scan ->
      let wrong = ref 0 and lost = ref 0 in
      (try
         let items = scan () in
         let rec sorted = function
           | (a, _) :: ((b, _) :: _ as rest) ->
               if a >= b then incr wrong;
               sorted rest
           | [ _ ] | [] -> ()
         in
         sorted items;
         let tbl = Hashtbl.create (List.length items) in
         List.iter (fun (k, v) -> Hashtbl.replace tbl k v) items;
         List.iter
           (fun (k, v) ->
             match Hashtbl.find_opt tbl k with
             | Some v' -> if v' <> v then incr wrong
             | None -> incr lost)
           expected
       with _ -> incr wrong);
      (!wrong, !lost)

let consistency_campaign ~make ~states ~load ~ops ~threads ~seed () =
  let rng = Util.Rng.create seed in
  (* Estimate the crash-point count of a full load once, to draw crash
     positions uniformly over the whole load phase. *)
  let max_points =
    fresh_env ();
    let s = make () in
    let n =
      Pmem.Crash.count_points (fun () ->
          for i = 0 to load - 1 do
            ignore (s.insert (load_key i) (load_key i * 2))
          done)
    in
    max 1 n
  in
  let crashes = ref 0 and lost = ref 0 and wrong = ref 0 and stalled = ref 0 in
  for _state = 1 to states do
    fresh_env ();
    let s = make () in
    (* Load phase with a crash at a uniformly random atomic step. *)
    let completed = Array.make load false in
    Pmem.Crash.arm_at (1 + Util.Rng.below rng max_points);
    (try
       for i = 0 to load - 1 do
         if s.insert (load_key i) (load_key i * 2) then completed.(i) <- true
       done;
       Pmem.Crash.disarm ()
     with Pmem.Crash.Simulated_crash -> incr crashes);
    (* Power failure: all unflushed lines are lost; then recovery. *)
    Pmem.simulate_power_failure ();
    (try recover_traced s with _ -> incr stalled);
    (* Multi-threaded mixed phase: half inserts of fresh keys, half reads of
       loaded keys, statically split. *)
    let per = ops / threads in
    let body tid () =
      let r = Util.Rng.create (seed + tid + 7) in
      let errors = ref 0 and inserted = ref [] in
      for j = 0 to per - 1 do
        try
          if j land 1 = 0 then begin
            let k = phase2_key ~load tid j in
            if s.insert k (k * 3) then inserted := k :: !inserted
          end
          else begin
            let i = Util.Rng.below r load in
            match s.lookup (load_key i) with
            | Some v -> if v <> load_key i * 2 then incr errors
            | None -> if completed.(i) then incr errors
          end
        with _ -> incr errors
      done;
      (!errors, !inserted)
    in
    let domains = List.init threads (fun tid -> Domain.spawn (body tid)) in
    let results = List.map Domain.join domains in
    (* Join edge for the sanitizer's race check: the verification reads
       below are ordered after every worker's writes. *)
    Pmem.sanitize_sync ();
    List.iter (fun (e, _) -> stalled := !stalled + e) results;
    (* Read back every successfully inserted key. *)
    (try
       for i = 0 to load - 1 do
         if completed.(i) then
           match s.lookup (load_key i) with
           | Some v -> if v <> load_key i * 2 then incr wrong
           | None -> incr lost
       done;
       List.iter
         (fun (_, inserted) ->
           List.iter
             (fun k ->
               match s.lookup k with
               | Some v -> if v <> k * 3 then incr wrong
               | None -> incr lost)
             inserted)
         results;
       (* Ordered subjects: a full scan must be sorted and contain every
          completed binding. *)
       let expected = ref [] in
       for i = load - 1 downto 0 do
         if completed.(i) then expected := (load_key i, load_key i * 2) :: !expected
       done;
       let w, l = verify_scan s !expected in
       wrong := !wrong + w;
       lost := !lost + l
     with _ -> incr stalled)
  done;
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  {
    states_tested = states;
    crashes_fired = !crashes;
    lost_keys = !lost;
    wrong_values = !wrong;
    stalled = !stalled;
  }

let sweep ~make ~points ~stride ~load ?(stop_on_failure = true) () =
  let crashes = ref 0 and lost = ref 0 and wrong = ref 0 and stalled = ref 0 in
  let states = ref 0 in
  let point = ref 1 in
  let continue = ref true in
  while !continue && !point <= points do
    incr states;
    fresh_env ();
    let s = make () in
    let completed = Array.make load false in
    Pmem.Crash.arm_at !point;
    let crashed =
      try
        for i = 0 to load - 1 do
          if s.insert (load_key i) (load_key i * 2) then completed.(i) <- true
        done;
        Pmem.Crash.disarm ();
        false
      with Pmem.Crash.Simulated_crash -> true
    in
    if crashed then incr crashes
    else (* past the last crash point of the load: nothing left to sweep *)
      continue := false;
    Pmem.simulate_power_failure ();
    (try
       recover_traced s;
       for i = 0 to load - 1 do
         if completed.(i) then
           match s.lookup (load_key i) with
           | Some v -> if v <> load_key i * 2 then incr wrong
           | None -> incr lost
       done;
       (* Post-recovery writes must proceed. *)
       let k = load + 999_999 in
       ignore (s.insert k k);
       if s.lookup k <> Some k then incr stalled
     with _ -> incr stalled);
    if stop_on_failure && !lost + !wrong + !stalled > 0 then continue := false;
    point := !point + stride
  done;
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  {
    states_tested = !states;
    crashes_fired = !crashes;
    lost_keys = !lost;
    wrong_values = !wrong;
    stalled = !stalled;
  }

let double_crash_campaign ~make ~states ~load ~seed () =
  let rng = Util.Rng.create seed in
  let max_points =
    fresh_env ();
    let s = make () in
    let n =
      Pmem.Crash.count_points (fun () ->
          for i = 0 to load - 1 do
            ignore (s.insert (load_key i) (load_key i * 2))
          done)
    in
    max 1 n
  in
  let crashes = ref 0 and lost = ref 0 and wrong = ref 0 and stalled = ref 0 in
  for _state = 1 to states do
    fresh_env ();
    let s = make () in
    let completed = Array.make load false in
    (* First crash: during the load. *)
    Pmem.Crash.arm_at (1 + Util.Rng.below rng max_points);
    (try
       for i = 0 to load - 1 do
         if s.insert (load_key i) (load_key i * 2) then completed.(i) <- true
       done;
       Pmem.Crash.disarm ()
     with Pmem.Crash.Simulated_crash -> incr crashes);
    Pmem.simulate_power_failure ();
    (try recover_traced s with _ -> incr stalled);
    (* Second crash: during the writes that may be fixing first-crash
       leftovers. *)
    let completed2 = Array.make load false in
    Pmem.Crash.arm_at (1 + Util.Rng.below rng (max 1 (max_points / 2)));
    (try
       for i = 0 to load - 1 do
         let k = (2 * 1_000_000) + load_key i in
         if s.insert k (k * 2) then completed2.(i) <- true
       done;
       Pmem.Crash.disarm ()
     with Pmem.Crash.Simulated_crash -> incr crashes);
    Pmem.simulate_power_failure ();
    (try recover_traced s with _ -> incr stalled);
    (* Verify everything that completed in either phase. *)
    (try
       let expected = ref [] in
       for i = load - 1 downto 0 do
         if completed2.(i) then begin
           let k = (2 * 1_000_000) + load_key i in
           expected := (k, k * 2) :: !expected
         end
       done;
       for i = load - 1 downto 0 do
         if completed.(i) then
           expected := (load_key i, load_key i * 2) :: !expected
       done;
       List.iter
         (fun (k, v) ->
           match s.lookup k with
           | Some v' -> if v' <> v then incr wrong
           | None -> incr lost)
         !expected;
       let w, l = verify_scan s (List.sort compare !expected) in
       wrong := !wrong + w;
       lost := !lost + l;
       (* And writes still proceed. *)
       let k = 9_999_999 in
       ignore (s.insert k k);
       if s.lookup k <> Some k then incr stalled
     with _ -> incr stalled)
  done;
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  {
    states_tested = states;
    crashes_fired = !crashes;
    lost_keys = !lost;
    wrong_values = !wrong;
    stalled = !stalled;
  }

(* --- recovery under load ------------------------------------------------------ *)

type load_report = {
  base : report;
  faults_injected : int;
  recoveries : int;
  recover_ns : int;
  sweep_stats : Recipe.Recovery.stats;
}

let pp_load_report ppf r =
  Format.fprintf ppf "%a | faults=%d recoveries=%d recover=%.1fus sweep(%a)"
    pp_report r.base r.faults_injected r.recoveries
    (float_of_int r.recover_ns /. 1e3)
    Recipe.Recovery.pp r.sweep_stats

(* --- multi-key transaction campaigns ------------------------------------- *)

type txn_report = {
  tload : load_report;
  txns_acked : int;
  txns_aborted : int;
  partial_batches : int;
  lost_acked_batches : int;
  txn_recovery : Recipe.Recovery.txn_stats;
}

let pp_txn_report ppf r =
  Format.fprintf ppf
    "%a | txns acked=%d aborted=%d partial=%d lost_acked=%d wal(%a)"
    pp_load_report r.tload r.txns_acked r.txns_aborted r.partial_batches
    r.lost_acked_batches Recipe.Recovery.pp_txn r.txn_recovery

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* One state of the recovery-under-load campaign:

   1. preload [load] keys (every returning insert is acknowledged: the
      commit combinators flush and fence before the index returns, so every
      acked binding must survive any later crash);
   2. run a multi-domain mixed phase and crash it mid-flight — either at a
      declared crash point or, with [~faults:true], at an arbitrary
      substrate event drawn by {!Faultinject.random_plan} (flush/fence/
      store/alloc/torn-line).  The crashing domain raises; the others drain
      on a stop flag, and a {!Util.Lock.abort_hook} kicks any domain
      spinning on a lock the crashed domain still holds;
   3. power-fail, then run timed recovery — optionally crashed again by a
      fresh plan ([~crash_during_recovery:true]), power-failed and retried,
      exercising recovery idempotence;
   4. leak-sweep (reclaiming), attributing repairs and orphans;
   5. resume mixed traffic on fresh domains (lazy repair runs concurrently
      with this traffic), then verify every acknowledged binding from all
      three phases, plus ordered-scan consistency. *)
let recovery_under_load_campaign ~make ~states ~load ~ops ~threads ~seed
    ?(faults = false) ?(crash_during_recovery = false) () =
  let rng = Util.Rng.create seed in
  let preview s =
    for i = 0 to load - 1 do
      ignore (s.insert (load_key i) (load_key i * 2))
    done;
    for j = 0 to (ops / threads) - 1 do
      let kk = phase2_key ~load 0 j in
      ignore (s.insert kk (kk * 3));
      ignore (s.lookup (load_key (j mod load)))
    done
  in
  let max_points =
    fresh_env ();
    let s = make () in
    max 1 (Pmem.Crash.count_points (fun () -> preview s))
  in
  let max_events =
    fresh_env ();
    let s = make () in
    let ev = Faultinject.count_events (fun () -> preview s) in
    max 1 ev.Faultinject.flushes
  in
  let crashes = ref 0 and lost = ref 0 and wrong = ref 0 and stalled = ref 0 in
  let faults0 = Faultinject.fire_count () in
  let recoveries = ref 0 and recover_ns = ref 0 in
  let sweep_stats = ref Recipe.Recovery.zero in
  let per = ops / threads in
  for _state = 1 to states do
    fresh_env ();
    let s = make () in
    (* Phase 0: acknowledged preload. *)
    let completed = Array.make load false in
    for i = 0 to load - 1 do
      if s.insert (load_key i) (load_key i * 2) then completed.(i) <- true
    done;
    (* Phase 1: multi-domain mixed traffic, crashed mid-flight. *)
    let stop = Atomic.make false in
    Util.Lock.set_abort_hook (fun () ->
        if Atomic.get stop then raise Pmem.Crash.Simulated_crash);
    if faults then Faultinject.arm (Faultinject.random_plan rng ~max_events)
    else Pmem.Crash.arm_at (1 + Util.Rng.below rng max_points);
    let body tid () =
      let acked = ref [] in
      (try
         for j = 0 to per - 1 do
           if Atomic.get stop then raise Stdlib.Exit;
           let kk = phase2_key ~load tid j in
           if j land 1 = 0 then begin
             if s.insert kk (kk * 3) then acked := kk :: !acked
           end
           else ignore (s.lookup (load_key (j mod load)))
         done
       with
      | Pmem.Crash.Simulated_crash | Pmem.Hook.Alloc_failed _ ->
          Atomic.set stop true
      | Stdlib.Exit -> ());
      !acked
    in
    let domains = List.init threads (fun tid -> Domain.spawn (body tid)) in
    let acked1 = List.concat_map Domain.join domains in
    Pmem.sanitize_sync ();
    Util.Lock.clear_abort_hook ();
    Faultinject.disarm ();
    Pmem.Crash.disarm ();
    if Atomic.get stop then incr crashes;
    (* Phase 2: power failure, then recovery — possibly crashed itself. *)
    Pmem.simulate_power_failure ();
    let rec run_recovery arm_fault =
      incr recoveries;
      if arm_fault then
        Faultinject.arm
          (Faultinject.random_plan rng ~max_events:(max 8 (max_events / 4)));
      let t0 = now_ns () in
      let outcome =
        try
          recover_traced s;
          `Ok
        with
        | Pmem.Crash.Simulated_crash -> `Crashed
        | _ -> `Stalled
      in
      recover_ns := !recover_ns + (now_ns () - t0);
      Faultinject.disarm ();
      match outcome with
      | `Ok -> ()
      | `Stalled -> incr stalled
      | `Crashed ->
          incr crashes;
          Pmem.simulate_power_failure ();
          run_recovery false
    in
    run_recovery (faults && crash_during_recovery);
    (match s.sweep with
    | Some sw -> (
        try sweep_stats := Recipe.Recovery.add !sweep_stats (sw ())
        with _ -> incr stalled)
    | None -> ());
    (* Phase 3: resume mixed traffic on fresh domains; lazy repair (helpers,
       consolidation) runs concurrently with this traffic. *)
    let body2 tid () =
      let acked = ref [] and errors = ref 0 in
      let r = Util.Rng.create (seed + (100 * tid) + 13) in
      for j = per to (2 * per) - 1 do
        try
          let kk = phase2_key ~load tid j in
          if j land 1 = 0 then begin
            if s.insert kk (kk * 3) then acked := kk :: !acked
          end
          else begin
            let i = Util.Rng.below r load in
            match s.lookup (load_key i) with
            | Some v -> if v <> load_key i * 2 then incr errors
            | None -> if completed.(i) then incr errors
          end
        with _ -> incr errors
      done;
      (!acked, !errors)
    in
    let domains2 = List.init threads (fun tid -> Domain.spawn (body2 tid)) in
    let results2 = List.map Domain.join domains2 in
    Pmem.sanitize_sync ();
    List.iter (fun (_, e) -> wrong := !wrong + e) results2;
    let acked2 = List.concat_map fst results2 in
    (* Verification: every acknowledged binding, from all phases. *)
    (try
       let check k v =
         match s.lookup k with
         | Some v' -> if v' <> v then incr wrong
         | None -> incr lost
       in
       for i = 0 to load - 1 do
         if completed.(i) then check (load_key i) (load_key i * 2)
       done;
       List.iter (fun k -> check k (k * 3)) acked1;
       List.iter (fun k -> check k (k * 3)) acked2;
       let expected = ref [] in
       List.iter
         (fun k -> expected := (k, k * 3) :: !expected)
         (acked1 @ acked2);
       for i = load - 1 downto 0 do
         if completed.(i) then
           expected := (load_key i, load_key i * 2) :: !expected
       done;
       let w, l = verify_scan s (List.sort compare !expected) in
       wrong := !wrong + w;
       lost := !lost + l
     with _ -> incr stalled)
  done;
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  Faultinject.disarm ();
  {
    base =
      {
        states_tested = states;
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

(* --- deterministic crash-state digest ---------------------------------------- *)

(* Single-threaded, fully seed-deterministic campaign digest: run [states]
   crash-recover cycles and fold every post-recovery observation (lookups,
   scans, sweep stats, which step raised) into one FNV-mixed word.  Two runs
   with equal arguments must produce equal digests — the campaign
   determinism regression. *)
let crash_state_digest ~make ~states ~load ~seed ?(faults = true) () =
  let rng = Util.Rng.create seed in
  let load_run s =
    for i = 0 to load - 1 do
      ignore (s.insert (load_key i) (load_key i * 2))
    done
  in
  let max_points =
    fresh_env ();
    let s = make () in
    max 1 (Pmem.Crash.count_points (fun () -> load_run s))
  in
  let max_events =
    fresh_env ();
    let s = make () in
    let ev = Faultinject.count_events (fun () -> load_run s) in
    max 1 ev.Faultinject.flushes
  in
  let digest = ref 0x811C9DC5 in
  let mix x = digest := (!digest lxor (x land max_int)) * 0x01000193 land max_int in
  for _state = 1 to states do
    fresh_env ();
    let s = make () in
    if faults then Faultinject.arm (Faultinject.random_plan rng ~max_events)
    else Pmem.Crash.arm_at (1 + Util.Rng.below rng max_points);
    (try
       load_run s;
       Pmem.Crash.disarm ()
     with
    | Pmem.Crash.Simulated_crash -> mix 1
    | Pmem.Hook.Alloc_failed _ -> mix 2);
    Faultinject.disarm ();
    Pmem.simulate_power_failure ();
    (try recover_traced s with _ -> mix 3);
    (match s.sweep with
    | Some sw -> (
        try
          let st = sw () in
          mix st.Recipe.Recovery.repaired;
          mix st.orphans;
          mix st.reclaimed
        with _ -> mix 4)
    | None -> ());
    for i = 0 to load - 1 do
      match s.lookup (load_key i) with
      | Some v -> mix v
      | None -> mix (-1)
      | exception _ -> mix 5
    done;
    (match s.scan_all with
    | Some scan -> (
        try
          List.iter
            (fun (k, v) ->
              mix k;
              mix v)
            (scan ())
        with _ -> mix 6)
    | None -> ())
  done;
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  !digest

let durability_test ~make ~inserts ~seed () =
  fresh_env ();
  let violations = ref 0 in
  let s = make () in
  (* The §7.5 root-allocation check: construction itself must leave nothing
     dirty. *)
  if Pmem.dirty_count () > 0 then begin
    incr violations;
    ignore (Pmem.persist_everything ())
  end;
  let rng = Util.Rng.create seed in
  for _ = 1 to inserts do
    ignore (s.insert (Util.Rng.key rng) 1);
    if Pmem.dirty_count () > 0 then begin
      incr violations;
      ignore (Pmem.persist_everything ())
    end
  done;
  Pmem.Mode.set_shadow false;
  !violations
