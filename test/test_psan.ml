(* PSan sanitizer tests: the per-line persistency state machine and its
   three diagnostic families, the deterministic rereporting of the paper's
   §3 missing-flush bugs (no crash-state sampling involved), the mutation
   tests (a deleted clwb/sfence must be reported, clean indexes must not),
   the race check, and the sanitize-off zero-overhead guard. *)

module W = Pmem.Words
module R = Pmem.Refs
module P = Recipe.Persist
module D = Obs.Diag

let site_a = Obs.Site.v ~index:"psan-test" "store-a"
let site_b = Obs.Site.v ~index:"psan-test" "commit-b"

let reset () =
  Psan.disable ();
  Pmem.Hook.undrop ();
  Pmem.Mode.set_shadow false;
  Pmem.Llc.set_enabled false;
  Pmem.Crash.disarm ();
  Pmem.persist_everything ();
  Pmem.Stats.reset ();
  D.clear ();
  Util.Lock.new_epoch ()

(* Run [f] under the sanitizer against a clean diagnostic sink. *)
let sanitized ?races f =
  reset ();
  Fun.protect ~finally:Pmem.Hook.undrop (fun () ->
      Psan.with_sanitizer ?races f)

let kinds () =
  List.sort_uniq compare (List.map (fun (d, _) -> d.D.kind) (D.all ()))

let store_sites () =
  List.filter_map
    (fun (d, _) -> Option.map Obs.Site.name d.D.store_site)
    (D.all ())

let expose_sites () =
  List.filter_map
    (fun (d, _) -> Option.map Obs.Site.name d.D.expose_site)
    (D.all ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- state machine / diagnostic families --------------------------------- *)

let test_clean_commit_no_diag () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.w" 16 0 in
      P.persist_new_words ~site:site_a w;
      P.store ~site:site_a w 0 41;
      P.flush ~site:site_a w 0;
      P.commit ~site:site_b w 8 42);
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

let test_missing_flush_reported () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.w" 16 0 in
      P.persist_new_words ~site:site_a w;
      (* store to line 0, never flushed; commit on line 1 publishes. *)
      P.store ~site:site_a w 0 41;
      P.commit ~site:site_b w 8 42);
  Alcotest.(check int) "one finding" 1 (D.count ());
  Alcotest.(check (list string)) "kind" [ Psan.k_publish ] (kinds ());
  Alcotest.(check (list string))
    "offending store site named" [ "psan-test/store-a" ] (store_sites ());
  Alcotest.(check (list string))
    "exposing commit site named" [ "psan-test/commit-b" ] (expose_sites ())

let test_missing_fence_reported () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.w" 16 0 in
      P.persist_new_words ~site:site_a w;
      P.store ~site:site_a w 0 41;
      W.clwb ~site:site_a w 0;
      (* flushed but no fence before the publication *)
      P.commit ~site:site_b w 8 42);
  Alcotest.(check int) "one finding" 1 (D.count ());
  let detail = match D.all () with [ (d, _) ] -> d.D.detail | _ -> "" in
  Alcotest.(check bool)
    "reported as flushed-unfenced" true
    (contains detail "unfenced")

let test_redundant_flush_reported () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.w" 8 0 in
      P.persist_new_words ~site:site_a w;
      (* line already persisted; flushing it again is pure overhead *)
      P.flush ~site:site_b w 0);
  Alcotest.(check (list string)) "kind" [ Psan.k_flush ] (kinds ());
  Alcotest.(check (list string))
    "flush site named" [ "psan-test/commit-b" ] (store_sites ())

let test_redundant_fence_reported () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.w" 8 0 in
      P.persist_new_words ~site:site_a w;
      (* no clwb since this domain's last fence *)
      Pmem.sfence ~site:site_b ());
  Alcotest.(check (list string)) "kind" [ Psan.k_fence ] (kinds ())

(* --- race check ----------------------------------------------------------- *)

let test_race_reported () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.race" 8 0 in
      P.persist_new_words ~site:site_a w;
      let d = Domain.spawn (fun () -> W.set w 0 1) in
      Domain.join d;
      (* no release/acquire edge, no sanitize_sync: racy read *)
      ignore (W.get w 0));
  Alcotest.(check (list string)) "kind" [ Psan.k_race ] (kinds ())

let test_race_suppressed_by_commit_edge () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.race" 8 0 in
      P.persist_new_words ~site:site_a w;
      let d = Domain.spawn (fun () -> P.commit ~site:site_b w 0 1) in
      Domain.join d;
      (* the commit is a release; the read of the committed word rides it *)
      ignore (W.get w 0));
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

let test_race_suppressed_by_sync () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.race" 8 0 in
      P.persist_new_words ~site:site_a w;
      let d = Domain.spawn (fun () -> W.set w 0 1) in
      Domain.join d;
      Pmem.sanitize_sync ();
      ignore (W.get w 0));
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

let test_race_suppressed_by_lock () =
  sanitized (fun () ->
      let w = W.make ~name:"psan.race" 8 0 in
      P.persist_new_words ~site:site_a w;
      let l = Util.Lock.create () in
      let d =
        Domain.spawn (fun () -> Util.Lock.with_lock l (fun () -> W.set w 0 1))
      in
      Domain.join d;
      Util.Lock.with_lock l (fun () -> ignore (W.get w 0)));
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

let test_race_check_can_be_disabled () =
  sanitized ~races:false (fun () ->
      let w = W.make ~name:"psan.race" 8 0 in
      P.persist_new_words ~site:site_a w;
      let d = Domain.spawn (fun () -> W.set w 0 1) in
      Domain.join d;
      ignore (W.get w 0));
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

(* --- §3 bugs as deterministic sanitizer findings -------------------------- *)

(* FAST&FAIR with the unflushed root allocation (§7.5): the very first
   insert publishes through a commit while the root's lines are still
   dirty.  One single-threaded insert, no crash sampling, deterministic. *)
let test_fastfair_root_flush_bug_found () =
  sanitized (fun () ->
      let t =
        Fastfair.create ~bug_root_flush:true
          ~space:(Recipe.Wordkey.int_space ()) ()
      in
      ignore (Fastfair.insert t (Util.Keys.encode_int 1) 10));
  Alcotest.(check bool)
    "unpersisted-publish findings" true
    (Psan.count_kind Psan.k_publish > 0);
  Alcotest.(check bool)
    "attributed to the unflushed allocation" true
    (List.exists (fun s -> contains s "alloc/") (store_sites ()))

let test_fastfair_clean_no_findings () =
  sanitized (fun () ->
      let t = Fastfair.create ~space:(Recipe.Wordkey.int_space ()) () in
      (* Shuffled order (multiplicative permutation), not ascending: ascending
         inserts always append, so insert_slot's shift path — including the
         line-boundary positions where the tail flush is already covered —
         never runs.  This order exercises mid-node inserts at every slot. *)
      for i = 1 to 200 do
        let k = 1 + (i * 73 mod 211) in
        ignore (Fastfair.insert t (Util.Keys.encode_int k) k)
      done;
      for i = 1 to 200 do
        let k = 1 + (i * 73 mod 211) in
        assert (Fastfair.lookup t (Util.Keys.encode_int k) = Some k)
      done;
      for i = 1 to 50 do
        let k = 1 + (i * 73 mod 211) in
        ignore (Fastfair.delete t (Util.Keys.encode_int k))
      done);
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

(* CCEH with the §3 doubling bug: the new global depth is stored without a
   flush ordered before the directory commit that depends on it.  The
   sanitizer flags the directory commit of the first doubling — again
   deterministic, one thread, no crashes armed. *)
let test_cceh_doubling_bug_found () =
  sanitized (fun () ->
      let t = Cceh.create ~bug_doubling:true ~capacity:128 () in
      let i = ref 1 in
      while Psan.count_kind Psan.k_publish = 0 && !i <= 50_000 do
        ignore (Cceh.insert t !i !i);
        incr i
      done);
  Alcotest.(check bool)
    "unpersisted-publish findings" true
    (Psan.count_kind Psan.k_publish > 0);
  Alcotest.(check bool)
    "offending store site is CCEH/dir-double" true
    (List.mem "CCEH/dir-double" (store_sites ()));
  Alcotest.(check bool)
    "exposed at the CCEH/dir-double commit" true
    (List.mem "CCEH/dir-double" (expose_sites ()))

let test_cceh_clean_no_findings () =
  sanitized (fun () ->
      let t = Cceh.create ~capacity:128 () in
      for i = 1 to 5_000 do
        ignore (Cceh.insert t i i)
      done;
      for i = 1 to 5_000 do
        assert (Cceh.lookup t i = Some i)
      done);
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

(* --- mutation tests: delete one clwb / sfence ----------------------------- *)

let test_mutation_clht_missing_clwb () =
  sanitized (fun () ->
      Pmem.Hook.drop ~clwb_at:"P-CLHT/insert-commit" ();
      let t = Clht.create ~capacity:16 () in
      for i = 1 to 20 do
        ignore (Clht.insert t i i)
      done);
  Alcotest.(check bool)
    "deleted clwb reported" true
    (Psan.count_kind Psan.k_publish > 0);
  Alcotest.(check bool)
    "attributed to P-CLHT/insert-commit" true
    (List.mem "P-CLHT/insert-commit" (store_sites ()))

let test_mutation_clht_missing_sfence () =
  sanitized (fun () ->
      Pmem.Hook.drop ~sfence_at:"P-CLHT/insert-commit" ();
      let t = Clht.create ~capacity:16 () in
      for i = 1 to 20 do
        ignore (Clht.insert t i i)
      done);
  Alcotest.(check bool)
    "deleted sfence reported" true
    (Psan.count_kind Psan.k_publish > 0)

let test_mutation_art_missing_clwb () =
  sanitized (fun () ->
      Pmem.Hook.drop ~clwb_at:"P-ART/child-commit" ();
      let t = Art.create () in
      for i = 1 to 50 do
        ignore (Art.insert t (Util.Keys.encode_int i) i)
      done);
  Alcotest.(check bool)
    "deleted clwb reported" true
    (Psan.count_kind Psan.k_publish > 0);
  Alcotest.(check bool)
    "attributed to P-ART/child-commit" true
    (List.mem "P-ART/child-commit" (store_sites ()))

let test_mutation_clean_controls () =
  (* identical workloads with no fault armed must stay silent *)
  sanitized (fun () ->
      let t = Clht.create ~capacity:16 () in
      for i = 1 to 20 do
        ignore (Clht.insert t i i)
      done;
      let a = Art.create () in
      for i = 1 to 50 do
        ignore (Art.insert a (Util.Keys.encode_int i) i)
      done);
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

(* --- clean runs of all 9 indexes ------------------------------------------ *)

let test_all_indexes_clean () =
  List.iter
    (fun mk ->
      sanitized (fun () ->
          let s = mk () in
          for i = 1 to 400 do
            ignore (s.Crashtest.insert i i)
          done;
          for i = 1 to 400 do
            assert (s.Crashtest.lookup i = Some i)
          done;
          s.Crashtest.recover ();
          for i = 1 to 400 do
            assert (s.Crashtest.lookup i = Some i)
          done;
          (match s.Crashtest.scan_all with
          | Some scan -> assert (List.length (scan ()) = 400)
          | None -> ());
          if D.count () > 0 then begin
            Format.eprintf "%s:@." s.Crashtest.sname;
            D.pp_all Format.err_formatter ()
          end;
          Alcotest.(check int)
            (s.Crashtest.sname ^ " clean under sanitizer")
            0 (D.count ())))
    (List.map Harness.Index.subject Harness.Index.all)

(* --- zero-overhead guard --------------------------------------------------

   With the sanitizer disabled the substrate must not call into it at all:
   the accessor dispatch is the single flags test.  The sanitizer's own
   handlers are put back into the seam by hand with the [f_hooked] bit
   still clear (the state an accessor that skipped the flags test would
   see), and the engine's event counter is the witness — any off-path
   hook call would bump it. *)

let test_off_path_untouched () =
  reset ();
  (* install once to capture the sanitizer's layer, then tear it down *)
  Psan.enable ();
  let sanitizer_layer = !Pmem.Hook.h in
  Psan.disable ();
  Alcotest.(check bool)
    "no seam layer left installed" false
    (!Pmem.Mode.flags land Pmem.Mode.f_hooked <> 0);
  let before = Psan.events_seen () in
  let w = W.make ~name:"psan.off" ~atomic_words:[ 3 ] 64 0 in
  let r = R.make ~name:"psan.off.r" ~atomic:true 8 None in
  Fun.protect
    ~finally:(fun () -> Pmem.Hook.h := Pmem.Hook.noop)
    (fun () ->
      Pmem.Hook.h := sanitizer_layer;
      for i = 0 to 63 do
        W.set w i i
      done;
      for _ = 1 to 1_000 do
        for i = 0 to 63 do
          assert (W.get w i >= 0)
        done;
        ignore (W.cas w 3 ~expected:3 ~desired:3);
        R.set r 0 (Some 1);
        ignore (R.get r 0);
        P.commit ~site:site_a w 8 7;
        Pmem.sfence ~site:site_a ()
      done);
  Alcotest.(check int)
    "sanitizer saw zero events with the mode off" 0
    (Psan.events_seen () - before);
  Alcotest.(check bool)
    "sanitize flag clear" false
    (!Pmem.Mode.flags land Pmem.Mode.f_sanitize <> 0);
  Alcotest.(check int) "values intact" 7 (W.get w 8)

(* Crash + power failure under the sanitizer must reset its state, not
   leak pending lines into post-recovery publications. *)
let test_crash_resets_pending () =
  sanitized (fun () ->
      Pmem.Mode.set_shadow true;
      let t = Clht.create ~capacity:16 () in
      Pmem.Crash.arm_at 1;
      (try ignore (Clht.insert t 1 1) with Pmem.Crash.Simulated_crash -> ());
      Pmem.Crash.disarm ();
      Pmem.simulate_power_failure ();
      Clht.recover t;
      for i = 2 to 10 do
        ignore (Clht.insert t i i)
      done;
      Pmem.Mode.set_shadow false);
  Alcotest.(check int) "no diagnostics" 0 (D.count ())

let () =
  Alcotest.run "psan"
    [
      ( "state-machine",
        [
          Alcotest.test_case "clean commit" `Quick test_clean_commit_no_diag;
          Alcotest.test_case "missing flush" `Quick test_missing_flush_reported;
          Alcotest.test_case "missing fence" `Quick test_missing_fence_reported;
          Alcotest.test_case "redundant flush" `Quick
            test_redundant_flush_reported;
          Alcotest.test_case "redundant fence" `Quick
            test_redundant_fence_reported;
        ] );
      ( "races",
        [
          Alcotest.test_case "race reported" `Quick test_race_reported;
          Alcotest.test_case "commit edge" `Quick
            test_race_suppressed_by_commit_edge;
          Alcotest.test_case "sync edge" `Quick test_race_suppressed_by_sync;
          Alcotest.test_case "lock edge" `Quick test_race_suppressed_by_lock;
          Alcotest.test_case "races off" `Quick test_race_check_can_be_disabled;
        ] );
      ( "section-3-bugs",
        [
          Alcotest.test_case "fastfair unflushed root" `Quick
            test_fastfair_root_flush_bug_found;
          Alcotest.test_case "fastfair clean" `Quick
            test_fastfair_clean_no_findings;
          Alcotest.test_case "cceh doubling" `Quick test_cceh_doubling_bug_found;
          Alcotest.test_case "cceh clean" `Quick test_cceh_clean_no_findings;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "clht missing clwb" `Quick
            test_mutation_clht_missing_clwb;
          Alcotest.test_case "clht missing sfence" `Quick
            test_mutation_clht_missing_sfence;
          Alcotest.test_case "art missing clwb" `Quick
            test_mutation_art_missing_clwb;
          Alcotest.test_case "clean controls" `Quick
            test_mutation_clean_controls;
        ] );
      ( "indexes",
        [ Alcotest.test_case "all 9 clean" `Quick test_all_indexes_clean ] );
      ( "overhead",
        [
          Alcotest.test_case "off path untouched" `Quick
            test_off_path_untouched;
          Alcotest.test_case "crash resets state" `Quick
            test_crash_resets_pending;
        ] );
    ]
