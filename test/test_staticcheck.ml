(* pmlint engine tests: golden fixtures under lintfix/ (known-bad files
   must produce exactly their .expected diagnostics, the known-clean file
   none), plus unit tests for the scan state machine, carrier summaries,
   suppression attributes, scope mapping, baseline diffing, and the
   mutation self-check machinery. *)

open Staticcheck

let render_all (r : Driver.file_result) =
  (* Per-file lint plus the cross-file duplicate-tag pass over this file's
     own site definitions — the same composition [Driver.lint_tree] uses. *)
  let extra = ref [] in
  Rules.check_duplicate_tags ~emit:(fun f -> extra := f :: !extra) r.fr_defs;
  List.map Finding.render
    (List.sort Finding.compare (r.fr_findings @ !extra))

let lint_str ?(file = "unit.ml") src =
  render_all (Driver.lint_string ~file ~scope:Scope.all src)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (if String.trim l = "" then acc else l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* --- golden fixtures ------------------------------------------------------- *)

let fixtures =
  [
    "bad_r1_mutation"; "bad_r2_publish"; "bad_r3_fence"; "bad_r4_sites";
    "bad_r5_lazy"; "bad_txn_commit"; "good_clean";
  ]

let test_fixture name () =
  let ml = Filename.concat "lintfix" (name ^ ".ml") in
  let expected = read_lines (Filename.concat "lintfix" (name ^ ".expected")) in
  let got = render_all (Driver.lint_file ~scope:Scope.all ml) in
  Alcotest.(check (list string)) name expected got

let test_clean_fixture_is_empty () =
  let got = render_all (Driver.lint_file ~scope:Scope.all "lintfix/good_clean.ml") in
  Alcotest.(check (list string)) "good_clean produces no findings" [] got

(* --- scan state machine ---------------------------------------------------- *)

let has_rule id lines =
  List.exists
    (fun l ->
      let tag = "[" ^ id ^ "]" in
      let rec go i =
        i + String.length tag <= String.length l
        && (String.sub l i (String.length tag) = tag || go (i + 1))
      in
      go 0)
    lines

let test_r2_unflushed_store () =
  let got = lint_str "let f w = W.set w 0 1; W.sanitize_publish w 0" in
  Alcotest.(check bool) "R2 fires" true (has_rule "R2" got)

let test_r2_flushed_is_clean () =
  let got =
    lint_str
      "let f w = W.set w 0 1; W.clwb w 0; Pmem.sfence (); W.sanitize_publish \
       w 0"
  in
  Alcotest.(check (list string)) "clean" [] got

let test_r2_join_is_may_analysis () =
  (* Flush on only one branch: the publish may see an unflushed store. *)
  let one =
    lint_str
      "let f w c = W.set w 0 1; (if c then W.clwb w 0); W.sanitize_publish w 0"
  in
  Alcotest.(check bool) "one-branch flush still R2" true (has_rule "R2" one);
  let both =
    lint_str
      "let f w c =\n\
      \  W.set w 0 1;\n\
      \  (if c then W.clwb w 0 else W.clwb_all w);\n\
      \  Pmem.sfence ();\n\
      \  W.sanitize_publish w 0"
  in
  Alcotest.(check (list string)) "both-branch flush clean" [] both

let test_r3_back_to_back_fence () =
  let got =
    lint_str "let f w = W.clwb w 0; Pmem.sfence (); Pmem.sfence ()"
  in
  Alcotest.(check bool) "R3 fires" true (has_rule "R3" got)

let test_r3_fence_after_flush_clean () =
  let got =
    lint_str
      "let f w = W.clwb w 0; Pmem.sfence (); W.clwb w 1; Pmem.sfence ()"
  in
  Alcotest.(check (list string)) "interleaved clwb/sfence clean" [] got

let test_r3_unfenced_flush () =
  let got = lint_str "let f w = W.clwb w 0" in
  Alcotest.(check bool) "R3b fires" true (has_rule "R3" got)

(* --- carriers -------------------------------------------------------------- *)

let test_carrier_flush_clears_pending () =
  let got =
    lint_str
      "let persist_all w = W.clwb_all w; Pmem.sfence ()\n\
       let f w = W.set w 0 1; persist_all w; W.sanitize_publish w 0"
  in
  Alcotest.(check (list string)) "helper flush counts" [] got

let test_carrier_publish_exposed () =
  (* A helper that merely publishes re-exposes the caller's pending store. *)
  let got =
    lint_str
      "let pub w = W.sanitize_publish w 0\n\
       let f w = W.set w 0 1; pub w"
  in
  Alcotest.(check bool) "exposed publish fires at call" true
    (has_rule "R2" got)

let test_carrier_guarded_publish_not_exposed () =
  (* A helper whose publish is dominated by its own flush is safe to call
     with stores pending (syntactically; the flush is the helper's own). *)
  let got =
    lint_str
      "let commit w = W.set w 0 1; W.clwb w 0; Pmem.sfence (); \
       W.sanitize_publish w 0\n\
       let f w = W.set w 5 9; commit w"
  in
  Alcotest.(check (list string)) "guarded publish clean at call" [] got

(* --- suppression and exemption --------------------------------------------- *)

let test_volatile_attr_suppresses_r1 () =
  let bare = lint_str "let f t = Atomic.incr t.stat" in
  Alcotest.(check bool) "unannotated fires" true (has_rule "R1" bare);
  let ann = lint_str "let f t = Atomic.incr t.stat [@pm.volatile]" in
  Alcotest.(check (list string)) "annotated clean" [] ann;
  let bind = lint_str "let[@pm.volatile] f t = t.stat <- 1" in
  Alcotest.(check (list string)) "binding-annotated clean" [] bind

let test_local_alloc_exempt_from_r1 () =
  let got =
    lint_str "let f n = let buf = Array.make n 0 in Array.set buf 0 1; buf"
  in
  Alcotest.(check (list string)) "local array mutation clean" [] got

let test_deferred_attr_suppresses_r2 () =
  let got =
    lint_str "let f w = W.set w 0 1; W.sanitize_publish w 0 [@pm.deferred]"
  in
  Alcotest.(check (list string)) "deferred publish clean" [] got

(* --- R4 -------------------------------------------------------------------- *)

let test_r4_duplicate_tag () =
  let got =
    lint_str
      "let site = Obs.Site.v ~index:\"T\"\n\
       let a = site \"x\"\n\
       let b = site \"x\"\n\
       let f w = W.clwb ~site:a w 0; W.clwb ~site:b w 0; Pmem.sfence ()"
  in
  Alcotest.(check bool) "duplicate fires" true (has_rule "R4" got)

let test_r4_clean_sites () =
  let got =
    lint_str
      "let site = Obs.Site.v ~index:\"T\"\n\
       let a = site \"x\"\n\
       let f w = W.clwb ~site:a w 0; Pmem.sfence ()"
  in
  Alcotest.(check (list string)) "clean sites" [] got

(* --- scope ----------------------------------------------------------------- *)

let test_scope_mapping () =
  let open Scope in
  let ff = of_path "lib/fastfair/fastfair.ml" in
  Alcotest.(check bool) "fastfair r1" true ff.r1;
  Alcotest.(check bool) "fastfair r23" true ff.r23;
  let pm = of_path "lib/pmem/words.ml" in
  Alcotest.(check bool) "pmem r1 off" false pm.r1;
  Alcotest.(check bool) "pmem r23 off" false pm.r23;
  Alcotest.(check bool) "pmem r4 on" true pm.r4;
  let kv = of_path "lib/kvserve/batch.ml" in
  Alcotest.(check bool) "kvserve r1 off" false kv.r1;
  Alcotest.(check bool) "kvserve r23 on" true kv.r23;
  let outside = of_path "test/test_obs.ml" in
  Alcotest.(check bool) "outside lib: nothing" false
    (outside.r1 || outside.r23 || outside.r4)

(* --- parse errors ---------------------------------------------------------- *)

let test_parse_error_is_a_finding () =
  let got = lint_str "let f = (" in
  Alcotest.(check int) "one finding" 1 (List.length got);
  Alcotest.(check bool) "parse rule" true (has_rule "parse" got)

(* --- baseline -------------------------------------------------------------- *)

let test_baseline_diff () =
  let d =
    Baseline.diff ~baseline:[ "a.ml:1: [R1] x"; "b.ml:2: [R2] y" ]
      ~found:[ "a.ml:1: [R1] x"; "c.ml:3: [R3] z" ]
  in
  Alcotest.(check (list string)) "fresh" [ "c.ml:3: [R3] z" ] d.Baseline.fresh;
  Alcotest.(check (list string)) "stale" [ "b.ml:2: [R2] y" ] d.Baseline.stale

let test_baseline_roundtrip () =
  let path = Filename.temp_file "pmlint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let found = [ "b.ml:2: [R2] y"; "a.ml:1: [R1] x" ] in
      Baseline.save path ~found;
      let loaded = Baseline.load path in
      (* Comments dropped, entries sorted. *)
      Alcotest.(check (list string))
        "roundtrip"
        [ "a.ml:1: [R1] x"; "b.ml:2: [R2] y" ]
        loaded)

(* --- mutation machinery ---------------------------------------------------- *)

let test_mutate_lines_preserves_line_count () =
  let src = "a\n  keep me\n  drop this line\nb\n" in
  let mutated, hits =
    Driver.mutate_lines src
      ~mut:{ Driver.mut_name = "t"; mut_match = "drop this" }
  in
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "line count preserved"
    (List.length (String.split_on_char '\n' src))
    (List.length (String.split_on_char '\n' mutated));
  Alcotest.(check string) "replaced in place" "  ();"
    (List.nth (String.split_on_char '\n' mutated) 2)

let test_mutation_check_on_fixture () =
  (* Dropping good_clean's flush helper call must surface a new R2 — the
     same machinery the @lint alias runs against FAST&FAIR's split path. *)
  let src = Srcparse.read_file "lintfix/good_clean.ml" in
  let mutated, hits =
    Driver.mutate_lines src
      ~mut:{ Driver.mut_name = "t"; mut_match = "persist_node ~site:s_alloc" }
  in
  Alcotest.(check int) "one hit" 1 hits;
  let before = lint_str ~file:"good_clean.ml" src in
  let after = lint_str ~file:"good_clean.ml" mutated in
  let fresh = List.filter (fun f -> not (List.mem f before)) after in
  Alcotest.(check bool) "dropped flush caught" true (has_rule "R2" fresh)

let () =
  Alcotest.run "staticcheck"
    [
      ( "fixtures",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_fixture name))
          fixtures
        @ [
            Alcotest.test_case "good_clean empty" `Quick
              test_clean_fixture_is_empty;
          ] );
      ( "scan",
        [
          Alcotest.test_case "R2 unflushed store" `Quick test_r2_unflushed_store;
          Alcotest.test_case "R2 flushed clean" `Quick test_r2_flushed_is_clean;
          Alcotest.test_case "R2 may-join" `Quick test_r2_join_is_may_analysis;
          Alcotest.test_case "R3 back-to-back" `Quick test_r3_back_to_back_fence;
          Alcotest.test_case "R3 interleaved clean" `Quick
            test_r3_fence_after_flush_clean;
          Alcotest.test_case "R3 unfenced flush" `Quick test_r3_unfenced_flush;
        ] );
      ( "carriers",
        [
          Alcotest.test_case "flush clears pending" `Quick
            test_carrier_flush_clears_pending;
          Alcotest.test_case "exposed publish" `Quick
            test_carrier_publish_exposed;
          Alcotest.test_case "guarded publish" `Quick
            test_carrier_guarded_publish_not_exposed;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "pm.volatile" `Quick test_volatile_attr_suppresses_r1;
          Alcotest.test_case "local alloc" `Quick test_local_alloc_exempt_from_r1;
          Alcotest.test_case "pm.deferred" `Quick test_deferred_attr_suppresses_r2;
        ] );
      ( "sites",
        [
          Alcotest.test_case "duplicate tag" `Quick test_r4_duplicate_tag;
          Alcotest.test_case "clean sites" `Quick test_r4_clean_sites;
        ] );
      ( "infra",
        [
          Alcotest.test_case "scope mapping" `Quick test_scope_mapping;
          Alcotest.test_case "parse error" `Quick test_parse_error_is_a_finding;
          Alcotest.test_case "baseline diff" `Quick test_baseline_diff;
          Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "mutate lines" `Quick
            test_mutate_lines_preserves_line_count;
          Alcotest.test_case "mutation caught" `Quick
            test_mutation_check_on_fixture;
        ] );
    ]
