(* The §7.5 experiment as a test: every RECIPE-converted index passes the
   consistency and durability campaigns; the buggy baseline variants are
   caught. *)

module I = Harness.Index

let buggy name bug =
  I.subject (Option.get (I.variant (Option.get (I.find name)) bug))

let campaign mk ~states =
  Crashtest.consistency_campaign ~make:mk ~states ~load:400 ~ops:400 ~threads:4
    ~seed:11 ()

let check_passes name mk =
  let r = campaign mk ~states:25 in
  if r.Crashtest.lost_keys <> 0 || r.Crashtest.wrong_values <> 0
     || r.Crashtest.stalled <> 0
  then
    Alcotest.failf "%s failed crash campaign: %s" name
      (Format.asprintf "%a" Crashtest.pp_report r);
  Alcotest.(check bool) (name ^ ": some crashes fired") true
    (r.Crashtest.crashes_fired > 0)

let check_all keep =
  List.iter
    (fun e -> if keep e then check_passes e.I.name (I.subject e))
    I.all

let test_converted_pass () = check_all (fun e -> e.I.converted)

(* The baselines with their seeded bugs off. *)
let test_correct_baselines_pass () = check_all (fun e -> not e.I.converted)

(* The buggy FAST & FAIR split order loses committed keys in some state. *)
let test_fastfair_bug_caught () =
  let r =
    campaign (buggy Fastfair.name "split-order") ~states:60
  in
  Alcotest.(check bool) "data loss detected" true (r.Crashtest.lost_keys > 0)

(* The buggy CCEH directory doubling stalls after some crash state.  The
   stall window is a single crash point per doubling, so a sampled campaign
   is not guaranteed to land on it at any one seed; search a bounded range
   of seeds and require that at least one exposes the stall.  (This is the
   honest statement of §7.5's methodology — the bug is found by sampling,
   not by a magic seed baked into the test.) *)
let test_cceh_bug_caught () =
  let max_seed = 32 in
  let rec search seed =
    if seed > max_seed then
      Alcotest.failf
        "CCEH doubling stall not reproduced by any seed in 1..%d" max_seed
    else
      let r =
        Crashtest.consistency_campaign
          ~make:(buggy Cceh.name "doubling")
          ~states:12 ~load:400 ~ops:400 ~threads:4 ~seed ()
      in
      if r.Crashtest.stalled > 0 then seed else search (seed + 1)
  in
  let found = search 1 in
  Alcotest.(check bool)
    (Printf.sprintf "stall detected (seed %d)" found)
    true (found >= 1)

(* Double crashes: the second crash interrupts writers that may be fixing
   leftovers of the first (the consecutive-crash scenario behind the FAST &
   FAIR merge bug §7.5 describes).  All converted indexes must pass, with
   ordered-scan verification included. *)
let test_double_crash_converted () =
  List.iter
    (fun e ->
      let r =
        Crashtest.double_crash_campaign ~make:(I.subject e) ~states:25 ~load:400
          ~seed:5 ()
      in
      if
        r.Crashtest.lost_keys <> 0 || r.Crashtest.wrong_values <> 0
        || r.Crashtest.stalled <> 0
      then
        Alcotest.failf "%s failed double-crash: %s" e.I.name
          (Format.asprintf "%a" Crashtest.pp_report r))
    (List.filter (fun e -> e.I.converted || e.I.name = Fastfair.name) I.all)

let test_durability_all_pass () =
  List.iter
    (fun e ->
      let v =
        Crashtest.durability_test ~make:(I.subject e) ~inserts:1_500 ~seed:3 ()
      in
      Alcotest.(check int) (e.I.name ^ ": durability violations") 0 v)
    I.all

(* The durability test catches the unflushed initial allocation (§7.5's
   "initial node allocation containing the root pointer is not persisted"). *)
let test_durability_root_bug_caught () =
  let v =
    Crashtest.durability_test
      ~make:(buggy Fastfair.name "root-flush")
      ~inserts:50 ~seed:3 ()
  in
  Alcotest.(check bool) "unflushed root detected" true (v > 0)

let () =
  Alcotest.run "crashtest"
    [
      ( "consistency",
        [
          Alcotest.test_case "converted indexes pass" `Quick test_converted_pass;
          Alcotest.test_case "correct baselines pass" `Quick
            test_correct_baselines_pass;
          Alcotest.test_case "FAST&FAIR bug caught" `Quick test_fastfair_bug_caught;
          Alcotest.test_case "CCEH bug caught" `Quick test_cceh_bug_caught;
          Alcotest.test_case "double-crash converted pass" `Quick
            test_double_crash_converted;
        ] );
      ( "durability",
        [
          Alcotest.test_case "all indexes flush everything" `Quick
            test_durability_all_pass;
          Alcotest.test_case "root-flush bug caught" `Quick
            test_durability_root_bug_caught;
        ] );
    ]
