(* Crash-recovery testing demo (paper §5 / §7.5): run the consistency
   campaign against a RECIPE-converted index and against the deliberately
   buggy variants of the hand-crafted baselines, and watch the framework
   find the paper's bugs.

     dune exec examples/crash_demo.exe *)

module I = Harness.Index

let index name = Option.get (I.find name)
let buggy name bug = Option.get (I.variant (index name) bug)

let run e =
  let r =
    Crashtest.consistency_campaign ~make:(I.subject e) ~states:30 ~load:400
      ~ops:400 ~threads:4 ~seed:2024 ()
  in
  Format.printf "%-18s %a@." e.I.name Crashtest.pp_report r;
  r

let () =
  print_endline "consistency campaigns (30 crash states each):";
  let art = run I.art in
  let clht = run (index "clht") in
  let ff_ok = run (index "fastfair") in
  assert (art.Crashtest.lost_keys = 0 && clht.Crashtest.lost_keys = 0);
  assert (ff_ok.Crashtest.lost_keys = 0);

  (* The baselines' bugs hide in single crash points inside SMOs, so hunt
     them with the deterministic point sweep (§5's "crash after each atomic
     store"). *)
  print_endline "";
  print_endline "deterministic crash-point sweeps against the buggy variants:";
  let sweep e =
    let r =
      Crashtest.sweep ~make:(I.subject e) ~points:20_000 ~stride:1 ~load:3_000 ()
    in
    Format.printf "%-18s %a@." e.I.name Crashtest.pp_report r;
    r
  in
  let ff_bug = sweep (buggy "fastfair" "split-order") in
  let cceh_bug = sweep (buggy "cceh" "doubling") in
  assert (ff_bug.Crashtest.lost_keys > 0);
  assert (cceh_bug.Crashtest.stalled > 0);

  print_endline "";
  print_endline "durability checks (every dirtied line flushed per op):";
  let dur e =
    let v =
      Crashtest.durability_test ~make:(I.subject e) ~inserts:500 ~seed:1 ()
    in
    Printf.printf "%-18s violations=%d -> %s\n" e.I.name v
      (if v = 0 then "PASS" else "FAIL")
  in
  List.iter dur
    [ I.art; index "masstree"; index "fastfair"; buggy "fastfair" "root-flush" ];
  print_endline "";
  print_endline
    "RECIPE-converted indexes pass; the baselines' §3 bugs are caught."
