(* Unit tests of the benchmark's own arithmetic: exact percentiles and
   quartiles, open-loop latency from due time, and self time. *)

open Benchmark

let check_float = Alcotest.(check (float 1e-9))

(* --- percentiles and quartiles -------------------------------------------- *)

let test_percentile_matches_sort () =
  let rng = Util.Rng.create 7 in
  for trial = 1 to 200 do
    let n = 1 + Util.Rng.below rng (if trial < 100 then 20 else 3000) in
    (* Narrow value ranges force many duplicates. *)
    let range = if trial mod 3 = 0 then 5 else 1_000_000 in
    let a = Array.init n (fun _ -> Util.Rng.below rng range) in
    let sorted = Array.copy a in
    Array.sort compare sorted;
    List.iter
      (fun q ->
        let want = sorted.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
        Alcotest.(check int)
          (Printf.sprintf "n=%d q=%.2f" n q)
          want
          (Measure.percentile (Array.copy a) n q))
      [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ]
  done

let test_percentile_nearest_rank () =
  let a = Array.init 100 (fun i -> 100 - i) in
  Alcotest.(check int) "p50 of 1..100" 50 (Measure.percentile a 100 0.50);
  Alcotest.(check int) "p99 of 1..100" 99 (Measure.percentile a 100 0.99);
  (* Only the first n entries count. *)
  let b = [| 5; 1; 3; 1000; 1000 |] in
  Alcotest.(check int) "prefix p99" 5 (Measure.percentile b 3 0.99)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles_python () =
  let q xs (a, b, c) =
    let q1, q2, q3 = Measure.quartiles xs in
    check_float "q1" a q1;
    check_float "q2" b q2;
    check_float "q3" c q3
  in
  q [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 5.5, 8.25);
  q [ 3.0; 1.0 ] (0.5, 2.0, 3.5);
  q [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3.0, 4.5);
  q
    [ 10.5; 10.1; 9.9; 10.0; 10.3; 10.2; 9.8; 10.4; 10.0; 10.1 ]
    (9.975, 10.1, 10.325000000000001);
  check_float "median even" 2.5 (Measure.median_f [ 4.; 1.; 2.; 3. ]);
  check_float "spread" ((8.25 -. 2.75) /. 5.5)
    (Measure.spread [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ])

(* --- open loop ---------------------------------------------------------------- *)

(* A server that stalls until t=1000 and then answers everything at once:
   every request queued behind the stall is charged its whole wait. *)
let test_stall_charges_queued_requests () =
  let due = [| 0; 10; 20; 30 |] in
  let t0 = 5000 in
  let abs = Array.map (fun d -> t0 + d) due in
  let p =
    Pace.account ~t0 ~duration_ns:40 ~due ~ready:abs ~sent:abs
      ~done_:(Array.make 4 (t0 + 1000)) ~ops:(Array.make 4 1)
  in
  Alcotest.(check (array int)) "latency from due time" [| 1000; 990; 980; 970 |]
    p.Pace.s.Measure.lat;
  Alcotest.(check (array int)) "generator on time" [| 0; 0; 0; 0 |] p.Pace.lag;
  Alcotest.(check int) "all four still pending at the last due time" 4 p.Pace.backlog

(* A synchronous client on a simulated clock: the first request takes 1000
   ns, the rest 5.  Requests due during the stall are sent late but timed
   from their due time, and the schedule is not shifted afterwards. *)
let test_sync_client_keeps_schedule () =
  let clock = ref 0 in
  let now () = !clock in
  let wait_until t = if !clock < t then clock := t in
  let due = [| 0; 100; 200; 300; 2000 |] in
  let sent = ref [] in
  let p =
    Pace.run_sync ~now ~wait_until ~t0:0 ~duration_ns:2500 ~due ~prep:Fun.id
      ~exec:(fun i ->
        sent := !clock :: !sent;
        clock := !clock + (if i = 0 then 1000 else 5);
        1)
  in
  Alcotest.(check (list int)) "send times" [ 0; 1000; 1005; 1010; 2000 ] (List.rev !sent);
  Alcotest.(check (array int)) "latency from due" [| 1000; 905; 810; 715; 5 |]
    p.Pace.s.Measure.lat;
  Alcotest.(check (array int)) "no generator lag" [| 0; 0; 0; 0; 0 |] p.Pace.lag;
  Alcotest.(check int) "backlog at the last due time" 1 p.Pace.backlog

let test_poisson_rate () =
  let due =
    Pace.poisson ~rng:(Util.Rng.create 3) ~rate:10_000. ~duration_ns:1_000_000_000
  in
  let n = Array.length due in
  Alcotest.(check bool) "about rate x duration arrivals" true (n > 9_500 && n < 10_500);
  Alcotest.(check bool) "sorted, inside the window" true
    (Array.for_all (fun d -> d >= 0 && d < 1_000_000_000) due
    && Array.for_all Fun.id (Array.init (n - 1) (fun i -> due.(i) <= due.(i + 1))));
  Alcotest.(check (array int)) "deterministic in the seed" due
    (Pace.poisson ~rng:(Util.Rng.create 3) ~rate:10_000. ~duration_ns:1_000_000_000)

(* Per-window statistics: each sample lands in the window of its stamp,
   samples outside the measured span are dropped. *)
let test_windows () =
  let s =
    {
      Measure.at = [| 0; 5; 10; 15; 19; 20; 25 |];
      lat = [| 1; 2; 3; 4; 5; 6; 7 |];
      ops = [| 1; 1; 16; 16; 16; 1; 1 |];
      t_lo = 0;
      t_hi = 20;
    }
  in
  let lats, ops, len = Measure.windows ~w:2 s in
  Alcotest.(check (list (array int))) "latencies by window" [ [| 1; 2 |]; [| 3; 4; 5 |] ] lats;
  Alcotest.(check (list int)) "ops by window" [ 2; 48 ] ops;
  check_float "window length" 10. len

(* --- self time ---------------------------------------------------------------- *)

let test_self_time () =
  let st parent children = Measure.self_time ~parent ~children in
  Alcotest.(check int) "no children" 100 (st (0, 100) []);
  Alcotest.(check int) "disjoint children" 70 (st (0, 100) [ (10, 20); (50, 70) ]);
  Alcotest.(check int) "overlapping children count once" 60
    (st (0, 100) [ (10, 40); (30, 50) ]);
  Alcotest.(check int) "children clipped to the parent" 80
    (st (100, 200) [ (50, 110); (190, 260) ]);
  Alcotest.(check int) "nested child" 50 (st (0, 100) [ (20, 70); (30, 40) ]);
  Alcotest.(check int) "fully covered" 0 (st (0, 100) [ (0, 60); (60, 100) ]);
  Alcotest.(check int) "child outside" 100 (st (0, 100) [ (150, 160) ])

(* --- result line ---------------------------------------------------------------- *)

let test_result_line_digits () =
  let line =
    Report.result_line ~correct:true ~attempted:10 ~failed:0
      [ Report.m "latency_p50_us" "us" 1.2034; Report.m "x" "s" (1. /. 3.) ]
  in
  match Obs.Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Obs.Json.member "metrics" j with
      | Some m ->
          let v k =
            match Option.bind (Obs.Json.member k m) (Obs.Json.member "value") with
            | Some (Obs.Json.Num f) -> f
            | _ -> nan
          in
          check_float "short value kept" 1.2034 (v "latency_p50_us");
          Alcotest.(check bool) "every digit kept" true (v "x" = 1. /. 3.)
      | None -> Alcotest.fail "no metrics")

let () =
  Alcotest.run "benchmark"
    [
      ( "percentiles",
        [
          Alcotest.test_case "quickselect matches sort" `Quick test_percentile_matches_sort;
          Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles_python;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "a stall charges every queued request" `Quick
            test_stall_charges_queued_requests;
          Alcotest.test_case "a sync client keeps its schedule" `Quick
            test_sync_client_keeps_schedule;
          Alcotest.test_case "poisson schedule" `Quick test_poisson_rate;
          Alcotest.test_case "windows" `Quick test_windows;
        ] );
      ("self time", [ Alcotest.test_case "interval union" `Quick test_self_time ]);
      ("result line", [ Alcotest.test_case "all digits" `Quick test_result_line_digits ]);
    ]
