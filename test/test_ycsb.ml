(* Tests for the YCSB generator and runner. *)

(* Under RECIPE_SANITIZE (the @sanitize alias) the whole suite runs with
   the psan sanitizer enabled and must produce zero diagnostics. *)
let () = Harness.Sanitize_env.init ()


let reset () =
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  ignore (Pmem.persist_everything ());
  Pmem.Stats.reset ();
  Util.Lock.new_epoch ()

let test_mix_ratios () =
  reset ();
  (* Count opcodes through a counting driver. *)
  let p =
    Ycsb.prepare ~workload:Ycsb.A ~kind:Ycsb.Randint ~nloaded:1_000 ~nops:10_000
      ~threads:2 ~seed:1 ()
  in
  let ins = Atomic.make 0 and rd = Atomic.make 0 and sc = Atomic.make 0 in
  let d =
    {
      Ycsb.dname = "count";
      insert = (fun _ -> Atomic.incr ins);
      read =
        (fun _ ->
          Atomic.incr rd;
          true);
      scan =
        Some
          (fun _ _ ->
            Atomic.incr sc;
            0);
    }
  in
  let r = Ycsb.run p d in
  Alcotest.(check int) "total ops" 10_000 r.Ycsb.ops;
  let i = Atomic.get ins and rr = Atomic.get rd in
  Alcotest.(check bool)
    (Printf.sprintf "A is ~50/50 (got %d/%d)" i rr)
    true
    (abs (i - rr) < 1_000);
  Alcotest.(check int) "no scans in A" 0 (Atomic.get sc)

let test_workload_e_scans () =
  reset ();
  let p =
    Ycsb.prepare ~workload:Ycsb.E ~kind:Ycsb.Randint ~nloaded:500 ~nops:4_000
      ~threads:2 ~seed:2 ()
  in
  let ins = Atomic.make 0 and sc = Atomic.make 0 in
  let d =
    {
      Ycsb.dname = "count";
      insert = (fun _ -> Atomic.incr ins);
      read = (fun _ -> true);
      scan =
        Some
          (fun _ len ->
            Atomic.incr sc;
            len);
    }
  in
  let r = Ycsb.run p d in
  let scans = Atomic.get sc in
  Alcotest.(check bool) "mostly scans" true (scans > 3_000);
  Alcotest.(check bool) "some inserts" true (Atomic.get ins > 0);
  Alcotest.(check bool) "scan lengths accumulate" true (r.Ycsb.scanned_total >= scans)

let test_unique_keys () =
  reset ();
  let p =
    Ycsb.prepare ~workload:Ycsb.Load_a ~kind:Ycsb.Randint ~nloaded:5_000
      ~nops:5_000 ~threads:4 ~seed:3 ()
  in
  let seen = Hashtbl.create 100 in
  for i = 0 to 9_999 do
    let k = Ycsb.key_int p i in
    if Hashtbl.mem seen k then Alcotest.failf "duplicate key %d" k;
    Hashtbl.add seen k ()
  done

let test_string_keys_shape () =
  reset ();
  let p =
    Ycsb.prepare ~workload:Ycsb.C ~kind:Ycsb.Strkey ~nloaded:100 ~nops:100
      ~threads:1 ~seed:4 ()
  in
  for i = 0 to 99 do
    Alcotest.(check int) "24 bytes" 24 (String.length (Ycsb.key_string p i))
  done

let test_determinism () =
  reset ();
  let mk () =
    Ycsb.prepare ~workload:Ycsb.B ~kind:Ycsb.Randint ~nloaded:200 ~nops:1_000
      ~threads:2 ~seed:42 ()
  in
  let p1 = mk () and p2 = mk () in
  (* universe = 200 loaded + 5% of 1000 = 250 keys *)
  for i = 0 to 249 do
    Alcotest.(check int) "same universe" (Ycsb.key_int p1 i) (Ycsb.key_int p2 i)
  done

(* Zipfian reads are skewed but not degenerate: at theta 0.99 over 1000 keys
   the hottest rank draws about 1/zeta(1000) ~ 13% of reads.  A sampler fed
   uniforms outside [0, 1) clamps them all onto one rank, which then takes
   over half of the reads. *)
let test_zipfian_skew () =
  reset ();
  let n = 1_000 in
  let p =
    Ycsb.prepare ~workload:Ycsb.C ~kind:Ycsb.Randint ~dist:(Ycsb.Zipfian 0.99)
      ~nloaded:n ~nops:20_000 ~threads:2 ~seed:9 ()
  in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let d =
    {
      Ycsb.dname = "count";
      insert = (fun _ -> ());
      read =
        (fun i ->
          Atomic.incr hits.(i);
          true);
      scan = None;
    }
  in
  let r = Ycsb.run p d in
  let hottest = Array.fold_left (fun m c -> max m (Atomic.get c)) 0 hits in
  Alcotest.(check bool)
    (Printf.sprintf "hottest key %d of %d reads <= 25%%" hottest r.Ycsb.ops)
    true
    (4 * hottest <= r.Ycsb.ops)

(* End-to-end on every index of the registry: load + every applicable
   workload ({!Ycsb.all_workloads} on ordered indexes, Load/A/B/C on hash
   ones) completes,
   finds every read, and reports ordered latency percentiles.  Load A's
   measurement is the load itself. *)
let test_end_to_end_all () =
  List.iter
    (fun e ->
      let workloads =
        if Harness.Index.ordered e then Ycsb.all_workloads
        else [ Ycsb.Load_a; Ycsb.A; Ycsb.B; Ycsb.C ]
      in
      List.iter
        (fun w ->
          reset ();
          let ctx = e.Harness.Index.name ^ "/" ^ Ycsb.workload_name w in
          let p =
            Ycsb.prepare ~workload:w ~kind:Ycsb.Randint ~nloaded:2_000
              ~nops:2_000 ~threads:2 ~seed:5 ()
          in
          let d = Harness.Index.driver e p in
          let r =
            if w = Ycsb.Load_a then Ycsb.load ~latency:true p d
            else begin
              ignore (Ycsb.load p d);
              Ycsb.run ~latency:true p d
            end
          in
          Alcotest.(check int) (ctx ^ ": all reads found") 0 r.Ycsb.reads_missed;
          match r.Ycsb.latency with
          | Some h ->
              let q = Util.Histogram.percentile h in
              if not (q 0.50 <= q 0.99 && q 0.99 <= q 0.999) then
                Alcotest.failf "%s: p50 %d, p99 %d, p99.9 %d out of order" ctx
                  (q 0.50) (q 0.99) (q 0.999)
          | None -> Alcotest.failf "%s: no latency samples" ctx)
        workloads)
    Harness.Index.all

let test_end_to_end_art_scans () =
  reset ();
  let p =
    Ycsb.prepare ~workload:Ycsb.E ~kind:Ycsb.Randint ~nloaded:2_000 ~nops:1_000
      ~threads:2 ~seed:6 ()
  in
  let d = Harness.Index.(driver art) p in
  ignore (Ycsb.load p d);
  let r = Ycsb.run p d in
  Alcotest.(check bool) "scans visited entries" true (r.Ycsb.scanned_total > 0)

(* Workload E against a scanless (hash) driver must fail fast, not measure
   no-ops. *)
let test_scan_unsupported () =
  reset ();
  let p =
    Ycsb.prepare ~workload:Ycsb.E ~kind:Ycsb.Randint ~nloaded:100 ~nops:100
      ~threads:1 ~seed:7 ()
  in
  let d = Harness.Index.(driver (Option.get (find Clht.name))) p in
  ignore (Ycsb.load p d);
  Alcotest.check_raises "E on hash raises"
    (Ycsb.Scan_unsupported Clht.name) (fun () -> ignore (Ycsb.run p d))

(* Per-op-type latency histograms: classes partition the merged histogram. *)
let test_latency_by_op () =
  reset ();
  let p =
    Ycsb.prepare ~workload:Ycsb.A ~kind:Ycsb.Randint ~nloaded:500 ~nops:2_000
      ~threads:2 ~seed:8 ()
  in
  let d = Harness.Index.(driver (Option.get (find Clht.name))) p in
  ignore (Ycsb.load p d);
  let r = Ycsb.run ~latency:true p d in
  let count = function
    | Some h -> Util.Histogram.count h
    | None -> 0
  in
  Alcotest.(check int) "all ops sampled" r.Ycsb.ops (count r.Ycsb.latency);
  Alcotest.(check int) "classes partition the total"
    (count r.Ycsb.latency)
    (count r.Ycsb.lat_insert + count r.Ycsb.lat_read + count r.Ycsb.lat_scan);
  Alcotest.(check int) "no scans in A" 0 (count r.Ycsb.lat_scan);
  Alcotest.(check bool) "p99 >= p50" true
    (match r.Ycsb.latency with
    | Some h ->
        Util.Histogram.percentile h 0.99 >= Util.Histogram.percentile h 0.5
    | None -> false)

let () =
  Alcotest.run "ycsb"
    [
      ( "generator",
        [
          Alcotest.test_case "mix ratios" `Quick test_mix_ratios;
          Alcotest.test_case "workload E scans" `Quick test_workload_e_scans;
          Alcotest.test_case "unique keys" `Quick test_unique_keys;
          Alcotest.test_case "string key shape" `Quick test_string_keys_shape;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "zipfian skew" `Quick test_zipfian_skew;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "all indexes, all workloads" `Quick
            test_end_to_end_all;
          Alcotest.test_case "art scans" `Quick test_end_to_end_art_scans;
          Alcotest.test_case "scan unsupported" `Quick test_scan_unsupported;
          Alcotest.test_case "latency by op type" `Quick test_latency_by_op;
        ] );
    ]
