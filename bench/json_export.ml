(* Machine-readable bench export (bench/main.exe --json FILE).

   One self-contained measurement pass per index: YCSB throughput and
   per-op-type latency percentiles for every applicable workload, flush and
   fence counts per insert, simulated LLC misses per operation, and the
   per-site flush attribution from the observability registry.  Each index
   section carries both the site-summed totals and the legacy [Pmem.Stats]
   totals so consumers (and bench/check_json.ml under [dune runtest]) can
   check the attribution invariant: every flush lands on exactly one site,
   so the sums must be equal. *)

module J = Obs.Json
module H = Util.Histogram

let hist_json = function
  | Some h when H.count h > 0 ->
      J.Obj
        [
          ("count", J.int (H.count h));
          ("mean_ns", J.Num (H.mean h));
          ("p50_ns", J.int (H.percentile h 0.50));
          ("p99_ns", J.int (H.percentile h 0.99));
          ("p999_ns", J.int (H.percentile h 0.999));
        ]
  | _ -> J.Null

(* One (index, workload) cell: throughput + latency under the configured
   thread count, then LLC misses per op from a separate single-threaded run
   with the cache simulator on. *)
let workload_json cfg build w =
  let { Experiments.nloaded; nops; threads; seed; _ } = cfg in
  Experiments.reset_env ();
  let p =
    Ycsb.prepare ~workload:w ~kind:Ycsb.Randint ~nloaded ~nops ~threads ~seed ()
  in
  let d = build p in
  let r =
    if w = Ycsb.Load_a then Ycsb.load ~latency:true p d
    else begin
      ignore (Ycsb.load p d);
      Ycsb.run ~latency:true p d
    end
  in
  let llc = Experiments.llc_misses_per_op Ycsb.Randint build w nloaded nops in
  J.Obj
    [
      ("workload", J.Str (Ycsb.workload_name w));
      ("seed", J.int r.Ycsb.seed);
      ("ops", J.int r.Ycsb.ops);
      ("seconds", J.Num r.Ycsb.seconds);
      ("mops", J.Num r.Ycsb.mops);
      ("reads_found", J.int r.Ycsb.reads_found);
      ("reads_missed", J.int r.Ycsb.reads_missed);
      ("scanned_total", J.int r.Ycsb.scanned_total);
      ("llc_misses_per_op", J.Num llc);
      ( "latency",
        J.Obj
          [
            ("overall", hist_json r.Ycsb.latency);
            ("insert", hist_json r.Ycsb.lat_insert);
            ("read", hist_json r.Ycsb.lat_read);
            ("scan", hist_json r.Ycsb.lat_scan);
          ] );
    ]

(* Per-site flush/fence attribution over one load + workload-A run, against
   a registry zeroed by [reset_env].  Only sites that fired are listed
   (sorted by clwb count, descending, capped at [top_k] with the remainder
   noted); the totals are over *all* sites so the invariant check is exact
   regardless of the cap. *)
let site_attribution cfg build =
  let { Experiments.nloaded; nops; threads; seed; _ } = cfg in
  Experiments.reset_env ();
  let p =
    Ycsb.prepare ~workload:Ycsb.A ~kind:Ycsb.Randint ~nloaded ~nops ~threads
      ~seed ()
  in
  let d = build p in
  ignore (Ycsb.load p d);
  ignore (Ycsb.run p d);
  let stats = Pmem.Stats.snapshot () in
  let fired =
    List.filter
      (fun s -> Obs.Site.clwb_count s > 0 || Obs.Site.sfence_count s > 0)
      (Obs.Site.all ())
  in
  let clwb_total =
    List.fold_left (fun a s -> a + Obs.Site.clwb_count s) 0 fired
  and sfence_total =
    List.fold_left (fun a s -> a + Obs.Site.sfence_count s) 0 fired
  in
  let ranked =
    List.sort
      (fun a b -> compare (Obs.Site.clwb_count b) (Obs.Site.clwb_count a))
      fired
  in
  let top_k = 16 in
  let shown = List.filteri (fun i _ -> i < top_k) ranked in
  J.Obj
    [
      ("site_clwb_total", J.int clwb_total);
      ("site_sfence_total", J.int sfence_total);
      ("stats_clwb_total", J.int stats.Pmem.Stats.s_clwb);
      ("stats_sfence_total", J.int stats.Pmem.Stats.s_sfence);
      ("sites_fired", J.int (List.length fired));
      ("sites_listed", J.int (List.length shown));
      ( "attribution",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("site", J.Str (Obs.Site.name s));
                   ("clwb", J.int (Obs.Site.clwb_count s));
                   ("sfence", J.int (Obs.Site.sfence_count s));
                 ])
             shown) );
    ]

(* One section per index of {!Harness.Index.all}.  [ordered] doubles as scan
   support: workload E runs only on the ordered (tree) indexes. *)
let index_json cfg entry =
  let name = entry.Harness.Index.name and ordered = Harness.Index.ordered entry in
  let build = Harness.Index.driver entry in
  Printf.printf "json: measuring %s...\n%!" name;
  let workloads =
    if ordered then Ycsb.all_workloads
    else [ Ycsb.Load_a; Ycsb.A; Ycsb.B; Ycsb.C ]
  in
  let cells = List.map (workload_json cfg build) workloads in
  let clwb_ins, sfence_ins =
    Experiments.flush_counters ~nloaded:cfg.Experiments.nloaded build
  in
  let sites = site_attribution cfg build in
  J.Obj
    [
      ("name", J.Str name);
      ("ordered", J.Bool ordered);
      ("scan_supported", J.Bool ordered);
      ("workloads", J.List cells);
      ( "counters",
        J.Obj
          [
            ("clwb_per_insert", J.Num clwb_ins);
            ("sfence_per_insert", J.Num sfence_ins);
          ] );
      ("sites", sites);
    ]

(* Substrate accessor costs (the micro-pmem experiment): ns/op for the
   Words/Refs hot path, single-domain and aggregated over domains. *)
let micro_pmem_json cfg =
  Printf.printf "json: measuring micro-pmem...\n%!";
  let threads = max 2 cfg.Experiments.threads in
  let single, multi = Experiments.micro_pmem_measure ~threads () in
  let sanitize = Experiments.micro_pmem_sanitize_measure () in
  let rows l = J.Obj (List.map (fun (n, v) -> (n, J.Num v)) l) in
  J.Obj
    [
      ("threads", J.int threads);
      ("single_domain_ns_per_op", rows single);
      ("multi_domain_ns_per_op", rows multi);
      ( "sanitize_ns_per_op",
        J.Obj
          (List.map
             (fun (n, off, on_) ->
               ( n,
                 J.Obj
                   [
                     ("off", J.Num off);
                     ("on", J.Num on_);
                     ("ratio", J.Num (on_ /. off));
                   ] ))
             sanitize) );
    ]

(* Recovery-time table: one fault-injected recovery-under-load campaign per
   index (crashes at arbitrary substrate events, power failure, timed
   recovery, reclaiming leak sweep, resumed traffic).  Reports wall-clock
   recovery cost and structural-repair counts next to the zero-lost-acks
   verdict; check_json.ml requires the verdict columns to be zero. *)
let recovery_json ~smoke () =
  Printf.printf "json: measuring recovery...\n%!";
  let states = if smoke then 5 else 20
  and load = if smoke then 150 else 600 in
  J.Obj
    (List.map
       (fun entry ->
         let make = Harness.Index.subject entry in
         let r =
           Crashtest.recovery_under_load_campaign ~make ~states ~load
             ~ops:load ~threads:4 ~seed:7 ~faults:true
             ~crash_during_recovery:false ()
         in
         let b = r.Crashtest.base and s = r.Crashtest.sweep_stats in
         let recoveries = max 1 r.Crashtest.recoveries in
         ( entry.Harness.Index.name,
           J.Obj
             [
               ("states", J.int b.Crashtest.states_tested);
               ("crashes", J.int b.Crashtest.crashes_fired);
               ("faults_injected", J.int r.Crashtest.faults_injected);
               ("recoveries", J.int r.Crashtest.recoveries);
               ("recover_ns_total", J.int r.Crashtest.recover_ns);
               ( "recover_ns_mean",
                 J.Num (float_of_int r.Crashtest.recover_ns /. float_of_int recoveries) );
               ("repaired", J.int s.Recipe.Recovery.repaired);
               ("orphans", J.int s.Recipe.Recovery.orphans);
               ("reclaimed", J.int s.Recipe.Recovery.reclaimed);
               ("lost", J.int b.Crashtest.lost_keys);
               ("wrong", J.int b.Crashtest.wrong_values);
               ("stalled", J.int b.Crashtest.stalled);
             ] ))
       Harness.Index.all)

(* Batched-durability table: the KV service layer (lib/kvserve) over the
   standard grid — shard counts × {per_op, epoch} — driven with
   write-heavy overwrite traffic by the closed-loop load generator.  The
   rows come from {!Kvserve.Servebench.run_one}, the same measurement
   bin/kv_bench.exe prints, so the report and the CLI always agree;
   check_json.ml gates the cross-mode flush/fence counts (epoch batching
   never raises clwb/op and strictly lowers sfence/op).  Full-size
   campaigns ack >= 51.2k ops per cell (4 workers x 800 requests x 16 ops)
   so p99s are populations, not a couple of histogram samples. *)
let serve_json ~smoke () =
  Printf.printf "json: measuring serve...\n%!";
  let requests = if smoke then 50 else 800
  and warmup_requests = if smoke then 10 else 50 in
  Experiments.reset_env ();
  Kvserve.Servebench.rows_json
    (Kvserve.Servebench.run_grid
       ~make:(Harness.Index.partition Harness.Index.art)
       ~shard_counts:[ 2; 4 ] ~batch:32 ~workers:4 ~requests ~warmup_requests
       ~ops_per_request:16 ~write_pct:100 ~key_space:64 ~seed:42 ())

(* Transaction-batch table (EXPERIMENTS.md E25): all-transaction traffic
   over the sharded router, one failure-atomic [Wire.Txn] batch per
   request, swept over member counts in both persist modes.  Each
   transaction pays a constant sfence overhead (WAL begin, data flush,
   commit flip) on top of the per-member write-ahead undo append, so
   sfence per member op falls as members amortize the constant part;
   check_json.ml gates that amortization. *)
let txn_json ~smoke () =
  Printf.printf "json: measuring txn...\n%!";
  let requests = if smoke then 40 else 400
  and warmup_requests = if smoke then 8 else 50 in
  Experiments.reset_env ();
  Kvserve.Servebench.txn_rows_json
    (Kvserve.Servebench.run_txn_grid
       ~make:(Harness.Index.partition Harness.Index.art) ~shards:2
       ~batch:32 ~txn_ops_list:[ 1; 4; 16 ] ~workers:2 ~requests
       ~warmup_requests ~seed:42 ())

let write cfg ~smoke file =
  let { Experiments.nloaded; nops; threads; seed; _ } = cfg in
  let doc =
    J.Obj
      [
        (* /5: serve and txn rows sweep persist_mode per_op|epoch only;
           bench/check_json.ml accepts this schema alone. *)
        ("schema", J.Str "recipe-bench/5");
        ( "meta",
          J.Obj
            [
              ("nloaded", J.int nloaded);
              ("nops", J.int nops);
              ("threads", J.int threads);
              ("seed", J.int seed);
              ("smoke", J.Bool smoke);
              ("key_kind", J.Str "randint");
            ] );
        ("micro_pmem", micro_pmem_json cfg);
        ("recovery", recovery_json ~smoke ());
        ("serve", serve_json ~smoke ());
        ("txn", txn_json ~smoke ());
        ("indexes", J.List (List.map (index_json cfg) Harness.Index.all));
      ]
  in
  let oc = open_out file in
  J.to_channel oc doc;
  close_out oc;
  Printf.printf "json: wrote %s\n%!" file
