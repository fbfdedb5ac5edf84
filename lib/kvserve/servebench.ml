(* Batched-durability benchmark: drive the closed-loop load generator
   against a server over a grid of (shard count × persist mode)
   configurations, reporting throughput, ack-latency percentiles, realized
   batch size, and flushes/fences per acknowledged operation.

   The mode comparison is the experiment's point: epoch mode should show
   clwb/op no higher and sfence/op well below the per-op ablation (commit
   coalescing) — checked by bench/check_json — and the adaptive controller
   closes epochs as soon as the queue runs dry, so the amortization costs
   no ack p99 at low load.

   Each cell runs a short deterministic warmup (same traffic shape,
   distinct seed) that is excluded from the histograms and the
   flush/fence accounting, so cold-start epochs don't pollute p99 —
   measured runs are >= tens of thousands of acked ops at the committed
   campaign sizes, enough to make a p99 a population, not 2-3 samples.

   Shared by [bin/kv_bench.exe] (human table) and the bench JSON export's
   [serve] section, so both always report the same measurement. *)

module J = Obs.Json
module H = Util.Histogram

(* One per-shard per-phase latency line of the breakdown table. *)
type phase_row = {
  p_sid : int;
  p_phase : string;  (** "queue" | "apply" | "epoch_wait" | "fence" | "ack" *)
  p_count : int;
  p_mean_ns : float;
  p_p50_ns : int;
  p_p99_ns : int;
}

type row = {
  r_index : string;
  r_shards : int;
  r_batch : int;
  r_mode : Server.persist_mode;
  r_workers : int;
  r_ops : int;  (** operations acknowledged *)
  r_elapsed_ns : int;
  r_kops : float;  (** acked operations per second, thousands *)
  r_ack_p50_ns : int;
  r_ack_p99_ns : int;
  r_mean_batch : float;  (** realized operations per executed batch *)
  r_flushes_per_op : float;
  r_fences_per_op : float;
  r_overloaded : int;
  r_seed : int;
  r_breakdown : phase_row list;
      (** per-shard queue/apply/epoch_wait/fence/ack decomposition *)
}

let phase_names = List.map fst Obs.Span.phases

let phase_hist phase sid = Obs.Hist.v (Printf.sprintf "serve.phase.%s.%d" phase sid)

let collect_breakdown shards =
  List.concat_map
    (fun sid ->
      List.map
        (fun phase ->
          let m = Obs.Hist.merged (phase_hist phase sid) in
          {
            p_sid = sid;
            p_phase = phase;
            p_count = H.count m;
            p_mean_ns = H.mean m;
            p_p50_ns = H.percentile m 0.50;
            p_p99_ns = H.percentile m 0.99;
          })
        phase_names)
    (List.init shards (fun sid -> sid))

(* The serve metrics are process-global named histograms; zero the ones this
   run will observe so each grid cell reports only its own traffic. *)
let reset_serve_metrics shards =
  Obs.Hist.reset (Obs.Hist.v "serve.ack_ns");
  for sid = 0 to shards - 1 do
    Obs.Hist.reset (Obs.Hist.v (Printf.sprintf "serve.batch_ops.%d" sid));
    Obs.Hist.reset (Obs.Hist.v (Printf.sprintf "serve.epoch_ops.%d" sid));
    List.iter (fun phase -> Obs.Hist.reset (phase_hist phase sid)) phase_names
  done

let run_one ~(make : unit -> Server.partition) ~shards ~batch
    ~(mode : Server.persist_mode) ?(workers = 2) ?(requests = 800)
    ?(ops_per_request = 16) ?(warmup_requests = 50) ?(write_pct = 100)
    ?(key_space = 64) ?(seed = 42) () =
  let parts = Array.init shards (fun _ -> make ()) in
  let cfg =
    {
      Server.shards;
      batch;
      queue_cap = max (4 * batch) (workers * ops_per_request);
      mode;
    }
  in
  (* Spans on for the duration of the run: the breakdown table is the whole
     point of the measurement, and the stamping cost lands identically on
     every cell of the mode comparison. *)
  let spans_were = Obs.Span.enabled () in
  Obs.Span.set_enabled true;
  let srv = Server.start cfg parts in
  let lcfg ~seed ~requests =
    {
      Loadgen.default_cfg with
      workers;
      requests;
      ops_per_request;
      write_pct;
      read_space = key_space;
      mode = Loadgen.Overwrite key_space;
      seed;
    }
  in
  (* Deterministic warmup (distinct seed, same traffic shape): exercises the
     whole pipeline — allocators, first-touch index paths, cold epochs —
     then every histogram and the flush/fence baseline is reset, so the
     measured run reports steady-state behaviour only. *)
  if warmup_requests > 0 then
    ignore (Loadgen.run srv (lcfg ~seed:(seed + 7919) ~requests:warmup_requests));
  reset_serve_metrics shards;
  let s0 = Pmem.Stats.snapshot () in
  let out = Loadgen.run srv (lcfg ~seed ~requests) in
  Server.stop srv;
  Obs.Span.set_enabled spans_were;
  let d = Pmem.Stats.diff (Pmem.Stats.snapshot ()) s0 in
  let ack = Obs.Hist.merged (Server.ack_hist srv) in
  let batches = H.create () in
  for sid = 0 to shards - 1 do
    H.merge batches
      (Obs.Hist.merged (Obs.Hist.v (Printf.sprintf "serve.batch_ops.%d" sid)))
  done;
  let ops = out.Loadgen.ops_acked in
  let fops = float_of_int (max 1 ops) in
  {
    r_index = parts.(0).Server.p_name;
    r_shards = shards;
    r_batch = batch;
    r_mode = mode;
    r_workers = workers;
    r_ops = ops;
    r_elapsed_ns = out.Loadgen.elapsed_ns;
    r_kops =
      fops /. (float_of_int (max 1 out.Loadgen.elapsed_ns) /. 1e9) /. 1e3;
    r_ack_p50_ns = H.percentile ack 0.50;
    r_ack_p99_ns = H.percentile ack 0.99;
    r_mean_batch = H.mean batches;
    r_flushes_per_op = float_of_int d.Pmem.Stats.s_clwb /. fops;
    r_fences_per_op = float_of_int d.Pmem.Stats.s_sfence /. fops;
    r_overloaded = out.Loadgen.overloaded;
    r_seed = out.Loadgen.seed;
    r_breakdown = collect_breakdown shards;
  }

(* The standard grid: every shard count × persist mode, identical traffic
   (same seed) in each cell. *)
let default_modes = [ Server.Per_op; Server.Epoch Epoch_ctl.default_cfg ]

let run_grid ~make ~shard_counts ~batch ?(modes = default_modes) ?workers
    ?requests ?ops_per_request ?warmup_requests ?write_pct ?key_space ?seed
    () =
  List.concat_map
    (fun shards ->
      List.map
        (fun mode ->
          run_one ~make ~shards ~batch ~mode ?workers ?requests
            ?ops_per_request ?warmup_requests ?write_pct ?key_space ?seed ())
        modes)
    shard_counts

let row_json r =
  J.Obj
    [
      ("index", J.Str r.r_index);
      ("shards", J.int r.r_shards);
      ("batch", J.int r.r_batch);
      ("persist_mode", J.Str (Server.mode_name r.r_mode));
      ("workers", J.int r.r_workers);
      ("ops_acked", J.int r.r_ops);
      ("elapsed_ns", J.int r.r_elapsed_ns);
      ("kops", J.Num r.r_kops);
      ("ack_p50_ns", J.int r.r_ack_p50_ns);
      ("ack_p99_ns", J.int r.r_ack_p99_ns);
      ("mean_batch_ops", J.Num r.r_mean_batch);
      ("clwb_per_op", J.Num r.r_flushes_per_op);
      ("sfence_per_op", J.Num r.r_fences_per_op);
      ("overloaded", J.int r.r_overloaded);
      ("seed", J.int r.r_seed);
      ( "latency_breakdown",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("shard", J.int p.p_sid);
                   ("phase", J.Str p.p_phase);
                   ("count", J.int p.p_count);
                   ("mean_ns", J.Num p.p_mean_ns);
                   ("p50_ns", J.int p.p_p50_ns);
                   ("p99_ns", J.int p.p_p99_ns);
                 ])
             r.r_breakdown) );
    ]

let rows_json rows = J.List (List.map row_json rows)

let print_header () =
  Printf.printf "%-10s %6s %6s %7s %10s %9s %11s %11s %10s %10s %10s\n"
    "index" "shards" "batch" "mode" "ops" "kops/s" "p50_ack_us" "p99_ack_us"
    "mean_batch" "clwb/op" "sfence/op"

let print_row r =
  Printf.printf
    "%-10s %6d %6d %7s %10d %9.1f %11.1f %11.1f %10.2f %10.2f %10.2f\n"
    r.r_index r.r_shards r.r_batch
    (Server.mode_name r.r_mode)
    r.r_ops r.r_kops
    (float_of_int r.r_ack_p50_ns /. 1e3)
    (float_of_int r.r_ack_p99_ns /. 1e3)
    r.r_mean_batch r.r_flushes_per_op r.r_fences_per_op

(* Phase decomposition of one row: a sub-table of per-shard p50/p99 (µs)
   for the queue/apply/epoch_wait/fence/ack phases — the answer to "where
   does a mode's ack p99 go?". *)
let print_breakdown r =
  Printf.printf "  %-10s mode=%-6s %-6s" r.r_index
    (Server.mode_name r.r_mode)
    "shard";
  List.iter (fun phase -> Printf.printf " %16s" (phase ^ " p50/p99")) phase_names;
  print_newline ();
  List.iter
    (fun sid ->
      Printf.printf "  %-10s %10s %6d" "" "" sid;
      List.iter
        (fun phase ->
          match
            List.find_opt
              (fun p -> p.p_sid = sid && p.p_phase = phase)
              r.r_breakdown
          with
          | Some p ->
              Printf.printf " %7.1f/%8.1f"
                (float_of_int p.p_p50_ns /. 1e3)
                (float_of_int p.p_p99_ns /. 1e3)
          | None -> Printf.printf " %16s" "-")
        phase_names;
      print_newline ())
    (List.init r.r_shards (fun sid -> sid))

(* --- transaction batch benchmark (EXPERIMENTS.md E25) ---------------------- *)

(* Closed-loop all-transaction traffic: each request is one [Wire.Txn]
   batch of [txn_ops] members.  The sweep over [txn_ops] answers the E25
   question — how the per-member fence cost falls with batch size (a
   standalone transaction pays a constant overhead of sfences — WAL
   begin, data flush, commit flip — amortized over its members, on top
   of the per-member write-ahead undo append) and what that batching
   does to ack p99. *)
type txn_row = {
  t_index : string;
  t_shards : int;
  t_mode : Server.persist_mode;
  t_txn_ops : int;  (** members per transaction batch *)
  t_txns : int;  (** batches acknowledged [Txn_ok] *)
  t_ops : int;  (** member operations acknowledged *)
  t_aborted : int;
  t_elapsed_ns : int;
  t_kops : float;  (** acked member operations per second, thousands *)
  t_ack_p50_ns : int;
  t_ack_p99_ns : int;
  t_flushes_per_op : float;  (** clwb per acked member op *)
  t_fences_per_op : float;  (** sfence per acked member op *)
  t_seed : int;
}

let run_txn_one ~(make : unit -> Server.partition) ~shards ~batch
    ~(mode : Server.persist_mode) ~txn_ops ?(workers = 2) ?(requests = 400)
    ?(warmup_requests = 50) ?(seed = 42) () =
  let parts = Array.init shards (fun _ -> make ()) in
  let cfg =
    {
      Server.shards;
      batch;
      queue_cap = max (4 * batch) (workers * txn_ops);
      mode;
    }
  in
  let srv = Server.start cfg parts in
  let lcfg ~seed ~requests =
    {
      Loadgen.default_cfg with
      workers;
      requests;
      ops_per_request = 1;
      write_pct = 100;
      read_space = 64;
      txn_pct = 100;
      txn_ops;
      seed;
    }
  in
  if warmup_requests > 0 then
    ignore (Loadgen.run srv (lcfg ~seed:(seed + 7919) ~requests:warmup_requests));
  reset_serve_metrics shards;
  let s0 = Pmem.Stats.snapshot () in
  let out = Loadgen.run srv (lcfg ~seed ~requests) in
  Server.stop srv;
  let d = Pmem.Stats.diff (Pmem.Stats.snapshot ()) s0 in
  let ack = Obs.Hist.merged (Server.ack_hist srv) in
  let ops = out.Loadgen.ops_acked in
  let fops = float_of_int (max 1 ops) in
  {
    t_index = parts.(0).Server.p_name;
    t_shards = shards;
    t_mode = mode;
    t_txn_ops = txn_ops;
    t_txns = out.Loadgen.txns_acked;
    t_ops = ops;
    t_aborted = out.Loadgen.txns_aborted;
    t_elapsed_ns = out.Loadgen.elapsed_ns;
    t_kops =
      fops /. (float_of_int (max 1 out.Loadgen.elapsed_ns) /. 1e9) /. 1e3;
    t_ack_p50_ns = H.percentile ack 0.50;
    t_ack_p99_ns = H.percentile ack 0.99;
    t_flushes_per_op = float_of_int d.Pmem.Stats.s_clwb /. fops;
    t_fences_per_op = float_of_int d.Pmem.Stats.s_sfence /. fops;
    t_seed = out.Loadgen.seed;
  }

let run_txn_grid ~make ~shards ~batch ~txn_ops_list ?(modes = default_modes)
    ?workers ?requests ?warmup_requests ?seed () =
  List.concat_map
    (fun mode ->
      List.map
        (fun txn_ops ->
          run_txn_one ~make ~shards ~batch ~mode ~txn_ops ?workers ?requests
            ?warmup_requests ?seed ())
        txn_ops_list)
    modes

let txn_row_json r =
  J.Obj
    [
      ("index", J.Str r.t_index);
      ("shards", J.int r.t_shards);
      ("persist_mode", J.Str (Server.mode_name r.t_mode));
      ("txn_ops", J.int r.t_txn_ops);
      ("txns_acked", J.int r.t_txns);
      ("ops_acked", J.int r.t_ops);
      ("txns_aborted", J.int r.t_aborted);
      ("elapsed_ns", J.int r.t_elapsed_ns);
      ("kops", J.Num r.t_kops);
      ("ack_p50_ns", J.int r.t_ack_p50_ns);
      ("ack_p99_ns", J.int r.t_ack_p99_ns);
      ("clwb_per_op", J.Num r.t_flushes_per_op);
      ("sfence_per_op", J.Num r.t_fences_per_op);
      ("seed", J.int r.t_seed);
    ]

let txn_rows_json rows = J.List (List.map txn_row_json rows)

let print_txn_header () =
  Printf.printf "%-10s %6s %7s %8s %8s %10s %9s %11s %11s %10s %10s\n" "index"
    "shards" "mode" "txn_ops" "txns" "ops" "kops/s" "p50_ack_us" "p99_ack_us"
    "clwb/op" "sfence/op"

let print_txn_row r =
  Printf.printf
    "%-10s %6d %7s %8d %8d %10d %9.1f %11.1f %11.1f %10.2f %10.2f\n" r.t_index
    r.t_shards
    (Server.mode_name r.t_mode)
    r.t_txn_ops r.t_txns r.t_ops r.t_kops
    (float_of_int r.t_ack_p50_ns /. 1e3)
    (float_of_int r.t_ack_p99_ns /. 1e3)
    r.t_flushes_per_op r.t_fences_per_op
