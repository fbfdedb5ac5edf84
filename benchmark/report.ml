(* Metric names and units, the result line, and the check of both against
   BENCHMARK.json.

   Every workload reports every declared metric.  A layer that a workload
   bypasses reports zero for its counts and shares; the time-valued layer
   metrics (index calls, wire codec, generator lag) are measured on every
   workload, over that workload's own operations. *)

module J = Obs.Json

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(** Exact percentile of latency samples (ns), in microseconds. *)
let pct_us a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Report.pct_us: no samples";
  float_of_int (Measure.percentile a n q) /. 1e3

(* --- end to end ------------------------------------------------------------ *)

(* Each phase is cut into half-second windows and a metric is the median
   of its per-window values: on a shared VM a burst of host noise then
   spoils one window, not the run. *)
let window_ns = 500_000_000

let per_window (s : Measure.samples) =
  let span = float_of_int (s.Measure.t_hi - s.Measure.t_lo) in
  let w = max 1 (int_of_float (Float.round (span /. float_of_int window_ns))) in
  Measure.windows ~w s

(** Median over windows of acknowledged operations per second, thousands. *)
let kops_windowed s =
  let _, ops, len = per_window s in
  Measure.median_f (List.map (fun o -> float_of_int o /. len *. 1e6) ops)

(** Median over windows of a latency percentile (us); windows too thin to
    hold ten samples beyond the percentile are skipped, and if none is
    thick enough the whole phase counts as one window. *)
let pct_windowed s q =
  let lats, _, _ = per_window s in
  let need = int_of_float (Float.ceil (10. /. Float.max 0.01 (1. -. q))) in
  match List.filter (fun a -> Array.length a >= need) lats with
  | [] -> pct_us (Array.copy s.Measure.lat) q
  | thick -> Measure.median_f (List.map (fun a -> pct_us a q) thick)

let end_to_end ~setup_s ~(closed : Measure.samples) ~rss_mb =
  [
    m "setup_s" "s" setup_s;
    m "throughput_kops" "kops" (kops_windowed closed);
    m "latency_p50_us" "us" (pct_windowed closed 0.50);
    m "peak_rss_mb" "MB" rss_mb;
  ]

(* --- per layer ------------------------------------------------------------- *)

(** P-ART's attribution sites (its [Obs.Site] labels).  A site added later
    is counted under "other" rather than breaking the declared metric set. *)
let art_sites =
  [
    "alloc-node"; "alloc-leaf"; "add-child"; "child-commit"; "update";
    "fix-prefix"; "chain-install"; "grow"; "split-prefix"; "shrink"; "recover";
  ]

type layer = {
  clwb_per_op : float;
  sfence_per_op : float;
  lines_alloc_per_op : float;
  llc_misses_per_op : float;
  charge_frac : float;
  art_read_p50_ns : float;
  art_read_p99_ns : float;
  art_insert_p50_ns : float;
  art_insert_p99_ns : float;
  art_site : (string * float * float) list;  (** label, clwb/op, sfence/op *)
  reads_missed : float;
  ops_per_epoch : float;
  lines_per_epoch : float;
  epochs_per_kop : float;
  txn_abort_frac : float;
  queue_frac : float;
  apply_frac : float;
  epoch_wait_frac : float;
  fence_frac : float;
  unattributed_frac : float;
  batch_ops : float;
  queue_depth : float;
  overloaded_per_kreq : float;
  encode_req_ns : float;
  decode_req_ns : float;
  encode_resp_ns : float;
  decode_resp_ns : float;
  req_bytes : float;
  resp_bytes : float;
  transport_overhead_frac : float;
  closed_p99_us : float;
  gen_lag_p99_us : float;
  gen_backlog : float;
  ol_low_p50_us : float;
  ol_low_p99_us : float;
  ol_high_p50_us : float;
  ol_high_p99_us : float;
  minor_words_per_op : float;
  promoted_words_per_op : float;
  major_collections : float;
  trace_overhead_frac : float;
}

(** Every layer idle: the starting point each workload overrides. *)
let bypassed =
  {
    clwb_per_op = 0.;
    sfence_per_op = 0.;
    lines_alloc_per_op = 0.;
    llc_misses_per_op = 0.;
    charge_frac = 0.;
    art_read_p50_ns = 0.;
    art_read_p99_ns = 0.;
    art_insert_p50_ns = 0.;
    art_insert_p99_ns = 0.;
    art_site = [];
    reads_missed = 0.;
    ops_per_epoch = 0.;
    lines_per_epoch = 0.;
    epochs_per_kop = 0.;
    txn_abort_frac = 0.;
    queue_frac = 0.;
    apply_frac = 0.;
    epoch_wait_frac = 0.;
    fence_frac = 0.;
    unattributed_frac = 0.;
    batch_ops = 0.;
    queue_depth = 0.;
    overloaded_per_kreq = 0.;
    encode_req_ns = 0.;
    decode_req_ns = 0.;
    encode_resp_ns = 0.;
    decode_resp_ns = 0.;
    req_bytes = 0.;
    resp_bytes = 0.;
    transport_overhead_frac = 0.;
    closed_p99_us = 0.;
    gen_lag_p99_us = 0.;
    gen_backlog = 0.;
    ol_low_p50_us = 0.;
    ol_low_p99_us = 0.;
    ol_high_p50_us = 0.;
    ol_high_p99_us = 0.;
    minor_words_per_op = 0.;
    promoted_words_per_op = 0.;
    major_collections = 0.;
    trace_overhead_frac = 0.;
  }

let site_metrics l =
  let find label =
    match List.find_opt (fun (s, _, _) -> s = label) l.art_site with
    | Some (_, c, f) -> (c, f)
    | None -> (0., 0.)
  in
  let other_c, other_f =
    List.fold_left
      (fun (c, f) (s, c', f') ->
        if List.mem s art_sites then (c, f) else (c +. c', f +. f'))
      (0., 0.) l.art_site
  in
  List.concat_map
    (fun (label, (c, f)) ->
      [
        m (Printf.sprintf "art.site.%s.clwb_per_op" label) "count" c;
        m (Printf.sprintf "art.site.%s.sfence_per_op" label) "count" f;
      ])
    (List.map (fun s -> (s, find s)) art_sites @ [ ("other", (other_c, other_f)) ])

let per_layer l =
  [
    m "pmem.clwb_per_op" "count" l.clwb_per_op;
    m "pmem.sfence_per_op" "count" l.sfence_per_op;
    m "pmem.lines_alloc_per_op" "count" l.lines_alloc_per_op;
    m "pmem.llc_misses_per_op" "count" l.llc_misses_per_op;
    m "pmem.charge_frac" "frac" l.charge_frac;
    m "art.read_p50_ns" "ns" l.art_read_p50_ns;
    m "art.read_p99_ns" "ns" l.art_read_p99_ns;
    m "art.insert_p50_ns" "ns" l.art_insert_p50_ns;
    m "art.insert_p99_ns" "ns" l.art_insert_p99_ns;
  ]
  @ site_metrics l
  @ [
      m "art.reads_missed" "count" l.reads_missed;
      m "recipe.persist.ops_per_epoch" "count" l.ops_per_epoch;
      m "recipe.persist.lines_per_epoch" "count" l.lines_per_epoch;
      m "recipe.persist.epochs_per_kop" "count" l.epochs_per_kop;
      m "recipe.txn.abort_frac" "frac" l.txn_abort_frac;
      m "kvserve.server.queue_frac" "frac" l.queue_frac;
      m "kvserve.server.apply_frac" "frac" l.apply_frac;
      m "kvserve.server.epoch_wait_frac" "frac" l.epoch_wait_frac;
      m "kvserve.server.fence_frac" "frac" l.fence_frac;
      m "kvserve.server.unattributed_frac" "frac" l.unattributed_frac;
      m "kvserve.server.batch_ops" "count" l.batch_ops;
      m "kvserve.server.queue_depth" "count" l.queue_depth;
      m "kvserve.server.overloaded_per_kreq" "count" l.overloaded_per_kreq;
      m "kvserve.wire.encode_req_ns" "ns" l.encode_req_ns;
      m "kvserve.wire.decode_req_ns" "ns" l.decode_req_ns;
      m "kvserve.wire.encode_resp_ns" "ns" l.encode_resp_ns;
      m "kvserve.wire.decode_resp_ns" "ns" l.decode_resp_ns;
      m "kvserve.wire.req_bytes" "bytes" l.req_bytes;
      m "kvserve.wire.resp_bytes" "bytes" l.resp_bytes;
      m "transport.overhead_frac" "frac" l.transport_overhead_frac;
      m "gen.closed_p99_us" "us" l.closed_p99_us;
      m "gen.lag_p99_us" "us" l.gen_lag_p99_us;
      m "gen.backlog" "count" l.gen_backlog;
      m "gen.ol_low_p50_us" "us" l.ol_low_p50_us;
      m "gen.ol_low_p99_us" "us" l.ol_low_p99_us;
      m "gen.ol_high_p50_us" "us" l.ol_high_p50_us;
      m "gen.ol_high_p99_us" "us" l.ol_high_p99_us;
      m "gc.minor_words_per_op" "count" l.minor_words_per_op;
      m "gc.promoted_words_per_op" "count" l.promoted_words_per_op;
      m "gc.major_collections" "count" l.major_collections;
      m "trace.overhead_frac" "frac" l.trace_overhead_frac;
    ]

(** Generator validity of an open-loop phase: the latencies of a phase
    whose generator sent late, or which ended with a tenth of its requests
    still unanswered (the offered rate outran the system), describe the
    generator or an overload, not the system at that rate.  A short stall
    at the very end of a healthy phase leaves far less pending. *)
let max_lag_p99_us = 2000.
let max_backlog_share = 0.10

let gen_valid (p : Pace.phase) =
  let n = Array.length p.Pace.lag in
  n > 0
  && pct_us (Array.copy p.Pace.lag) 0.99 <= max_lag_p99_us
  && float_of_int p.Pace.backlog <= Float.max 64. (max_backlog_share *. float_of_int n)

(* --- BENCHMARK.json -------------------------------------------------------- *)

type spec = {
  run_seconds : float;
  e2e : (string * string) list;  (** name, unit *)
  bounds : (string * float) list;  (** end-to-end regression bounds *)
  layer : (string * string) list;
}

let load_spec path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let j =
    match J.parse s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)
  in
  let list k = match J.member k j with Some (J.List l) -> l | _ -> [] in
  let str k o = match J.member k o with Some (J.Str s) -> s | _ -> "" in
  let metrics k = List.map (fun o -> (str "name" o, str "unit" o)) (list k) in
  {
    run_seconds =
      (match J.member "run_seconds" j with Some (J.Num f) -> f | _ -> 10.);
    e2e = metrics "end_to_end";
    bounds =
      List.filter_map
        (fun o ->
          match J.member "bound" o with
          | Some (J.Num b) -> Some (str "name" o, b)
          | _ -> None)
        (list "end_to_end");
    layer = metrics "per_layer";
  }

(** Problems with a reported metric set: a declared metric missing or in
    another unit, or a metric BENCHMARK.json does not declare. *)
let check spec ~trace (ms : metric list) =
  let want = if trace then spec.layer else spec.e2e in
  let missing =
    List.filter_map
      (fun (n, u) ->
        match List.find_opt (fun x -> x.name = n) ms with
        | None -> Some (Printf.sprintf "missing metric %s" n)
        | Some x when x.unit_ <> u ->
            Some (Printf.sprintf "metric %s in %s, declared %s" n x.unit_ u)
        | Some x when not (Float.is_finite x.value) ->
            Some (Printf.sprintf "metric %s is not a finite number" n)
        | Some _ -> None)
      want
  in
  let extra =
    List.filter_map
      (fun x ->
        if List.mem_assoc x.name want then None
        else Some (Printf.sprintf "undeclared metric %s" x.name))
      ms
  in
  missing @ extra

(* --- the result line -------------------------------------------------------- *)

(* Shortest decimal that reads back as the same float: every digit the
   measurement has, and no invented ones. *)
let num f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let result_line ~correct ~attempted ~failed ms =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
        (num x.value) x.unit_)
    ms;
  Buffer.add_string b "}}";
  Buffer.contents b
