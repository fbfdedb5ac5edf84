(* Validator for bench/main.exe --json reports, run under [dune runtest]
   against a freshly generated smoke report.  Checks that the file parses,
   that every index of the reproduction is present with workload cells and
   latency percentiles, and that the per-site flush attribution sums to the
   legacy Stats totals (the exporter's core invariant). *)

module J = Obs.Json

let required_indexes = List.map (fun e -> e.Harness.Index.name) Harness.Index.all

let fail fmt = Printf.ksprintf failwith fmt

let get o k =
  match J.member k o with Some v -> v | None -> fail "missing field %S" k

let num ctx v =
  match J.to_num v with Some f -> f | None -> fail "%s: expected a number" ctx

let check_latency name w =
  let lat = get w "latency" in
  let overall = get lat "overall" in
  match overall with
  | J.Null -> () (* cell measured zero samples; legal for tiny smoke runs *)
  | o ->
      let p50 = num (name ^ ".p50") (get o "p50_ns")
      and p99 = num (name ^ ".p99") (get o "p99_ns")
      and p999 = num (name ^ ".p999") (get o "p999_ns") in
      if p50 > p99 then fail "%s: p50 (%g) > p99 (%g)" name p50 p99;
      if p99 > p999 then fail "%s: p99 (%g) > p99.9 (%g)" name p99 p999;
      (* Every op class present in the cell must also carry percentiles. *)
      List.iter
        (fun cls ->
          match J.member cls lat with
          | Some (J.Obj _) | Some J.Null -> ()
          | _ -> fail "%s: latency.%s malformed" name cls)
        [ "insert"; "read"; "scan" ]

let check_workload name w =
  let wname =
    match J.to_str (get w "workload") with
    | Some s -> s
    | None -> fail "%s: workload name missing" name
  in
  let ctx = name ^ "/" ^ wname in
  let mops = num (ctx ^ ".mops") (get w "mops") in
  if not (mops >= 0.0) then fail "%s: negative throughput" ctx;
  let llc = num (ctx ^ ".llc") (get w "llc_misses_per_op") in
  if not (llc >= 0.0) then fail "%s: negative LLC misses" ctx;
  check_latency ctx w;
  wname

let check_sites name ix =
  let s = get ix "sites" in
  let n k = num (name ^ "." ^ k) (get s k) in
  let sc = n "site_clwb_total" and tc = n "stats_clwb_total" in
  if sc <> tc then
    fail "%s: site clwb sum %g <> Stats total %g — attribution leak" name sc tc;
  let ss = n "site_sfence_total" and ts = n "stats_sfence_total" in
  if ss <> ts then
    fail "%s: site sfence sum %g <> Stats total %g — attribution leak" name ss
      ts;
  match J.to_list (get s "attribution") with
  | None -> fail "%s: attribution not a list" name
  | Some rows ->
      List.iter
        (fun r ->
          match J.to_str (get r "site") with
          | Some _ -> ()
          | None -> fail "%s: attribution row without a site name" name)
        rows

let check_index ix =
  let name =
    match J.to_str (get ix "name") with
    | Some s -> s
    | None -> fail "index without a name"
  in
  let wls =
    match J.to_list (get ix "workloads") with
    | Some [] -> fail "%s: no workload cells" name
    | Some l -> l
    | None -> fail "%s: workloads not a list" name
  in
  let wnames = List.map (check_workload name) wls in
  (match J.member "scan_supported" ix with
  | Some (J.Bool true) ->
      if not (List.mem "E" wnames) then
        fail "%s: scan-capable but workload E missing" name
  | Some (J.Bool false) ->
      if List.mem "E" wnames then
        fail "%s: unordered index must not report workload E" name
  | _ -> fail "%s: scan_supported missing" name);
  check_sites name ix;
  ignore (get ix "counters");
  name

(* The micro-pmem section: every substrate accessor must report a finite,
   non-negative ns/op, in the single- and multi-domain tables, and the
   sanitizer-overhead table must carry finite off/on costs per op. *)
let check_micro_pmem doc =
  let m = get doc "micro_pmem" in
  let obj key =
    match get m key with
    | J.Obj rows -> rows
    | _ -> fail "micro_pmem.%s: not an object" key
  in
  let table key required =
    let rows = obj key in
    List.iter
      (fun (n, v) ->
        let x = num ("micro_pmem." ^ key ^ "." ^ n) v in
        if not (x >= 0.0 && Float.is_finite x) then
          fail "micro_pmem.%s.%s: bad ns/op %g" key n x)
      rows;
    List.iter
      (fun r ->
        if not (List.mem_assoc r rows) then
          fail "micro_pmem.%s: required op %S missing" key r)
      required
  in
  table "single_domain_ns_per_op"
    [ "words_get"; "words_set"; "words_cas"; "words_clwb"; "refs_clwb"; "sfence" ];
  table "multi_domain_ns_per_op" [ "mt_words_get"; "mt_words_cas_shared" ];
  List.iter
    (fun (n, v) ->
      let cell k =
        num ("micro_pmem.sanitize_ns_per_op." ^ n ^ "." ^ k) (get v k)
      in
      let off = cell "off" and on_ = cell "on" in
      ignore (cell "ratio");
      if not (off >= 0.0 && Float.is_finite off) then
        fail "micro_pmem.sanitize_ns_per_op.%s: bad off ns/op %g" n off;
      if not (on_ >= 0.0 && Float.is_finite on_) then
        fail "micro_pmem.sanitize_ns_per_op.%s: bad on ns/op %g" n on_)
    (obj "sanitize_ns_per_op")

(* The recovery table must cover every index, carry well-formed counters,
   and report a clean verdict: zero lost acknowledged operations, zero
   wrong values, zero stalls — the recovery-under-load invariant is part of
   the schema, not just of the test suite. *)
let check_recovery doc =
  match get doc "recovery" with
  | J.Obj rows ->
      List.iter
        (fun (name, v) ->
          let cell k = num ("recovery." ^ name ^ "." ^ k) (get v k) in
          let states = cell "states" and recoveries = cell "recoveries" in
          if states < 1.0 then fail "recovery.%s: no states tested" name;
          if recoveries < states then
            fail "recovery.%s: fewer recoveries (%g) than states (%g)" name
              recoveries states;
          List.iter
            (fun k ->
              if cell k < 0.0 then fail "recovery.%s: negative %s" name k)
            [
              "crashes"; "faults_injected"; "recover_ns_total";
              "recover_ns_mean"; "repaired"; "orphans"; "reclaimed";
            ];
          List.iter
            (fun k ->
              if cell k <> 0.0 then
                fail "recovery.%s: %s = %g — recovery lost acknowledged work"
                  name k (cell k))
            [ "lost"; "wrong"; "stalled" ])
        rows;
      List.iter
        (fun r ->
          if not (List.mem_assoc r rows) then
            fail "recovery: required index %S missing" r)
        required_indexes
  | _ -> fail "recovery: not an object"

let persist_mode ctx r =
  match J.to_str (get r "persist_mode") with
  | Some (("per_op" | "epoch") as m) -> m
  | Some m -> fail "%s: unknown persist_mode %S" ctx m
  | None -> fail "%s: persist_mode missing" ctx

(* Every serve row carries the [latency_breakdown] table: one entry per
   (shard, phase), percentiles ordered, spans actually sampled, and —
   since per span the pipeline phases sum to at most ack by construction —
   the phase means must sum to at most the ack mean (within tolerance for
   histogram bucketing).  That last inequality is what makes the breakdown
   an *attribution* of ack latency rather than an unrelated measurement. *)
let serve_phases = [ "queue"; "apply"; "epoch_wait"; "fence"; "ack" ]

let check_breakdown ix shards r =
  let entries =
    match J.to_list (get r "latency_breakdown") with
    | Some l -> l
    | None -> fail "serve.%s: latency_breakdown not a list" ix
  in
  let parsed =
    List.map
      (fun e ->
        let ctx = "serve." ^ ix ^ ".latency_breakdown" in
        let sid = int_of_float (num (ctx ^ ".shard") (get e "shard")) in
        let phase =
          match J.to_str (get e "phase") with
          | Some p when List.mem p serve_phases -> p
          | Some p -> fail "%s: unknown phase %S" ctx p
          | None -> fail "%s: phase missing" ctx
        in
        let n k = num (Printf.sprintf "%s.%d.%s.%s" ctx sid phase k) (get e k) in
        let count = n "count"
        and mean = n "mean_ns"
        and p50 = n "p50_ns"
        and p99 = n "p99_ns" in
        if count < 0.0 then fail "%s: negative count" ctx;
        if count > 0.0 && p50 > p99 then
          fail "%s: %d/%s p50 (%g) > p99 (%g)" ctx sid phase p50 p99;
        ((sid, phase), (count, mean)))
      entries
  in
  let lookup sid phase =
    match List.assoc_opt (sid, phase) parsed with
    | Some v -> v
    | None -> fail "serve.%s: breakdown missing shard %d phase %s" ix sid phase
  in
  let total_acks = ref 0.0 in
  for sid = 0 to shards - 1 do
    let sum_parts =
      List.fold_left
        (fun a phase -> a +. snd (lookup sid phase))
        0.0
        (List.filter (fun p -> p <> "ack") serve_phases)
    in
    let ack_count, ack_mean = lookup sid "ack" in
    total_acks := !total_acks +. ack_count;
    (* 5% + 1us slack: histogram means are exact sums but the phases are
       stamped with separate clock reads, so allow measurement noise. *)
    if ack_count > 0.0 && sum_parts > (ack_mean *. 1.05) +. 1000.0 then
      fail "serve.%s: shard %d phases sum %.0fns > ack mean %.0fns" ix sid
        sum_parts ack_mean
  done;
  if !total_acks <= 0.0 then
    fail "serve.%s: breakdown has no samples — spans were not enabled" ix

(* The serve table must sweep at least two shard counts with a per_op and
   an epoch row for each, every row well-formed, and epoch batching must
   not increase flushes per operation — and must strictly reduce fences
   per operation — versus the per-op ablation on the same traffic.  These
   are count ratios, not timings: the batching win is part of the schema,
   not just a claim. *)
let check_serve doc =
  match get doc "serve" with
  | J.List rows ->
      let parsed =
        List.map
          (fun r ->
            let ix =
              match J.to_str (get r "index") with
              | Some s -> s
              | None -> fail "serve: row without an index name"
            in
            let cell k = num ("serve." ^ ix ^ "." ^ k) (get r k) in
            let mode = persist_mode ("serve." ^ ix) r in
            if cell "batch" < 1.0 then fail "serve.%s: batch < 1" ix;
            if cell "ops_acked" <= 0.0 then fail "serve.%s: no acked ops" ix;
            ignore (cell "seed");
            let kops = cell "kops" in
            if not (kops >= 0.0 && Float.is_finite kops) then
              fail "serve.%s: bad throughput %g" ix kops;
            if cell "ack_p50_ns" > cell "ack_p99_ns" then
              fail "serve.%s: ack p50 > p99" ix;
            if cell "mean_batch_ops" < 1.0 then
              fail "serve.%s: batches below one op" ix;
            let shards = int_of_float (cell "shards") in
            check_breakdown ix shards r;
            (shards, mode, cell "clwb_per_op", cell "sfence_per_op"))
          rows
      in
      let shard_counts =
        List.sort_uniq compare (List.map (fun (sc, _, _, _) -> sc) parsed)
      in
      if List.length shard_counts < 2 then
        fail "serve: %d shard count(s) measured, need >= 2"
          (List.length shard_counts);
      List.iter
        (fun sc ->
          let cell m =
            match
              List.find_opt (fun (s, mo, _, _) -> s = sc && mo = m) parsed
            with
            | Some (_, _, clwb, sfence) -> (clwb, sfence)
            | None -> fail "serve: shard count %d missing %s row" sc m
          in
          let e_clwb, e_sfence = cell "epoch"
          and p_clwb, p_sfence = cell "per_op" in
          if e_clwb > p_clwb then
            fail "serve: %d shards: epoch mode RAISED clwb/op (%g > %g)" sc
              e_clwb p_clwb;
          if e_sfence >= p_sfence then
            fail "serve: %d shards: epoch mode did not reduce sfence/op (%g >= %g)"
              sc e_sfence p_sfence)
        shard_counts
  | _ -> fail "serve: not a list"

(* The txn table: all-transaction traffic over the sharded router, swept
   over member counts per persist mode.  Every row must be well-formed
   with acked transactions, and — the E25 claim — fences per member
   operation must strictly fall from the smallest to the largest member
   count within each mode: a transaction pays a constant sfence overhead
   (WAL begin, data flush, commit flip) on top of the per-member
   write-ahead undo append, so more members amortize the constant part. *)
let check_txn doc =
  match get doc "txn" with
  | J.List [] -> fail "txn: table empty"
  | J.List rows ->
      let parsed =
        List.map
          (fun r ->
            let ix =
              match J.to_str (get r "index") with
              | Some s -> s
              | None -> fail "txn: row without an index name"
            in
            let cell k = num ("txn." ^ ix ^ "." ^ k) (get r k) in
            let mode = persist_mode ("txn." ^ ix) r in
            let txn_ops = int_of_float (cell "txn_ops") in
            if txn_ops < 1 then fail "txn.%s: txn_ops < 1" ix;
            if cell "txns_acked" <= 0.0 then
              fail "txn.%s/%s/%d: no acked transactions" ix mode txn_ops;
            if cell "ops_acked" < cell "txns_acked" then
              fail "txn.%s: fewer member ops than transactions" ix;
            if cell "txns_aborted" < 0.0 then
              fail "txn.%s: negative abort count" ix;
            if cell "ack_p50_ns" > cell "ack_p99_ns" then
              fail "txn.%s: ack p50 > p99" ix;
            let kops = cell "kops" in
            if not (kops >= 0.0 && Float.is_finite kops) then
              fail "txn.%s: bad throughput %g" ix kops;
            ignore (cell "seed");
            (mode, txn_ops, cell "sfence_per_op"))
          rows
      in
      List.iter
        (fun m ->
          match
            List.sort
              (fun (_, a, _) (_, b, _) -> compare a b)
              (List.filter (fun (mo, _, _) -> mo = m) parsed)
          with
          | [] | [ _ ] -> ()
          | (_, lo_ops, lo_sf) :: rest ->
              let _, hi_ops, hi_sf = List.nth rest (List.length rest - 1) in
              if hi_sf >= lo_sf then
                fail
                  "txn: %s mode: sfence/op did not fall with members \
                   (%g at %d ops >= %g at %d ops)"
                  m hi_sf hi_ops lo_sf lo_ops)
        [ "per_op"; "epoch" ]
  | _ -> fail "txn: not a list"

let schema = "recipe-bench/5"

let run file =
  let s = In_channel.with_open_text file In_channel.input_all in
  let doc =
    match J.parse s with
    | Ok v -> v
    | Error e -> fail "%s does not parse: %s" file e
  in
  ignore (get doc "meta");
  (match Option.bind (J.member "schema" doc) J.to_str with
  | Some s when s = schema -> ()
  | Some s -> fail "unknown schema %S (expected %S)" s schema
  | None -> fail "schema missing");
  check_micro_pmem doc;
  check_recovery doc;
  check_serve doc;
  check_txn doc;
  let idxs =
    match J.to_list (get doc "indexes") with
    | Some l -> l
    | None -> fail "indexes not a list"
  in
  let names = List.map check_index idxs in
  List.iter
    (fun r ->
      if not (List.mem r names) then fail "required index %S missing" r)
    required_indexes;
  Printf.printf "check_json: %s OK (%d indexes)\n" file (List.length names)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ file ] -> (
      try run file
      with Failure m ->
        prerr_endline ("check_json: " ^ m);
        exit 1)
  | _ ->
      prerr_endline "usage: check_json FILE.json";
      exit 2
