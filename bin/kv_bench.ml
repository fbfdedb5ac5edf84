(* Batched-durability benchmark CLI.

     dune exec bin/kv_bench.exe -- --index art --shards 2,4 --batch 32

   Runs the closed-loop load generator against the sharded KV service for
   every requested shard count in both persist modes — per_op (the
   ablation) and epoch (adaptive buffered durability) — over write-heavy
   overwrite traffic, and prints the
   batching table: throughput, p50/p99 ack latency, realized batch size,
   and flushes/fences per acknowledged operation.  A second grid sweeps
   multi-key transaction batches over [--txn-ops] member counts and
   prints the txn table (EXPERIMENTS.md E25: fence amortization across
   txn members).  [--json FILE] writes both grids as the machine-readable
   [serve] and [txn] tables (the schema the bench export and
   bench/check_json.ml share). *)

open Cmdliner
module J = Obs.Json

let parse_shards s =
  try
    let l =
      String.split_on_char ',' s
      |> List.filter (fun x -> String.trim x <> "")
      |> List.map (fun x -> int_of_string (String.trim x))
    in
    if l = [] || List.exists (fun n -> n <= 0) l then None else Some l
  with Failure _ -> None

let main index shards_s batch workers requests opr write_pct key_space seed
    txn_ops_s json trace_out =
  match
    (Harness.Index.find index, parse_shards shards_s, parse_shards txn_ops_s)
  with
  | None, _, _ ->
      Printf.eprintf "unknown index %S (one of: %s)\n" index
        (Harness.Index.names ());
      1
  | _, None, _ ->
      Printf.eprintf "bad --shards %S (comma-separated positive ints)\n"
        shards_s;
      1
  | _, _, None ->
      Printf.eprintf "bad --txn-ops %S (comma-separated positive ints)\n"
        txn_ops_s;
      1
  | Some entry, Some shard_counts, Some txn_ops_list ->
      let make = Harness.Index.partition entry in
      Printf.printf
        "kv_bench: %s, %d worker(s) x %d request(s) x %d op(s), %d%% writes \
         over %d keys, seed %d\n"
        index workers requests opr write_pct key_space seed;
      if trace_out <> None then Obs.Trace.set_enabled true;
      Kvserve.Servebench.print_header ();
      let rows =
        List.concat_map
          (fun shards ->
            List.map
              (fun mode ->
                let r =
                  Kvserve.Servebench.run_one ~make ~shards ~batch ~mode
                    ~workers ~requests ~ops_per_request:opr ~write_pct
                    ~key_space ~seed ()
                in
                Kvserve.Servebench.print_row r;
                r)
              Kvserve.Servebench.default_modes)
          shard_counts
      in
      print_endline "latency breakdown (us):";
      List.iter Kvserve.Servebench.print_breakdown rows;
      (* Headline: fence amortization and the p99 cost of epoch mode vs the
         per-op ablation, per shard count. *)
      List.iter
        (fun shards ->
          let cell m =
            List.find
              (fun r ->
                r.Kvserve.Servebench.r_shards = shards
                && Kvserve.Server.mode_name r.Kvserve.Servebench.r_mode = m)
              rows
          in
          let per_op = cell "per_op" and epoch = cell "epoch" in
          let p99 r = float_of_int r.Kvserve.Servebench.r_ack_p99_ns /. 1e3 in
          Printf.printf
            "%d shard(s): sfence/op per_op %.2f, epoch %.2f; ack p99 (us) \
             per_op %.1f, epoch %.1f\n"
            shards per_op.Kvserve.Servebench.r_fences_per_op
            epoch.Kvserve.Servebench.r_fences_per_op (p99 per_op) (p99 epoch))
        shard_counts;
      (* Transaction-batch grid (EXPERIMENTS.md E25): all-txn traffic, one
         [Wire.Txn] batch per request, swept over member counts.  Uses the
         first requested shard count — the question is fence amortization
         across members, not shard scaling. *)
      print_endline "transaction batches (all-txn traffic):";
      Kvserve.Servebench.print_txn_header ();
      let txn_rows =
        List.concat_map
          (fun mode ->
            List.map
              (fun txn_ops ->
                let r =
                  Kvserve.Servebench.run_txn_one ~make
                    ~shards:(List.hd shard_counts) ~batch ~mode ~txn_ops
                    ~workers ~requests ~seed ()
                in
                Kvserve.Servebench.print_txn_row r;
                r)
              txn_ops_list)
          Kvserve.Servebench.default_modes
      in
      (match json with
      | None -> ()
      | Some file ->
          let doc =
            J.Obj
              [
                (* /5: per_op and epoch rows only. *)
                ("schema", J.Str "recipe-serve-bench/5");
                ( "meta",
                  J.Obj
                    [
                      ("index", J.Str index);
                      ("workers", J.int workers);
                      ("requests", J.int requests);
                      ("ops_per_request", J.int opr);
                      ("write_pct", J.int write_pct);
                      ("key_space", J.int key_space);
                      ("seed", J.int seed);
                    ] );
                ("serve", Kvserve.Servebench.rows_json rows);
                ("txn", Kvserve.Servebench.txn_rows_json txn_rows);
              ]
          in
          let oc = open_out file in
          J.to_channel oc doc;
          close_out oc;
          Printf.printf "kv_bench: wrote %s\n" file);
      Option.iter
        (fun file ->
          Obs.Traceview.write_file file;
          Printf.printf
            "kv_bench: wrote trace-event JSON to %s (most recent spans \
             within the ring window)\n"
            file)
        trace_out;
      0

let cmd =
  let index =
    Arg.(value & opt string "art" & info [ "index"; "i" ] ~docv:"INDEX")
  in
  let shards =
    Arg.(
      value & opt string "2,4"
      & info [ "shards" ] ~docv:"N,M"
          ~doc:"Comma-separated shard counts to sweep.")
  in
  let batch = Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N") in
  let workers = Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N") in
  let requests =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per worker.")
  in
  let opr = Arg.(value & opt int 16 & info [ "ops-per-req" ] ~docv:"N") in
  let write_pct = Arg.(value & opt int 100 & info [ "write-pct" ] ~docv:"PCT") in
  let key_space =
    Arg.(
      value & opt int 64
      & info [ "key-space" ] ~docv:"N"
          ~doc:"Overwrite key range (small: write-heavy line reuse).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let txn_ops =
    Arg.(
      value & opt string "1,4,16"
      & info [ "txn-ops" ] ~docv:"N,M"
          ~doc:
            "Comma-separated member counts for the transaction-batch grid.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the rows as JSON.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file after the grid (load it \
             in chrome://tracing or ui.perfetto.dev).")
  in
  Cmd.v
    (Cmd.info "kv_bench"
       ~doc:"Benchmark per-op vs epoch durability in the KV service layer")
    Term.(
      const main $ index $ shards $ batch $ workers $ requests $ opr
      $ write_pct $ key_space $ seed $ txn_ops $ json $ trace_out)

let () = exit (Cmd.eval' cmd)
