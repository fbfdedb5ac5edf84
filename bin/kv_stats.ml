(* Live stats client for a running kv_server.

     dune exec bin/kv_stats.exe -- --port 7700

   Sends one [Stats] request over the framed binary codec and renders the
   server's snapshot as a human-readable report: serving counters, epoch
   progress (advances, ops/epoch, parked acks) when the server runs in
   epoch mode, pmem flush/fence cost per acked op, ack percentiles, and
   the direct-read counters, and the per-shard
   queue/apply/epoch_wait/fence/ack phase decomposition
   (populated when the server runs with spans enabled, e.g. --trace-out).

   [--smoke] is the CI loopback self-test: start an in-process server on an
   ephemeral port, drive puts and a Get-only request over real TCP, then
   query stats over the same connection and exit 0 iff the snapshot is
   present and consistent (including at least one direct read). *)

open Cmdliner
module Wire = Kvserve.Wire
module Server = Kvserve.Server

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let read_response fd pendbuf =
  let tmp = Bytes.create 4096 in
  let rec go () =
    match Wire.decode_response (Buffer.contents pendbuf) 0 with
    | `Ok (resp, consumed) ->
        let data = Buffer.contents pendbuf in
        Buffer.clear pendbuf;
        Buffer.add_substring pendbuf data consumed (String.length data - consumed);
        resp
    | `Malformed m -> failwith ("malformed response: " ^ m)
    | `Need_more ->
        let n = Unix.read fd tmp 0 (Bytes.length tmp) in
        if n = 0 then failwith "connection closed mid-response";
        Buffer.add_subbytes pendbuf tmp 0 n;
        go ()
  in
  go ()

(* One stats round trip on an established connection. *)
let query fd pend rid =
  write_all fd (Wire.request_string { Wire.rid; ops = [ Wire.Stats ] });
  let resp = read_response fd pend in
  if resp.Wire.rrid <> rid then failwith "response id mismatch";
  match (resp.Wire.status, resp.Wire.replies) with
  | Wire.Ok, [ Wire.Stats_reply fields ] -> fields
  | st, _ -> failwith ("stats request failed: " ^ Wire.status_name st)

(* --- rendering ------------------------------------------------------------ *)

let fv fields k = Option.value ~default:0 (List.assoc_opt k fields)
let us v = float_of_int v /. 1e3

let per_op fields k =
  let ops = max 1 (fv fields "ops_acked") in
  float_of_int (fv fields k) /. float_of_int ops

let mode_label = function 0 -> "per_op" | 2 -> "epoch" | _ -> "?"

let render fields =
  let f = fv fields in
  let epoch_mode = f "persist_mode" = 2 in
  Printf.printf "server: %d shard(s), batch %d, queue cap %d, persist mode %s%s\n"
    (f "shards") (f "batch") (f "queue_cap")
    (mode_label (f "persist_mode"))
    (if f "crashed" = 1 then "  [CRASHED]" else "");
  Printf.printf
    "serving: %d ops acked in %d batches, %d overloaded rejections, %d group \
     lines\n"
    (f "ops_acked") (f "batches") (f "overloaded") (f "group_lines");
  Printf.printf
    "direct reads: %d Get(s) answered on the submitting domain, %d fell back \
     to the queue\n"
    (f "direct_gets") (f "direct_fallbacks");
  if epoch_mode then begin
    let epochs = f "epochs" in
    let pending =
      let s = ref 0 in
      for sid = 0 to f "shards" - 1 do
        s := !s + f (Printf.sprintf "shard.%d.pending_acks" sid)
      done;
      !s
    in
    Printf.printf
      "epochs: %d advance(s), %.2f ops/epoch mean, %d ack(s) pending (cfg: \
       max_ops %d, max_lines %d, max_delay %.0f us)\n"
      epochs
      (float_of_int (f "ops_acked") /. float_of_int (max 1 epochs))
      pending (f "epoch.max_ops") (f "epoch.max_lines")
      (us (f "epoch.max_delay_ns"))
  end;
  Printf.printf
    "pmem (process totals): %d clwb (%.2f/op), %d sfence (%.2f/op)\n"
    (f "pmem.clwb") (per_op fields "pmem.clwb") (f "pmem.sfence")
    (per_op fields "pmem.sfence");
  Printf.printf "ack latency: %d samples, p50 %.1f us, p99 %.1f us\n"
    (f "ack_ns.count") (us (f "ack_ns.p50")) (us (f "ack_ns.p99"));
  if f "spans_enabled" = 0 then
    print_endline
      "phase breakdown: spans disabled on the server (start it with \
       --trace-out to populate)";
  let phases = [ "queue"; "apply"; "epoch_wait"; "fence"; "ack" ] in
  Printf.printf "%6s %6s %5s %6s %11s" "shard" "depth" "pend" "epoch"
    "batch_mean";
  List.iter
    (fun phase -> Printf.printf " %19s" (phase ^ " p50/p99us"))
    phases;
  print_newline ();
  for sid = 0 to f "shards" - 1 do
    let sf k = f (Printf.sprintf "shard.%d.%s" sid k) in
    Printf.printf "%6d %6d %5d %6d %11.2f" sid (sf "queue_depth")
      (sf "pending_acks") (sf "last_epoch")
      (float_of_int (sf "batch_ops.mean_x1000") /. 1e3);
    List.iter
      (fun phase ->
        Printf.printf " %9.1f/%9.1f"
          (us (sf (phase ^ "_ns.p50")))
          (us (sf (phase ^ "_ns.p99"))))
      phases;
    print_newline ()
  done

(* --- modes ---------------------------------------------------------------- *)

let query_mode host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () ->
      let fields = query fd (Buffer.create 256) 1 in
      Unix.close fd;
      render fields;
      0
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "kv_stats: cannot connect to %s:%d: %s\n" host port
        (Unix.error_message e);
      1

(* Loopback self-test: everything kv_server's smoke does for the data path,
   for the stats path — real TCP, real codec, assertions on the snapshot. *)
let smoke_mode () =
  Obs.Span.set_enabled true;
  let cfg = { Server.default_config with shards = 2; batch = 8 } in
  let parts =
    Array.init cfg.Server.shards (fun _ ->
        Harness.Index.partition Harness.Index.art ())
  in
  let srv = Server.start cfg parts in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 4;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let server_thread =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept sock in
        let conn = Server.Conn.create srv in
        let buf = Bytes.create 4096 in
        let rec loop () =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
              let out = Server.Conn.feed conn (Bytes.sub_string buf 0 n) in
              if String.length out > 0 then write_all fd out;
              if not (Server.Conn.broken conn) then loop ()
          | exception Unix.Unix_error _ -> ()
        in
        (try loop () with _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  let errors = ref 0 in
  let check what cond =
    if not cond then begin
      incr errors;
      Printf.eprintf "kv_stats smoke: FAIL %s\n%!" what
    end
  in
  (try
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     let pend = Buffer.create 256 in
     let nput = 100 in
     let puts =
       List.init nput (fun i -> Wire.Put (Util.Keys.encode_int i, i))
     in
     write_all fd (Wire.request_string { Wire.rid = 1; ops = puts });
     let r = read_response fd pend in
     check "puts acked" (r.Wire.status = Wire.Ok);
     (* Every put is fenced once acked, so a Get-only request is answered
        directly on the connection's domain. *)
     let ngets = 10 in
     write_all fd
       (Wire.request_string
          {
            Wire.rid = 3;
            ops = List.init ngets (fun i -> Wire.Get (Util.Keys.encode_int i));
          });
     let r = read_response fd pend in
     check "gets found"
       (r.Wire.status = Wire.Ok
       && r.Wire.replies = List.init ngets (fun i -> Wire.Found i));
     let fields = query fd pend 2 in
     let f = fv fields in
     check "shards reported" (f "shards" = cfg.Server.shards);
     check "acked ops counted" (f "ops_acked" >= nput + ngets);
     check "gets answered directly" (f "direct_gets" > 0);
     check "server healthy" (f "crashed" = 0);
     check "queues drained"
       (f "shard.0.queue_depth" = 0 && f "shard.1.queue_depth" = 0);
     check "ack percentiles ordered" (f "ack_ns.p50" <= f "ack_ns.p99");
     check "spans populate phase hists"
       (f "shard.0.ack_ns.count" + f "shard.1.ack_ns.count" >= nput);
     check "fence phase sampled"
       (f "shard.0.fence_ns.count" + f "shard.1.fence_ns.count" >= nput);
     (* default_config serves in epoch mode: the snapshot must carry the
        epoch story — mode tag, at least one advance behind the acks,
        the epoch_wait phase sampled, and nothing left parked once every
        submit has returned. *)
     check "epoch mode reported" (f "persist_mode" = 2);
     check "epoch advances counted" (f "epochs" >= 1);
     check "epoch_wait phase sampled"
       (f "shard.0.epoch_wait_ns.count" + f "shard.1.epoch_wait_ns.count"
       >= nput);
     check "no acks parked after drain"
       (f "shard.0.pending_acks" = 0 && f "shard.1.pending_acks" = 0);
     check "epoch ops accounted"
       (f "shard.0.epoch_ops.count" + f "shard.1.epoch_ops.count" >= 1);
     render fields;
     Unix.close fd
   with e ->
     incr errors;
     Printf.eprintf "kv_stats smoke: FAIL %s\n%!" (Printexc.to_string e));
  Thread.join server_thread;
  Unix.close sock;
  Server.stop srv;
  Obs.Span.set_enabled false;
  if !errors = 0 then begin
    print_endline "kv_stats smoke: ok";
    0
  end
  else 1

let main host port smoke = if smoke then smoke_mode () else query_mode host port

let cmd =
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ]) in
  let port = Arg.(value & opt int 7700 & info [ "port" ] ~docv:"PORT") in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Self-test: start an in-process server on an ephemeral port, \
             drive traffic over loopback TCP, and validate the stats \
             snapshot; exit 0 iff consistent.")
  in
  Cmd.v
    (Cmd.info "kv_stats"
       ~doc:"Query a running kv_server for a live stats snapshot")
    Term.(const main $ host $ port $ smoke)

let () = exit (Cmd.eval' cmd)
