(* TCP front-end for the KV service layer.

     dune exec bin/kv_server.exe -- --index art --shards 4 --port 7700

   Speaks the framed binary codec of {!Kvserve.Wire}: clients write
   length-prefixed request frames and read response frames; each accepted
   connection gets one systhread feeding {!Kvserve.Server.Conn}, and all
   connections share the sharded epoch-persist router.  A malformed frame
   earns one [Bad_request] response after which the connection is closed
   (the stream cannot be resynchronized).

   [--smoke] runs a self-contained loopback check instead of serving
   forever: bind an ephemeral port, drive a real TCP client through puts,
   gets, a delete, a scan and a multi-key transaction, and exit 0 iff
   every response matches — the CI-facing end-to-end test of codec +
   socket + router (including the failure-atomic [Txn] opcode). *)

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

let handle_conn srv fd =
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
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Bind + listen, returning the socket and the actual port (learned back
   from the kernel when [port] was 0). *)
let listen_on host port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock 64;
  let actual =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (sock, actual)

(* Accept loop: one handler thread per connection.  [max_conns = 0] serves
   forever; otherwise the loop returns after accepting that many (the smoke
   path accepts exactly one). *)
let accept_loop srv sock max_conns =
  let served = ref 0 and threads = ref [] in
  while max_conns = 0 || !served < max_conns do
    let fd, _ = Unix.accept sock in
    (* Replies go out as soon as they are encoded: without this, Nagle can
       hold a reply to a pipelined request until the previous one is
       acknowledged. *)
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    incr served;
    threads := Thread.create (handle_conn srv) fd :: !threads
  done;
  List.iter Thread.join !threads

(* --- smoke client -------------------------------------------------------- *)

let read_response fd pendbuf =
  let tmp = Bytes.create 4096 in
  let rec go () =
    match Wire.decode_response (Buffer.contents pendbuf) 0 with
    | `Ok (resp, consumed) ->
        let data = Buffer.contents pendbuf in
        Buffer.clear pendbuf;
        Buffer.add_substring pendbuf data consumed (String.length data - consumed);
        resp
    | `Malformed m -> failwith ("smoke: malformed response: " ^ m)
    | `Need_more ->
        let n = Unix.read fd tmp 0 (Bytes.length tmp) in
        if n = 0 then failwith "smoke: connection closed mid-response";
        Buffer.add_subbytes pendbuf tmp 0 n;
        go ()
  in
  go ()

let smoke_client port scan_supported errors () =
  try
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let pend = Buffer.create 256 in
    let rid = ref 0 in
    let roundtrip ops =
      incr rid;
      write_all fd (Wire.request_string { Wire.rid = !rid; ops });
      let resp = read_response fd pend in
      if resp.Wire.rrid <> !rid then failwith "smoke: response id mismatch";
      resp
    in
    let check what cond =
      if not cond then begin
        incr errors;
        Printf.eprintf "kv_server smoke: FAIL %s\n%!" what
      end
    in
    let key = Util.Keys.encode_int in
    (* A batched put frame: keys 1..50, value 3k. *)
    let puts = List.init 50 (fun i -> Wire.Put (key (i + 1), 3 * (i + 1))) in
    let r = roundtrip puts in
    check "puts acked"
      (r.Wire.status = Wire.Ok
      && List.for_all (function Wire.Done _ -> true | _ -> false) r.Wire.replies);
    let r = roundtrip [ Wire.Get (key 7); Wire.Get (key 51) ] in
    check "get found/absent"
      (r.Wire.status = Wire.Ok
      && r.Wire.replies = [ Wire.Found 21; Wire.Absent ]);
    let r = roundtrip [ Wire.Delete (key 7); Wire.Get (key 7) ] in
    check "delete then absent"
      (r.Wire.status = Wire.Ok && r.Wire.replies = [ Wire.Done true; Wire.Absent ]);
    if scan_supported then begin
      let r = roundtrip [ Wire.Scan (key 1, 5) ] in
      check "scan merged across shards"
        (match r.Wire.replies with
        | [ Wire.Scanned items ] ->
            List.map fst items = List.map key [ 1; 2; 3; 4; 5 ]
        | _ -> false)
    end;
    (* A failure-atomic multi-key transaction: the member keys hash to
       different shards, so this exercises the 2PC path when --shards > 1. *)
    let r =
      roundtrip
        [
          Wire.Txn
            [
              Wire.Put (key 60, 600); Wire.Put (key 61, 610);
              Wire.Delete (key 1);
            ];
        ]
    in
    check "txn committed"
      (r.Wire.status = Wire.Ok
      &&
      match r.Wire.replies with
      | [ Wire.Txn_ok [ Wire.Done _; Wire.Done _; Wire.Done true ] ] -> true
      | _ -> false);
    let r = roundtrip [ Wire.Get (key 60); Wire.Get (key 61); Wire.Get (key 1) ] in
    check "txn effects visible"
      (r.Wire.status = Wire.Ok
      && r.Wire.replies = [ Wire.Found 600; Wire.Found 610; Wire.Absent ]);
    Unix.close fd
  with e ->
    incr errors;
    Printf.eprintf "kv_server smoke: FAIL %s\n%!" (Printexc.to_string e)

(* --- main ----------------------------------------------------------------- *)

let main index shards batch queue_cap mode_sel host port max_conns smoke
    trace_out =
  match Harness.Index.find index with
  | None ->
      Printf.eprintf "unknown index %S (one of: %s)\n" index
        (Harness.Index.names ());
      1
  | Some entry ->
      let mode =
        match mode_sel with
        | `Per_op -> Server.Per_op
        | `Epoch -> Server.Epoch Kvserve.Epoch_ctl.default_cfg
      in
      let cfg =
        { Server.shards; batch; queue_cap = max queue_cap batch; mode }
      in
      let parts =
        Array.init cfg.Server.shards (fun _ -> Harness.Index.partition entry ())
      in
      let scan_supported = parts.(0).Server.p_scan <> None in
      if trace_out <> None then begin
        Obs.Span.set_enabled true;
        Obs.Trace.set_enabled true
      end;
      let srv = Server.start cfg parts in
      let sock, actual_port = listen_on host (if smoke then 0 else port) in
      Printf.printf
        "kv_server: %s, %d shard(s), batch %d (persist mode %s), listening \
         on %s:%d\n\
         %!"
        parts.(0).Server.p_name cfg.Server.shards cfg.Server.batch
        (Server.mode_name cfg.Server.mode)
        host actual_port;
      let errors = ref 0 in
      let client =
        if smoke then
          Some (Thread.create (smoke_client actual_port scan_supported errors) ())
        else None
      in
      accept_loop srv sock (if smoke then 1 else max_conns);
      Option.iter Thread.join client;
      Unix.close sock;
      Server.stop srv;
      Option.iter
        (fun file ->
          Obs.Traceview.write_file file;
          Printf.printf "kv_server: wrote trace-event JSON to %s (open in \
                         ui.perfetto.dev)\n%!"
            file)
        trace_out;
      if smoke then
        if !errors = 0 then begin
          print_endline "kv_server smoke: ok";
          0
        end
        else 1
      else 0

let cmd =
  let index =
    Arg.(value & opt string "art" & info [ "index"; "i" ] ~docv:"INDEX")
  in
  let shards = Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N") in
  let batch = Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N") in
  let queue_cap = Arg.(value & opt int 256 & info [ "queue-cap" ] ~docv:"N") in
  let mode_sel =
    Arg.(
      value
      & opt
          (enum [ ("per_op", `Per_op); ("epoch", `Epoch) ])
          `Epoch
      & info [ "persist-mode" ] ~docv:"MODE"
          ~doc:
            "Durability mode: $(b,per_op) flushes+fences each operation, \
             $(b,epoch) (default) runs fence-free applies with adaptive \
             epoch advances.")
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ]) in
  let port = Arg.(value & opt int 7700 & info [ "port" ] ~docv:"PORT") in
  let max_conns =
    Arg.(
      value & opt int 0
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Exit after serving $(docv) connections (0: serve forever).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Self-test: bind an ephemeral port, run a loopback TCP client \
             through puts/gets/delete/scan and a multi-key transaction, \
             exit 0 iff all responses match.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Enable request spans + event tracing and write a Chrome \
             trace-event JSON file on exit (load it in chrome://tracing or \
             ui.perfetto.dev).")
  in
  Cmd.v
    (Cmd.info "kv_server" ~doc:"Serve a persistent index over TCP")
    Term.(
      const main $ index $ shards $ batch $ queue_cap $ mode_sel $ host $ port
      $ max_conns $ smoke $ trace_out)

let () = exit (Cmd.eval' cmd)
