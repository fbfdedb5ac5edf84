(* tcp-read-mostly: socket clients against the shipped kv_server.

   bin/kv_server.exe runs as a child process on a loopback port with its
   defaults ({!Kvserve.Server.default_config}).  Set-up starts it and
   preloads 100k keys (value 3k) over TCP.  Traffic is single-op requests,
   95% [Get] and 5% [Put] upserts over the preloaded keys, from one
   load-generator thread on two connections: closed-loop with one request
   outstanding per connection; a traced run adds open-loop phases (Poisson
   arrivals, pipelined) at a low and a high fixed rate, timed from each
   request's due time.  Per-request costs dominate — codec,
   {!Kvserve.Server.Conn}, syscalls, routing and wake-ups — while the index
   and persist layers do little.  kv_server has no charge flag, so flushes
   cost nothing here.

   The server's own counters come from [Stats] requests taken between
   phases; in a traced run its spans come from a second server started
   with [--trace-out]. *)

open Common
module Wire = Kvserve.Wire
module Server = Kvserve.Server

let name = "tcp-read-mostly"
let conns = 2
let put_pct = 5
let preload_batch = 64
let stats_rid = 0xFFFFFFF

(* --- the server process ---------------------------------------------------- *)

type server = { pid : int; out : Unix.file_descr; port : int }

(* Every server still running; killed and reaped if the run dies early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let server_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) Kv_server_path.relative

(* Read one line from [fd] within [timeout_s]. *)
let read_line fd timeout_s =
  let b = Buffer.create 128 and c = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let rem = deadline -. Unix.gettimeofday () in
    if rem <= 0. then invalid "kv_server did not report its port";
    match Unix.select [ fd ] [] [] rem with
    | [], _, _ -> go ()
    | _ ->
        if Unix.read fd c 0 1 = 0 then invalid "kv_server exited at start-up";
        if Bytes.get c 0 = '\n' then Buffer.contents b
        else begin
          Buffer.add_bytes b c;
          go ()
        end
  in
  go ()

let spawn ?trace_out () =
  let exe = server_exe () in
  if not (Sys.file_exists exe) then invalid "kv_server not built (%s)" exe;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [ exe; "--port"; "0"; "--max-conns"; string_of_int conns ]
    @ match trace_out with Some f -> [ "--trace-out"; f ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  live := pid :: !live;
  let line = read_line rd 30. in
  let port =
    match String.rindex_opt line ':' with
    | Some i -> int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
    | None -> None
  in
  match port with
  | Some port -> { pid; out = rd; port }
  | None -> invalid "unexpected kv_server banner: %s" line

(** Wait for a server whose connections are all closed to exit (it serves
    [--max-conns] connections, then stops). *)
let reap s =
  let deadline = now () + 30_000_000_000 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if now () > deadline then Unix.kill s.pid Sys.sigkill;
        Unix.sleepf 0.002;
        go ()
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> invalid "kv_server exited abnormally"
  in
  Fun.protect
    ~finally:(fun () ->
      live := List.filter (( <> ) s.pid) !live;
      Unix.close s.out)
    go

(* --- connections ------------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create (1 lsl 20); lo = 0; hi = 0 }

let send c s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd s !off (n - !off)
  done

(* Pull whatever the socket has into the buffer. *)
let fill c =
  if c.lo = c.hi then begin
    c.lo <- 0;
    c.hi <- 0
  end
  else if c.hi = Bytes.length c.buf then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  let n = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
  if n = 0 then invalid "kv_server closed a connection";
  c.hi <- c.hi + n

(* The next whole response frame in the buffer, if any; [decode] times the
   decode call. *)
let next_frame ?(decode = fun f -> f ()) c =
  if c.hi - c.lo < 4 then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_be c.buf c.lo) land 0xFFFFFFFF in
    if c.hi - c.lo < 4 + len then None
    else begin
      let s = Bytes.sub_string c.buf c.lo (4 + len) in
      c.lo <- c.lo + 4 + len;
      match decode (fun () -> Wire.decode_response s 0) with
      | `Ok (r, _) -> Some r
      | `Need_more | `Malformed _ -> invalid "malformed response from kv_server"
    end
  end

(* Block for one response on [c]. *)
let rec await c =
  match next_frame c with
  | Some r -> r
  | None ->
      fill c;
      await c

let stats c =
  send c (Wire.request_string { Wire.rid = stats_rid; ops = [ Wire.Stats ] });
  match (await c).Wire.replies with
  | [ Wire.Stats_reply fields ] -> fields
  | _ -> invalid "Stats request not answered with a snapshot"

(* --- traffic ----------------------------------------------------------------- *)

(* A phase's requests: [puts] marks the writes, [idx] the preloaded key. *)
type traffic = { puts : Bytes.t; idx : int array }

let traffic g ~n ~nkeys =
  let puts = Bytes.make n '\000' and idx = Array.make n 0 in
  for i = 0 to n - 1 do
    if Util.Rng.below g 100 < put_pct then Bytes.set puts i '\001';
    idx.(i) <- Util.Rng.below g nkeys
  done;
  { puts; idx }

let is_put tr i = Bytes.get tr.puts i = '\001'

let request keys tr i =
  let k = keys.(tr.idx.(i)) in
  let op =
    if is_put tr i then Wire.Put (Util.Keys.encode_int k, 3 * k)
    else Wire.Get (Util.Keys.encode_int k)
  in
  { Wire.rid = i; ops = [ op ] }

(* Check a reply against the model; the operations it acknowledged. *)
let check keys tr tl i (r : Wire.response) =
  let k = keys.(tr.idx.(i)) in
  match (r.Wire.status, r.Wire.replies, is_put tr i) with
  | Wire.Ok, [ Wire.Found v ], false when v = 3 * k ->
      tl.acked <- tl.acked + 1;
      1
  | Wire.Ok, [ Wire.Done true ], true ->
      tl.acked <- tl.acked + 1;
      1
  | Wire.Ok, [ Wire.Absent ], false ->
      tl.reads_missed <- tl.reads_missed + 1;
      wrong tl "preloaded key %d absent" k;
      0
  | Wire.Overloaded, _, _ ->
      tl.overloaded <- tl.overloaded + 1;
      tl.failed <- tl.failed + 1;
      0
  | st, _, _ ->
      wrong tl "request %d: status %s, unexpected reply" i (Wire.status_name st);
      0

(** Closed loop: one request outstanding per connection, [n] in all.
    Returns the samples (stamped at the reply), wall time and the last
    reply's time. *)
let closed cs keys tr tl ~n ~deadline ~spans =
  let k = Array.length cs in
  let lat = Array.make n 0 and at = Array.make n 0 and ops = Array.make n 0 in
  let cur = Array.make k (-1) and t_sent = Array.make k 0 in
  let next = ref 0 and finished = ref 0 and last_recv = ref 0 in
  let send_next c =
    if !next < n && now () < deadline then begin
      let i = !next in
      incr next;
      let t0 = now () in
      let s = Wire.request_string (request keys tr i) in
      let t1 = now () in
      Spans.record spans c "encode" i t0 t1;
      cur.(c) <- i;
      tl.requests <- tl.requests + 1;
      tl.attempted <- tl.attempted + 1;
      t_sent.(c) <- now ();
      send cs.(c) s
    end
    else cur.(c) <- -1
  in
  let t_start = now () in
  Array.iteri (fun c _ -> send_next c) cs;
  while !finished < !next do
    let waiting = List.filter (fun c -> cur.(c) >= 0) (List.init k Fun.id) in
    let fds = List.map (fun c -> cs.(c).fd) waiting in
    let ready, _, _ = Unix.select fds [] [] 10. in
    if ready = [] then invalid "kv_server stopped answering";
    List.iter
      (fun c ->
        if List.mem cs.(c).fd ready then begin
          fill cs.(c);
          let decode f =
            let t0 = now () in
            let r = f () in
            Spans.record spans c "decode" cur.(c) t0 (now ());
            r
          in
          match next_frame ~decode cs.(c) with
          | None -> ()
          | Some r ->
              let t = now () in
              let i = cur.(c) in
              if r.Wire.rrid <> i then invalid "response %d for request %d" r.Wire.rrid i;
              lat.(i) <- t - t_sent.(c);
              at.(i) <- t;
              last_recv := t;
              Spans.record spans c "round_trip" i t_sent.(c) t;
              ops.(i) <- check keys tr tl i r;
              incr finished;
              send_next c
        end)
      waiting
  done;
  let n = !finished in
  let samples =
    {
      Measure.at = Array.sub at 0 n;
      lat = Array.sub lat 0 n;
      ops = Array.sub ops 0 n;
      t_lo = t_start;
      t_hi = !last_recv;
    }
  in
  (samples, now () - t_start, !last_recv)

(* Close enough to a due time to poll rather than sleep: select() wakes
   a sleeper tens of microseconds late. *)
let poll_window_ns = 100_000

(** Open loop: request [i] is due at [t0 + due.(i)] on connection
    [i mod conns], sent then whatever is outstanding, and answered in
    order per connection. *)
let open_loop cs keys tr tl ~due ~duration_ns =
  let n = Array.length due and k = Array.length cs in
  let sent = Array.make n 0 and done_ = Array.make n 0 and ops = Array.make n 0 in
  let t0 = now () + 5_000_000 in
  let next = ref 0 and received = ref 0 in
  let give_up = t0 + (if n = 0 then 0 else due.(n - 1)) + 30_000_000_000 in
  while !received < n do
    while !next < n && now () >= t0 + due.(!next) do
      let i = !next in
      incr next;
      let s = Wire.request_string (request keys tr i) in
      tl.requests <- tl.requests + 1;
      tl.attempted <- tl.attempted + 1;
      sent.(i) <- now ();
      send cs.(i mod k) s
    done;
    let wait =
      if !next < n then t0 + due.(!next) - now () - poll_window_ns else 1_000_000_000
    in
    let ready, _, _ =
      Unix.select
        (Array.to_list (Array.map (fun c -> c.fd) cs))
        [] []
        (if wait <= 0 then 0. else float_of_int wait /. 1e9)
    in
    List.iter
      (fun c ->
        if List.mem c.fd ready then begin
          fill c;
          let rec drain () =
            match next_frame c with
            | None -> ()
            | Some r ->
                let i = r.Wire.rrid in
                if i < 0 || i >= n || sent.(i) = 0 || done_.(i) <> 0 then
                  invalid "unexpected response %d" i;
                done_.(i) <- now ();
                ops.(i) <- check keys tr tl i r;
                incr received;
                drain ()
          in
          drain ()
        end)
      (Array.to_list cs);
    if now () > give_up then invalid "open-loop phase did not drain"
  done;
  let ready = Array.map (fun d -> t0 + d) due in
  Pace.account ~t0 ~duration_ns ~due ~ready ~sent ~done_ ~ops

(* Preload every key (value 3k) in batched puts, one batch outstanding per
   connection. *)
let preload cs keys tl =
  let n = Array.length keys in
  let batches = (n + preload_batch - 1) / preload_batch in
  let req b =
    let lo = b * preload_batch in
    let hi = min n (lo + preload_batch) in
    {
      Wire.rid = b;
      ops =
        List.init (hi - lo) (fun j ->
            let k = keys.(lo + j) in
            Wire.Put (Util.Keys.encode_int k, 3 * k));
    }
  in
  let next = ref 0 in
  let outstanding = ref [] in
  Array.iter
    (fun c ->
      if !next < batches then begin
        send c (Wire.request_string (req !next));
        outstanding := (c, !next) :: !outstanding;
        incr next
      end)
    cs;
  while !outstanding <> [] do
    let ready, _, _ =
      Unix.select (List.map (fun (c, _) -> c.fd) !outstanding) [] [] 10.
    in
    if ready = [] then invalid "kv_server stopped answering the preload";
    outstanding :=
      List.concat_map
        (fun (c, b) ->
          if not (List.mem c.fd ready) then [ (c, b) ]
          else begin
            fill c;
            match next_frame c with
            | None -> [ (c, b) ]
            | Some r ->
                if
                  not
                    (r.Wire.status = Wire.Ok
                    && List.for_all (( = ) (Wire.Done true)) r.Wire.replies)
                then wrong tl "preload batch %d not acknowledged" b;
                if !next < batches then begin
                  send c (Wire.request_string (req !next));
                  incr next;
                  [ (c, !next - 1) ]
                end
                else []
          end)
        !outstanding
  done

(* Gets of every [step]-th preloaded key, batched. *)
let read_back c keys tl ~step =
  let ks = List.filteri (fun i _ -> i mod step = 0) (Array.to_list keys) in
  List.iter
    (fun batch ->
      let ops = List.map (fun k -> Wire.Get (Util.Keys.encode_int k)) batch in
      send c (Wire.request_string { Wire.rid = 1; ops });
      let r = await c in
      if r.Wire.status <> Wire.Ok || List.length r.Wire.replies <> List.length batch then
        wrong tl "read-back: status %s" (Wire.status_name r.Wire.status)
      else
        List.iter2
          (fun k rep ->
            if rep <> Wire.Found (3 * k) then begin
              tl.reads_missed <- tl.reads_missed + 1;
              wrong tl "key %d not read back as %d" k (3 * k)
            end)
          batch r.Wire.replies)
    (chunks 64 ks)

(* --- the workload ------------------------------------------------------------- *)

let start ?trace_out keys tl =
  let t0 = now () in
  let s = spawn ?trace_out () in
  let cs = Array.init conns (fun _ -> connect s.port) in
  preload cs keys tl;
  (float_of_int (now () - t0) /. 1e9, (s, cs))

let stop (s, cs) =
  Array.iter (fun c -> Unix.close c.fd) cs;
  reap s

let run ctx =
  let prof = Profile.tcp in
  Pmem.Latency.set ~flush:0 ~fence:0;
  let nkeys = Profile.tcp_preload ~smoke:ctx.smoke in
  let keys = distinct_keys (rng ctx [ 1 ]) nkeys in
  let tl = tally () and rb = tally () in
  let n_closed = Profile.closed_requests prof ~trace:ctx.trace ~seconds:ctx.seconds in
  let deadline () = Profile.closed_deadline ~trace:ctx.trace ~seconds:ctx.seconds in
  let spans = Spans.create ~clients:conns ~capacity:8192 in
  let setup_s, ((s, cs) as srv) =
    repeated_setup
      (if ctx.trace then 1 else Profile.setups ~smoke:ctx.smoke prof)
      ~setup:(fun () -> start keys rb)
      ~drop:stop
  in
  (* Closed phase; a traced run measures its first half here, untraced,
     and the second half on a traced server below. *)
  let n_u = if ctx.trace then n_closed / 2 else n_closed in
  let counts = Servestats.create () in
  let before = stats cs.(0) in
  let w0 = probe () in
  let closed_u, wall_u, _ =
    closed cs keys (traffic (rng ctx [ 2; 0 ]) ~n:n_u ~nkeys) tl ~n:n_u
      ~deadline:(deadline ()) ~spans
  in
  let acked_u = Array.fold_left ( + ) 0 closed_u.Measure.ops in
  let win = window () in
  close_window win w0;
  Servestats.accumulate counts ~before ~after:(stats cs.(0));
  let ol phase rate =
    let duration_ns = Profile.open_ns ~seconds:ctx.seconds in
    let due = Pace.poisson ~rng:(rng ctx [ 3; phase ]) ~rate ~duration_ns in
    open_loop cs keys (traffic (rng ctx [ 2; phase ]) ~n:(Array.length due) ~nkeys) tl ~due
      ~duration_ns
  in
  let phases =
    if ctx.trace then Some (ol 1 prof.Profile.low_rps, ol 2 prof.Profile.high_rps) else None
  in
  read_back cs.(0) keys rb ~step:(max 1 (nkeys / 1000));
  let rss = peak_rss_mb s.pid in
  stop srv;
  let detail =
    [
      ("preloaded_keys", Obs.Json.int nkeys);
      ("closed_samples", Obs.Json.int (Array.length closed_u.Measure.lat));
      ("pm_charge_ns", Obs.Json.int 0);
    ]
  in
  match phases with
  | None ->
      ( merge_with rb [| tl |],
        Report.end_to_end ~setup_s ~closed:closed_u ~rss_mb:rss,
        detail )
  | Some (low, high) ->
      check_gen ctx ~low ~high;
      (* [trace_path] also creates the directory the server writes into. *)
      let path = trace_path ctx name in
      let server_trace = Filename.concat ctx.trace_dir ("kv_server-" ^ name ^ ".json") in
      let _, ((_, cs2) as srv2) = start ~trace_out:server_trace keys rb in
      let shares = Servestats.create () in
      let before = stats cs2.(0) in
      Spans.set_on spans true;
      let closed_t, wall_t, last_recv =
        closed cs2 keys
          (traffic (rng ctx [ 2; 3 ]) ~n:(n_closed - n_u) ~nkeys)
          tl ~n:(n_closed - n_u)
          ~deadline:(deadline ())
          ~spans
      in
      Spans.set_on spans false;
      Servestats.accumulate shares ~before ~after:(stats cs2.(0));
      stop srv2;
      let acked_t = Array.fold_left ( + ) 0 closed_t.Measure.ops in
      let lat_u = closed_u.Measure.lat in
      let client_mean =
        float_of_int (Array.fold_left ( + ) 0 lat_u)
        /. float_of_int (max 1 (Array.length lat_u))
      in
      let l = Servestats.counts Report.bypassed counts ~acked:acked_u in
      let l =
        Servestats.phases l shares
          ~ops_per_ns:(float_of_int acked_t /. float_of_int (max 1 wall_t))
      in
      let l =
        {
          l with
          Report.unattributed_frac =
            1. -. l.Report.queue_frac -. l.Report.apply_frac -. l.Report.epoch_wait_frac
            -. l.Report.fence_frac;
          reads_missed = float_of_int (merge_with rb [| tl |]).reads_missed;
          overloaded_per_kreq =
            Servestats.ratio (float_of_int tl.overloaded) (float_of_int tl.requests /. 1000.);
          transport_overhead_frac =
            Servestats.ratio (client_mean -. Servestats.ack_mean_ns counts) client_mean;
          trace_overhead_frac = 1. -. (kops acked_t wall_t /. kops acked_u wall_u);
        }
      in
      let l = process_metrics l win ~acked:acked_u ~charged:false in
      let l = gen_metrics l ~closed:closed_u ~low ~high in
      (* The index slice replays this traffic on an in-process copy of the
         server's partitions, preloaded alike. *)
      let parts =
        Array.init Server.default_config.Server.shards (fun _ -> Harness.Kvparts.art ())
      in
      let part k = parts.(Server.shard_of_key Server.default_config k) in
      Array.iter
        (fun k ->
          let ks = Util.Keys.encode_int k in
          ignore ((part ks).Server.p_insert ks (3 * k)))
        keys;
      let srng = rng ctx [ 5 ] in
      let plan =
        {
          Slice.read =
            (fun g ->
              let k = keys.(Util.Rng.below g nkeys) in
              let ks = Util.Keys.encode_int k in
              if (part ks).Server.p_lookup ks <> Some (3 * k) then
                wrong rb "slice: key %d lost" k);
          write =
            (fun g ->
              let k = keys.(Util.Rng.below g nkeys) in
              let ks = Util.Keys.encode_int k in
              ignore ((part ks).Server.p_insert ks (3 * k)));
          write_pct = put_pct;
        }
      in
      let l =
        Slice.index ~plan ~rng:srng ~timed:(Profile.slice_timed ~smoke:ctx.smoke)
          ~counted:(Profile.slice_counted ~smoke:ctx.smoke)
          l
      in
      let tr = traffic srng ~n:(Profile.wire_frames ~smoke:ctx.smoke) ~nkeys in
      let frames =
        Array.init (Profile.wire_frames ~smoke:ctx.smoke) (fun i ->
            let k = keys.(tr.idx.(i)) in
            ( request keys tr i,
              {
                Wire.rrid = i;
                status = Wire.Ok;
                replies = [ (if is_put tr i then Wire.Done true else Wire.Found (3 * k)) ];
              } ))
      in
      let l = Slice.wire frames l in
      (* The server's trace (written when it stopped) joins ours, its end
         aligned with the last reply this client received from it. *)
      let program =
        match Obs.Json.parse (In_channel.with_open_bin server_trace In_channel.input_all) with
        | Ok j -> Some j
        | Error _ -> None
      in
      let server_end_us =
        List.fold_left
          (fun m e ->
            match (Obs.Json.member "ts" e, Obs.Json.member "dur" e) with
            | Some (Obs.Json.Num ts), Some (Obs.Json.Num d) -> Float.max m (ts +. d)
            | _ -> m)
          0.
          (match program with Some j -> Spans.events_of j | None -> [])
      in
      Spans.write_file path
        (Spans.to_json spans ~label:name ?program
           ~program_t0:(last_recv - int_of_float (server_end_us *. 1e3))
           ~dpid:10
           ~other:
             [
               ("workload", Obs.Json.Str name);
               ("server_trace", Obs.Json.Str server_trace);
               ("server_alignment", Obs.Json.Str "server trace end at the last traced reply");
             ]
           ());
      ( merge_with rb [| tl |],
        Report.per_layer l,
        ("trace_file", Obs.Json.Str path)
        :: phase_detail "ol_low" low :: phase_detail "ol_high" high :: detail )
