(* Closed-loop load generator for the KV service layer.

   Each worker domain owns one {!Util.Rng} stream for its whole run (no
   re-seeding between phases — the reproducibility discipline the YCSB
   harness also follows) and submits batched requests through the
   in-process transport, blocking for each acknowledgement before sending
   the next request: closed-loop, so measured ack latency includes queueing
   behind other clients and the epoch fence.

   Two key regimes:

   - [Fresh_keys]: every put uses a globally fresh key (disjoint per-worker
     ranges, the {!Crashtest} convention [value = 3*key]).  Acked bindings
     are returned for post-crash verification.
   - [Overwrite n]: puts upsert over a small space of [n] keys — the
     batching benchmark's write-heavy regime, where a batch's commits land
     on few distinct cache lines and the epoch flush coalesces them.

   On [Overloaded] the worker backs off and retries the same request —
   safe, since a rejected request was not applied at all.  On [Shutdown]
   (server crashed) the worker stops. *)

type mode = Fresh_keys | Overwrite of int

type cfg = {
  workers : int;
  requests : int;  (** per worker *)
  ops_per_request : int;
  write_pct : int;  (** percent of ops that are puts (0–100) *)
  scan_pct : int;  (** percent of ops that are scans (of the remainder) *)
  scan_len : int;
  read_space : int;  (** gets/scans draw keys from [1..read_space] *)
  mode : mode;
  key_base : int;  (** fresh-key offset (skip a preloaded range) *)
  txn_pct : int;  (** percent of requests that are one multi-key Txn batch *)
  txn_ops : int;  (** members per Txn batch *)
  seed : int;
}

let default_cfg =
  {
    workers = 2;
    requests = 200;
    ops_per_request = 8;
    write_pct = 50;
    scan_pct = 0;
    scan_len = 16;
    read_space = 1000;
    mode = Fresh_keys;
    key_base = 1_000_000;
    txn_pct = 0;
    txn_ops = 8;
    seed = 42;
  }

(* One Txn batch as sent: members in wire order, [(k, Some v)] for a put
   and [(k, None)] for a delete.  Batches from one worker appear in send
   order when the merged list is filtered by [wid] — the crash campaign
   replays them in that order to model the expected post-crash state. *)
type txn_batch = {
  wid : int;
  acked : bool;  (** server answered [Ok]/[Txn_ok] *)
  members : (int * int option) list;
}

type outcome = {
  requests_sent : int;
  ops_acked : int;
  puts_acked : (int * int) list;
      (** acked [Put] bindings (integer key, value) with [Done true];
          transactional puts are tracked in [txn_batches] instead *)
  txn_batches : txn_batch list;
  txns_acked : int;
  txns_aborted : int;  (** [Txn_aborted] replies observed *)
  overloaded : int;  (** backpressure rejections observed (then retried) *)
  shutdowns : int;  (** requests that died with the server *)
  elapsed_ns : int;
  seed : int;
}

let fresh_key cfg wid seq = cfg.key_base + (wid * 1_000_000) + seq

let value_of_key k = k * 3

let build_request (cfg : cfg) rng wid rid seq0 =
  let ops = ref [] in
  for j = cfg.ops_per_request - 1 downto 0 do
    let roll = Util.Rng.below rng 100 in
    if roll < cfg.write_pct then begin
      let k =
        match cfg.mode with
        | Fresh_keys -> fresh_key cfg wid (seq0 + j)
        | Overwrite n -> 1 + Util.Rng.below rng n
      in
      ops := Wire.Put (Util.Keys.encode_int k, value_of_key k) :: !ops
    end
    else if roll < cfg.write_pct + cfg.scan_pct then begin
      let k = 1 + Util.Rng.below rng (max 1 cfg.read_space) in
      ops := Wire.Scan (Util.Keys.encode_int k, cfg.scan_len) :: !ops
    end
    else begin
      let k = 1 + Util.Rng.below rng (max 1 cfg.read_space) in
      ops := Wire.Get (Util.Keys.encode_int k) :: !ops
    end
  done;
  { Wire.rid; ops = !ops }

(* Build one Txn batch: fresh-key puts, except that (once keys from a
   previously *acked* batch are available) the first member may delete one
   of them.  Deleting only own, acked, not-yet-deleted keys keeps the
   crash campaign's replay model exact: each key is written once and
   deleted at most once, so "applied" has one unambiguous meaning per
   member. *)
let build_txn (cfg : cfg) rng wid seq0 available =
  let members = ref [] in
  for j = cfg.txn_ops - 1 downto 0 do
    if j = 0 && !available <> [] && Util.Rng.below rng 2 = 0 then begin
      let k = List.hd !available in
      available := List.tl !available;
      members := (k, None) :: !members
    end
    else begin
      let k = fresh_key cfg wid (seq0 + j) in
      members := (k, Some (value_of_key k)) :: !members
    end
  done;
  !members

let op_of_member (k, m) =
  match m with
  | Some v -> Wire.Put (Util.Keys.encode_int k, v)
  | None -> Wire.Delete (Util.Keys.encode_int k)

let worker srv (cfg : cfg) wid () =
  (* The worker's single Rng stream: one [create] for the whole run. *)
  let rng = Util.Rng.create (cfg.seed + (31 * wid) + 7) in
  let sent = ref 0 and acked = ref 0 and over = ref 0 and down = ref 0 in
  let puts = ref [] in
  let batches = ref [] and tx_ok = ref 0 and tx_abort = ref 0 in
  (* Own acked txn put keys not yet targeted by a delete. *)
  let available = ref [] in
  let stride = max cfg.ops_per_request cfg.txn_ops in
  let stop = ref false in
  let r = ref 0 in
  while (not !stop) && !r < cfg.requests do
    let seq0 = !r * stride in
    let txn =
      if cfg.txn_pct > 0 && Util.Rng.below rng 100 < cfg.txn_pct then
        Some (build_txn cfg rng wid seq0 available)
      else None
    in
    let req =
      match txn with
      | Some members -> { Wire.rid = !r; ops = [ Wire.Txn (List.map op_of_member members) ] }
      | None -> build_request cfg rng wid !r seq0
    in
    let record_txn ~is_acked =
      match txn with
      | None -> ()
      | Some members ->
          batches := { wid; acked = is_acked; members } :: !batches;
          if is_acked then begin
            incr tx_ok;
            List.iter
              (fun (k, m) -> if m <> None then available := k :: !available)
              members
          end
          else
            (* An aborted/unacked delete was rolled back (or never ran):
               the key may still be live, but its fate is now ambiguous —
               leave it out of [available] rather than delete it twice. *)
            ()
    in
    let rec try_submit retries =
      incr sent;
      let resp = Server.submit srv req in
      match resp.Wire.status with
      | Wire.Overloaded ->
          incr over;
          if retries > 0 then begin
            Domain.cpu_relax ();
            try_submit (retries - 1)
          end
          else record_txn ~is_acked:false
          (* Pathological config (queue_cap < request size): drop — the
             request was never applied, so dropping is safe. *)
      | Wire.Ok ->
          (* Count acked ops from the replies — a [Txn_aborted] batch
             acknowledges nothing even though the request came back [Ok]. *)
          List.iter
            (fun reply ->
              match reply with
              | Wire.Txn_ok rs -> acked := !acked + List.length rs
              | Wire.Txn_aborted -> incr tx_abort
              | _ -> incr acked)
            resp.Wire.replies;
          (match (txn, resp.Wire.replies) with
          | Some _, [ Wire.Txn_ok _ ] -> record_txn ~is_acked:true
          | Some _, _ -> record_txn ~is_acked:false
          | None, replies ->
              (* Record the puts the server actually applied and fenced. *)
              List.iter2
                (fun op reply ->
                  match (op, reply) with
                  | Wire.Put (ks, v), Wire.Done true ->
                      puts := (Util.Keys.decode_int ks, v) :: !puts
                  | _ -> ())
                req.Wire.ops replies)
      | Wire.Shutdown ->
          incr down;
          record_txn ~is_acked:false;
          stop := true
      | Wire.Bad_request -> stop := true
    in
    (* Cross-shard transactions claim their decision slot on the
       submitting domain, so an armed fault plan can fire *here* rather
       than in a server worker.  Model it as this client dying mid-call:
       the in-flight request was never acknowledged (all-or-nothing under
       recovery), results gathered so far stand. *)
    (try try_submit 10_000
     with Pmem.Crash.Simulated_crash ->
       record_txn ~is_acked:false;
       stop := true);
    incr r
  done;
  {
    requests_sent = !sent;
    ops_acked = !acked;
    puts_acked = !puts;
    txn_batches = List.rev !batches;
    txns_acked = !tx_ok;
    txns_aborted = !tx_abort;
    overloaded = !over;
    shutdowns = !down;
    elapsed_ns = 0;
    seed = cfg.seed;
  }

let merge a b =
  {
    requests_sent = a.requests_sent + b.requests_sent;
    ops_acked = a.ops_acked + b.ops_acked;
    puts_acked = List.rev_append b.puts_acked a.puts_acked;
    (* [@] keeps each worker's batches in send order (workers have
       distinct [wid]s, so cross-worker order is irrelevant). *)
    txn_batches = a.txn_batches @ b.txn_batches;
    txns_acked = a.txns_acked + b.txns_acked;
    txns_aborted = a.txns_aborted + b.txns_aborted;
    overloaded = a.overloaded + b.overloaded;
    shutdowns = a.shutdowns + b.shutdowns;
    elapsed_ns = max a.elapsed_ns b.elapsed_ns;
    seed = a.seed;
  }

(* Run the closed-loop phase: [cfg.workers] client domains against [srv],
   wall-clocked around spawn-to-join. *)
let run srv (cfg : cfg) =
  let t0 = Monotonic_clock.now () in
  let domains =
    List.init cfg.workers (fun wid -> Domain.spawn (worker srv cfg wid))
  in
  let outcomes = List.map Domain.join domains in
  let elapsed = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  match outcomes with
  | [] ->
      {
        requests_sent = 0;
        ops_acked = 0;
        puts_acked = [];
        txn_batches = [];
        txns_acked = 0;
        txns_aborted = 0;
        overloaded = 0;
        shutdowns = 0;
        elapsed_ns = elapsed;
        seed = cfg.seed;
      }
  | o :: rest ->
      let m = List.fold_left merge o rest in
      { m with elapsed_ns = elapsed }
