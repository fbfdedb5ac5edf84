(* serve-overwrite and serve-txn: {!Kvserve.Server.submit} in process.

   Both run {!Kvserve.Server.default_config} (P-ART, 2 shards, batch 32,
   queue_cap 256, epoch persistence) with two client domains in a closed
   loop (plus the open-loop phases of a traced run), under the E14 charge;
   the wire layer is bypassed.

   - serve-overwrite: each request is 16 [Put]s upserting over 64 hot keys
     (the regime of EXPERIMENTS.md E21/E23).  The data fits in cache;
     epoch deferral, flush coalescing and queueing do the work.
   - serve-txn: each request is one [Txn] of 4 fresh-key [Put]s; about
     7/8 of them span both shards and so run two-phase commit.  The undo
     WAL, decision claims and fenced commit flips do the work, and no
     other workload reaches them.

   Set-up is starting the server, preloading the hot keys (overwrite) and
   a short warm-up from this domain, which also creates the workers'
   WALs. *)

open Common
module Server = Kvserve.Server
module Wire = Kvserve.Wire

type kind = Overwrite | Txn

let name = function Overwrite -> "serve-overwrite" | Txn -> "serve-txn"
let clients = 2
let hot = 64
let puts_per_request = 16
let members = 4
let warmup_requests ~smoke = if smoke then 20 else 400
let key = Util.Keys.encode_int
let value k = 3 * k

(* Fresh transaction keys: member [m] of the [s]-th transaction of stream
   [c] (0-1 the clients, 2 the warm-up, 3 the index slice), distinct for
   distinct arguments, scattered by the seed's mask. *)
let txn_key ~mask c s m = ((((c lsl 32) lor s) lsl 2) lor m) lxor mask + 1

let start () =
  Server.start Server.default_config
    (Array.init Server.default_config.Server.shards (fun _ -> Harness.Kvparts.art ()))

let sid_of k = Server.shard_of_key Server.default_config k

let run kind ctx =
  let prof = match kind with Overwrite -> Profile.overwrite | Txn -> Profile.txn in
  let charge_rate, charge_flush, charge_fence = set_charge () in
  let mask = Util.Rng.next (rng ctx [ 0 ]) land ((1 lsl 40) - 1) in
  let hot_keys = distinct_keys (rng ctx [ 1 ]) hot in
  (* Each transaction in flight has a sequence number per stream; the
     acked and aborted ones are sampled for the read-back. *)
  let seq = Array.make 4 0 in
  let sample_cap = 512 in
  let acked_s = Array.init clients (fun _ -> Array.make sample_cap 0) in
  let acked_n = Array.make clients 0 in
  let aborted_s = Array.init clients (fun _ -> Array.make sample_cap 0) in
  let aborted_n = Array.make clients 0 in
  (* The first [sample_cap] sequence numbers, then every 64th over them. *)
  let keep arr n c s =
    if n.(c) < sample_cap then begin
      arr.(c).(n.(c)) <- s;
      n.(c) <- n.(c) + 1
    end
    else if s land 63 = 0 then arr.(c).(s / 64 mod sample_cap) <- s
  in
  let request c g =
    match kind with
    | Overwrite ->
        let ops =
          List.init puts_per_request (fun _ ->
              let k = hot_keys.(Util.Rng.below g hot) in
              Wire.Put (key k, value k))
        in
        ({ Wire.rid = c; ops }, 0)
    | Txn ->
        let s = seq.(c) in
        seq.(c) <- s + 1;
        let ops =
          List.init members (fun m ->
              let k = txn_key ~mask c s m in
              Wire.Put (key k, value k))
        in
        ({ Wire.rid = s land 0xFFFFFFF; ops = [ Wire.Txn ops ] }, s)
  in
  (* Submit, retrying refusals, and check the reply against the model. *)
  let submit srv tl c (req, s) =
    let nops =
      match req.Wire.ops with [ Wire.Txn m ] -> List.length m | ops -> List.length ops
    in
    let rec go () =
      tl.requests <- tl.requests + 1;
      tl.attempted <- tl.attempted + nops;
      let resp = Server.submit srv req in
      match (resp.Wire.status, resp.Wire.replies, kind) with
      | Wire.Overloaded, _, _ ->
          tl.overloaded <- tl.overloaded + 1;
          tl.failed <- tl.failed + nops;
          Domain.cpu_relax ();
          go ()
      | Wire.Ok, rs, Overwrite ->
          if List.length rs = nops && List.for_all (( = ) (Wire.Done true)) rs then begin
            tl.acked <- tl.acked + nops;
            nops
          end
          else begin
            wrong tl "overwrite request %d: unexpected replies" req.Wire.rid;
            0
          end
      | Wire.Ok, [ Wire.Txn_ok rs ], Txn ->
          if List.length rs = members && List.for_all (( = ) (Wire.Done true)) rs then begin
            tl.acked <- tl.acked + nops;
            if c < clients then keep acked_s acked_n c s;
            nops
          end
          else begin
            wrong tl "txn %d: Txn_ok with unexpected member replies" s;
            0
          end
      | Wire.Ok, [ Wire.Txn_aborted ], Txn ->
          tl.failed <- tl.failed + nops;
          if c < clients then keep aborted_s aborted_n c s;
          0
      | st, _, _ ->
          wrong tl "request %d: status %s" req.Wire.rid (Wire.status_name st);
          0
    in
    go ()
  in
  let setup_tally = tally () in
  let setup () =
    Gc.full_major ();
    let t0 = now () in
    let srv = start () in
    (match kind with
    | Overwrite ->
        let ops = Array.to_list (Array.map (fun k -> Wire.Put (key k, value k)) hot_keys) in
        ignore (submit srv setup_tally clients ({ Wire.rid = 0; ops }, 0))
    | Txn -> ());
    let g = rng ctx [ 2 ] in
    for _ = 1 to warmup_requests ~smoke:ctx.smoke do
      ignore (submit srv setup_tally 2 (request 2 g))
    done;
    (float_of_int (now () - t0) /. 1e9, srv)
  in
  let setup_s, srv =
    repeated_setup
      (if ctx.trace then 1 else Profile.setups ~smoke:ctx.smoke prof)
      ~setup ~drop:Server.stop
  in
  let rb = tally () in
  if setup_tally.wrong > 0 then wrong rb "set-up: %s" setup_tally.first_wrong;
  let team = Team.create clients in
  let tallies = Array.init clients (fun _ -> tally ()) in
  let gens = ref [||] in
  let new_phase phase = gens := Array.init clients (fun c -> rng ctx [ 3; phase; c ]) in
  let prep c _ = request c !gens.(c) in
  let exec c r = submit srv tallies.(c) c r in
  let spans = Spans.create ~clients ~capacity:4096 in
  (* Server stats windows: counts over the untraced stretches, phase
     shares over the traced ones. *)
  let counts = Servestats.create () and shares = Servestats.create () in
  let req0 = ref 0 and over0 = ref 0 in
  let bracket ~traced f =
    Spans.set_on spans traced;
    Obs.Span.set_enabled traced;
    Obs.Trace.set_enabled traced;
    let before = Server.stats_snapshot srv in
    f ();
    let after = Server.stats_snapshot srv in
    Spans.set_on spans false;
    Obs.Span.set_enabled false;
    Obs.Trace.set_enabled false;
    Servestats.accumulate (if traced then shares else counts) ~before ~after
  in
  Obs.Span.clear ();
  Obs.Trace.clear ();
  req0 := sum tallies (fun tl -> tl.requests);
  over0 := sum tallies (fun tl -> tl.overloaded);
  new_phase 0;
  let closed =
    closed_phase ctx team
      ~n:(Profile.closed_requests prof ~trace:ctx.trace ~seconds:ctx.seconds / clients)
      ~deadline:(Profile.closed_deadline ~trace:ctx.trace ~seconds:ctx.seconds)
      ~prep ~exec ~spans ~span_name:"submit" ~bracket
  in
  let closed_requests = sum tallies (fun tl -> tl.requests) - !req0 in
  let closed_overloaded = sum tallies (fun tl -> tl.overloaded) - !over0 in
  let spans_dump = Obs.Span.dump () in
  let ol phase rate =
    new_phase phase;
    open_loop team ~rate ~duration_ns:(Profile.open_ns ~seconds:ctx.seconds)
      ~rngs:(Array.init clients (fun c -> rng ctx [ 4; phase; c ]))
      ~prep ~exec
  in
  let phases =
    if ctx.trace then Some (ol 1 prof.Profile.low_rps, ol 2 prof.Profile.high_rps) else None
  in
  Team.shutdown team;
  (* Read-back through the server: every hot key, or a sample of acked
     (present, 3k) and aborted (absent) transactions. *)
  let expect =
    match kind with
    | Overwrite -> Array.to_list (Array.map (fun k -> (k, Some (value k))) hot_keys)
    | Txn ->
        List.concat
          (List.init clients (fun c ->
               List.concat_map
                 (fun s ->
                   List.init members (fun m ->
                       let k = txn_key ~mask c s m in
                       (k, Some (value k))))
                 (Array.to_list (Array.sub acked_s.(c) 0 acked_n.(c)))
               @ List.map
                   (fun s -> (txn_key ~mask c s 0, None))
                   (Array.to_list (Array.sub aborted_s.(c) 0 aborted_n.(c)))))
  in
  List.iter
    (fun batch ->
      let ops = List.map (fun (k, _) -> Wire.Get (key k)) batch in
      let resp = Server.submit srv { Wire.rid = 0; ops } in
      match resp.Wire.status with
      | Wire.Ok ->
          List.iter2
            (fun (k, want) got ->
              match (want, got) with
              | Some v, Wire.Found v' when v = v' -> ()
              | None, Wire.Absent -> ()
              | Some _, _ ->
                  rb.reads_missed <- rb.reads_missed + 1;
                  wrong rb "key %d not read back as %d" k (value k)
              | None, _ -> wrong rb "key %d of an aborted transaction is visible" k)
            batch resp.Wire.replies
      | st -> wrong rb "read-back: status %s" (Wire.status_name st))
    (chunks 64 expect);
  let rss = peak_rss_mb 0 in
  Server.stop srv;
  let detail =
    [
      ("closed_samples", Obs.Json.int closed.n_u);
      ("read_back_keys", Obs.Json.int (List.length expect));
      ("spin_iters_per_ns", Obs.Json.Num charge_rate);
      ("spin_flush_ns", Obs.Json.Num charge_flush);
      ("spin_fence_ns", Obs.Json.Num charge_fence);
    ]
  in
  match phases with
  | None ->
      ( merge_with rb tallies,
        Report.end_to_end ~setup_s ~closed:closed.samples ~rss_mb:rss,
        detail )
  | Some (low, high) ->
      check_gen ctx ~low ~high;
      let acked_u = closed.acked_u in
      let l = Servestats.counts Report.bypassed counts ~acked:acked_u in
      let l =
        Servestats.phases l shares
          ~ops_per_ns:(float_of_int closed.acked_t /. float_of_int (max 1 closed.wall_t))
      in
      (* The unaccounted part of each request's ack: its span's self time
         once the four pipeline phases are taken out. *)
      let self, total =
        List.fold_left
          (fun (s, t) sp ->
            let open Obs.Span in
            ( s
              + Measure.self_time ~parent:(sp.t_submit, sp.t_ack)
                  ~children:
                    [
                      (sp.t_enqueue, sp.t_dequeue);
                      (sp.t_dequeue, sp.t_applied);
                      (sp.t_applied, sp.t_epoch);
                      (sp.t_epoch, sp.t_fenced);
                    ],
              t + (sp.t_ack - sp.t_submit) ))
          (0, 0) spans_dump
      in
      let client_mean = float_of_int closed.lat_sum_u /. float_of_int (max 1 closed.n_u) in
      let l =
        {
          l with
          Report.unattributed_frac = Servestats.ratio (float_of_int self) (float_of_int total);
          reads_missed = float_of_int (merge_with rb tallies).reads_missed;
          overloaded_per_kreq =
            Servestats.ratio (float_of_int closed_overloaded)
              (float_of_int closed_requests /. 1000.);
          transport_overhead_frac =
            Servestats.ratio (client_mean -. Servestats.ack_mean_ns counts) client_mean;
          trace_overhead_frac = trace_overhead closed;
        }
      in
      let l = process_metrics l closed.win ~acked:acked_u ~charged:true in
      let l = gen_metrics l ~closed:closed.samples ~low ~high in
      (* Layer slices on the stopped server's partitions, from this domain. *)
      let parts = Server.partitions srv in
      let find k = parts.(sid_of (key k)).Server.p_lookup (key k) in
      let put k = ignore (parts.(sid_of (key k)).Server.p_insert (key k) (value k)) in
      let srng = rng ctx [ 5 ] in
      let acked_keys =
        Array.of_list
          (List.filter_map (fun (k, v) -> Option.map (fun _ -> k) v) expect)
      in
      let plan =
        match kind with
        | Overwrite ->
            {
              Slice.read =
                (fun g ->
                  let k = hot_keys.(Util.Rng.below g hot) in
                  if find k <> Some (value k) then wrong rb "hot key %d lost" k);
              write = (fun g -> put hot_keys.(Util.Rng.below g hot));
              write_pct = 100;
            }
        | Txn ->
            let s = ref 0 in
            {
              Slice.read =
                (fun g ->
                  if Array.length acked_keys > 0 then begin
                    let k = acked_keys.(Util.Rng.below g (Array.length acked_keys)) in
                    if find k <> Some (value k) then wrong rb "txn key %d lost" k
                  end);
              write =
                (fun _ ->
                  put (txn_key ~mask 3 !s 0);
                  incr s);
              write_pct = 100;
            }
      in
      let l =
        Slice.index ~plan ~rng:srng ~timed:(Profile.slice_timed ~smoke:ctx.smoke)
          ~counted:(Profile.slice_counted ~smoke:ctx.smoke)
          l
      in
      let frames =
        Array.init (Profile.wire_frames ~smoke:ctx.smoke) (fun i ->
            let q, _ = request 3 srng in
            let replies =
              match kind with
              | Overwrite -> List.init puts_per_request (fun _ -> Wire.Done true)
              | Txn -> [ Wire.Txn_ok (List.init members (fun _ -> Wire.Done true)) ]
            in
            ({ q with Wire.rid = i }, { Wire.rrid = i; status = Wire.Ok; replies }))
      in
      let l = Slice.wire frames l in
      let path = write_traceview ctx (name kind) spans in
      ( merge_with rb tallies,
        Report.per_layer l,
        ("trace_file", Obs.Json.Str path)
        :: phase_detail "ol_low" low :: phase_detail "ol_high" high :: detail )
