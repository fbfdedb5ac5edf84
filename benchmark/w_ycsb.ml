(* ycsb-a-art: the paper's Fig 4a cell, in process, no server.

   YCSB-A on P-ART through {!Harness.Drivers.art}: randint keys, uniform,
   two client domains, 50% lookups of loaded keys and 50% inserts of fresh
   ones, under the E14 charge (100 ns per clwb, 30 ns per sfence).  The
   index and the pmem substrate do nearly all the work; kvserve and the
   persist layer are bypassed.  Set-up is {!Ycsb.load} of the loaded keys
   into a fresh index; the key universe itself is input, generated from the
   seed before any timing. *)

open Common
module Wire = Kvserve.Wire

let name = "ycsb-a-art"
let clients = 2

let run ctx =
  let prof = Profile.ycsb in
  let charge_rate, charge_flush, charge_fence = set_charge () in
  let nloaded = Profile.ycsb_loaded ~smoke:ctx.smoke in
  let n_closed = Profile.closed_requests prof ~trace:ctx.trace ~seconds:ctx.seconds in
  let open_ns = Profile.open_ns ~seconds:ctx.seconds in
  (* Fresh insert keys per client: over half of every op it can run (the
     coin's margin, the Poisson counts of a traced run's open-loop
     phases), plus the index slice. *)
  let fresh_pc =
    let ol =
      if ctx.trace then
        (prof.Profile.low_rps +. prof.Profile.high_rps) *. float_of_int open_ns /. 1e9
      else 0.
    in
    int_of_float (0.55 *. (float_of_int n_closed +. (1.2 *. ol)) /. float_of_int clients)
    + (2 * Profile.slice_timed ~smoke:ctx.smoke)
    + (2 * Profile.slice_counted ~smoke:ctx.smoke)
    + 20_000
  in
  let p =
    Ycsb.prepare ~workload:Ycsb.Load_a ~kind:Ycsb.Randint ~nloaded
      ~nops:(fresh_pc * clients) ~threads:clients ~seed:ctx.seed ()
  in
  let setup () =
    Gc.full_major ();
    let t0 = now () in
    let t = Art.create () in
    ignore (Ycsb.load p (Harness.Drivers.art p t) : Ycsb.result);
    (float_of_int (now () - t0) /. 1e9, t)
  in
  let setup_s, t =
    repeated_setup
      (if ctx.trace then 1 else Profile.setups ~smoke:ctx.smoke prof)
      ~setup ~drop:ignore
  in
  let d = Harness.Drivers.art p t in
  let team = Team.create clients in
  let tallies = Array.init clients (fun _ -> tally ()) in
  (* Next fresh universe index of each client; client c owns the range
     [nloaded + c * fresh_pc, nloaded + (c + 1) * fresh_pc). *)
  let cursor = Array.init clients (fun c -> nloaded + (c * fresh_pc)) in
  let fresh c =
    let i = cursor.(c) in
    if i >= nloaded + ((c + 1) * fresh_pc) then invalid "fresh YCSB keys exhausted";
    cursor.(c) <- i + 1;
    i
  in
  let gens = ref [||] in
  let new_phase phase = gens := Array.init clients (fun c -> rng ctx [ 1; phase; c ]) in
  (* An op is a universe index, tagged in the low bit: 1 = insert. *)
  let prep c _ =
    let g = !gens.(c) in
    if Util.Rng.below g 100 < 50 then (fresh c lsl 1) lor 1
    else Util.Rng.below g nloaded lsl 1
  in
  let exec c op =
    let tl = tallies.(c) in
    let i = op lsr 1 and ins = op land 1 = 1 in
    let label = if ins then "insert" else "read" in
    if Obs.Trace.enabled () then Obs.Trace.record Obs.Trace.Op_begin ~arg:i label;
    tl.requests <- tl.requests + 1;
    tl.attempted <- tl.attempted + 1;
    if ins then d.Ycsb.insert i
    else if not (d.Ycsb.read i) then begin
      tl.reads_missed <- tl.reads_missed + 1;
      wrong tl "loaded key %d not found" i
    end;
    tl.acked <- tl.acked + 1;
    if Obs.Trace.enabled () then Obs.Trace.record Obs.Trace.Op_end ~arg:i label;
    1
  in
  let spans = Spans.create ~clients ~capacity:4096 in
  let bracket ~traced f =
    Spans.set_on spans traced;
    Obs.Trace.set_enabled traced;
    f ();
    Spans.set_on spans false;
    Obs.Trace.set_enabled false
  in
  Obs.Trace.clear ();
  new_phase 0;
  let closed =
    closed_phase ctx team ~n:(n_closed / clients)
      ~deadline:(Profile.closed_deadline ~trace:ctx.trace ~seconds:ctx.seconds)
      ~prep ~exec ~spans ~span_name:"op" ~bracket
  in
  let ol phase rate =
    new_phase phase;
    open_loop team ~rate ~duration_ns:open_ns
      ~rngs:(Array.init clients (fun c -> rng ctx [ 2; phase; c ]))
      ~prep ~exec
  in
  let phases =
    if ctx.trace then Some (ol 1 prof.Profile.low_rps, ol 2 prof.Profile.high_rps) else None
  in
  Team.shutdown team;
  (* Read-back: a sample of the keys each client inserted, by value. *)
  let rb = tally () in
  for c = 0 to clients - 1 do
    let lo = nloaded + (c * fresh_pc) in
    let step = max 1 ((cursor.(c) - lo) / 1000) in
    let i = ref lo in
    while !i < cursor.(c) do
      (match Art.lookup t (Ycsb.key_string p !i) with
      | Some v when v = !i -> ()
      | _ -> wrong rb "inserted key %d not read back" !i);
      i := !i + step
    done
  done;
  let detail =
    [
      ("loaded_keys", Obs.Json.int nloaded);
      ("closed_samples", Obs.Json.int closed.n_u);
      ("spin_iters_per_ns", Obs.Json.Num charge_rate);
      ("spin_flush_ns", Obs.Json.Num charge_flush);
      ("spin_fence_ns", Obs.Json.Num charge_fence);
    ]
  in
  match phases with
  | None ->
      ( merge_with rb tallies,
        Report.end_to_end ~setup_s ~closed:closed.samples ~rss_mb:(peak_rss_mb 0),
        detail )
  | Some (low, high) ->
      check_gen ctx ~low ~high;
      let w = closed.win in
      let per x = float_of_int x /. float_of_int (max 1 closed.acked_u) in
      let l =
        {
          Report.bypassed with
          Report.clwb_per_op = per w.clwb;
          sfence_per_op = per w.sfence;
          reads_missed = float_of_int (merge_with rb tallies).reads_missed;
          trace_overhead_frac = trace_overhead closed;
        }
      in
      let l = process_metrics l w ~acked:closed.acked_u ~charged:true in
      let l = gen_metrics l ~closed:closed.samples ~low ~high in
      (* Layer slices, on this domain, over the same op mix. *)
      let srng = rng ctx [ 3 ] in
      let plan =
        {
          Slice.read =
            (fun g ->
              let i = Util.Rng.below g nloaded in
              if not (d.Ycsb.read i) then wrong rb "loaded key %d not found" i);
          write = (fun _ -> d.Ycsb.insert (fresh 0));
          write_pct = 50;
        }
      in
      let l =
        Slice.index ~plan ~rng:srng ~timed:(Profile.slice_timed ~smoke:ctx.smoke)
          ~counted:(Profile.slice_counted ~smoke:ctx.smoke)
          l
      in
      (* The frames this workload's operations would be as single-op
         requests to the service. *)
      let frames =
        Array.init (Profile.wire_frames ~smoke:ctx.smoke) (fun i ->
            let j = Util.Rng.below srng nloaded in
            let k = Ycsb.key_string p j in
            let op, reply =
              if Util.Rng.below srng 100 < 50 then (Wire.Put (k, j), Wire.Done true)
              else (Wire.Get k, Wire.Found j)
            in
            ( { Wire.rid = i; ops = [ op ] },
              { Wire.rrid = i; status = Wire.Ok; replies = [ reply ] } ))
      in
      let l = Slice.wire frames l in
      let path = write_traceview ctx name spans in
      ( merge_with rb tallies,
        Report.per_layer l,
        ("trace_file", Obs.Json.Str path)
        :: phase_detail "ol_low" low :: phase_detail "ol_high" high :: detail )
