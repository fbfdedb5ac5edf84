(* Shared plumbing for the four workloads: the run context, per-client
   tallies of attempted/failed/wrong operations, process probes (peak RSS,
   CPU time, GC), the checked persistent-memory charge, and the phase
   drivers that run a team of synchronous clients closed- or open-loop. *)

type ctx = {
  seed : int;
  seconds : float;  (** measured time of one run, split over its phases *)
  trace : bool;  (** per-layer run instead of the end-to-end one *)
  smoke : bool;  (** tiny sizes: a self-test of the whole pipeline *)
  trace_dir : string;  (** where the Perfetto trace of a traced run goes *)
}

exception Invalid_run of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_run s)) fmt
let now = Pace.now

(* A seed for stream [parts] of this run, so every phase and client draws
   from its own deterministic sequence. *)
let sub_seed ctx parts =
  List.fold_left (fun h p -> ((h * 1_000_003) lxor p) land max_int) ctx.seed parts

let rng ctx parts = Util.Rng.create (sub_seed ctx parts)

(** [n] distinct keys in [1, 2^40], so that a value of 3 × key stays far
    inside the wire's 63 bits. *)
let distinct_keys g n =
  let seen = Hashtbl.create n in
  let rec draw () =
    let k = 1 + Util.Rng.below g (1 lsl 40) in
    if Hashtbl.mem seen k then draw ()
    else begin
      Hashtbl.add seen k ();
      k
    end
  in
  Array.init n (fun _ -> draw ())

(** [l] in consecutive pieces of at most [n]. *)
let rec chunks n l =
  if l = [] then []
  else
    let piece = List.filteri (fun i _ -> i < n) l in
    piece :: chunks n (List.filteri (fun i _ -> i >= n) l)

(* --- tallies ------------------------------------------------------------ *)

(** What one client saw.  [wrong] is a reply that contradicts the model
    (a wrong value, a missing key, an unexpected status): it fails the run.
    [failed] is an operation the system refused or aborted: it is counted,
    not fatal. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable first_wrong : string;
  mutable acked : int;  (** operations acknowledged *)
  mutable reads_missed : int;
  mutable overloaded : int;  (** Overloaded replies (requests) *)
  mutable requests : int;  (** requests sent, retries included *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    wrong = 0;
    first_wrong = "";
    acked = 0;
    reads_missed = 0;
    overloaded = 0;
    requests = 0;
  }

let wrong t fmt =
  Printf.ksprintf
    (fun s ->
      if t.wrong = 0 then t.first_wrong <- s;
      t.wrong <- t.wrong + 1)
    fmt

let sum ts f = Array.fold_left (fun a t -> a + f t) 0 ts

(** One tally for the whole run: the clients' and any read-back's. *)
let merge_with rb clients =
  let ts = Array.append clients [| rb |] in
  let m = tally () in
  m.attempted <- sum ts (fun t -> t.attempted);
  m.acked <- sum ts (fun t -> t.acked);
  m.failed <- sum ts (fun t -> t.failed);
  m.wrong <- sum ts (fun t -> t.wrong);
  m.reads_missed <- sum ts (fun t -> t.reads_missed);
  m.overloaded <- sum ts (fun t -> t.overloaded);
  m.requests <- sum ts (fun t -> t.requests);
  m.first_wrong <-
    (match Array.find_opt (fun t -> t.wrong > 0) ts with
    | Some t -> t.first_wrong
    | None -> "");
  m

(* --- process probes ------------------------------------------------------ *)

(** A field of /proc/<pid>/status in kB (VmHWM is the peak resident set). *)
let proc_status_kb pid field =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> invalid "%s has no %s" path field
        | l ->
            let p = field ^ ":" in
            let lp = String.length p in
            if String.length l > lp && String.sub l 0 lp = p then
              Scanf.sscanf (String.sub l lp (String.length l - lp)) " %d" Fun.id
            else go ()
      in
      go ())

let peak_rss_mb pid = float_of_int (proc_status_kb pid "VmHWM") /. 1024.

(** CPU time of this process (all domains), ns. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

type probe = { pm : Pmem.Stats.snapshot; gc : Gc.stat; cpu : int }

let probe () = { pm = Pmem.Stats.snapshot (); gc = Gc.quick_stat (); cpu = cpu_ns () }

(** Differences accumulated over one or more probe windows. *)
type window = {
  mutable clwb : int;
  mutable sfence : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable majors : int;
  mutable cpu_ns : int;
}

let window () =
  {
    clwb = 0;
    sfence = 0;
    minor_words = 0.;
    promoted_words = 0.;
    majors = 0;
    cpu_ns = 0;
  }

let close_window w a =
  let b = probe () in
  let d = Pmem.Stats.diff b.pm a.pm in
  w.clwb <- w.clwb + d.Pmem.Stats.s_clwb;
  w.sfence <- w.sfence + d.Pmem.Stats.s_sfence;
  w.minor_words <- w.minor_words +. (b.gc.Gc.minor_words -. a.gc.Gc.minor_words);
  w.promoted_words <-
    w.promoted_words +. (b.gc.Gc.promoted_words -. a.gc.Gc.promoted_words);
  w.majors <- w.majors + (b.gc.Gc.major_collections - a.gc.Gc.major_collections);
  w.cpu_ns <- w.cpu_ns + (b.cpu - a.cpu)

(* --- persistent-memory charge ------------------------------------------- *)

(** E14's Optane-like charge for in-process workloads: a busy-wait per
    clwb and per sfence. *)
let flush_ns = 100
let fence_ns = 30

(* Time of one [Pmem.Latency.spin_ns ns] call: the median of 9 batches of
   about 2 ms each.  A batch averages over the short-spin speed's
   millisecond-scale jumps, as a run's many flushes do; the median drops a
   batch a preemption hit. *)
let spin_cost ns =
  let batch = max 1000 (2_000_000 / max 1 ns) in
  Measure.median_f
    (List.init 9 (fun _ ->
         let t0 = now () in
         for _ = 1 to batch do
           Pmem.Latency.spin_ns ns
         done;
         float_of_int (now () - t0) /. float_of_int batch))

(** Turn the charge on and check it against the clock.  The spin loop is
    calibrated once per process from a few milliseconds of timing, and on
    a shared 2-core VM a short spin's speed swings by a third or more from
    one tenth of a second to the next.  So the benchmark measures what a
    requested spin really costs (median of 5 measurements), scales the
    request to hit the target, and checks the result the same way: a run
    whose charge — one flush plus one fence, 130 ns — is still off by more
    than 15% after 4 attempts is rejected.  (The 30 ns fence alone swings
    by a quarter with the host.)  Returns (calibrated iterations per ns,
    measured flush ns, measured fence ns). *)
let set_charge () =
  (* Bring the core to its steady clock before the calibration loop. *)
  let t_end = now () + 50_000_000 in
  while now () < t_end do
    Domain.cpu_relax ()
  done;
  Pmem.Latency.set ~flush:flush_ns ~fence:fence_ns;
  let rate = Lazy.force Pmem.Latency.iters_per_ns in
  let measure req_f req_s =
    Pmem.Latency.set ~flush:req_f ~fence:req_s;
    let xs = List.init 5 (fun _ -> (spin_cost req_f, spin_cost req_s)) in
    (Measure.median_f (List.map fst xs), Measure.median_f (List.map snd xs))
  in
  let want = float_of_int (flush_ns + fence_ns) in
  let off (f, s) = Float.abs (f +. s -. want) /. want in
  let scale target got =
    max 1 (int_of_float (Float.round (float_of_int target *. float_of_int target /. got)))
  in
  let rec attempt k =
    let f0, s0 = measure flush_ns fence_ns in
    let fs = measure (scale flush_ns f0) (scale fence_ns s0) in
    if off fs <= 0.15 || k = 4 then fs else attempt (k + 1)
  in
  let f, s = attempt 1 in
  if off (f, s) > 0.15 then
    invalid
      "PM charge off by more than 15%%: flush %.1f ns (want %d), fence %.1f ns \
       (want %d), calibration %.3f iterations/ns"
      f flush_ns s fence_ns rate;
  (rate, f, s)

(* --- phase drivers for synchronous in-process clients --------------------- *)

(** One closed-loop stretch: client [c] runs [n] requests back to back
    ([prep c j] untimed, [exec c r] timed; it returns the operations
    acknowledged), stopping early only past [deadline].  Samples are
    stamped at completion over the span in which every client was still
    running. *)
let closed team ~n ~deadline ~prep ~exec ~spans ~span_name ~rid0 =
  let k = Team.size team in
  let lat = Array.init k (fun _ -> Array.make (max 1 n) 0) in
  let at = Array.init k (fun _ -> Array.make (max 1 n) 0) in
  let ops = Array.init k (fun _ -> Array.make (max 1 n) 0) in
  let count = Array.make k 0 in
  let starts = Array.make k max_int and ends = Array.make k 0 in
  Team.run team (fun c ->
      let lat = lat.(c) and at = at.(c) and ops = ops.(c) in
      starts.(c) <- now ();
      let j = ref 0 in
      while !j < n && (!j land 255 <> 0 || now () < deadline) do
        let r = prep c !j in
        let t0 = now () in
        ops.(!j) <- exec c r;
        let t1 = now () in
        lat.(!j) <- t1 - t0;
        at.(!j) <- t1;
        Spans.record spans c span_name (rid0 + (c * n) + !j) t0 t1;
        incr j
      done;
      count.(c) <- !j;
      ends.(c) <- now ());
  let cat a = Array.concat (List.init k (fun c -> Array.sub a.(c) 0 count.(c))) in
  let samples =
    {
      Measure.at = cat at;
      lat = cat lat;
      ops = cat ops;
      t_lo = Array.fold_left max 0 starts;
      t_hi = Array.fold_left min max_int ends;
    }
  in
  let wall = Array.fold_left max 0 ends - Array.fold_left min max_int starts in
  (samples, wall)

(** One open-loop phase at [rate] requests/s in total, split evenly over
    the team's clients, each a Poisson stream of its own. *)
let open_loop team ~rate ~duration_ns ~rngs ~prep ~exec =
  let k = Team.size team in
  let due =
    Array.init k (fun c ->
        Pace.poisson ~rng:rngs.(c) ~rate:(rate /. float_of_int k) ~duration_ns)
  in
  let results = Array.make k None in
  (* A common origin a little ahead, so every client starts on time. *)
  let t0 = now () + 5_000_000 in
  Team.run team (fun c ->
      results.(c) <-
        Some
          (Pace.run_sync ~now ~wait_until:Pace.wait_until ~t0 ~duration_ns ~due:due.(c)
             ~prep:(prep c) ~exec:(exec c)));
  Pace.merge (Array.to_list (Array.map Option.get results))

type closed_result = {
  samples : Measure.samples;  (** the untraced stretch of an end-to-end run *)
  acked_u : int;  (** ops acknowledged in the untraced stretches *)
  wall_u : int;
  lat_sum_u : int;  (** their summed request latency, ns *)
  n_u : int;  (** ... over this many requests *)
  acked_t : int;  (** ops acknowledged in the traced ones (traced run only) *)
  wall_t : int;
  win : window;  (** process probes over the untraced stretches *)
}

let kops acked wall = if wall = 0 then 0. else float_of_int acked /. float_of_int wall *. 1e6

(** The closed-loop phase of an in-process workload: [n] requests per
    client.  An end-to-end run measures it in one untraced stretch.  A
    traced run splits it into four, untraced-traced-traced-untraced, so
    that a slow drift (a growing index, a warming heap) weighs on both
    sides equally; [bracket ~traced f] switches the workload's tracing and
    takes its own snapshots around each stretch [f]. *)
let closed_phase ctx team ~n ~deadline ~prep ~exec ~spans ~span_name ~bracket =
  let plan = if ctx.trace then [ false; true; true; false ] else [ false ] in
  let per = max 1 (n / List.length plan) in
  let win = window () in
  let samples = ref None in
  let au = ref 0 and wu = ref 0 and at = ref 0 and wt = ref 0 in
  let lat_sum = ref 0 and n_u = ref 0 in
  List.iteri
    (fun i traced ->
      let out = ref None in
      bracket ~traced (fun () ->
          let p = probe () in
          out :=
            Some
              (closed team ~n:per ~deadline ~prep ~exec ~spans ~span_name
                 ~rid0:(i * per * Team.size team));
          if not traced then close_window win p);
      let s, wall = Option.get !out in
      let acked = Array.fold_left ( + ) 0 s.Measure.ops in
      if traced then begin
        at := !at + acked;
        wt := !wt + wall
      end
      else begin
        au := !au + acked;
        wu := !wu + wall;
        lat_sum := Array.fold_left ( + ) !lat_sum s.Measure.lat;
        n_u := !n_u + Array.length s.Measure.lat;
        if !samples = None then samples := Some s
      end)
    plan;
  {
    samples = Option.get !samples;
    acked_u = !au;
    wall_u = !wu;
    lat_sum_u = !lat_sum;
    n_u = !n_u;
    acked_t = !at;
    wall_t = !wt;
    win;
  }

(** Traced throughput against untraced: the cost of tracing. *)
let trace_overhead c = 1. -. (kops c.acked_t c.wall_t /. kops c.acked_u c.wall_u)

(** The load generator's view of a traced run: closed-loop p99 of its
    first untraced stretch, and its open-loop phases. *)
let gen_metrics (l : Report.layer) ~closed ~(low : Pace.phase) ~(high : Pace.phase) =
  let lag p = Report.pct_us (Array.copy p.Pace.lag) 0.99 in
  {
    l with
    Report.closed_p99_us = Report.pct_windowed closed 0.99;
    gen_lag_p99_us = Float.max (lag low) (lag high);
    gen_backlog = float_of_int (max low.Pace.backlog high.Pace.backlog);
    ol_low_p50_us = Report.pct_windowed low.Pace.s 0.50;
    ol_low_p99_us = Report.pct_windowed low.Pace.s 0.99;
    ol_high_p50_us = Report.pct_windowed high.Pace.s 0.50;
    ol_high_p99_us = Report.pct_windowed high.Pace.s 0.99;
  }

(** GC and CPU-charge metrics of the untraced stretches. *)
let process_metrics (l : Report.layer) w ~acked ~charged =
  let per x = x /. float_of_int (max 1 acked) in
  {
    l with
    Report.minor_words_per_op = per w.minor_words;
    promoted_words_per_op = per w.promoted_words;
    major_collections = float_of_int w.majors;
    charge_frac =
      (if charged then
         float_of_int ((w.clwb * flush_ns) + (w.sfence * fence_ns))
         /. float_of_int (max 1 w.cpu_ns)
       else 0.);
  }

(** Sample count, latency percentiles and generator lag of a phase, for the
    run's detail line. *)
let phase_detail name (p : Pace.phase) =
  let lat = p.Pace.s.Measure.lat in
  let q a x = Obs.Json.Num (Report.pct_us (Array.copy a) x) in
  ( name,
    Obs.Json.Obj
      [
        ("samples", Obs.Json.int (Array.length lat));
        ("p50_us", q lat 0.50);
        ("p90_us", q lat 0.90);
        ("p99_us", q lat 0.99);
        ("p999_us", q lat 0.999);
        ("max_us", q lat 1.0);
        ("lag_p50_us", q p.Pace.lag 0.50);
        ("lag_p99_us", q p.Pace.lag 0.99);
        ("svc_p50_us", q p.Pace.svc 0.50);
        ("svc_p99_us", q p.Pace.svc 0.99);
        ("svc_max_us", q p.Pace.svc 1.0);
        ("backlog", Obs.Json.int p.Pace.backlog);
      ] )

(** Open-loop phase latencies must describe the system: a phase whose
    generator ran late or left work piling up fails the run.  Smoke-sized
    phases are too short to judge and are only reported. *)
let check_gen ctx ~low ~high =
  let check name (p : Pace.phase) =
    if not (Report.gen_valid p) then
      invalid "open-loop phase %s is invalid: generator lag p99 %.0f us, backlog %d of %d"
        name
        (Report.pct_us (Array.copy p.Pace.lag) 0.99)
        p.Pace.backlog (Array.length p.Pace.lag)
  in
  if not ctx.smoke then begin
    check "low" low;
    check "high" high
  end

(** Median of [k] set-ups; [setup ()] returns its own duration and a value,
    and every value but the last is released by [drop]. *)
let repeated_setup k ~setup ~drop =
  let rec go i times =
    let dt, v = setup () in
    if i = k then (Measure.median_f (dt :: times), v)
    else begin
      drop v;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

(** Where the Perfetto trace of workload [name] goes. *)
let trace_path ctx name =
  (try Unix.mkdir ctx.trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat ctx.trace_dir ("trace-" ^ name ^ ".json")

(** Write the Perfetto trace of in-process workload [name]: its spans and
    everything {!Obs.Traceview} retained, which normalizes its events to
    its own earliest stamp.  Returns the file's path. *)
let write_traceview ctx name spans =
  let m = ref max_int in
  List.iter (fun sp -> m := min !m sp.Obs.Span.t_submit) (Obs.Span.dump ());
  List.iter (fun e -> m := min !m e.Obs.Trace.ts) (Obs.Trace.dump ());
  let program = if !m = max_int then None else Some (Obs.Traceview.to_json ()) in
  let path = trace_path ctx name in
  Spans.write_file path
    (Spans.to_json spans ~label:name ?program ~program_t0:!m
       ~other:[ ("workload", Obs.Json.Str name) ]
       ());
  path
