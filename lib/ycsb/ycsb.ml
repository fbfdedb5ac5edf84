(* YCSB workload generation and execution (see ycsb.mli). *)

type workload = Load_a | A | B | C | E

let workload_name = function
  | Load_a -> "LoadA"
  | A -> "A"
  | B -> "B"
  | C -> "C"
  | E -> "E"

let workload_of_string s =
  match String.lowercase_ascii s with
  | "loada" | "load_a" | "load" -> Some Load_a
  | "a" -> Some A
  | "b" -> Some B
  | "c" -> Some C
  | "e" -> Some E
  | _ -> None

let all_workloads = [ Load_a; A; B; C; E ]

(* Fraction of operations that are inserts (reads otherwise; E replaces
   reads with scans), per Table 3. *)
let insert_percent = function Load_a -> 100 | A -> 50 | B -> 5 | C -> 0 | E -> 5

let max_scan_length = 100

type key_kind = Randint | Strkey
type distribution = Uniform | Zipfian of float

(* Scrambled-Zipfian sampler over [0, n) (Gray et al., as in YCSB): ranks
   drawn Zipfian are scrambled by a multiplicative hash so the hot keys are
   spread across the key space. *)
type zipf = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  scramble : int array; (* rank -> key-universe index, precomputed *)
}

let make_zipf n theta =
  let zetan = ref 0.0 in
  for i = 1 to n do
    zetan := !zetan +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  let zeta2 = (1.0 /. 1.0) +. (1.0 /. Float.pow 2.0 theta) in
  (* The scramble (multiplicative hash spreading hot ranks over the key
     space) used to cost a 64-bit multiply plus an integer *division* per
     sample; ranks are dense in [0, n), so precompute the whole map once and
     sampling becomes a single array load.  The reduction of the hash into
     [0, n) is Lemire multiply-shift — same family as {!Util.Rng.below} —
     so even the precomputation is division-free. *)
  let scramble =
    Array.init n (fun rank ->
        let h = rank * 0x5DEECE66D land ((1 lsl 30) - 1) in
        (h * n) lsr 30)
  in
  {
    n;
    theta;
    alpha = 1.0 /. (1.0 -. theta);
    zetan = !zetan;
    eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. !zetan));
    scramble;
  }

let zipf_sample z rng =
  let u = Util.Rng.float rng in
  let uz = u *. z.zetan in
  let rank =
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 z.theta then 1
    else
      int_of_float
        (float_of_int z.n *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha)
  in
  let rank = if rank >= z.n then z.n - 1 else rank in
  Array.unsafe_get z.scramble rank

(* Operation encoding in the per-thread streams: opcode 0 = insert, 1 =
   read, 2 = scan; [arg] = key-universe index; [len] = scan length. *)
type stream = { opcodes : Bytes.t; args : int array; lens : Bytes.t }

type prepared = {
  kind : key_kind;
  n_loaded : int;
  workload : workload;
  threads : int;
  int_keys : int array; (* whole universe: loaded + fresh insert keys *)
  str_keys : string array; (* encoded keys, same indexing *)
  streams : stream array; (* one per thread *)
  seed : int; (* the run's seed, carried into every result *)
}

type driver = {
  dname : string;
  insert : int -> unit;
  read : int -> bool;
  scan : (int -> int -> int) option;
}

exception Scan_unsupported of string

type result = {
  workload : workload;
  threads : int;
  ops : int;
  seconds : float;
  mops : float;
  reads_found : int;
  reads_missed : int;
  scanned_total : int;
  latency : Util.Histogram.t option;
  lat_insert : Util.Histogram.t option;
  lat_read : Util.Histogram.t option;
  lat_scan : Util.Histogram.t option;
  seed : int;  (* the seed the workload was prepared with *)
}

let nloaded p = p.n_loaded
let kind p = p.kind
let key_string p i = p.str_keys.(i)
let key_int p i = p.int_keys.(i)

let prepare ~workload ~kind ?(dist = Uniform) ~nloaded ~nops ~threads ~seed () =
  if nloaded <= 0 || nops < 0 || threads <= 0 then
    invalid_arg "Ycsb.prepare: bad sizes";
  let rng = Util.Rng.create seed in
  let pick_loaded =
    match dist with
    | Uniform -> fun rng -> Util.Rng.below rng nloaded
    | Zipfian theta ->
        let z = make_zipf nloaded theta in
        fun rng -> zipf_sample z rng
  in
  let n_inserts = nops * insert_percent workload / 100 in
  let universe = nloaded + n_inserts in
  (* Unique random integer keys for the whole universe. *)
  let seen = Hashtbl.create (2 * universe) in
  let int_keys =
    Array.init universe (fun _ ->
        let rec fresh () =
          let k = Util.Rng.key rng in
          if Hashtbl.mem seen k then fresh ()
          else begin
            Hashtbl.add seen k ();
            k
          end
        in
        fresh ())
  in
  let str_keys =
    match kind with
    | Randint -> Array.map Util.Keys.encode_int int_keys
    | Strkey ->
        (* 24-byte YCSB keys derived from the random ids: uniform and
           unique. *)
        Array.map (fun k -> Util.Keys.string_key k) int_keys
  in
  (* Static split: thread i executes ops [i*per, i*per+per). Fresh insert
     keys are handed out in order so every insert targets a unique key. *)
  let per = nops / threads in
  let next_fresh = ref nloaded in
  let streams =
    Array.init threads (fun tid ->
        (* One private Rng stream per worker, derived once from the run
           seed: a worker's operation mix no longer depends on how many
           draws the other workers' streams consumed (the universe rng
           above is left untouched here), and generating the same worker
           again — another phase, another index — replays the same
           stream. *)
        let rng = Util.Rng.create (seed + (31 * tid) + 7) in
        let opcodes = Bytes.create (max 1 per) in
        let args = Array.make (max 1 per) 0 in
        let lens = Bytes.create (max 1 per) in
        for j = 0 to per - 1 do
          let is_insert = Util.Rng.below rng 100 < insert_percent workload in
          if is_insert && !next_fresh < universe then begin
            Bytes.set opcodes j '\000';
            args.(j) <- !next_fresh;
            incr next_fresh
          end
          else if workload = E then begin
            Bytes.set opcodes j '\002';
            args.(j) <- pick_loaded rng;
            Bytes.set lens j (Char.chr (1 + Util.Rng.below rng max_scan_length))
          end
          else begin
            Bytes.set opcodes j '\001';
            args.(j) <- pick_loaded rng
          end
        done;
        { opcodes; args; lens })
  in
  {
    kind;
    n_loaded = nloaded;
    workload;
    threads;
    int_keys;
    str_keys;
    streams;
    seed;
  }

(* Monotonic timestamp in integer nanoseconds (a noalloc, unboxed
   clock_gettime(CLOCK_MONOTONIC) stub).  The latency path used to call
   [Unix.gettimeofday] twice per operation: wall-clock time (steppable by
   NTP, so samples can even go negative), a float box each call, and a
   measurable perturbation of the throughput the run annotates.  Combined
   with every-Kth-op sampling ([?sample]) the instrumented run converges on
   the uninstrumented one. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) /. 1e9

(* Spawn [threads] domains running [body tid], measuring wall time from a
   common start barrier to the last join. *)
let timed_domains threads body =
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let worker tid () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    body tid
  in
  let domains = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  while Atomic.get ready < threads do
    Domain.cpu_relax ()
  done;
  let t0 = now () in
  Atomic.set go true;
  let results = List.map Domain.join domains in
  (* Join edge for the sanitizer's race check (no-op unless sanitizing). *)
  Pmem.sanitize_sync ();
  let dt = now () -. t0 in
  (dt, results)

(* Merge the thread-local histograms at position [c]; [None] if no thread
   recorded anything there. *)
let merge_class per_thread c =
  let h = Util.Histogram.create () in
  List.iter
    (fun hists ->
      match hists with Some hs -> Util.Histogram.merge h hs.(c) | None -> ())
    per_thread;
  if Util.Histogram.count h = 0 then None else Some h

let load ?(latency = false) ?(sample = 1) (p : prepared) driver =
  if sample <= 0 then invalid_arg "Ycsb.load: sample must be positive";
  let threads = p.threads in
  let per = p.n_loaded / threads in
  let body tid =
    let lo = tid * per in
    let hi = if tid = threads - 1 then p.n_loaded else lo + per in
    let hists =
      if latency then Some (Array.init 1 (fun _ -> Util.Histogram.create ()))
      else None
    in
    (match hists with
    | None ->
        for i = lo to hi - 1 do
          driver.insert i
        done
    | Some hs ->
        (* Countdown instead of [i mod sample]: no division per op. *)
        let until_sample = ref 1 in
        for i = lo to hi - 1 do
          decr until_sample;
          if !until_sample = 0 then begin
            until_sample := sample;
            let t0 = now_ns () in
            driver.insert i;
            Util.Histogram.add hs.(0) (now_ns () - t0)
          end
          else driver.insert i
        done);
    hists
  in
  let dt, per_thread = timed_domains threads body in
  let merged = merge_class per_thread 0 in
  {
    workload = Load_a;
    threads;
    ops = p.n_loaded;
    seconds = dt;
    mops = float_of_int p.n_loaded /. dt /. 1e6;
    reads_found = 0;
    reads_missed = 0;
    scanned_total = 0;
    latency = merged;
    lat_insert = merged;
    lat_read = None;
    lat_scan = None;
    seed = p.seed;
  }

(* Operation class of an opcode: 0 = insert, 1 = read, 2 = scan. *)
let op_class = function '\000' -> 0 | '\001' -> 1 | _ -> 2
let op_label = [| "insert"; "read"; "scan" |]

let run ?(latency = false) ?(sample = 1) (p : prepared) driver =
  if sample <= 0 then invalid_arg "Ycsb.run: sample must be positive";
  (* Fail fast: an unordered index cannot execute workload E at all. *)
  (match (p.workload, driver.scan) with
  | E, None -> raise (Scan_unsupported driver.dname)
  | _ -> ());
  let scan_fn =
    match driver.scan with
    | Some f -> f
    | None -> fun _ _ -> raise (Scan_unsupported driver.dname)
  in
  let threads = p.threads in
  let body tid =
    let s = p.streams.(tid) in
    let n = Array.length s.args in
    let found = ref 0 and missed = ref 0 and scanned = ref 0 in
    let hists =
      if latency then Some (Array.init 3 (fun _ -> Util.Histogram.create ()))
      else None
    in
    let exec j =
      match Bytes.unsafe_get s.opcodes j with
      | '\000' -> driver.insert s.args.(j)
      | '\001' -> if driver.read s.args.(j) then incr found else incr missed
      | _ ->
          scanned :=
            !scanned + scan_fn s.args.(j) (Char.code (Bytes.get s.lens j))
    in
    let exec j =
      if Obs.Trace.enabled () then begin
        let lbl = op_label.(op_class (Bytes.unsafe_get s.opcodes j)) in
        Obs.Trace.record Obs.Trace.Op_begin ~arg:s.args.(j) lbl;
        exec j;
        Obs.Trace.record Obs.Trace.Op_end ~arg:s.args.(j) lbl
      end
      else exec j
    in
    (match hists with
    | None ->
        for j = 0 to n - 1 do
          exec j
        done
    | Some hs ->
        let until_sample = ref 1 in
        for j = 0 to n - 1 do
          decr until_sample;
          if !until_sample = 0 then begin
            until_sample := sample;
            let c = op_class (Bytes.unsafe_get s.opcodes j) in
            let t0 = now_ns () in
            exec j;
            Util.Histogram.add hs.(c) (now_ns () - t0)
          end
          else exec j
        done);
    (!found, !missed, !scanned, hists)
  in
  let dt, per_thread = timed_domains threads body in
  let ops = Array.length p.streams.(0).args * threads in
  let reads_found = List.fold_left (fun a (f, _, _, _) -> a + f) 0 per_thread in
  let reads_missed = List.fold_left (fun a (_, m, _, _) -> a + m) 0 per_thread in
  let scanned_total = List.fold_left (fun a (_, _, s, _) -> a + s) 0 per_thread in
  let hist_lists = List.map (fun (_, _, _, ho) -> ho) per_thread in
  let lat_insert = merge_class hist_lists 0 in
  let lat_read = merge_class hist_lists 1 in
  let lat_scan = merge_class hist_lists 2 in
  let merged =
    if not latency then None
    else begin
      let h = Util.Histogram.create () in
      List.iter
        (fun ho ->
          match ho with
          | Some x -> Array.iter (Util.Histogram.merge h) x
          | None -> ())
        hist_lists;
      Some h
    end
  in
  {
    workload = p.workload;
    threads;
    ops;
    seconds = dt;
    mops = float_of_int ops /. dt /. 1e6;
    reads_found;
    reads_missed;
    scanned_total;
    latency = merged;
    lat_insert;
    lat_read;
    lat_scan;
    seed = p.seed;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%-5s threads=%-2d ops=%-9d %.3fs  %8.3f Mops/s  (found=%d missed=%d \
     scanned=%d seed=%d)"
    (workload_name r.workload) r.threads r.ops r.seconds r.mops r.reads_found
    r.reads_missed r.scanned_total r.seed
