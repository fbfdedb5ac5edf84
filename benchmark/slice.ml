(* Layer slices of a traced run.  After the measured phases, with every
   client and server domain quiet, the index and the wire codec are each
   driven alone on this domain over the workload's own operations:

   - the index slice times single lookups and writes (art.*_ns), then
     replays the workload's mix with the LLC simulator on (it is not
     thread-safe, hence one domain) for LLC misses, allocated lines and
     P-ART's per-site flush attribution per operation;
   - the wire slice times {!Kvserve.Wire} encode and decode of the
     workload's request and response frames.

   Both run on every workload, including tcp-read-mostly, whose server
   keeps its index in another process: there the slice replays the same
   operations on an in-process copy of that index. *)

module Wire = Kvserve.Wire

let now = Pace.now

type index_plan = {
  read : Util.Rng.t -> unit;  (** one lookup the workload makes (checked) *)
  write : Util.Rng.t -> unit;  (** one write the workload makes *)
  write_pct : int;  (** the workload's share of writes, for the replay *)
}

let art_site_counts () =
  List.map
    (fun s -> (Obs.Site.label s, Obs.Site.clwb_count s, Obs.Site.sfence_count s))
    (Obs.Site.by_index Art.name)

(** Run the index slice; [timed] lookups and writes are timed one by one,
    then [counted] operations warm the simulated LLC and [counted] more are
    counted. *)
let index ~plan ~rng ~timed ~counted (l : Report.layer) =
  let rl = Array.make timed 0 and wl = Array.make timed 0 in
  for i = 0 to timed - 1 do
    let t0 = now () in
    plan.read rng;
    let t1 = now () in
    plan.write rng;
    let t2 = now () in
    rl.(i) <- t1 - t0;
    wl.(i) <- t2 - t1
  done;
  let op () =
    if Util.Rng.below rng 100 < plan.write_pct then plan.write rng
    else plan.read rng
  in
  Pmem.Llc.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Pmem.Llc.set_enabled false)
    (fun () ->
      for _ = 1 to counted do
        op ()
      done;
      let m0 = Pmem.Llc.misses () and s0 = Pmem.Stats.snapshot () in
      let sites0 = art_site_counts () in
      for _ = 1 to counted do
        op ()
      done;
      let d = Pmem.Stats.diff (Pmem.Stats.snapshot ()) s0 in
      let per x = float_of_int x /. float_of_int counted in
      let p50 a = float_of_int (Measure.percentile a timed 0.50) in
      let p99 a = float_of_int (Measure.percentile a timed 0.99) in
      {
        l with
        Report.llc_misses_per_op = per (Pmem.Llc.misses () - m0);
        lines_alloc_per_op = per d.Pmem.Stats.s_lines_allocated;
        art_read_p50_ns = p50 rl;
        art_read_p99_ns = p99 rl;
        art_insert_p50_ns = p50 wl;
        art_insert_p99_ns = p99 wl;
        art_site =
          List.map
            (fun (label, c, f) ->
              let c0, f0 =
                match List.find_opt (fun (s, _, _) -> s = label) sites0 with
                | Some (_, c0, f0) -> (c0, f0)
                | None -> (0, 0)
              in
              (label, per (c - c0), per (f - f0)))
            (art_site_counts ());
      })

(* Median per-frame time of [f] over batches of 64 frames. *)
let per_frame frames f =
  let batch = 64 in
  let n = Array.length frames / batch in
  let xs =
    List.init (4 * n) (fun b ->
        let base = b mod n * batch in
        let t0 = now () in
        for i = base to base + batch - 1 do
          f frames.(i)
        done;
        float_of_int (now () - t0) /. float_of_int batch)
  in
  Measure.median_f xs

(** Run the wire slice over [frames] (each request with the response the
    server sends for it, at least 64 of them). *)
let wire frames (l : Report.layer) =
  let reqs = Array.map (fun (q, _) -> Wire.request_string q) frames in
  let resps = Array.map (fun (_, r) -> Wire.response_string r) frames in
  let ok = function `Ok _ -> () | _ -> failwith "wire slice: frame did not decode" in
  let mean_len a =
    float_of_int (Array.fold_left (fun s x -> s + String.length x) 0 a)
    /. float_of_int (Array.length a)
  in
  {
    l with
    Report.encode_req_ns =
      per_frame frames (fun (q, _) -> ignore (Sys.opaque_identity (Wire.request_string q)));
    decode_req_ns = per_frame reqs (fun s -> ok (Wire.decode_request s 0));
    encode_resp_ns =
      per_frame frames (fun (_, r) ->
          ignore (Sys.opaque_identity (Wire.response_string r)));
    decode_resp_ns = per_frame resps (fun s -> ok (Wire.decode_response s 0));
    req_bytes = mean_len reqs;
    resp_bytes = mean_len resps;
  }
