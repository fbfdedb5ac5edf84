(* Optional latency injection for persistence primitives.

   In the basic simulator a clwb is a counter bump, which makes the cost of
   the RECIPE conversion invisible in wall-clock terms.  This module lets
   benchmarks charge a configurable busy-wait per flush and per fence,
   modeling the write-path stalls real persistent memory imposes (Optane DC
   write latencies are in the 100ns+ range; see Izraelevitz et al. 2019).

   Disabled (zero cost) by default; enable only in single-purpose
   experiments — the busy-wait burns CPU, which on this one-core container
   also slows every other domain. *)

let flush_ns = ref 0
let fence_ns = ref 0

(* Calibrated spin: iterations per nanosecond, measured once.  Forced from
   function bodies, which pmlint flags in general; here [set] forces it on
   the calling domain before any charge is on, so no spin can race the
   first force. *)
let iters_per_ns =
  lazy
    (let target = 5_000_000 in
     let t0 = Unix.gettimeofday () in
     let x = ref 0 in
     for i = 1 to target do
       x := !x lxor i
     done;
     ignore (Sys.opaque_identity !x);
     let dt = Unix.gettimeofday () -. t0 in
     Float.max 0.01 (float_of_int target /. (dt *. 1e9)))
[@@pm.lazy_safe "Latency.set forces it before any spin"]

let spin_ns ns =
  if ns > 0 then begin
    let iters = int_of_float (float_of_int ns *. Lazy.force iters_per_ns) in
    let x = ref 0 in
    for i = 1 to iters do
      x := !x lxor i
    done;
    ignore (Sys.opaque_identity !x)
  end

let on_flush () = if !flush_ns > 0 then spin_ns !flush_ns
let on_fence () = if !fence_ns > 0 then spin_ns !fence_ns

(** [set ~flush ~fence] charges the given busy-wait (ns) per clwb / sfence;
    [set ~flush:0 ~fence:0] disables.  Enabling any charge forces the spin
    calibration immediately: lazily it would fire inside the *first timed
    flush*, landing a 5M-iteration calibration loop in a measured region and
    corrupting that run's first latency sample. *)
let set ~flush ~fence =
  flush_ns := flush;
  fence_ns := fence;
  if flush > 0 || fence > 0 then ignore (Lazy.force iters_per_ns : float)
