(* The pinned benchmark profile.

   An end-to-end run ([--trace 0]) spends its [--seconds] on one
   closed-loop phase.  The phase runs a fixed number of requests — the
   workload's nominal rate times the run length — so every run does the
   same work and a faster program simply finishes sooner; it stops early
   only past three times its planned length.

   A traced run ([--trace 1]) spends half its time on the closed loop and
   a quarter each on open-loop phases at a low and a high fixed rate,
   about 20% and 50% of the closed-loop capacity measured when the
   benchmark was defined (2-core x86 VM); at the same offered load, a
   slower program shows as higher latency.

   Sizes shrink under [--smoke], a seconds-long self-test of the whole
   pipeline. *)

type t = {
  closed_rps : float;  (** nominal closed-loop requests/s *)
  low_rps : float;  (** open-loop rates, requests/s over both clients *)
  high_rps : float;
  setups : int;  (** set-ups per end-to-end run; setup_s is their median *)
}

(* Single-op requests on P-ART; 500k loaded keys, which the run's inserts
   grow to about 2.5M: several times the LLC, real or simulated.  Its
   open-loop rates stay low because the OCaml runtime's collector pauses
   the index for milliseconds at a time, and queueing behind those pauses
   would otherwise decide the median. *)
let ycsb = { closed_rps = 400_000.; low_rps = 30_000.; high_rps = 80_000.; setups = 3 }
let ycsb_loaded ~smoke = if smoke then 20_000 else 500_000

(* Single-op requests over TCP, 100k preloaded keys. *)
let tcp = { closed_rps = 36_000.; low_rps = 7_200.; high_rps = 18_000.; setups = 3 }
let tcp_preload ~smoke = if smoke then 2_000 else 100_000

(* 16-put requests over 64 hot keys. *)
let overwrite = { closed_rps = 45_000.; low_rps = 9_000.; high_rps = 22_500.; setups = 5 }

(* One 4-member transaction per request. *)
let txn = { closed_rps = 36_000.; low_rps = 7_200.; high_rps = 18_000.; setups = 5 }

let setups ~smoke p = if smoke then 2 else p.setups

(** Share of a run spent in the closed loop, and in each open-loop phase. *)
let closed_share ~trace = if trace then 0.5 else 1.0
let open_share = 0.25

let ns_of_s s = int_of_float (s *. 1e9)

(** Requests of the closed phase of a run of [seconds]. *)
let closed_requests p ~trace ~seconds =
  max 64 (int_of_float (p.closed_rps *. seconds *. closed_share ~trace))

(** Length of each open-loop phase of a traced run. *)
let open_ns ~seconds = ns_of_s (seconds *. open_share)

(** Past this the closed phase stops early (a much slower program must
    still end a run in bounded time). *)
let closed_deadline ~trace ~seconds =
  Pace.now () + ns_of_s (3. *. seconds *. closed_share ~trace) + 2_000_000_000

(** Operations in each pass of a traced run's layer slices. *)
let slice_timed ~smoke = if smoke then 500 else 20_000
let slice_counted ~smoke = if smoke then 1_000 else 50_000
let wire_frames ~smoke = if smoke then 128 else 2048
