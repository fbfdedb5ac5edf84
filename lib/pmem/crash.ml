(* Crash-point injection (paper §5).

   Insert and structure-modification operations in the converted indexes are
   sequences of a small number of ordered atomic stores.  Index code marks the
   boundary after each such store with [point ()].  A test campaign arms the
   points either probabilistically (the paper's consistency test loads 10K
   entries "allowing it to crash probabilistically") or deterministically at
   the n-th point (to enumerate every crash position of one operation, the
   paper's "simulate a crash after each atomic store").

   Firing raises [Simulated_crash]; the operation unwinds without any
   clean-up, leaving the index partially modified, exactly as §5 prescribes.
   The harness catches the exception at the operation boundary and — under
   shadow mode — calls [Pmem.simulate_power_failure] to also discard every
   store that was never flushed, which is stricter than the paper's
   DRAM-emulation of crashes. *)

exception Simulated_crash

type arming =
  | Disarmed
  | Probability of { mutable state : int; threshold : int }
  | Countdown of int Atomic.t

let arming = ref Disarmed

let disarm () = arming := Disarmed

(* xorshift64*; good enough to pick crash points uniformly. *)
let next_random st =
  let x = st lxor (st lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  x land max_int

let arm ~probability ~seed =
  if probability < 0.0 || probability > 1.0 then
    invalid_arg "Crash.arm: probability out of range";
  (* [max_int] is not exactly float-representable; cap the threshold and
     treat the cap as "always fire" so probability 1.0 is exact. *)
  let threshold =
    if probability >= 1.0 then max_int
    else int_of_float (probability *. 4503599627370496.0) lsl 10
  in
  let seed = if seed = 0 then 0x2545F4914F6CDD1D else seed in
  arming := Probability { state = seed; threshold }

(* Fire exactly at the [n]-th crash point from now (1-based). *)
let arm_at n =
  if n <= 0 then invalid_arg "Crash.arm_at: n must be positive";
  arming := Countdown (Atomic.make n)

let fire site =
  arming := Disarmed;
  Stats.incr_crashes ();
  if !Mode.flags land Mode.f_hooked <> 0 then (!Hook.h).crash ();
  (match site with
  | Some s ->
      Obs.Site.crash_fire s;
      Obs.Trace.record Obs.Trace.Crash_fired (Obs.Site.name s)
  | None -> Obs.Trace.record Obs.Trace.Crash_fired "untagged");
  raise Simulated_crash

(* A crash-point boundary.  [site] names the structural location (an
   {!Obs.Site.t} declared with [~crash:true]); visits and injected crashes
   are counted per site, which is what the coverage report of
   [crash_check] compares against the declared set.  Disarmed points cost a
   single ref read, as before — throughput runs are unaffected. *)
let point ?site () =
  match !arming with
  | Disarmed -> ()
  | Probability p ->
      Stats.incr_crash_points ();
      (match site with
      | Some s ->
          Obs.Site.crash_visit s;
          Obs.Trace.record Obs.Trace.Crash_point (Obs.Site.name s)
      | None -> ());
      let r = next_random p.state in
      p.state <- r;
      if p.threshold = max_int || r < p.threshold then fire site
  | Countdown c ->
      Stats.incr_crash_points ();
      (match site with
      | Some s ->
          Obs.Site.crash_visit s;
          Obs.Trace.record Obs.Trace.Crash_point (Obs.Site.name s)
      | None -> ());
      if Atomic.fetch_and_add c (-1) = 1 then fire site

(* Number of crash points an operation passes through: run [f] with a
   countdown that never fires and report how many points were visited.  Used
   by tests to enumerate crash positions exhaustively. *)
let count_points f =
  let before = Obs.Counter.value Stats.crash_points in
  arming := Countdown (Atomic.make max_int);
  Fun.protect ~finally:disarm f;
  Obs.Counter.value Stats.crash_points - before
