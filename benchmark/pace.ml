(* Open-loop arrival schedules and latency accounting free of coordinated
   omission.

   An open-loop phase fixes every request's due time in advance (Poisson
   arrivals at a stated rate).  Latency counts from the due time, not from
   when the request was actually sent: if the system stalls, every request
   due during the stall is charged the time it spent waiting, exactly as
   an independent user arriving then would experience it.  How late the
   generator sent ([lag]) and how much work was still unfinished when the
   schedule ended ([backlog]) say whether the phase measured the system or
   an overloaded generator. *)

(** Poisson due times (ns from phase start) at [rate] requests per second
    over [duration_ns]; deterministic in [rng]. *)
let poisson ~rng ~rate ~duration_ns =
  if rate <= 0. then invalid_arg "Pace.poisson: rate must be positive";
  let mean_gap = 1e9 /. rate in
  let acc = ref [] and t = ref 0. and n = ref 0 in
  let go = ref true in
  while !go do
    (* U in (0, 1], so the log is finite.  (Util.Rng.float spans [0, 2).) *)
    let u =
      float_of_int ((Util.Rng.next rng land ((1 lsl 53) - 1)) + 1) /. 9007199254740992.
    in
    t := !t -. (mean_gap *. log u);
    if !t >= float_of_int duration_ns then go := false
    else begin
      acc := int_of_float !t :: !acc;
      incr n
    end
  done;
  let a = Array.make !n 0 in
  List.iteri (fun i d -> a.(!n - 1 - i) <- d) !acc;
  a

type phase = {
  s : Measure.samples;  (** stamped by due time; latency = done - due *)
  lag : int array;  (** sent - ready: how late the generator itself was *)
  svc : int array;  (** done - sent: time in the system *)
  backlog : int;  (** requests due by the last due time but not done then *)
}

(** Account one phase from absolute stamps: [t0] is the schedule origin,
    [due] the offsets from it over a schedule of [duration_ns]; [ready] is
    the earliest each request could have been sent (its due time, or for a
    synchronous client the later of that and its predecessor's reply),
    [sent]/[done_] when it left the generator and when its reply arrived,
    [ops] the operations it got acknowledged. *)
let account ~t0 ~duration_ns ~due ~ready ~sent ~done_ ~ops =
  let n = Array.length due in
  let t_last = if n = 0 then t0 else t0 + due.(n - 1) in
  let at = Array.map (fun d -> t0 + d) due in
  let backlog = ref 0 in
  Array.iter (fun d -> if d > t_last then incr backlog) done_;
  {
    s =
      {
        Measure.at;
        lat = Array.init n (fun i -> done_.(i) - at.(i));
        ops;
        t_lo = t0;
        t_hi = t0 + duration_ns;
      };
    lag = Array.init n (fun i -> sent.(i) - ready.(i));
    svc = Array.init n (fun i -> done_.(i) - sent.(i));
    backlog = !backlog;
  }

(** A synchronous client: each request runs to completion before the next
    is sent.  A request whose due time has passed is sent at once — the
    schedule is never shifted — so time spent behind a slow predecessor
    stays in its latency.  Request [i] is built by [prep i] before its due
    time and sent by [exec], which returns the operations acknowledged.
    [now] and [wait_until] are the clock (injected so the accounting can
    be tested against a simulated one). *)
let run_sync ~now ~wait_until ~t0 ~duration_ns ~due ~prep ~exec =
  let n = Array.length due in
  let ready = Array.make n 0 and sent = Array.make n 0 in
  let done_ = Array.make n 0 and ops = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = prep i in
    wait_until (t0 + due.(i));
    sent.(i) <- now ();
    ready.(i) <- max (t0 + due.(i)) (if i = 0 then t0 else done_.(i - 1));
    ops.(i) <- exec r;
    done_.(i) <- now ()
  done;
  account ~t0 ~duration_ns ~due ~ready ~sent ~done_ ~ops

(** One phase of several clients as one. *)
let merge = function
  | [] -> invalid_arg "Pace.merge"
  | p :: _ as ps ->
      let cat f = Array.concat (List.map f ps) in
      {
        s =
          {
            Measure.at = cat (fun p -> p.s.Measure.at);
            lat = cat (fun p -> p.s.Measure.lat);
            ops = cat (fun p -> p.s.Measure.ops);
            t_lo = p.s.Measure.t_lo;
            t_hi = p.s.Measure.t_hi;
          };
        lag = cat (fun p -> p.lag);
        svc = cat (fun p -> p.svc);
        backlog = List.fold_left (fun a p -> a + p.backlog) 0 ps;
      }

let now () = Int64.to_int (Monotonic_clock.now ())

(* Sleep through most of a long wait, spin the last stretch: the kernel
   wakes a sleeper tens of microseconds late, which would read as
   generator lag. *)
let spin_window_ns = 150_000

let wait_until deadline =
  let rem = deadline - now () in
  if rem > spin_window_ns then
    Unix.sleepf (float_of_int (rem - spin_window_ns) /. 1e9);
  while now () < deadline do
    Domain.cpu_relax ()
  done
