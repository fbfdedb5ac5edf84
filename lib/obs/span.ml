(* Request-lifecycle phase timing for the served path.

   A span follows one routed operation through the serving pipeline and is
   stamped with monotonic-ns phase boundaries:

     submit --route--> enqueue --queue wait--> dequeue --apply--> applied
            --parked until epoch close--> epoch --flush+fence--> fenced
            --wake + contribute--> ack

   so the derived phases decompose ack latency:

     queue      = dequeue - enqueue  (waiting in the shard ring)
     apply      = applied - dequeue  (index mutation, within the batch)
     epoch_wait = epoch   - applied  (parked: batch-tail / epoch-close wait)
     fence      = fenced  - epoch    (deferred line flushes + one sfence)
     ack        = ack     - submit   (client-observed; >= sum of the above)

   Every single op is stamped [t_epoch] when its epoch closes, immediately
   before the flush work, so fence is the pure flush+fence cost.  Per-op
   mode closes an epoch after every batch, so its epoch_wait is the
   batch-tail wait; epoch mode additionally accrues the controller's
   deliberate deferral into epoch_wait.

   Off-path discipline mirrors the PSan guard: when disabled, the serving
   hot path pays one ref read per request and allocates nothing (items
   carry a constant [None]).  When enabled, finished spans land in
   per-domain rings ({!Domring}, one per {!Slot}) for Traceview
   export, and a global counter tracks how many spans completed ever. *)

type t = {
  sid : int; (* shard the operation was routed to *)
  domain : int; (* submitting domain id *)
  mutable t_submit : int;
  mutable t_enqueue : int;
  mutable t_dequeue : int;
  mutable t_applied : int;
  mutable t_epoch : int; (* epoch close: parked wait ends, flush work begins *)
  mutable t_fenced : int;
  mutable t_ack : int;
}

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b
let now () = Int64.to_int (Monotonic_clock.now ())
let default_capacity = 4096 (* finished spans retained per slot *)
let rings : t Domring.t = Domring.create ~capacity:default_capacity
let capacity () = Domring.capacity rings
let set_capacity n = Domring.set_capacity rings n

(* Spans finished ever (including ones since overwritten in the rings). *)
let finished = Atomic.make 0

let start ~sid =
  let ts = now () in
  {
    sid;
    domain = (Domain.self () :> int);
    t_submit = ts;
    t_enqueue = ts;
    t_dequeue = ts;
    t_applied = ts;
    t_epoch = ts;
    t_fenced = ts;
    t_ack = ts;
  }

(* Stamp the ack boundary and retain the span; called by the submitter
   after its wait completes, so every stamp is already published. *)
let finish sp =
  sp.t_ack <- now ();
  Atomic.incr finished;
  Domring.record rings sp

let queue_ns sp = max 0 (sp.t_dequeue - sp.t_enqueue)
let apply_ns sp = max 0 (sp.t_applied - sp.t_dequeue)
let epoch_ns sp = max 0 (sp.t_epoch - sp.t_applied)
let fence_ns sp = max 0 (sp.t_fenced - sp.t_epoch)
let ack_ns sp = max 0 (sp.t_ack - sp.t_submit)

(** Phase name/extractor pairs, in pipeline order — the shared vocabulary
    for histograms, bench JSON and the trace export. *)
let phases =
  [
    ("queue", queue_ns);
    ("apply", apply_ns);
    ("epoch_wait", epoch_ns);
    ("fence", fence_ns);
    ("ack", ack_ns);
  ]

let count () = Atomic.get finished

(** Retained finished spans, oldest submit first. *)
let dump () =
  List.sort (fun a b -> compare a.t_submit b.t_submit) (Domring.dump rings)

let dropped () = Domring.dropped rings

let clear () =
  Domring.clear rings;
  Atomic.set finished 0
