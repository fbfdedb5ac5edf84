(** Deterministic fault plans over the {!Pmem.Hook} seam.

    A plan is the seam's fault layer: it intercepts the substrate's
    allocation/store/flush/fence stream (with no layer installed the
    accessors pay one bit in the flags test they already perform) and
    injects exactly one fault:

    - {!Crash_at_flush}/{!Crash_at_fence}: raise
      {!Pmem.Crash.Simulated_crash} at the k-th flush/fence, optionally
      restricted to one {!Obs.Site} by name ("P-CLHT/slot-commit") — the
      flush is skipped, the line stays dirty;
    - {!Crash_at_store}: crash at the k-th persistent store (just before a
      plain store lands, just after a successful read-modify-write) —
      strictly more crash positions than the index's own declared
      {!Pmem.Crash.point}s;
    - {!Alloc_fail}: raise {!Pmem.Hook.Alloc_failed} at the k-th
      allocation, before the object exists;
    - {!Torn_flush}: at the k-th flush, persist only a store-order prefix
      ([keep mod (pending+1)] stores) of the flushed line's unflushed
      stores, then crash — a line torn by early eviction.

    Plans are one-shot: firing disarms everything first, so recovery runs
    injection-free unless the test arms a fresh plan (crash-during-recovery).
    All counters are process-global atomics, so a fixed seed produces the
    same fault position in single-domain runs and the same fault *count* in
    multi-domain runs. *)

type plan =
  | Crash_at_flush of { site : string option; k : int }
  | Crash_at_fence of { site : string option; k : int }
  | Crash_at_store of { k : int }
  | Alloc_fail of { k : int }
  | Torn_flush of { k : int; keep : int }

val describe : plan -> string

val arm : plan -> unit
(** Install [plan] as the seam's fault layer.  Replaces any armed plan. *)

val disarm : unit -> unit
(** Remove the fault layer.  Idempotent. *)

val armed : unit -> bool
(** A plan is installed and has not fired yet. *)

val fire_count : unit -> int
(** Process-global count of faults injected by this module. *)

val random_plan : Util.Rng.t -> max_events:int -> plan
(** Draw a plan kind and position from [rng]; positions land in
    [1, max_events] (a position past the run's last event never fires,
    yielding a legal crash-free state). *)

type event_counts = {
  flushes : int;
  fences : int;
  stores : int;
  allocs : int;
}

val count_events : (unit -> unit) -> event_counts
(** Run a closure with counting hooks (nothing fires) and report its event
    totals — for sizing deterministic plans, like {!Pmem.Crash.count_points}. *)
