(* Simulated persistent memory.

   This is the substrate every index in this repository runs on.  It models
   the x86 persistence domain the paper reasons with (§2.3):

   - 8-byte failure-atomic stores ({!Words}, {!Refs});
   - a volatile CPU cache in front of persistence — a store is visible to
     other threads immediately but survives a power failure only once its
     cache line has been written back with {!Words.clwb} / {!Refs.clwb};
   - [sfence] ordering (counted; flushes in this simulator apply
     synchronously, so a missing fence cannot reorder them — see DESIGN.md);
   - crash-point injection between the ordered atomic steps of operations
     (§5), and whole-machine power-failure simulation that discards every
     unflushed line ({!simulate_power_failure}).

   The flush/fence counters ({!Stats}) and the LLC simulator ({!Llc}) provide
   the per-operation numbers behind Fig 4c/4d and Table 4. *)

module Stats = Stats
module Llc = Llc
module Crash = Crash
module Mode = Mode
module Words = Words
module Refs = Refs
module Line_id = Line_id
module Latency = Latency
module Sanhook = Sanhook
module Hook = Hook

(** Store fence: orders preceding flushes before subsequent stores.  In this
    simulator flushes apply synchronously, so the fence only counts — the
    counts are the [mfence] column of Fig 4c/4d and Table 4.  [site]
    attributes the fence to an index × structural location. *)
let sfence ?site () =
  let f = !Mode.flags in
  if
    f land (Mode.f_dram lor Mode.f_hooked) = 0
    || (f land Mode.f_dram = 0 && not ((!Hook.h).sfence site))
  then begin
    Stats.record_sfence ?site ();
    Latency.on_fence ()
  end

(** Flush a word and fence — the conversion action of RECIPE Condition #1. *)
let flush_word ?site w i =
  Words.clwb ?site w i;
  sfence ?site ()

let flush_ref ?site r i =
  Refs.clwb ?site r i;
  sfence ?site ()

(** Simulate a power failure: every cache line not yet written back loses its
    contents and reverts to its last-flushed image.  Only meaningful in
    shadow mode; a no-op otherwise. *)
let simulate_power_failure () =
  Tracking.revert_all ();
  (* Post-failure, every surviving line equals its persisted image: the
     sanitizer resets its per-line state machine and pending sets. *)
  if !Mode.flags land Mode.f_hooked <> 0 then (!Hook.h).quiesce ()

(** Write back every dirty line (a clean checkpoint between test phases). *)
let persist_everything () =
  Tracking.persist_all ();
  if !Mode.flags land Mode.f_hooked <> 0 then (!Hook.h).quiesce ()

(** Cross-domain join edge for the sanitizer's race check: call right after
    [Domain.join] so the joining domain is credited with everything the
    joined domain wrote.  A no-op unless a {!Hook} layer is installed. *)
let sanitize_sync () =
  if !Mode.flags land Mode.f_hooked <> 0 then (!Hook.h).sync ()

(** Names of objects with unflushed lines — must be empty at operation
    boundaries for the durability test of §5 to pass. *)
let dirty_objects () = Tracking.dirty_objects ()

let dirty_count () = Tracking.dirty_count ()

(* Registry gauge: unflushed objects, a durability-test health signal. *)
let _gauge_dirty = Obs.Gauge.v "pmem.dirty_objects" Tracking.dirty_count
