(* The substrate event seam (DESIGN.md §8).

   The fault plans of [lib/faultinject], the PSan sanitizer of [lib/psan]
   and the flush/fence-drop mutation below each install one *layer*: a
   record of handlers for the substrate's events.  {!Words}, {!Refs},
   {!Crash} and the [Pmem] front door call the composed record [!h] only
   while {!Mode.f_hooked} is set, so with no layer the accessors pay one bit
   in the flags test they already perform.

   Coordinates are global: an object's [base_line] and an in-object index
   [i] (line [base + i lsr 3]).  [store] fires before the write, [load]
   after the read, [rmw] wraps the op (which also marks the line dirty) and
   a layer runs it exactly once; [persist] writes just that store's value
   into the shadow image (the torn-line primitive).  [clwb] and [sfence]
   fire before the instruction is counted or applied, and may raise (it
   never executes) or answer [true] (it is dropped, as if deleted).

   Layers compose once, at install time, in a fixed order: drop, then
   fault, then sanitizer.  A dropped flush reaches neither the fault plan
   nor the sanitizer; a fault that raises hides its event from the
   sanitizer.  The hot path calls the one composed closure. *)

exception Alloc_failed of string

type t = {
  alloc : string -> int -> int -> unit;
  store : string -> int -> int -> bool -> (unit -> unit) -> unit;
  load : string -> int -> int -> bool -> unit;
  rmw : string -> int -> int -> (unit -> bool) -> (unit -> unit) -> bool;
  clwb : string -> int -> int -> Obs.Site.t option -> bool;
  sfence : Obs.Site.t option -> bool;
  publish : string -> int -> int -> Obs.Site.t option -> unit;
  crash : unit -> unit;
  quiesce : unit -> unit;
  sync : unit -> unit;
}

let noop =
  {
    alloc = (fun _ _ _ -> ());
    store = (fun _ _ _ _ _ -> ());
    load = (fun _ _ _ _ -> ());
    rmw = (fun _ _ _ op _ -> op ());
    clwb = (fun _ _ _ _ -> false);
    sfence = (fun _ -> false);
    publish = (fun _ _ _ _ -> ());
    crash = (fun () -> ());
    quiesce = (fun () -> ());
    sync = (fun () -> ());
  }

(* [a] runs first; a drop by [a] stops the event there. *)
let compose a b =
  {
    alloc = (fun n base l -> a.alloc n base l; b.alloc n base l);
    store = (fun n base i r p -> a.store n base i r p; b.store n base i r p);
    load = (fun n base i r -> a.load n base i r; b.load n base i r);
    rmw = (fun n base i op p -> a.rmw n base i (fun () -> b.rmw n base i op p) p);
    clwb = (fun n base i s -> a.clwb n base i s || b.clwb n base i s);
    sfence = (fun s -> a.sfence s || b.sfence s);
    publish = (fun n base i s -> a.publish n base i s; b.publish n base i s);
    crash = (fun () -> a.crash (); b.crash ());
    quiesce = (fun () -> a.quiesce (); b.quiesce ());
    sync = (fun () -> a.sync (); b.sync ());
  }

type layer = Drop | Fault | Sanitize

let slot = function Drop -> 0 | Fault -> 1 | Sanitize -> 2
let layers : t option array = Array.make 3 None

(* The composed record the substrate calls. *)
let h = ref noop

(** Install (or with [None] remove) one layer and recompose.  Call at a
    quiescent point, like every mode switch. *)
let set layer hooks =
  layers.(slot layer) <- hooks;
  let present = List.filter_map Fun.id (Array.to_list layers) in
  (h :=
     match present with
     | [] -> noop
     | first :: rest -> List.fold_left compose first rest);
  Mode.set_flag Mode.f_hooked (present <> [])

(* --- the drop layer (mutation tests) -------------------------------------

   Simulates the *deletion* of one flush or fence instruction from an index
   write path: every clwb (sfence) attributed to the named site is skipped —
   no count, no writeback, no fault or sanitizer event.  Independent of the
   sanitizer: the sanitizer's mutation tests and the transaction crash
   tests both arm it. *)

let drop ?clwb_at ?sfence_at () =
  let hit at site =
    match (at, site) with
    | Some name, Some s -> String.equal (Obs.Site.name s) name
    | _ -> false
  in
  set Drop
    (Some
       {
         noop with
         clwb = (fun _ _ _ s -> hit clwb_at s);
         sfence = (fun s -> hit sfence_at s);
       })

let undrop () = set Drop None
