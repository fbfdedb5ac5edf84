(* Sanitizer hook table.

   [lib/psan] implements a persistency-ordering and domain-race sanitizer
   over the substrate, but the dependency arrow points the other way: pmem
   must not link against the sanitizer.  This module is the seam — a record
   of callbacks with no-op defaults that {!Words}/{!Refs}/{!Crash} and the
   [Pmem] front door invoke *only* when [Mode.f_sanitize] is set in the
   packed flags word.  [Psan.enable] installs real handlers here.

   Event vocabulary (all word/slot coordinates are global: an object's
   [base_line] from {!Line_id} times 8 plus the in-object index, so lines
   and words are identified uniformly across objects):

   - [h_alloc name base_line n_lines] — a new persistent object; all its
     lines start dirty (allocation stores are not persistent until flushed).
   - [h_store name base_line i release] — a word/slot store; [release] is
     true for atomic cells/slots (Atomic.set / successful CAS), whose
     release ordering publishes preceding plain stores.
   - [h_load name base_line i acquire] — a word/slot load; [acquire] is
     true for atomic cells/slots.  The substrate performs the actual read
     *before* invoking the hook, so a reader that observed a released value
     is guaranteed to find the matching release clock already recorded.
   - [h_rmw name base_line i op] — an atomic read-modify-write; [op]
     performs the hardware operation and returns whether it stored.  The
     sanitizer runs [op] inside its own word critical section so the new
     value cannot become visible before its release clock does (a plain
     after-the-fact [h_store] would leave a window where a concurrent
     reader sees the CAS'd pointer but joins a stale clock).
   - [h_clwb name base_line i site] — a line writeback.
   - [h_sfence site] — a store fence by the calling domain.
   - [h_publish name base_line i site] — a commit-point publication (the
     [Recipe.Persist] commit combinators): the store at [i] makes new
     structure reachable, so everything it depends on must be persisted.
   - [h_crash] — a simulated crash fired on this domain.
   - [h_quiesce] — whole-machine persist/revert (power failure or an
     explicit persist-everything checkpoint): every line is now clean.
   - [h_sync] — a cross-domain join edge for the *calling* domain (the
     harness calls this right after [Domain.join]).
   - [h_lock_acquired id] / [h_lock_released id] — {!Util.Lock} edges,
     wired separately by psan since util sits below pmem. *)

type hooks = {
  h_alloc : string -> int -> int -> unit;
  h_store : string -> int -> int -> bool -> unit;
  h_load : string -> int -> int -> bool -> unit;
  h_rmw : string -> int -> int -> (unit -> bool) -> bool;
  h_clwb : string -> int -> int -> Obs.Site.t option -> unit;
  h_sfence : Obs.Site.t option -> unit;
  h_publish : string -> int -> int -> Obs.Site.t option -> unit;
  h_crash : unit -> unit;
  h_quiesce : unit -> unit;
  h_sync : unit -> unit;
}

let noop : hooks =
  {
    h_alloc = (fun _ _ _ -> ());
    h_store = (fun _ _ _ _ -> ());
    h_load = (fun _ _ _ _ -> ());
    h_rmw = (fun _ _ _ op -> op ());
    h_clwb = (fun _ _ _ _ -> ());
    h_sfence = (fun _ -> ());
    h_publish = (fun _ _ _ _ -> ());
    h_crash = (fun () -> ());
    h_quiesce = (fun () -> ());
    h_sync = (fun () -> ());
  }

let h = ref noop
let install hooks = h := hooks
let uninstall () = h := noop

(* --- per-domain store-site context --------------------------------------

   The substrate accessors carry no [?site] (that is deliberate: attribution
   belongs to flush/fence/commit points, not raw stores), but the sanitizer
   wants to name the *store* site when it later reports the line.  The
   [Recipe.Persist] combinators publish their [?site] here around the store
   they perform; the store handler picks it up.  Entries are per
   {!Obs.Slot}, so no synchronisation is needed. *)

let site_ctx : Obs.Site.t option array = Array.make Obs.Slot.max_domains None
let set_site s = Array.unsafe_set site_ctx (Obs.Slot.get ()) s
let clear_site () = Array.unsafe_set site_ctx (Obs.Slot.get ()) None
let current_site () = Array.unsafe_get site_ctx (Obs.Slot.get ())

(* --- speculative read sections ------------------------------------------

   Seqlock-style readers (FAST&FAIR [read_stable], and any future optimistic
   reader) intentionally read racy data and discard it when the version
   check fails; the race detector must not flag those reads.  Readers
   bracket the speculative body with [spec_enter]/[spec_exit] (gated on the
   sanitize flag at the call site); the race check skips reads made at
   non-zero depth. *)

(* One cell per slot, 8 words (a cache line) apart. *)
let spec_ctx : int array = Array.make (Obs.Slot.max_domains * 8) 0

let spec_add d =
  let i = Obs.Slot.get () * 8 in
  spec_ctx.(i) <- spec_ctx.(i) + d

let spec_enter () = spec_add 1
let spec_exit () = spec_add (-1)
let spec_depth () = spec_ctx.(Obs.Slot.get () * 8)

(* --- fault injection (mutation tests) ------------------------------------

   Test-only: simulate the *deletion* of one flush or fence instruction from
   an index write path.  When armed with a site name, every clwb/sfence
   attributed to that site is silently skipped — no stats, no shadow
   writeback, no sanitizer event — exactly as if the line of code were
   removed.  The mutation tests arm this for one site of P-CLHT / P-ART and
   assert the sanitizer reports the resulting ordering violation.  Only
   consulted when the sanitize flag is on, so the production clwb path is
   unchanged. *)

let dropped_clwb : string option ref = ref None
let dropped_sfence : string option ref = ref None

let drop_clwb_at site = dropped_clwb := Some site
let drop_sfence_at site = dropped_sfence := Some site

let clear_faults () =
  dropped_clwb := None;
  dropped_sfence := None

let matches fault site =
  match (fault, site) with
  | None, _ | _, None -> false
  | Some name, Some s -> String.equal (Obs.Site.name s) name

let should_drop_clwb site = matches !dropped_clwb site
let should_drop_sfence site = matches !dropped_sfence site
