(* The sanitizer's per-domain context.

   [lib/psan] receives substrate events through its {!Hook} layer, but two
   facts it needs are not part of any event: which [Recipe.Persist] site is
   performing the current store, and whether the calling domain is inside a
   speculative (seqlock) read.  Index code records both here, gated on
   {!Mode.f_sanitize} at the call site; the sanitizer reads them back. *)

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
