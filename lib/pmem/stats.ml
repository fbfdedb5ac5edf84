(* Instruction and allocation counters for the simulated persistent memory.

   The paper (Fig 4c/4d, Table 4) reports clwb and mfence counts per
   operation; these counters are the source of those numbers.

   A thin façade over the {!Obs} metrics registry.  Flushes and fences are
   counted once, in the per-domain sharded counters of the {!Obs.Site} they
   are attributed to ({!Obs.Site.untagged} when the caller passes none);
   the totals in {!snapshot} are the sums over every site, so "site sum =
   Stats total" holds by construction.  Allocation and crash-point counts
   are plain registry counters. *)

let lines_allocated = Obs.counter "pmem.lines_allocated"
let words_allocated = Obs.counter "pmem.words_allocated"
let crash_points = Obs.counter "pmem.crash_points"
let crashes = Obs.counter "pmem.crashes"
let incr_crash_points () = Obs.Counter.incr crash_points
let incr_crashes () = Obs.Counter.incr crashes

(** Count a flush / fence at [site] (default: the untagged catch-all). *)
let record_clwb ?(site = Obs.Site.untagged) () = Obs.Site.hit_clwb site

let record_sfence ?(site = Obs.Site.untagged) () = Obs.Site.hit_sfence site

let add_allocation ~lines ~words =
  Obs.Counter.add lines_allocated lines;
  Obs.Counter.add words_allocated words

(** Immutable view of the counters at one instant. *)
type snapshot = {
  s_clwb : int;
  s_sfence : int;
  s_lines_allocated : int;
  s_words_allocated : int;
  s_crash_points : int;
  s_crashes : int;
}

let snapshot () =
  {
    s_clwb = Obs.Site.clwb_total ();
    s_sfence = Obs.Site.sfence_total ();
    s_lines_allocated = Obs.Counter.value lines_allocated;
    s_words_allocated = Obs.Counter.value words_allocated;
    s_crash_points = Obs.Counter.value crash_points;
    s_crashes = Obs.Counter.value crashes;
  }

(** [diff later earlier] gives counts accumulated between two snapshots. *)
let diff a b =
  {
    s_clwb = a.s_clwb - b.s_clwb;
    s_sfence = a.s_sfence - b.s_sfence;
    s_lines_allocated = a.s_lines_allocated - b.s_lines_allocated;
    s_words_allocated = a.s_words_allocated - b.s_words_allocated;
    s_crash_points = a.s_crash_points - b.s_crash_points;
    s_crashes = a.s_crashes - b.s_crashes;
  }

let reset () =
  Obs.Site.reset_flush_counts ();
  Obs.Counter.reset lines_allocated;
  Obs.Counter.reset words_allocated;
  Obs.Counter.reset crash_points;
  Obs.Counter.reset crashes

let pp ppf s =
  Fmt.pf ppf "clwb=%d sfence=%d lines=%d words=%d crash_points=%d crashes=%d"
    s.s_clwb s.s_sfence s.s_lines_allocated s.s_words_allocated s.s_crash_points
    s.s_crashes
