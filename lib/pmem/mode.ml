(* Global mode switches for the simulated persistent memory.

   Every switch is one bit of the packed word [flags].  The substrate
   accessors ({!Words}/{!Refs} get/set/clwb, [Pmem.sfence]) load that one
   word and test one mask, whatever combination of features is active.
   Modes are flipped only between experiment phases, never concurrently
   with index operations, so a plain ref suffices.

   - [f_llc] — probe the LLC simulator on every access; owned by
     {!Llc.set_enabled}.
   - [f_dram] — clwb and sfence are free no-ops: the index runs as its
     volatile DRAM ancestor.  The conversion-overhead ablation measures
     exactly what the conversion added.
   - [f_shadow] — new objects carry a shadow (last-flushed) image, and a
     simulated power failure reverts every unflushed line to it.  Used by
     the crash and durability tests; off for throughput benchmarks.
   - [f_sanitize] — the PSan sanitizer is on.  Only a mode: it changes what
     indexes flush ({!tracked}) and whether the sanitizer's per-domain
     context ({!Sanhook}) is kept; its events arrive through {!Hook}.
   - [f_hooked] — at least one {!Hook} layer is installed; owned by
     {!Hook.set}.  The accessors dispatch events only under this bit. *)

let f_llc = 1
let f_dram = 2
let f_shadow = 4
let f_sanitize = 8
let f_hooked = 16
let flags = ref 0

let set_flag bit on =
  flags := if on then !flags lor bit else !flags land lnot bit

let[@inline] on bit = !flags land bit <> 0
let shadow_enabled () = on f_shadow
let set_shadow b = set_flag f_shadow b
let dram_enabled () = on f_dram
let set_dram b = set_flag f_dram b
let sanitize_enabled () = on f_sanitize
let set_sanitize b = set_flag f_sanitize b

(* Shadow and sanitize mode both need indexes to flush lines they would
   skip as unobservable in plain fast mode (e.g. still-empty pointer
   arrays): shadow because the durability test checks for dirty objects,
   sanitize because unflushed allocations are exactly what diagnostic #1
   reports at the next publication. *)
let tracked () = on (f_shadow lor f_sanitize)
let set_llc_probe b = set_flag f_llc b
