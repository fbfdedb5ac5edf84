(* A persistent array of 8-byte words.

   This is the building block for everything an index stores in simulated
   persistent memory: keys, values, permutation words, node headers.  Words
   are grouped 8 to a simulated 64-byte cache line, so [clwb] flushes (and
   the flush counters count) at the same granularity as the machine the
   paper ran on.

   Flat fast path: data words live in one plain, unboxed [int array] — a
   [get] is a single array load, a [set] a single store, with no [Atomic.t]
   box to chase and no chunk indirection (an int array carries no pointers,
   so arbitrarily large arrays cost the GC nothing).  This is sound under
   the OCaml 5 memory model for the access patterns of the converted
   indexes: word-sized plain accesses never tear, writers mutate shared
   lines only while holding a lock (an [Atomic] CAS/store pair), and new
   structure is published to lock-free readers through [Atomic] pointer
   slots ({!Refs} boxed mode), whose release/acquire ordering makes the
   preceding plain stores visible.  See DESIGN.md "The flat substrate and
   the OCaml 5 memory model" for the full argument and its one x86-TSO
   caveat.

   Words that need read-modify-write atomicity — lock words, version words,
   counters updated with [cas]/[fetch_add] — must be declared at
   construction time via [make ~atomic_words:[...]]; they are backed by
   dedicated [Atomic.t] cells and every accessor routes them there.  The
   split is deliberate API surface: whether a word is a plain data word or
   an atomic control word is a per-structure design decision, not something
   decided per call site.  [cas]/[fetch_add] on an undeclared word raise
   [Invalid_argument].

   Semantics per mode:
   - fast mode: [set]/[cas] update the cache image, [clwb] only counts;
   - shadow mode: the object additionally keeps the last-flushed image of
     every line.  A store marks its line dirty in a flat bitset; [clwb]
     copies the cached contents into the image; a simulated power failure
     reverts every dirty line to the image.  A freshly allocated object
     starts with all lines dirty — allocation stores are not persistent
     until flushed, which is how the paper's durability test caught the
     unflushed root allocations in FAST & FAIR and CCEH (§7.5). *)

let words_per_line = 8

(* Dirty-line bitset: 32 lines per cell keeps the shift/mask trivially in
   range of a 63-bit OCaml int; marking races only on the first store to a
   clean line, so the CAS loops below are all but uncontended. *)
let lines_per_cell = 32

(* Shared with {!Refs}, so generic in the element type. *)
type 'a shadow_state = {
  image : 'a array; (* last-flushed contents *)
  dirty : int Atomic.t array; (* bitset, one bit per line *)
  registered : bool Atomic.t;
}

(* Everything a plain fast-mode object does not need, in one record.  Every
   object with no atomic words and no shadow shares the single instance
   {!plain}, so the hot accessors test [t.ext == plain] — one load from the
   object itself and one compare — and then touch [data] alone. *)
type ext = {
  atomic_idx : int array; (* sorted indices of declared atomic words *)
  atomic_cells : int Atomic.t array; (* parallel to [atomic_idx] *)
  shadow : int shadow_state option;
}

(* 5 words with its header; the length is [Array.length data]. *)
type t = {
  name : string;
  base_line : int;
  data : int array; (* flat plain words — the fast path *)
  ext : ext;
}

let no_atomics : int array = [||]
let plain = { atomic_idx = no_atomics; atomic_cells = [||]; shadow = None }
let line_of_index i = i lsr 3
let n_lines len = (len + words_per_line - 1) / words_per_line
let length t = Array.length t.data

(** Process-global line number of the line containing word [i] — the same
    identifier space as {!Line_id}, {!Llc} and the fault/sanitizer hooks.
    Lets callers that defer flushes (the epoch executor)
    deduplicate per cache line across objects. *)
let global_line t i = t.base_line + line_of_index i

(** Within-array half-open index range [(lo, hi)] of the cache line
    containing word [i] — the last line of an array may be partial.  The
    transaction layer snapshots exactly this range as a line's undo image. *)
let line_extent t i =
  let lo = line_of_index i * words_per_line in
  (lo, min (length t) (lo + words_per_line))

(* --- dirty-line bitset -------------------------------------------------- *)

let bitset_make n_lines all_dirty =
  let cells = (n_lines + lines_per_cell - 1) / lines_per_cell in
  Array.init cells (fun c ->
      Atomic.make
        (if not all_dirty then 0
         else begin
           (* Only bits of real lines: a stray bit would read as forever
              dirty. *)
           let lines = min lines_per_cell (n_lines - (c * lines_per_cell)) in
           (1 lsl lines) - 1
         end))

let rec bitset_or cell bit =
  let cur = Atomic.get cell in
  if cur land bit = 0 && not (Atomic.compare_and_set cell cur (cur lor bit))
  then bitset_or cell bit

let rec bitset_clear cell bit =
  let cur = Atomic.get cell in
  if cur land bit <> 0
     && not (Atomic.compare_and_set cell cur (cur land lnot bit))
  then bitset_clear cell bit

let bitset_mem dirty line =
  Atomic.get (Array.unsafe_get dirty (line lsr 5)) land (1 lsl (line land 31))
  <> 0

let bitset_set dirty line =
  let cell = Array.unsafe_get dirty (line lsr 5) in
  let bit = 1 lsl (line land 31) in
  if Atomic.get cell land bit = 0 then bitset_or cell bit

let bitset_unset dirty line =
  bitset_clear (Array.unsafe_get dirty (line lsr 5)) (1 lsl (line land 31))

let bitset_any dirty =
  Array.exists (fun c -> Atomic.get c <> 0) dirty

(* Iterate the set bits of the whole bitset: [f line]. *)
let bitset_iter dirty f =
  Array.iteri
    (fun c cell ->
      let m = ref (Atomic.get cell) in
      while !m <> 0 do
        let b = !m land (- !m) in
        (* log2 of an isolated bit < 2^32 *)
        let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
        f ((c * lines_per_cell) + log2 b 0);
        m := !m land lnot b
      done)
    dirty

(* --- atomic control words ----------------------------------------------- *)

(* Position of word [i] in [idx] from [j] on, or -1: allocation-free. *)
let rec atomic_pos (idx : int array) (i : int) j =
  if j = Array.length idx then -1
  else if Array.unsafe_get idx j = i then j
  else atomic_pos idx i (j + 1)

let atomic_cell_exn t i =
  let e = t.ext in
  let j = atomic_pos e.atomic_idx i 0 in
  if j < 0 then
    invalid_arg
      (Printf.sprintf
         "Words.%s: word %d was not declared in ~atomic_words at make time"
         t.name i);
  Array.unsafe_get e.atomic_cells j

(* Read/write a word wherever its authority lives (slow path: shadow image
   copies, crash revert, accesses to objects that declared atomic words). *)
let read_word t i =
  let e = t.ext in
  let j = atomic_pos e.atomic_idx i 0 in
  if j < 0 then Array.unsafe_get t.data i
  else Atomic.get (Array.unsafe_get e.atomic_cells j)

let write_word t i v =
  let e = t.ext in
  let j = atomic_pos e.atomic_idx i 0 in
  if j < 0 then Array.unsafe_set t.data i v
  else Atomic.set (Array.unsafe_get e.atomic_cells j) v

(* --- shadow (crash/durability) machinery --------------------------------

   Generic over the element type: the object passes how to [read] and
   [write] its live slots, so {!Refs} shares every line of it. *)

let shadow_make len init =
  if Mode.shadow_enabled () then
    Some
      {
        image = Array.make len init;
        dirty = bitset_make (n_lines len) true;
        registered = Atomic.make false;
      }
  else None

(* [f] over every index of line [l] of an object of [len] slots. *)
let iter_line len l f =
  let lo = l * words_per_line in
  for i = lo to min len (lo + words_per_line) - 1 do
    f i
  done

(* Write line [l]'s live contents into the image: the line is persisted. *)
let shadow_writeback len read sh l =
  iter_line len l (fun i -> sh.image.(i) <- read i);
  bitset_unset sh.dirty l

let shadow_register name len read write sh =
  if Atomic.compare_and_set sh.registered false true then
    Tracking.register
      {
        Tracking.name;
        is_dirty = (fun () -> bitset_any sh.dirty);
        revert =
          (fun () ->
            bitset_iter sh.dirty (fun l ->
                iter_line len l (fun i -> write i sh.image.(i));
                bitset_unset sh.dirty l));
        persist = (fun () -> bitset_iter sh.dirty (shadow_writeback len read sh));
        unregister = (fun () -> Atomic.set sh.registered false);
      }

(* The torn-line primitive of the fault plans: write just one store's
   value into the image. *)
let shadow_persist shadow i v =
  match shadow with Some sh -> fun () -> sh.image.(i) <- v | None -> ignore

let shadow_line_dirty shadow i =
  match shadow with
  | Some sh -> bitset_mem sh.dirty (line_of_index i)
  | None -> true

let register t sh =
  shadow_register t.name (length t) (read_word t) (write_word t) sh

let mark_dirty t sh line =
  bitset_set sh.dirty line;
  if not (Atomic.get sh.registered) then register t sh

let make ?(name = "words") ?(atomic_words = []) len init =
  if len <= 0 then invalid_arg "Words.make: length must be positive";
  let lines = n_lines len in
  let base_line = Line_id.fresh lines in
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).alloc name base_line lines;
  let atomic_idx =
    match atomic_words with
    | [] -> no_atomics
    | l ->
        let a = Array.of_list (List.sort_uniq compare l) in
        Array.iter
          (fun i ->
            if i < 0 || i >= len then
              invalid_arg "Words.make: atomic word index out of range")
          a;
        a
  in
  let shadow = shadow_make len init in
  let ext =
    if atomic_idx == no_atomics && Option.is_none shadow then plain
    else
      { atomic_idx; atomic_cells = Array.map (fun _ -> Atomic.make init) atomic_idx;
        shadow }
  in
  let t = { name; base_line; data = Array.make len init; ext } in
  Stats.add_allocation ~lines ~words:len;
  (* Allocation stores are in-cache only until explicitly flushed. *)
  (match shadow with Some sh -> register t sh | None -> ());
  t

(* --- hot-path accessors -------------------------------------------------

   One load of the packed {!Mode.flags} word decides every per-epoch
   simulator feature; the per-object test is the one [t.ext == plain]
   compare, which predicts perfectly on the fast-mode benchmark path. *)

let[@inline] probe_llc t i =
  if !Mode.flags land Mode.f_llc <> 0 then
    Llc.access (t.base_line + line_of_index i)

(* {!Hook} event reporters — out of line, so the fast path below stays a
   flags test + branch.  A word is a release/acquire point iff it was
   declared in [~atomic_words]. *)

let is_atomic_word t i = atomic_pos t.ext.atomic_idx i 0 >= 0

let hook_store t i v =
  (!Hook.h).store t.name t.base_line i (is_atomic_word t i)
    (shadow_persist t.ext.shadow i v)

let hook_load t i = (!Hook.h).load t.name t.base_line i (is_atomic_word t i)

let get t i =
  probe_llc t i;
  (* Read first, report second: a reader that observed a released value
     must find the matching release clock already recorded (stores report
     before writing), or a publish racing this load could slip between the
     sanitizer's join and the read. *)
  let v =
    if t.ext == plain then Array.unsafe_get t.data i else read_word t i
  in
  if !Mode.flags land Mode.f_hooked <> 0 then hook_load t i;
  v

let dirty_line t i =
  match t.ext.shadow with
  | None -> ()
  | Some sh -> mark_dirty t sh (line_of_index i)

let set_slow t i v =
  write_word t i v;
  dirty_line t i

let set t i v =
  probe_llc t i;
  if !Mode.flags land Mode.f_hooked <> 0 then hook_store t i v;
  if t.ext == plain then Array.unsafe_set t.data i v else set_slow t i v

let cas_cell t i cell expected desired =
  let ok = Atomic.compare_and_set cell expected desired in
  if ok then dirty_line t i;
  ok

(* The closure for the {!Hook} layers is built only when one is installed. *)
let cas t i ~expected ~desired =
  probe_llc t i;
  let cell = atomic_cell_exn t i in
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).rmw t.name t.base_line i
      (fun () -> cas_cell t i cell expected desired)
      (shadow_persist t.ext.shadow i desired)
  else cas_cell t i cell expected desired

let fetch_add t i delta =
  probe_llc t i;
  let cell = atomic_cell_exn t i in
  let v = ref 0 in
  let op () =
    v := Atomic.fetch_and_add cell delta;
    dirty_line t i;
    true
  in
  (if !Mode.flags land Mode.f_hooked <> 0 then
     let persist () =
       match t.ext.shadow with
       | Some sh -> sh.image.(i) <- !v + delta
       | None -> ()
     in
     ignore ((!Hook.h).rmw t.name t.base_line i op persist : bool)
   else ignore (op () : bool));
  !v

(** Sanitizer publication point: called by the [Recipe.Persist] commit
    combinators right after their commit store, before the commit flush.
    The sanitizer checks that nothing the calling domain wrote earlier is
    still unpersisted (RECIPE Condition #1/#2).  A no-op unless a {!Hook}
    layer is installed. *)
let sanitize_publish ?site t i =
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).publish t.name t.base_line i site

(** Whether the line containing word [i] has unpersisted stores.
    Conservatively [true] when shadow tracking is off — callers deciding
    whether a flush is still needed must then flush. *)
let line_dirty t i = shadow_line_dirty t.ext.shadow i

(* Whether a flush of word [i] executes: not under DRAM mode, and not
   dropped by a {!Hook} layer (which may also raise instead). *)
let[@inline] flush_executes name base i site =
  let f = !Mode.flags in
  f land (Mode.f_dram lor Mode.f_hooked) = 0
  || (f land Mode.f_dram = 0 && not ((!Hook.h).clwb name base i site))

(** Flush the cache line containing word [i]: count it once at [site] (an
    index × structural location in the {!Obs} registry), charge it, write
    the line back. *)
let clwb ?site t i =
  if flush_executes t.name t.base_line i site then begin
    Stats.record_clwb ?site ();
    Latency.on_flush ();
    match t.ext.shadow with
    | None -> ()
    | Some sh -> shadow_writeback (length t) (read_word t) sh (line_of_index i)
  end

(** Flush every line of the object (e.g. right after allocation). *)
let clwb_all ?site t =
  for l = 0 to n_lines (length t) - 1 do
    clwb ?site t (l * words_per_line)
  done

(** Flush only the lines the tracked modes know to be dirty; untracked modes
    keep no dirty bitset and fall back to flushing everything.  For a
    re-persist pass over a structure that is already partially persisted
    (CLHT's rehash and its recovery roll-forward), this keeps every clwb
    landing on a genuinely dirty line — the sanitizer reports a flush of an
    already-persisted line as redundant. *)
let clwb_all_dirty ?site t =
  match t.ext.shadow with
  | Some sh ->
      bitset_iter sh.dirty (fun l -> clwb ?site t (l * words_per_line))
  | None -> clwb_all ?site t
