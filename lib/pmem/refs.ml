(* A persistent array of pointer-sized slots.

   On real persistent memory these would be 8-byte pointers living next to
   the word fields of a node; here each slot holds an arbitrary OCaml value
   but participates in exactly the same cache-line / dirty / flush / shadow
   machinery as {!Words}.  Child-pointer arrays, sibling pointers, mapping
   tables and directory entries are all built from this.

   Every object declares its representation at construction time:

   - [make ~atomic:true] — every slot is an [Atomic.t] cell.  Required for
     slots that are CASed ([cas] raises on a flat object) and for slots that
     serve as *publication points*: a pointer installed for lock-free
     readers to discover freshly built structure.  The atomic store/CAS is a
     release, the reader's atomic load an acquire, so all the plain stores
     that initialized the new node (its flat {!Words}, its flat slots)
     happen-before the reader's dereference — this is the synchronisation
     the whole flat substrate leans on.

   - [make ~atomic:false] — slots live in plain ['a array]s: one array
     load per access, no box.  For slot arrays that are only ever
     read/written: write-once pools, and traversal arrays whose mutation is
     already ordered by a lock + a separate atomic commit.  See DESIGN.md
     for the per-index decisions and the one x86-TSO caveat.

   The choice is a required argument on purpose: whether a pointer slot is
   a data slot or a synchronisation point is index-design information, and
   it must be visible (and greppable) at the allocation site.

   An object of at most {!small_max} slots ([Flat]/[Boxed], every P-ART,
   HOT, Masstree and B+-tree node) holds its one chunk in the record itself:
   a slot access loads the record, the chunk and (boxed) the cell — two
   dependent loads fewer than through a representation block and an outer
   chunk array.  Such a chunk still comes from the minor heap, because 256
   is [Max_young_wosize], so a fresh chunk filled with fresh boxes never
   puts a major-heap array on the remembered set (which serializes
   multi-domain runs).  Larger objects (hash directories, mapping tables)
   are split into {!chunk_size}-slot minor chunks for the same reason
   ([Flat_chunks]/[Boxed_chunks]).  Words per object, header included:
   small boxed 5 + (n + 1) + 2n, small flat 5 + (n + 1). *)

let slots_per_line = 8
let small_max = 256
let chunk_bits = 7
let chunk_size = 1 lsl chunk_bits

type 'a shadow = 'a Words.shadow_state option

type 'a t =
  | Flat of { name : string; base_line : int; slots : 'a array; shadow : 'a shadow }
  | Boxed of {
      name : string;
      base_line : int;
      cells : 'a Atomic.t array; (* one Atomic cell per slot *)
      shadow : 'a shadow;
    }
  | Flat_chunks of {
      name : string;
      base_line : int;
      len : int;
      chunks : 'a array array;
      shadow : 'a shadow;
    }
  | Boxed_chunks of {
      name : string;
      base_line : int;
      len : int;
      chunks : 'a Atomic.t array array;
      shadow : 'a shadow;
    }

let name = function
  | Flat r -> r.name
  | Boxed r -> r.name
  | Flat_chunks r -> r.name
  | Boxed_chunks r -> r.name

let base_line = function
  | Flat r -> r.base_line
  | Boxed r -> r.base_line
  | Flat_chunks r -> r.base_line
  | Boxed_chunks r -> r.base_line

let shadow = function
  | Flat r -> r.shadow
  | Boxed r -> r.shadow
  | Flat_chunks r -> r.shadow
  | Boxed_chunks r -> r.shadow

let length = function
  | Flat r -> Array.length r.slots
  | Boxed r -> Array.length r.cells
  | Flat_chunks r -> r.len
  | Boxed_chunks r -> r.len

let line_of_index i = i lsr 3
let n_lines len = (len + slots_per_line - 1) / slots_per_line

(** Process-global line number of the line containing slot [i] (same
    identifier space as {!Line_id}) — see {!Words.global_line}. *)
let global_line t i = base_line t + line_of_index i

(** Within-array half-open slot range [(lo, hi)] of the cache line
    containing slot [i] — see {!Words.line_extent}. *)
let line_extent t i =
  let lo = line_of_index i * slots_per_line in
  (lo, min (length t) (lo + slots_per_line))

let[@inline] chunk c i =
  Array.unsafe_get (Array.unsafe_get c (i lsr chunk_bits)) (i land (chunk_size - 1))

let[@inline] read_slot t i =
  match t with
  | Boxed r -> Atomic.get (Array.unsafe_get r.cells i)
  | Flat r -> Array.unsafe_get r.slots i
  | Boxed_chunks r -> Atomic.get (chunk r.chunks i)
  | Flat_chunks r -> chunk r.chunks i

let[@inline] write_slot t i v =
  match t with
  | Boxed r -> Atomic.set (Array.unsafe_get r.cells i) v
  | Flat r -> Array.unsafe_set r.slots i v
  | Boxed_chunks r -> Atomic.set (chunk r.chunks i) v
  | Flat_chunks r ->
      Array.unsafe_set
        (Array.unsafe_get r.chunks (i lsr chunk_bits))
        (i land (chunk_size - 1))
        v

let mark_dirty t sh line =
  Words.bitset_set sh.Words.dirty line;
  if not (Atomic.get sh.Words.registered) then
    Words.shadow_register (name t) (length t) (read_slot t) (write_slot t) sh

let make ?(name = "refs") ~atomic len init =
  if len <= 0 then invalid_arg "Refs.make: length must be positive";
  let lines = n_lines len in
  let base_line = Line_id.fresh lines in
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).alloc name base_line lines;
  let shadow = Words.shadow_make len init in
  let chunks mk =
    Array.init
      ((len + chunk_size - 1) / chunk_size)
      (fun c -> mk (min chunk_size (len - (c * chunk_size))))
  in
  let cells n = Array.init n (fun _ -> Atomic.make init) in
  let t =
    match (len <= small_max, atomic) with
    | true, true -> Boxed { name; base_line; cells = cells len; shadow }
    | true, false -> Flat { name; base_line; slots = Array.make len init; shadow }
    | false, true -> Boxed_chunks { name; base_line; len; chunks = chunks cells; shadow }
    | false, false ->
        Flat_chunks
          { name; base_line; len; chunks = chunks (fun n -> Array.make n init); shadow }
  in
  Stats.add_allocation ~lines ~words:len;
  (match shadow with
  | Some sh -> Words.shadow_register name len (read_slot t) (write_slot t) sh
  | None -> ());
  t

let[@inline] probe_llc t i =
  if !Mode.flags land Mode.f_llc <> 0 then Llc.access (global_line t i)

(* A slot is a release/acquire point iff the object is [~atomic:true]. *)
let is_atomic = function
  | Boxed _ | Boxed_chunks _ -> true
  | Flat _ | Flat_chunks _ -> false

(* {!Hook} store reporter — see {!Words.hook_store}. *)
let hook_store t i v =
  (!Hook.h).store (name t) (base_line t) i (is_atomic t)
    (Words.shadow_persist (shadow t) i v)

let hook_load t i = (!Hook.h).load (name t) (base_line t) i (is_atomic t)

let get t i =
  probe_llc t i;
  (* Read first, report second — see {!Words.get}. *)
  let v = read_slot t i in
  if !Mode.flags land Mode.f_hooked <> 0 then hook_load t i;
  v

let dirty_line t i =
  match shadow t with
  | None -> ()
  | Some sh -> mark_dirty t sh (line_of_index i)

let set t i v =
  probe_llc t i;
  if !Mode.flags land Mode.f_hooked <> 0 then hook_store t i v;
  write_slot t i v;
  dirty_line t i

let cas_cell t i cell expected desired =
  let ok = Atomic.compare_and_set cell expected desired in
  if ok then dirty_line t i;
  ok

(* Physical-equality CAS: slots hold pointers, and pointer identity is what a
   hardware CAS on an 8-byte pointer compares.  Only legal on [~atomic:true]
   objects — a CAS on a plain slot would not be a synchronisation point. *)
let cas t i ~expected ~desired =
  probe_llc t i;
  let cell =
    match t with
    | Boxed r -> Array.unsafe_get r.cells i
    | Boxed_chunks r -> chunk r.chunks i
    | Flat _ | Flat_chunks _ ->
        invalid_arg
          (Printf.sprintf "Refs.%s: cas on a flat (~atomic:false) object"
             (name t))
  in
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).rmw (name t) (base_line t) i
      (fun () -> cas_cell t i cell expected desired)
      (Words.shadow_persist (shadow t) i desired)
  else cas_cell t i cell expected desired

(** Sanitizer publication point — see {!Words.sanitize_publish}. *)
let sanitize_publish ?site t i =
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).publish (name t) (base_line t) i site

(** Whether the line containing slot [i] has unpersisted stores.
    Conservatively [true] when shadow tracking is off — callers deciding
    whether a flush is still needed must then flush. *)
let line_dirty t i = Words.shadow_line_dirty (shadow t) i

(** Flush the cache line containing slot [i] — see {!Words.clwb}. *)
let clwb ?site t i =
  if Words.flush_executes (name t) (base_line t) i site then begin
    Stats.record_clwb ?site ();
    Latency.on_flush ();
    match shadow t with
    | None -> ()
    | Some sh ->
        Words.shadow_writeback (length t) (read_slot t) sh (line_of_index i)
  end

let clwb_all ?site t =
  for l = 0 to n_lines (length t) - 1 do
    clwb ?site t (l * slots_per_line)
  done

(* Dirty-lines-only variant; see {!Words.clwb_all_dirty}. *)
let clwb_all_dirty ?site t =
  match shadow t with
  | Some sh ->
      Words.bitset_iter sh.dirty (fun l -> clwb ?site t (l * slots_per_line))
  | None -> clwb_all ?site t
