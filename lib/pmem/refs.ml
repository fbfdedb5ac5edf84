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

   - [make ~atomic:false] — slots live in plain chunked ['a array]s: one
     array load per access, no box.  For slot arrays that are only ever
     read/written: write-once pools, and traversal arrays whose mutation is
     already ordered by a lock + a separate atomic commit.  See DESIGN.md
     for the per-index decisions and the one x86-TSO caveat.

   The choice is a required argument on purpose: whether a pointer slot is
   a data slot or a synchronisation point is index-design information, and
   it must be visible (and greppable) at the allocation site.

   Storage is chunked (boxed mode: so no allocation exceeds the OCaml
   minor-heap large-object threshold — filling a major-heap array with young
   boxes serializes multi-domain runs on the remembered set; flat mode: so
   stores hit minor-heap chunks and stay off the major-heap remembered
   set). *)

let slots_per_line = 8
let chunk_bits = 7
let chunk_size = 1 lsl chunk_bits

type 'a repr =
  | Flat of 'a array array (* plain chunked slots: get/set only *)
  | Boxed of 'a Atomic.t array array (* one Atomic cell per slot *)

type 'a t = {
  name : string;
  base_line : int;
  len : int;
  repr : 'a repr;
  shadow : 'a Words.shadow_state option;
}

let line_of_index i = i lsr 3
let n_lines len = (len + slots_per_line - 1) / slots_per_line
let length t = t.len

(** Process-global line number of the line containing slot [i] (same
    identifier space as {!Line_id}) — see {!Words.global_line}. *)
let global_line t i = t.base_line + line_of_index i

(** Within-array half-open slot range [(lo, hi)] of the cache line
    containing slot [i] — see {!Words.line_extent}. *)
let line_extent t i =
  let lo = line_of_index i * slots_per_line in
  (lo, min t.len (lo + slots_per_line))

let read_slot t i =
  match t.repr with
  | Flat c ->
      Array.unsafe_get
        (Array.unsafe_get c (i lsr chunk_bits))
        (i land (chunk_size - 1))
  | Boxed c ->
      Atomic.get
        (Array.unsafe_get
           (Array.unsafe_get c (i lsr chunk_bits))
           (i land (chunk_size - 1)))

let write_slot t i v =
  match t.repr with
  | Flat c ->
      Array.unsafe_set
        (Array.unsafe_get c (i lsr chunk_bits))
        (i land (chunk_size - 1))
        v
  | Boxed c ->
      Atomic.set
        (Array.unsafe_get
           (Array.unsafe_get c (i lsr chunk_bits))
           (i land (chunk_size - 1)))
        v

let mark_dirty t sh line =
  Words.bitset_set sh.Words.dirty line;
  if not (Atomic.get sh.Words.registered) then
    Words.shadow_register t.name t.len (read_slot t) (write_slot t) sh

let make ?(name = "refs") ~atomic len init =
  if len <= 0 then invalid_arg "Refs.make: length must be positive";
  let lines = n_lines len in
  let base_line = Line_id.fresh lines in
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).alloc name base_line lines;
  let n_chunks = (len + chunk_size - 1) / chunk_size in
  let chunk_len c = min chunk_size (len - (c * chunk_size)) in
  let repr =
    if atomic then
      Boxed
        (Array.init n_chunks (fun c ->
             Array.init (chunk_len c) (fun _ -> Atomic.make init)))
    else Flat (Array.init n_chunks (fun c -> Array.make (chunk_len c) init))
  in
  let t = { name; base_line; len; repr; shadow = Words.shadow_make len init } in
  Stats.add_allocation ~lines ~words:len;
  (match t.shadow with
  | Some sh -> Words.shadow_register name len (read_slot t) (write_slot t) sh
  | None -> ());
  t

let[@inline] probe_llc t i =
  if !Mode.flags land Mode.f_llc <> 0 then
    Llc.access (t.base_line + line_of_index i)

(* A slot is a release/acquire point iff the object is [~atomic:true]. *)
let is_atomic t = match t.repr with Boxed _ -> true | Flat _ -> false

(* {!Hook} store reporter — see {!Words.hook_store}. *)
let hook_store t i v =
  (!Hook.h).store t.name t.base_line i (is_atomic t)
    (Words.shadow_persist t.shadow i v)

let get t i =
  probe_llc t i;
  (* Read first, report second — see {!Words.get}. *)
  let v = read_slot t i in
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).load t.name t.base_line i (is_atomic t);
  v

let dirty_line t i =
  match t.shadow with
  | None -> ()
  | Some sh -> mark_dirty t sh (line_of_index i)

let set t i v =
  probe_llc t i;
  if !Mode.flags land Mode.f_hooked <> 0 then hook_store t i v;
  write_slot t i v;
  dirty_line t i

(* Physical-equality CAS: slots hold pointers, and pointer identity is what a
   hardware CAS on an 8-byte pointer compares.  Only legal on [~atomic:true]
   objects — a CAS on a plain slot would not be a synchronisation point. *)
let cas t i ~expected ~desired =
  probe_llc t i;
  let cell =
    match t.repr with
    | Boxed c ->
        Array.unsafe_get
          (Array.unsafe_get c (i lsr chunk_bits))
          (i land (chunk_size - 1))
    | Flat _ ->
        invalid_arg
          (Printf.sprintf "Refs.%s: cas on a flat (~atomic:false) object"
             t.name)
  in
  let op () =
    let ok = Atomic.compare_and_set cell expected desired in
    if ok then dirty_line t i;
    ok
  in
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).rmw t.name t.base_line i op
      (Words.shadow_persist t.shadow i desired)
  else op ()

(** Sanitizer publication point — see {!Words.sanitize_publish}. *)
let sanitize_publish ?site t i =
  if !Mode.flags land Mode.f_hooked <> 0 then
    (!Hook.h).publish t.name t.base_line i site

(** Whether the line containing slot [i] has unpersisted stores.
    Conservatively [true] when shadow tracking is off — callers deciding
    whether a flush is still needed must then flush. *)
let line_dirty t i = Words.shadow_line_dirty t.shadow i

(** Flush the cache line containing slot [i] — see {!Words.clwb}. *)
let clwb ?site t i =
  if Words.flush_executes t.name t.base_line i site then begin
    Stats.record_clwb ?site ();
    Latency.on_flush ();
    match t.shadow with
    | None -> ()
    | Some sh -> Words.shadow_writeback t.len (read_slot t) sh (line_of_index i)
  end

let clwb_all ?site t =
  for l = 0 to n_lines t.len - 1 do
    clwb ?site t (l * slots_per_line)
  done

(* Dirty-lines-only variant; see {!Words.clwb_all_dirty}. *)
let clwb_all_dirty ?site t =
  match t.shadow with
  | Some sh ->
      Words.bitset_iter sh.dirty (fun l -> clwb ?site t (l * slots_per_line))
  | None -> clwb_all ?site t
