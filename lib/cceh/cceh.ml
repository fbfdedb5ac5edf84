(* CCEH — cacheline-conscious extendible hashing (see cceh.mli).

   Layout: hash bits split MSB-first for the directory index (global depth
   bits) and LSB-first for the bucket within a segment.  A segment is 64
   cache lines of 4 key/value pairs; an operation probes a 4-line window
   starting at its bucket line (wrapping within the segment).  Because the
   in-segment bucket bits are disjoint from the directory bits, a split maps
   every entry to the *same* window of the child segment, so a split can
   never overflow its children.

   Split protocol (segment lock held): build children s1/s0 copy-on-write,
   persist them, then, under the directory lock that doubling also takes,
   rewrite the directory pointers — the 1-half slots ascending, then the
   0-half slots ascending.  The recovery pass normalizes
   each directory region to the segment its first slot points to, which
   rolls an interrupted split backward (nothing written yet survives in the
   children alone) or forward (the 0-half head was written, so both children
   are live) without ever losing a key.

   Directory doubling commits by swapping a single directory record, which
   carries its own depth — atomic by construction.  [bug_doubling] instead
   persists the pointer and the global-depth word separately with a crash
   window between them (§3); after such a crash every operation raises
   {!Stalled}, the observable stand-in for the paper's infinite loops. *)

module W = Pmem.Words
module R = Pmem.Refs
module P = Recipe.Persist
module Lock = Util.Lock

let name = "CCEH"

(* Flush/fence attribution sites (index × structural location). *)
let site = Obs.Site.v ~index:name
let s_alloc = site "alloc-segment"
let s_insert = site ~crash:true "insert-commit"
let s_split = site ~crash:true "segment-split"
let s_double = site ~crash:true "dir-double"
let s_delete = site "delete-commit"
let s_recover = site "recover-normalize"

exception Stalled

let lines_per_segment = 64
let pairs_per_line = 4
let probe_lines = 4
let hash_bits = 62

type segment = {
  slots : W.t; (* lines * 8 words: key at l*8+2j, value at l*8+2j+1 *)
  local_depth : int; (* immutable *)
  meta : W.t;
  lock : Lock.t;
}

type dir = {
  segs : segment R.t; (* 2^depth pointers *)
  depth : int; (* immutable; the atomic-swap fix for the §3 bug *)
  meta : W.t;
}

type t = {
  dir : dir R.t;
  depth_word : W.t; (* separately-persisted global depth (buggy mode only) *)
  dir_lock : Lock.t;
  bug_doubling : bool;
  splits : int Atomic.t; (* statistic: segment splits performed *)
  repairs : int Atomic.t; (* pointers the last [recover] normalized *)
}

let hash k =
  let z = (k lxor (k lsr 33)) * 0x2545F491 land max_int in
  let z = (z lxor (z lsr 29)) * 0x1CE4E5B9 land max_int in
  z lxor (z lsr 31)

let segment_index depth h = if depth = 0 then 0 else h lsr (hash_bits - depth)

(* The bit distinguishing the two children when splitting from depth l. *)
let split_bit l h = (h lsr (hash_bits - l - 1)) land 1

let bucket_line h = h land (lines_per_segment - 1)

let make_segment ~local_depth =
  let meta = W.make ~name:"cceh.segmeta" 8 0 in
  W.set meta 0 local_depth;
  {
    slots = W.make ~name:"cceh.segment" (lines_per_segment * 8) 0;
    local_depth;
    meta;
    lock = Lock.create ();
  }

let[@pm.deferred] persist_segment ?(site = s_alloc) s =
  W.clwb_all ~site s.slots;
  W.clwb_all ~site s.meta

let make_dir ~depth ~init =
  let meta = W.make ~name:"cceh.dirmeta" 8 0 in
  W.set meta 0 depth;
  (* Atomic: directory slots are split-install commit points read by
     lock-free probes. *)
  { segs = R.make ~name:"cceh.dir" ~atomic:true (1 lsl depth) init; depth; meta }

let[@pm.deferred] persist_dir ?(site = s_alloc) d =
  R.clwb_all ~site d.segs;
  W.clwb_all ~site d.meta

let default_capacity = 48 * 1024 / 64

let create ?(bug_doubling = false) ?(capacity = default_capacity) () =
  let n_segments =
    Util.Bits.next_power_of_two (max 2 (capacity / lines_per_segment))
  in
  let depth =
    let rec log2 n acc = if n <= 1 then acc else log2 (n / 2) (acc + 1) in
    log2 n_segments 0
  in
  let first = make_segment ~local_depth:depth in
  persist_segment first;
  let d = make_dir ~depth ~init:first in
  for i = 1 to (1 lsl depth) - 1 do
    R.set d.segs i (make_segment ~local_depth:depth)
  done;
  for i = 0 to (1 lsl depth) - 1 do
    persist_segment (R.get d.segs i)
  done;
  persist_dir d;
  Pmem.sfence ~site:s_alloc ();
  (* Atomic: the directory pointer is the doubling commit point. *)
  let dir = R.make ~name:"cceh.dirptr" ~atomic:true 1 d in
  R.clwb_all ~site:s_alloc dir;
  let depth_word = W.make ~name:"cceh.depth" 1 depth in
  W.clwb_all ~site:s_alloc depth_word;
  Pmem.sfence ~site:s_alloc ();
  {
    dir;
    depth_word;
    dir_lock = Lock.create ();
    bug_doubling;
    splits = Atomic.make 0;
    repairs = Atomic.make 0;
  }

let get_dir t =
  let d = R.get t.dir 0 in
  if t.bug_doubling then begin
    (* The buggy layout trusts the separately-persisted depth word; a
       mismatch with the directory width is the §3 crash state. *)
    let gw = W.get t.depth_word 0 in
    if 1 lsl gw <> R.length d.segs then raise Stalled
  end;
  d

let global_depth t = (get_dir t).depth

let segment_count t =
  let d = get_dir t in
  let seen = ref [] in
  for i = 0 to R.length d.segs - 1 do
    let s = R.get d.segs i in
    if not (List.memq s !seen) then seen := s :: !seen
  done;
  List.length !seen

let split_count t = Atomic.get t.splits

(* --- probing -------------------------------------------------------------- *)

(* Visit the slot word indexes of [h]'s probe window in order. *)
let probe_slots h f =
  let start = bucket_line h in
  let rec line d =
    if d >= probe_lines then ()
    else begin
      let l = (start + d) land (lines_per_segment - 1) in
      let rec pair j =
        if j >= pairs_per_line then line (d + 1)
        else if f ((l * 8) + (2 * j)) then () (* stop *)
        else pair (j + 1)
      in
      pair 0
    end
  in
  line 0

let lookup t k =
  if k <= 0 then invalid_arg "Cceh.lookup: key must be positive";
  let h = hash k in
  let d = get_dir t in
  let seg = R.get d.segs (segment_index d.depth h) in
  let found = ref None in
  probe_slots h (fun i ->
      if W.get seg.slots i = k then begin
        let v = W.get seg.slots (i + 1) in
        (* atomic snapshot: key re-check validates the pair *)
        if W.get seg.slots i = k then begin
          found := Some v;
          true
        end
        else false
      end
      else false);
  !found

(* --- write path ------------------------------------------------------------ *)

(* Lock the segment currently covering [h], rechecking the directory after
   acquisition (a split or doubling may have moved it).  [Stalled] is an
   answer, not a crash: it gives the lock back, or every later writer of
   the segment spins on it forever. *)
let rec lock_segment t h =
  let d = get_dir t in
  let idx = segment_index d.depth h in
  let seg = R.get d.segs idx in
  Lock.lock seg.lock;
  let d' =
    try get_dir t
    with Stalled ->
      Lock.unlock seg.lock;
      raise Stalled
  in
  if d' == d && R.get d.segs idx == seg then (d, idx, seg)
  else begin
    Lock.unlock seg.lock;
    lock_segment t h
  end

(* Private placement during a split copy: first free slot of the window
   (cannot fail — the child window receives a subset of the parent's). *)
let copy_place seg k v =
  let h = hash k in
  let placed = ref false in
  probe_slots h (fun i ->
      if W.get seg.slots i = 0 then begin
        W.set seg.slots i k;
        W.set seg.slots (i + 1) v;
        placed := true;
        true
      end
      else false);
  assert !placed

(* Split [seg] (lock held), rewriting the directory slots of its region.
   The rewrite runs under [dir_lock], so a doubling copies the region
   either before the first pointer store or after the last.  A doubling
   that landed since [seg] was locked has already copied [d]: the children
   are dropped unlinked and the caller retries against the new directory. *)
let split t d idx seg =
  let l = seg.local_depth in
  let s0 = make_segment ~local_depth:(l + 1) in
  let s1 = make_segment ~local_depth:(l + 1) in
  for i = 0 to (lines_per_segment * pairs_per_line) - 1 do
    let k = W.get seg.slots (2 * i) in
    if k <> 0 then begin
      let v = W.get seg.slots ((2 * i) + 1) in
      let child = if split_bit l (hash k) = 1 then s1 else s0 in
      copy_place child k v
    end
  done;
  persist_segment ~site:s_split s0;
  persist_segment ~site:s_split s1;
  Pmem.sfence ~site:s_split ();
  Pmem.Crash.point ~site:s_split ();
  Lock.lock t.dir_lock;
  if R.get t.dir 0 == d then begin
    (* Directory region covered by [seg]. *)
    let rs = 1 lsl (d.depth - l) in
    let start = idx - (idx mod rs) in
    let half = rs / 2 in
    (* 1-half ascending first, then 0-half ascending: the order recovery's
       region normalization relies on. *)
    for j = start + half to start + rs - 1 do
      P.commit_ref ~site:s_split d.segs j s1
    done;
    Pmem.Crash.point ~site:s_split ();
    for j = start to start + half - 1 do
      P.commit_ref ~site:s_split d.segs j s0
    done;
    Atomic.incr t.splits [@pm.volatile]
  end;
  Lock.unlock t.dir_lock

(* Double the directory (caller saw [seen_depth]); atomic-record swap in the
   fixed version, split stores with a crash window in buggy mode. *)
let double t seen_depth =
  Lock.lock t.dir_lock;
  let d = R.get t.dir 0 in
  if d.depth = seen_depth then begin
    let nd = make_dir ~depth:(d.depth + 1) ~init:(R.get d.segs 0) in
    for i = 0 to (1 lsl d.depth) - 1 do
      let s = R.get d.segs i in
      R.set nd.segs (2 * i) s;
      R.set nd.segs ((2 * i) + 1) s
    done;
    persist_dir ~site:s_double nd;
    Pmem.sfence ~site:s_double ();
    Pmem.Crash.point ~site:s_double ();
    if t.bug_doubling then begin
      (* §3: the new global depth is a separate plain store with no flush
         ordered before the directory pointer that depends on it.  The new
         depth sits in cache while the doubled directory commits; a crash
         from here until something happens to write the line back recovers
         old depth + new directory.  The crash campaigns catch this as a
         [Stalled] recovery; PSan reports it deterministically at the
         directory commit below (the depth line is still dirty). *)
      P.store ~site:s_double t.depth_word 0 nd.depth;
      Pmem.Crash.point ~site:s_double ();
      P.commit_ref ~site:s_double t.dir 0 nd
    end
    else begin
      (* Fixed: the record swap carries the depth; the shadow word is kept
         in sync but nothing depends on it. *)
      P.commit_ref ~site:s_double t.dir 0 nd;
      W.set t.depth_word 0 nd.depth;
      W.clwb ~site:s_double t.depth_word 0;
      Pmem.sfence ~site:s_double ()
    end
  end;
  Lock.unlock t.dir_lock

let double_directory t = double t (get_dir t).depth

let rec insert t k v =
  if k <= 0 then invalid_arg "Cceh.insert: key must be positive";
  let h = hash k in
  let d, idx, seg = lock_segment t h in
  (* Existing key? *)
  let exists = ref false in
  probe_slots h (fun i ->
      if W.get seg.slots i = k then begin
        exists := true;
        true
      end
      else false);
  if !exists then begin
    Lock.unlock seg.lock;
    false
  end
  else begin
    let slot = ref (-1) in
    probe_slots h (fun i ->
        if W.get seg.slots i = 0 then begin
          slot := i;
          true
        end
        else false);
    if !slot >= 0 then begin
      let i = !slot in
      (* Value first, then the atomic key store commits; both words share a
         cache line, so one flush suffices. *)
      P.store ~site:s_insert seg.slots (i + 1) v;
      Pmem.Crash.point ~site:s_insert ();
      P.commit ~site:s_insert seg.slots i k [@pm.deferred];
      Lock.unlock seg.lock;
      true
    end
    else if seg.local_depth = d.depth then begin
      Lock.unlock seg.lock;
      double t d.depth;
      insert t k v
    end
    else begin
      split t d idx seg;
      Lock.unlock seg.lock;
      insert t k v
    end
  end

let delete t k =
  if k <= 0 then invalid_arg "Cceh.delete: key must be positive";
  let h = hash k in
  let _, _, seg = lock_segment t h in
  let deleted = ref false in
  probe_slots h (fun i ->
      if W.get seg.slots i = k then begin
        P.commit ~site:s_delete seg.slots i 0;
        deleted := true;
        true
      end
      else false);
  Lock.unlock seg.lock;
  !deleted

(* --- recovery ---------------------------------------------------------------- *)

(* Directory slots deviating from their region's first slot — what an
   interrupted split's partially updated pointer range looks like. *)
let iter_denormalized t f =
  let d = get_dir t in
  let n = R.length d.segs in
  let i = ref 0 in
  while !i < n do
    let s = R.get d.segs !i in
    let rs = 1 lsl (d.depth - s.local_depth) in
    for j = !i to !i + rs - 1 do
      if R.get d.segs j != s then f d j s
    done;
    i := !i + rs
  done

let recover t =
  Lock.new_epoch ();
  (* Normalize every directory region to the segment its first slot points
     to, completing or rolling back a split interrupted by the crash. *)
  let repaired = ref 0 in
  iter_denormalized t (fun d j s ->
      P.commit_ref ~site:s_recover d.segs j s;
      incr repaired);
  Atomic.set t.repairs !repaired [@pm.volatile]

(* Sweep = the same denormalized-pointer scan, reported instead of (or, with
   [~reclaim:true], in addition to) being repaired.  The segment halves a
   crashed split built but never linked are reachable only through these
   pointers, so the count is the leak count. *)
let leak_sweep ?(reclaim = false) t =
  let orphans = ref 0 and reclaimed = ref 0 in
  iter_denormalized t (fun d j s ->
      incr orphans;
      if reclaim then begin
        P.commit_ref ~site:s_recover d.segs j s;
        incr reclaimed
      end);
  { Recipe.Recovery.repaired = Atomic.get t.repairs; orphans = !orphans; reclaimed = !reclaimed }
