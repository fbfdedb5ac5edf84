(* P-ART — persistent adaptive radix tree (see art.mli).

   Node memory layout (simulated persistent words):
   - header, one cache line of 8 words:
       [0] count — slot-allocation counter (Node4/16/48)
       [1] prefix_len — full compressed-prefix length (may exceed the 7
           stored bytes; the remainder is "optimistic" and reconstructed
           from a leaf when needed)
       [2] level — key depth of this node's child bytes; IMMUTABLE
       [3] stored prefix bytes (<= 7, packed 7 per word)
       [4..6] child key bytes (Node4: 4, Node16: 16, packed 7 per word)
   - Node48 additionally has a 256-byte child index (packed, own lines);
   - a child-pointer array sized by node kind;
   - a leaf: a value word plus the key bytes (one line for 8-byte keys).

   Host layout (OCaml words, headers included): a leaf is its inline
   [CLeaf] block (3) and its value cell (8 for an 8-byte key); a Node4 is
   its record (6), header (14), 4 child cells (18) and lock (2).  At 100k
   random 8-byte keys the tree holds 19.7 words per key, key strings
   excluded (test_art's footprint group bounds it at 21).  A lookup with
   the sanitizer off allocates only its [Some].

   Commit points (all single 8-byte atomic stores):
   - Node4/16 add: write child slot + key byte, persist, then the count
     increment commits (count and key bytes share the header line);
   - Node48 add: child slot, count bookkeeping, then the index-byte store
     commits;
   - Node256 add, node growth, leaf replacement, path-compression step 1:
     one pointer store;
   - path-compression step 2 (SMO): the old node's prefix rewrite — the
     second ordered step whose loss readers tolerate via [level] and the
     write path fixes with the helper. *)

module W = Pmem.Words
module R = Pmem.Refs
module P = Recipe.Persist
module Lock = Util.Lock

let name = "P-ART"

(* Attribution sites: every flush/fence and crash point below carries its
   structural location, feeding the per-site breakdown of the bench JSON
   export and the §5 crash-point coverage report. *)
let site = Obs.Site.v ~index:name
let s_alloc_node = site "alloc-node"
let s_alloc_leaf = site "alloc-leaf"
let s_add_child = site ~crash:true "add-child"
let s_child_commit = site "child-commit"
let s_update = site "update"
let s_fix_prefix = site "fix-prefix"
let s_chain = site ~crash:true "chain-install"
let s_grow = site ~crash:true "grow"
let s_split = site ~crash:true "split-prefix"
let s_shrink = site ~crash:true "shrink"
let s_recover = site "recover"

(* The fresh-leaf insert path passes its sites pre-wrapped: [~site:s] to an
   optional [?site] allocates a [Some] on every call. *)
let o_alloc_leaf = Some s_alloc_leaf
let o_add_child = Some s_add_child

type kind = N4 | N16 | N48 | N256

(* A leaf is carried inline in its [CLeaf] block: one block per key, whose
   identity is the leaf's (a leaf is never re-wrapped). *)
type child =
  | CNull
  | CInner of node
  | CLeaf of { lkey : string; cells : W.t (* [0] = value; rest = key bytes *) }

and node = {
  kind : kind;
  header : W.t;
  index : W.t option; (* Node48 only *)
  children : child R.t;
  lock : Lock.t;
}

type t = {
  root : node;
  fixes : int Atomic.t;
  shrinks : int Atomic.t;
  repairs : int Atomic.t; (* prefixes fixed by the last [recover] *)
}

let byte s i = Char.code (String.unsafe_get s i)

(* --- packed byte fields (7 bytes per 63-bit word) -------------------------- *)

let packed_get w slot i =
  (W.get w (slot + (i / 7)) lsr (i mod 7 * 8)) land 0xFF

let packed_set w slot i b =
  let word = slot + (i / 7) and sh = i mod 7 * 8 in
  let v = W.get w word in
  W.set w word (v land lnot (0xFF lsl sh) lor (b lsl sh))

let rec pack_from s off n i acc =
  if i >= n then acc
  else pack_from s off n (i + 1) (acc lor (byte s (off + i) lsl (i * 8)))

let pack_string s off len = pack_from s off (min len 7) 0 0

(* --- header accessors -------------------------------------------------------- *)

(* Node-metadata reads (count, key/index bytes, prefix) are optimistic:
   lock-free readers tolerate a concurrent writer's partial update — a miss
   is retried one level down, a stale prefix is re-derived from a leaf, and
   crash leftovers are helper-fixed.  Declare the window to the sanitizer
   (at the accessor, so every metadata read is covered) so its race check
   doesn't flag these by-design benign reads.  [spec1]/[spec2] take the
   accessor and its arguments, so with the sanitizer off they apply it
   directly and build no closure; compound readers wrap a closed local
   body the same way. *)
let spec_window f =
  Pmem.Sanhook.spec_enter ();
  Fun.protect ~finally:Pmem.Sanhook.spec_exit f

let[@inline] sanitizing () =
  !Pmem.Mode.flags land Pmem.Mode.f_sanitize <> 0

let[@inline] spec1 f a = if sanitizing () then spec_window (fun () -> f a) else f a

let[@inline] spec2 f a b =
  if sanitizing () then spec_window (fun () -> f a b) else f a b

let count n = spec2 W.get n.header 0
let prefix_len n = spec2 W.get n.header 1
let level n = spec2 W.get n.header 2
let prefix_byte n i = spec2 (fun h i -> packed_get h 3 i) n.header i
let key_byte n j = spec2 (fun h j -> packed_get h 4 j) n.header j
let set_key_byte n j b = packed_set n.header 4 j b

let capacity = function N4 -> 4 | N16 -> 16 | N48 -> 48 | N256 -> 256

let index_word n =
  match n.index with Some iw -> iw | None -> assert false

let index_byte n b = spec2 (fun iw b -> packed_get iw 0 b) (index_word n) b

let set_index_byte n b v = packed_set (index_word n) 0 b v

let make_node kind ~level ~prefix_len ~prefix_word =
  let header = W.make ~name:"art.header" 8 0 in
  W.set header 1 prefix_len;
  W.set header 2 level;
  W.set header 3 prefix_word;
  {
    kind;
    header;
    index = (match kind with N48 -> Some (W.make ~name:"art.index" 40 0) | _ -> None);
    (* Atomic: child slots are CASed (commit point of Condition #2) and
       live-node slots publish freshly built subtrees to lock-free
       readers. *)
    children = R.make ~name:"art.children" ~atomic:true (capacity kind) CNull;
    lock = Lock.create ();
  }

let persist_node ?(site = s_alloc_node) n =
  W.clwb_all ~site n.header;
  (match n.index with Some iw -> W.clwb_all ~site iw | None -> ());
  R.clwb_all ~site n.children;
  Pmem.sfence ~site ()

let make_leaf key value =
  let cells = W.make ~name:"art.leaf" (1 + ((String.length key + 7) / 8)) 0 in
  W.set cells 0 value;
  (* key bytes stored for line accounting; [lkey] is the source of truth *)
  for j = 0 to ((String.length key + 7) / 8) - 1 do
    W.set cells (1 + j) (byte key (8 * j))
  done;
  CLeaf { lkey = key; cells }

let persist_leaf site = function
  | CLeaf l ->
      W.clwb_all ?site l.cells;
      Pmem.sfence ?site ()
  | CNull | CInner _ -> assert false

let create () =
  let root = make_node N256 ~level:0 ~prefix_len:0 ~prefix_word:0 in
  persist_node root;
  { root; fixes = Atomic.make 0; shrinks = Atomic.make 0; repairs = Atomic.make 0 }

let helper_fixes t = Atomic.get t.fixes
let shrink_count t = Atomic.get t.shrinks

(* --- child access -------------------------------------------------------------- *)

(* The first live child of Node4/16 [n] keyed [b], scanning slots [j] up to
   the count [c]. *)
let rec find_small n b c j =
  if j >= c then CNull
  else if key_byte n j = b then
    match R.get n.children j with
    | CNull -> find_small n b c (j + 1)
    | ch -> ch
  else find_small n b c (j + 1)

let find_child =
  let find n b =
    match n.kind with
    | N4 | N16 -> find_small n b (count n) 0
    | N48 ->
        let idx = index_byte n b in
        if idx = 0 then CNull else R.get n.children (idx - 1)
    | N256 -> R.get n.children b
  in
  fun n b -> spec2 find n b

(* Live (byte, child) pairs in ascending byte order. *)
let children_in_order =
  let live n =
    match n.kind with
    | N4 | N16 ->
        let c = count n in
        let rec go j acc =
          if j >= c then acc
          else
            match R.get n.children j with
            | CNull -> go (j + 1) acc
            | ch -> go (j + 1) ((key_byte n j, ch) :: acc)
        in
        List.sort (fun (a, _) (b, _) -> compare a b) (go 0 [])
    | N48 ->
        let rec go b acc =
          if b > 255 then List.rev acc
          else
            let idx = index_byte n b in
            if idx = 0 then go (b + 1) acc
            else
              match R.get n.children (idx - 1) with
              | CNull -> go (b + 1) acc
              | ch -> go (b + 1) ((b, ch) :: acc)
        in
        go 0 []
    | N256 ->
        let rec go b acc =
          if b > 255 then List.rev acc
          else
            match R.get n.children b with
            | CNull -> go (b + 1) acc
            | ch -> go (b + 1) ((b, ch) :: acc)
        in
        go 0 []
  in
  fun n -> spec1 live n

(* The key of any leaf under [n] — used to reconstruct prefixes (optimistic
   path compression) and by the crash-fix helper. *)
let rec minimum_key n =
  match children_in_order n with
  | [] -> None
  | (_, CLeaf l) :: _ -> Some l.lkey
  | (_, CInner m) :: _ -> minimum_key m
  | (_, CNull) :: _ -> assert false

(* Authoritative prefix bytes of [n] sitting at [depth]: stored bytes when
   consistent, leaf reconstruction beyond byte 7 (or entirely, when the
   stored header is stale after a crash). *)
let authoritative_prefix =
  let prefix n depth =
    let epl = level n - depth in
    if epl = 0 then Some ""
    else
      let pl = prefix_len n in
      let consistent = pl = epl in
      if consistent && epl <= 7 then begin
        let b = Bytes.create epl in
        for i = 0 to epl - 1 do
          Bytes.set b i (Char.chr (prefix_byte n i))
        done;
        Some (Bytes.unsafe_to_string b)
      end
      else
        match minimum_key n with
        | Some k when String.length k >= depth + epl -> Some (String.sub k depth epl)
        | Some _ | None -> None
  in
  fun n depth -> spec2 prefix n depth

(* --- add / replace children (caller holds n.lock) ---------------------------- *)

let is_full n = count n >= capacity n.kind

(* Add (b, child); [child] must already be persistent. *)
let add_child n b child =
  match n.kind with
  | N4 | N16 ->
      let j = count n in
      P.store_ref ?site:o_add_child n.children j child;
      R.clwb ?site:o_add_child n.children j;
      Pmem.sfence ?site:o_add_child ();
      Pmem.Crash.point ?site:o_add_child ();
      (* Key byte and count share the header line: the count increment is
         the single atomic commit (§6.4 "atomically made visible by
         increasing counter value"). *)
      set_key_byte n j b;
      P.commit ?site:o_add_child n.header 0 (j + 1) [@pm.deferred]
  | N48 ->
      let j = count n in
      P.store_ref ?site:o_add_child n.children j child;
      R.clwb ?site:o_add_child n.children j;
      Pmem.sfence ?site:o_add_child ();
      Pmem.Crash.point ?site:o_add_child ();
      P.commit ?site:o_add_child n.header 0 (j + 1);
      Pmem.Crash.point ?site:o_add_child ();
      (* The index-byte store commits visibility. *)
      set_index_byte n b (j + 1);
      (match n.index with
      | Some iw ->
          W.clwb ?site:o_add_child iw (b / 7);
          Pmem.sfence ?site:o_add_child ()
      | None -> ())
  | N256 ->
      ignore
        (P.commit_cas_ref ?site:o_add_child n.children b ~expected:CNull
           ~desired:child)

let replace_child n b child =
  match n.kind with
  | N4 | N16 ->
      let c = count n in
      let rec go j =
        if j >= c then assert false
        else if key_byte n j = b && R.get n.children j <> CNull then
          P.commit_ref ~site:s_child_commit n.children j child
        else go (j + 1)
      in
      go 0
  | N48 ->
      let idx = index_byte n b in
      assert (idx > 0);
      P.commit_ref ~site:s_child_commit n.children (idx - 1) child
  | N256 -> P.commit_ref ~site:s_child_commit n.children b child

(* Remove = invalidate with one atomic store (§6.4 deletion). *)
let remove_child n b =
  match n.kind with
  | N4 | N16 ->
      let c = count n in
      let rec go j =
        if j >= c then false
        else if key_byte n j = b && R.get n.children j <> CNull then begin
          P.commit_ref ~site:s_child_commit n.children j CNull;
          true
        end
        else go (j + 1)
      in
      go 0
  | N48 ->
      let idx = index_byte n b in
      if idx = 0 then false
      else begin
        P.commit_ref ~site:s_child_commit n.children (idx - 1) CNull;
        true
      end
  | N256 ->
      (match R.get n.children b with
      | CNull -> false
      | _ ->
          P.commit_ref ~site:s_child_commit n.children b CNull;
          true)

(* Copy of [n] one size up with (b, child) added; fresh and unpublished.
   The live children are copied in ascending byte order, read in the same
   order [children_in_order] reads them, without building its list: a
   Node4/16's go through two small arrays sorted in place, a Node48's are
   already in byte order. *)
let grow_with n b child =
  let bigger = match n.kind with N4 -> N16 | N16 -> N48 | N48 -> N256 | N256 -> assert false in
  let g =
    make_node bigger ~level:(level n) ~prefix_len:(prefix_len n)
      ~prefix_word:(W.get n.header 3)
  in
  let add b ch =
    match g.kind with
    | N4 | N16 ->
        let j = W.get g.header 0 in
        R.set g.children j ch;
        packed_set g.header 4 j b;
        W.set g.header 0 (j + 1)
    | N48 ->
        let j = W.get g.header 0 in
        R.set g.children j ch;
        packed_set (Option.get g.index) 0 b (j + 1);
        W.set g.header 0 (j + 1)
    | N256 -> R.set g.children b ch
  in
  (match n.kind with
  | N4 | N16 ->
      let c = count n in
      let bs = Array.make c 0 and chs = Array.make c CNull in
      let live = ref 0 in
      for j = 0 to c - 1 do
        match R.get n.children j with
        | CNull -> ()
        | ch ->
            (* Insertion sort: bytes are distinct among live slots. *)
            let kb = key_byte n j in
            let i = ref !live in
            while !i > 0 && bs.(!i - 1) > kb do
              bs.(!i) <- bs.(!i - 1);
              chs.(!i) <- chs.(!i - 1);
              decr i
            done;
            bs.(!i) <- kb;
            chs.(!i) <- ch;
            incr live
      done;
      for i = 0 to !live - 1 do
        add bs.(i) chs.(i)
      done
  | N48 ->
      for kb = 0 to 255 do
        let idx = index_byte n kb in
        if idx <> 0 then
          match R.get n.children (idx - 1) with
          | CNull -> ()
          | ch -> add kb ch
      done
  | N256 -> assert false);
  add b child;
  g

(* Copy of [n] at the smallest kind that fits [entries]; fresh and
   unpublished. *)
let shrink_to entries n =
  let kind =
    let live = List.length entries in
    if live <= 4 then N4 else if live <= 16 then N16 else N48
  in
  let g =
    make_node kind ~level:(level n) ~prefix_len:(prefix_len n)
      ~prefix_word:(W.get n.header 3)
  in
  List.iter
    (fun (b, ch) ->
      match g.kind with
      | N4 | N16 ->
          let j = W.get g.header 0 in
          R.set g.children j ch;
          packed_set g.header 4 j b;
          W.set g.header 0 (j + 1)
      | N48 ->
          let j = W.get g.header 0 in
          R.set g.children j ch;
          packed_set (Option.get g.index) 0 b (j + 1);
          W.set g.header 0 (j + 1)
      | N256 -> R.set g.children b ch)
    entries;
  g

(* Shrink threshold per kind: rebuild smaller only when clearly below the
   next size down (hysteresis against flapping). *)
let shrinkable kind live =
  match kind with
  | N4 -> false
  | N16 -> live <= 3
  | N48 -> live <= 12
  | N256 -> live <= 40

(* --- lookup (lock-free, tolerant) --------------------------------------------- *)

(* Whether the first [stored] stored prefix bytes of [n] match [key] from
   [depth], starting at byte [i]. *)
let rec prefix_matches n key depth stored i =
  i >= stored
  || (prefix_byte n i = byte key (depth + i)
     && prefix_matches n key depth stored (i + 1))

(* The descents below are top-level recursions over explicit arguments, so
   a lookup allocates nothing but its [Some]. *)
let rec lookup_from key klen n depth =
  let epl = level n - depth in
  if depth + epl >= klen then None
  else if
    (* Compare the stored prefix bytes only when the header is consistent;
       after a crash mid-SMO the reader simply skips the prefix (the leaf
       check below rejects wrong descents). *)
    prefix_len n = epl && not (prefix_matches n key depth (min epl 7) 0)
  then None
  else
    let d' = depth + epl in
    match find_child n (byte key d') with
    | CNull -> None
    | CLeaf l -> if String.equal l.lkey key then Some (W.get l.cells 0) else None
    | CInner m -> lookup_from key klen m (d' + 1)

let lookup t key = lookup_from key (String.length key) t.root 0

let rec update_from key klen value n depth =
  let epl = level n - depth in
  if depth + epl >= klen then false
  else
    let d' = depth + epl in
    match find_child n (byte key d') with
    | CNull -> false
    | CLeaf l ->
        String.equal l.lkey key
        && begin
             P.commit ~site:s_update l.cells 0 value;
             true
           end
    | CInner m -> update_from key klen value m (d' + 1)

(* In-place value update: one atomic store to the leaf's value word
   (Condition #1), lock-free like lookup. *)
let update t key value = update_from key (String.length key) value t.root 0

(* --- path revalidation (after taking locks) ------------------------------------ *)

(* Re-descend by [level] fields from [n] (reached from [prev]; [prev == n]
   at the root) and check we reach [node] (physically) with [p] as its
   immediate parent, unless [pb < 0] (no parent to check).  A top-level
   recursion, so an insert's revalidation allocates nothing. *)
let rec validate_from key klen prev n node p pb =
  if n == node then pb < 0 || (prev != n && prev == p)
  else
    let d' = level n in
    if d' >= klen then false
    else
      match find_child n (byte key d') with
      | CInner m -> validate_from key klen n m node p pb
      | CLeaf _ | CNull -> false

(* Re-descend and check we reach [node], with [parent] as its immediate
   parent when given. *)
let validate t key ?parent node =
  let klen = String.length key in
  match parent with
  | None -> validate_from key klen t.root t.root node t.root (-1)
  | Some p -> validate_from key klen t.root t.root node p 0

(* --- the Condition #3 helper: fix a crash-stale prefix -------------------------- *)

let fix_prefix t n depth =
  let epl = level n - depth in
  let word =
    match minimum_key n with
    | Some k when String.length k >= depth + min epl 7 -> pack_string k depth epl
    | Some _ | None -> 0
  in
  W.set n.header 3 word;
  P.commit ~site:s_fix_prefix n.header 1 epl [@pm.deferred];
  Atomic.incr t.fixes [@pm.volatile]

(* --- insert ------------------------------------------------------------------------ *)

(* Longest common prefix of key[off..] and other[off..]. *)
let rec common_run key other off n i =
  if i < n && byte key (off + i) = byte other (off + i) then
    common_run key other off n (i + 1)
  else i

let common_from key other off =
  common_run key other off (min (String.length key) (String.length other) - off) 0

exception Retry

(* How many of [n]'s [epl] prefix bytes match [key] from [depth]: its
   stored bytes when [epl <= 7], else a leaf's (allocating, but only for a
   prefix longer than the header holds); -1 when no leaf is left to
   reconstruct from. *)
let rec stored_match n key depth epl i =
  if i < epl && prefix_byte n i = byte key (depth + i) then
    stored_match n key depth epl (i + 1)
  else i

let prefix_match n key depth epl =
  if epl <= 7 then stored_match n key depth epl 0
  else
    match authoritative_prefix n depth with
    | Some prefix ->
        let rec go i =
          if i < epl && byte key (depth + i) = byte prefix i then go (i + 1)
          else i
        in
        go 0
    | None -> -1

let rec insert t key value =
  match insert_attempt t key value with
  | r -> r
  | exception Retry ->
      Domain.cpu_relax ();
      insert t key value

and insert_attempt t key value =
  insert_from t key (String.length key) value t.root (-1) t.root 0

(* One level of the descent: [n] at [depth], reached from parent [p] by
   byte [pb] ([pb < 0] at the root, where [p] is unused).  Parent, byte and
   depth travel as arguments, so a descent allocates nothing per level. *)
and insert_from t key klen value p pb n depth =
  let epl = level n - depth in
  if depth + epl >= klen then
    invalid_arg "Art.insert: key is a prefix of an existing key";
  let pl = prefix_len n in
  if pl <> epl then begin
    (* Inconsistent header.  Try-lock distinguishes a transient state
       (another writer mid-SMO: fail, retry) from a permanent crash
       leftover, which this writer must fix (§6.4). *)
    if Lock.try_lock n.lock then begin
      if validate_from key klen t.root t.root n p pb then fix_prefix t n depth;
      Lock.unlock n.lock
    end;
    raise Retry
  end
  else begin
    let matched = prefix_match n key depth epl in
    if matched < 0 then raise Retry
    else if matched < epl then split_prefix t p pb n depth matched key value
    else begin
      let d' = depth + epl in
      let b = byte key d' in
      match find_child n b with
      | CNull -> add_leaf t p pb n b key klen value
      | CLeaf { lkey = k2; _ } as l2 ->
          if String.equal k2 key then false
          else begin
            (* Diverge below: build the chain node, then swap the slot —
               a single-pointer Condition #1 commit. *)
            Lock.lock n.lock;
            if not (validate_from key klen t.root t.root n p pb) then begin
              Lock.unlock n.lock;
              raise Retry
            end;
            (match find_child n b with
            | l2' when l2' == l2 ->
                let off = d' + 1 in
                let cl = common_from key k2 off in
                if off + cl >= klen || off + cl >= String.length k2 then begin
                  Lock.unlock n.lock;
                  invalid_arg "Art.insert: keys must be prefix-free"
                end;
                let nn =
                  make_node N4 ~level:(off + cl) ~prefix_len:cl
                    ~prefix_word:(pack_string key off cl)
                in
                let lf = make_leaf key value in
                R.set nn.children 0 lf;
                packed_set nn.header 4 0 (byte key (off + cl));
                R.set nn.children 1 l2;
                packed_set nn.header 4 1 (byte k2 (off + cl));
                W.set nn.header 0 2;
                persist_leaf (Some s_chain) lf;
                persist_node ~site:s_chain nn;
                Pmem.Crash.point ~site:s_chain ();
                replace_child n b (CInner nn);
                Lock.unlock n.lock;
                true
            | _ ->
                Lock.unlock n.lock;
                raise Retry)
          end
      | CInner m -> insert_from t key klen value n b m (d' + 1)
    end
  end

(* Add a fresh leaf under [n] at byte [b]; grows [n] (parent-pointer swap)
   when out of slots. *)
and add_leaf t p pb n b key klen value =
  Lock.lock n.lock;
  if not (validate_from key klen t.root t.root n p pb) then begin
    Lock.unlock n.lock;
    raise Retry
  end;
  match find_child n b with
  | CLeaf _ | CInner _ ->
      Lock.unlock n.lock;
      raise Retry
  | CNull ->
      if not (is_full n) then begin
        let lf = make_leaf key value in
        persist_leaf o_alloc_leaf lf;
        Pmem.Crash.point ?site:o_add_child ();
        add_child n b lf;
        Lock.unlock n.lock;
        true
      end
      else begin
        Lock.unlock n.lock;
        grow_and_add t p pb n b key klen value
      end

(* Replace [n] with a one-size-up copy containing the new leaf (the copy
   also drops delete tombstones); the parent slot swap is the single atomic
   commit. *)
and grow_and_add t p pb n b key klen value =
  (* The root is a Node256 and can never fill. *)
  assert (pb >= 0);
  Lock.lock p.lock;
  Lock.lock n.lock;
  let parent_ok =
    match find_child p pb with CInner m -> m == n | CLeaf _ | CNull -> false
  in
  if (not parent_ok) || not (validate_from key klen t.root t.root n p pb)
  then begin
    Lock.unlock n.lock;
    Lock.unlock p.lock;
    raise Retry
  end;
  (match find_child n b with
  | CLeaf _ | CInner _ ->
      Lock.unlock n.lock;
      Lock.unlock p.lock;
      raise Retry
  | CNull -> ());
  let lf = make_leaf key value in
  persist_leaf (Some s_grow) lf;
  let g = grow_with n b lf in
  persist_node ~site:s_grow g;
  Pmem.Crash.point ~site:s_grow ();
  replace_child p pb (CInner g);
  Lock.unlock n.lock;
  Lock.unlock p.lock;
  true

(* Path-compression split, the Condition #3 SMO.  Step 1: persist and
   install a new parent holding the new leaf and the old node (one pointer
   swap).  Step 2: rewrite the old node's now-shorter prefix.  A crash
   between the steps leaves the stale prefix that readers tolerate and the
   next writer's helper fixes.  The prefix bytes are read under the locks,
   where the validated path and [prefix_len n = epl] pin them. *)
and split_prefix t p pb n depth matched key value =
  (* The root has no prefix. *)
  assert (pb >= 0);
  Lock.lock p.lock;
  Lock.lock n.lock;
  let parent_ok =
    match find_child p pb with CInner m -> m == n | CLeaf _ | CNull -> false
  in
  let epl = level n - depth in
  let prefix =
    if
      (not parent_ok)
      || not (validate_from key (String.length key) t.root t.root n p pb)
      || prefix_len n <> epl
      || matched >= epl
    then None
    else authoritative_prefix n depth
  in
  match prefix with
  | None ->
      Lock.unlock n.lock;
      Lock.unlock p.lock;
      raise Retry
  | Some prefix ->
      let d' = depth + matched in
      let nn =
        make_node N4 ~level:d' ~prefix_len:matched
          ~prefix_word:(pack_string key depth matched)
      in
      let lf = make_leaf key value in
      R.set nn.children 0 lf;
      packed_set nn.header 4 0 (byte key d');
      R.set nn.children 1 (CInner n);
      packed_set nn.header 4 1 (Char.code prefix.[matched]);
      W.set nn.header 0 2;
      persist_leaf (Some s_split) lf;
      persist_node ~site:s_split nn;
      Pmem.Crash.point ~site:s_split ();
      (* Step 1: atomic install. *)
      replace_child p pb (CInner nn);
      Pmem.Crash.point ~site:s_split ();
      (* Step 2: shrink the old node's prefix (level is immutable). *)
      let new_pl = epl - matched - 1 in
      W.set n.header 3
        (pack_string prefix (matched + 1) new_pl);
      P.commit ~site:s_split n.header 1 new_pl [@pm.deferred];
      Lock.unlock n.lock;
      Lock.unlock p.lock;
      true

(* --- delete -------------------------------------------------------------------- *)

let rec delete t key =
  match delete_attempt t key with
  | r -> r
  | exception Retry ->
      Domain.cpu_relax ();
      delete t key

and delete_attempt t key =
  let klen = String.length key in
  let rec step parent n depth =
    let epl = level n - depth in
    if depth + epl >= klen then false
    else
      let d' = depth + epl in
      let b = byte key d' in
      match find_child n b with
      | CNull -> false
      | CLeaf { lkey; _ } as l ->
          if not (String.equal lkey key) then false
          else begin
            Lock.lock n.lock;
            if not (validate t key ?parent:(Option.map fst parent) n) then begin
              Lock.unlock n.lock;
              raise Retry
            end;
            let r =
              match find_child n b with
              | l' when l' == l -> remove_child n b
              | CLeaf _ | CInner _ | CNull -> false
            in
            Lock.unlock n.lock;
            if r then try_shrink t key parent n;
            r
          end
      | CInner m -> step (Some (n, b)) m (d' + 1)
  in
  step None t.root 0

(* Best-effort post-delete shrink (single pointer-swap commits, Condition
   #1): empty nodes unlink, a lone leaf replaces its node, underfull nodes
   rebuild one size down.  The root (a Node256) never shrinks. *)
and try_shrink t key parent n =
  match parent with
  | None -> ()
  | Some (p, pb) ->
      let live = children_in_order n in
      let nlive = List.length live in
      let interesting =
        nlive = 0
        || (nlive = 1 && match live with [ (_, CLeaf _) ] -> true | _ -> false)
        || shrinkable n.kind nlive
      in
      if interesting then begin
        Lock.lock p.lock;
        Lock.lock n.lock;
        let still =
          (match find_child p pb with CInner m -> m == n | CLeaf _ | CNull -> false)
          && validate t key ~parent:p n
        in
        if still then begin
          let live = children_in_order n in
          (match (List.length live, live) with
          | 0, _ ->
              Pmem.Crash.point ~site:s_shrink ();
              ignore (remove_child p pb);
              Atomic.incr t.shrinks [@pm.volatile]
          | 1, [ (_, (CLeaf _ as lf)) ] ->
              (* A lone leaf needs no inner node: its full key re-verifies. *)
              Pmem.Crash.point ~site:s_shrink ();
              replace_child p pb lf;
              Atomic.incr t.shrinks [@pm.volatile]
          | nlive, _ when shrinkable n.kind nlive ->
              let g = shrink_to live n in
              persist_node ~site:s_shrink g;
              Pmem.Crash.point ~site:s_shrink ();
              replace_child p pb (CInner g);
              Atomic.incr t.shrinks [@pm.volatile]
          | _ -> ())
        end;
        Lock.unlock n.lock;
        Lock.unlock p.lock
      end

(* --- ordered scans ---------------------------------------------------------------- *)

exception Scan_done

(* Relation of [n]'s subtree to the scan start key:
   [`All] — every key in the subtree is >= start;
   [`Lt] — every key is < start (prune);
   [`Eq] — the subtree path matches start so far (descend with pruning);
   [`Unknown] — stale prefix after a crash: descend without pruning, filter
   at the leaves. *)
let subtree_relation n depth start =
  let epl = level n - depth in
  let pl = prefix_len n in
  if pl <> epl then `Unknown
  else if epl = 0 then `Eq
  else
    match authoritative_prefix n depth with
    | None -> `Unknown
    | Some p ->
        let slen = String.length start in
        let rec cmp i =
          if i >= epl then `Eq
          else if depth + i >= slen then `All
          else
            let pb = Char.code p.[i] and sb = byte start (depth + i) in
            if pb < sb then `Lt else if pb > sb then `All else cmp (i + 1)
        in
        cmp 0

let scan_fold t start nwant f =
  let emitted = ref 0 in
  let leaf_emit k cells =
    if !emitted >= nwant then raise Scan_done;
    f k (W.get cells 0);
    incr emitted
  in
  let rec go node depth mode =
    if !emitted >= nwant then raise Scan_done;
    match node with
    | CNull -> ()
    | CLeaf l -> (
        match mode with
        | `All -> leaf_emit l.lkey l.cells
        | `Filter -> if String.compare l.lkey start >= 0 then leaf_emit l.lkey l.cells)
    | CInner n -> (
        match (mode, subtree_relation n depth start) with
        | `All, _ ->
            List.iter (fun (_, c) -> go c (level n + 1) `All) (children_in_order n)
        | `Filter, `Lt -> ()
        | `Filter, `All ->
            List.iter (fun (_, c) -> go c (level n + 1) `All) (children_in_order n)
        | `Filter, `Eq ->
            let d' = level n in
            let sb = if d' < String.length start then byte start d' else -1 in
            List.iter
              (fun (b, c) ->
                if b > sb then go c (d' + 1) `All
                else if b = sb then go c (d' + 1) `Filter)
              (children_in_order n)
        | `Filter, `Unknown ->
            (* Crash-stale prefix: no pruning, filter at the leaves. *)
            List.iter (fun (_, c) -> go c (level n + 1) `Filter) (children_in_order n))
  in
  (try go (CInner t.root) 0 `Filter with Scan_done -> ());
  !emitted

let scan t start nwant f = if nwant <= 0 then 0 else scan_fold t start nwant f

let range t lo hi =
  let acc = ref [] in
  let exception Past_hi in
  (try
     ignore
       (scan_fold t lo max_int (fun k v ->
            if String.compare k hi >= 0 then raise Past_hi;
            acc := (k, v) :: !acc))
   with Past_hi -> ());
  List.rev !acc

(* --- recovery ----------------------------------------------------------------------- *)

(* Depth-tracked DFS over every inner node: [depth] is the key depth at
   which [n] sits, so its expected prefix length is [level n - depth] and
   its children sit at depth [level n + 1]. *)
let iter_nodes t f =
  let rec go n depth =
    f n depth;
    List.iter
      (fun (_, c) -> match c with CInner m -> go m (level n + 1) | CLeaf _ | CNull -> ())
      (children_in_order n)
  in
  go t.root 0

(* Eagerly run the Condition #3 helper everywhere: a crash between the two
   ordered steps of a path-compression split leaves the old node's stored
   prefix stale ([prefix_len <> level - depth]); readers tolerate it, the
   write path fixes it lazily, and recovery fixes it here once and for
   all. *)
let recover t =
  Lock.new_epoch ();
  let repaired = ref 0 in
  iter_nodes t (fun n depth ->
      if prefix_len n <> level n - depth then begin
        fix_prefix t n depth;
        incr repaired
      end);
  Atomic.set t.repairs !repaired [@pm.volatile]

(* Reachability sweep for crash-orphaned child slots:
   - Node4/16: [add_child] stores the child pointer at slot [count] and the
     count increment commits — a crash in between leaves a populated slot
     beyond [count] that no reader ever visits;
   - Node48: the child store and count increment precede the index-byte
     commit, so an orphan is either a populated slot beyond [count] or a
     slot below [count] that no index byte references;
   - Node256 commits with the pointer store itself — no window. *)
let leak_sweep ?(reclaim = false) t =
  let orphans = ref 0 and reclaimed = ref 0 in
  let clear n j =
    incr orphans;
    if reclaim then begin
      P.commit_ref ~site:s_recover n.children j CNull;
      incr reclaimed
    end
  in
  iter_nodes t (fun n _depth ->
      match n.kind with
      | N4 | N16 ->
          let c = count n in
          for j = c to capacity n.kind - 1 do
            if R.get n.children j <> CNull then clear n j
          done
      | N48 ->
          let c = count n in
          let referenced = Array.make (max c 1) false in
          for b = 0 to 255 do
            let idx = index_byte n b in
            if idx > 0 && idx <= c then referenced.(idx - 1) <- true
          done;
          for j = 0 to c - 1 do
            if (not referenced.(j)) && R.get n.children j <> CNull then clear n j
          done;
          for j = c to capacity n.kind - 1 do
            if R.get n.children j <> CNull then clear n j
          done
      | N256 -> ());
  { Recipe.Recovery.repaired = Atomic.get t.repairs; orphans = !orphans; reclaimed = !reclaimed }
