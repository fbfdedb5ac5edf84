(* P-BwTree (see bwtree.mli).

   Representation:
   - mapping table: segmented persistent pointer array, page id -> chain;
   - chain: immutable delta records ending in a base node.  Delta kinds:
     leaf insert, leaf delete (tombstone), internal index-entry (separator ->
     child page).  Each record carries a persistent metadata line that is
     flushed before the record is CAS-installed;
   - base node: sorted key words + values (leaf) or children page ids
     (internal, count+1 with the leftmost at index 0), plus B-link high key
     and sibling page id.

   SMO = consolidation-with-split: build the sibling base (upper half),
   install it at a fresh page id, persist, then one CAS swings the old page
   to the lower-half base.  The parent index entry is added after; readers
   and writers reaching the sibling through the high-key jump help complete
   the parent first.  The root page id is fixed; a root split installs a new
   internal base at the root id with one CAS. *)

module W = Pmem.Words
module R = Pmem.Refs
module P = Recipe.Persist
module K = Recipe.Wordkey

let name = "P-BwTree"

(* Flush/fence attribution sites (index × structural location). *)
let site = Obs.Site.v ~index:name
let s_alloc = site "alloc-base"
let s_delta = site ~crash:true "delta-install"
let s_index = site ~crash:true "index-install"
let s_consol = site ~crash:true "consolidate"
let s_split = site ~crash:true "split"
let s_root = site ~crash:true "new-root"
let s_recover = site "recover"
let max_entries = 32
let max_chain = 8
let mapping_segment = 4096
let max_segments = 4096

type base = {
  leaf : bool;
  count : int;
  keys : W.t; (* count words (>=1 allocated) *)
  vals : W.t; (* leaf: count values; internal: count+1 child page ids *)
  has_high : bool;
  high : int;
  next_pid : int; (* sibling page id; meaningful iff has_high *)
  bmeta : W.t;
}

type dop =
  | DInsert of int * int (* key word, value *)
  | DDelete of int
  | DIndex of int * int (* separator word, child page id *)

type node = NBase of base | NDelta of delta
and delta = { dleaf : bool; dop : dop; dnext : node; dmeta : W.t }

type t = {
  ks : K.t;
  segments : node R.t option Atomic.t array;
  next_pid : int Atomic.t;
  helps : int Atomic.t;
  consolidations : int Atomic.t;
  repairs : int Atomic.t; (* structures the last [recover] completed *)
  grow_lock : Mutex.t;
}

let node_leaf = function NBase b -> b.leaf | NDelta d -> d.dleaf

(* --- mapping table ------------------------------------------------------------ *)

let[@pm.deferred] dummy_base () =
  let b =
    {
      leaf = true;
      count = 0;
      keys = W.make ~name:"bw.dummy" 1 0;
      vals = W.make ~name:"bw.dummy" 1 0;
      has_high = false;
      high = 0;
      next_pid = 0;
      bmeta = W.make ~name:"bw.dummy" 1 0;
    }
  in
  W.clwb_all ~site:s_alloc b.keys;
  W.clwb_all ~site:s_alloc b.vals;
  W.clwb_all ~site:s_alloc b.bmeta;
  b

let rec segment t s =
  match Atomic.get t.segments.(s) with
  | Some seg -> seg
  | None ->
      Mutex.lock t.grow_lock;
      if Atomic.get t.segments.(s) = None then begin
        (* Atomic: mapping-table slots are the CAS install points of every
           delta/consolidation — the canonical cas-bearing structure. *)
        let seg =
          R.make ~name:"bw.mapping" ~atomic:true mapping_segment
            (NBase (dummy_base ()))
        in
        R.clwb_all ~site:s_alloc seg;
        Pmem.sfence ~site:s_alloc ();
        Atomic.set t.segments.(s) (Some seg) [@pm.volatile]
      end;
      Mutex.unlock t.grow_lock;
      segment t s

let mapping_get t pid =
  R.get (segment t (pid / mapping_segment)) (pid mod mapping_segment)

(* Install with CAS; flush only on success (§6.3). *)
let mapping_cas ?site t pid ~expected ~desired =
  P.commit_cas_ref ?site
    (segment t (pid / mapping_segment))
    (pid mod mapping_segment) ~expected ~desired

(* Unconditional install of a fresh, not-yet-published page id. *)
let mapping_set ?(site = s_split) t pid node =
  let seg = segment t (pid / mapping_segment) in
  R.set seg (pid mod mapping_segment) node;
  R.clwb ~site seg (pid mod mapping_segment);
  Pmem.sfence ~site ()

let alloc_pid t = Atomic.fetch_and_add t.next_pid 1 [@pm.volatile]

(* --- constructing records -------------------------------------------------------- *)

let make_base ?(site = s_alloc) ~leaf ~count ~has_high ~high ~next_pid fill_keys fill_vals =
  let keys = W.make ~name:"bw.keys" (max 1 count) 0 in
  let vals =
    W.make ~name:"bw.vals" (max 1 (if leaf then count else count + 1)) 0
  in
  fill_keys keys;
  fill_vals vals;
  let bmeta = W.make ~name:"bw.bmeta" 8 0 in
  W.set bmeta 0 (if leaf then 1 else 0);
  W.set bmeta 1 count;
  W.set bmeta 2 (if has_high then 1 else 0);
  W.set bmeta 3 high;
  W.set bmeta 4 next_pid;
  (* Live marker: distinguishes published bases from the mapping table's
     dummy placeholders when recovery scans for allocated page ids. *)
  W.set bmeta 5 1;
  let b = { leaf; count; keys; vals; has_high; high; next_pid; bmeta } in
  W.clwb_all ~site keys;
  W.clwb_all ~site vals;
  W.clwb_all ~site bmeta;
  Pmem.sfence ~site ();
  b

(* Persist a delta record's metadata line before it is installed. *)
let make_delta ?(site = s_delta) ~leaf dop next =
  let dmeta = W.make ~name:"bw.delta" 8 0 in
  (match dop with
  | DInsert (k, v) ->
      W.set dmeta 0 1;
      W.set dmeta 1 k;
      W.set dmeta 2 v
  | DDelete k ->
      W.set dmeta 0 2;
      W.set dmeta 1 k
  | DIndex (s, c) ->
      W.set dmeta 0 3;
      W.set dmeta 1 s;
      W.set dmeta 2 c);
  W.clwb_all ~site dmeta;
  Pmem.sfence ~site ();
  { dleaf = leaf; dop; dnext = next; dmeta }

let create ~space () =
  let t =
    {
      ks = space;
      segments = Array.init max_segments (fun _ -> Atomic.make None);
      next_pid = Atomic.make 1;
      helps = Atomic.make 0;
      consolidations = Atomic.make 0;
      repairs = Atomic.make 0;
      grow_lock = Mutex.create ();
    }
  in
  (* Root (pid 0): an empty leaf base. *)
  let root =
    make_base ~leaf:true ~count:0 ~has_high:false ~high:0 ~next_pid:0
      (fun _ -> ())
      (fun _ -> ())
  in
  mapping_set t 0 (NBase root);
  t

let help_count t = Atomic.get t.helps
let consolidation_count t = Atomic.get t.consolidations

(* --- chain utilities ---------------------------------------------------------------- *)

let chain_length node =
  let rec go n acc = match n with NBase _ -> acc | NDelta d -> go d.dnext (acc + 1) in
  go node 0

(* Flatten a leaf chain into sorted live (key word, value) pairs plus the
   B-link fields.  The first delta for a key wins. *)
let flatten_leaf t node =
  (* In string mode the word order differs from the raw int order, so sort
     with the keyspace comparison. *)
  let rec collect n seen acc =
    match n with
    | NDelta { dop = DInsert (k, v); dnext; _ } ->
        if List.exists (fun (k', _) -> t.ks.compare_words k' k = 0) seen then
          collect dnext seen acc
        else collect dnext ((k, Some v) :: seen) acc
    | NDelta { dop = DDelete k; dnext; _ } ->
        if List.exists (fun (k', _) -> t.ks.compare_words k' k = 0) seen then
          collect dnext seen acc
        else collect dnext ((k, None) :: seen) acc
    | NDelta { dop = DIndex _; _ } -> assert false
    | NBase b ->
        let from_base = ref [] in
        for i = b.count - 1 downto 0 do
          let k = W.get b.keys i in
          if not (List.exists (fun (k', _) -> t.ks.compare_words k' k = 0) seen)
          then from_base := (k, W.get b.vals i) :: !from_base
        done;
        let added =
          List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) seen
        in
        let all =
          List.sort (fun (a, _) (b, _) -> t.ks.compare_words a b)
            (!from_base @ added)
        in
        (all, b.has_high, b.high, b.next_pid)
  in
  collect node [] []

(* Flatten an internal chain into sorted (separator, child) pairs with the
   leftmost child. *)
let flatten_internal t node =
  let rec collect n acc =
    match n with
    | NDelta { dop = DIndex (s, c); dnext; _ } -> collect dnext ((s, c) :: acc)
    | NDelta { dop = DInsert _ | DDelete _; _ } -> assert false
    | NBase b ->
        let from_base = ref [] in
        for i = b.count - 1 downto 0 do
          from_base := (W.get b.keys i, W.get b.vals (i + 1)) :: !from_base
        done;
        (* Deduplicate separators (double helping), newest wins. *)
        let merged =
          List.sort_uniq (fun (a, _) (b, _) ->
              let c = t.ks.compare_words a b in
              if c <> 0 then c else 0)
            (acc @ !from_base)
        in
        (W.get b.vals 0, merged, b.has_high, b.high, b.next_pid)
  in
  collect node []

(* --- searches --------------------------------------------------------------------------- *)

type leaf_hit = Found of int | Absent | Not_here | Sideways of int * int
(* Sideways (sep word, sibling pid): key >= high, go right. *)

let leaf_search t node probe =
  let rec go n =
    match n with
    | NDelta { dop = DInsert (_, v); dnext; dmeta; _ } ->
        (* Read the key through the delta's persistent line: the pointer
           chase that gives the Bw-tree its high LLC miss count (§7.1). *)
        if t.ks.compare_probe probe (W.get dmeta 1) = 0 then Found v
        else go dnext
    | NDelta { dop = DDelete _; dnext; dmeta; _ } ->
        if t.ks.compare_probe probe (W.get dmeta 1) = 0 then Absent
        else go dnext
    | NDelta { dop = DIndex _; _ } -> assert false
    | NBase b ->
        if b.has_high && t.ks.compare_probe probe b.high >= 0 then
          Sideways (b.high, b.next_pid)
        else begin
          let rec bin lo hi =
            if lo >= hi then Not_here
            else
              let mid = (lo + hi) / 2 in
              let c = t.ks.compare_probe probe (W.get b.keys mid) in
              if c = 0 then Found (W.get b.vals mid)
              else if c < 0 then bin lo mid
              else bin (mid + 1) hi
          in
          bin 0 b.count
        end
  in
  go node

type child_hit = Down of int | Sideways_i of int * int

let internal_child t node probe =
  let rec go n best_low best_pid =
    match n with
    | NDelta { dop = DIndex (_, c); dnext; dmeta; _ } ->
        let s = W.get dmeta 1 in
        if
          t.ks.compare_probe probe s >= 0
          && (best_low = min_int || t.ks.compare_words s best_low > 0)
        then go dnext s c
        else go dnext best_low best_pid
    | NDelta { dop = DInsert _ | DDelete _; _ } -> assert false
    | NBase b ->
        if b.has_high && t.ks.compare_probe probe b.high >= 0 then
          Sideways_i (b.high, b.next_pid)
        else begin
          (* Last base separator <= probe. *)
          let rec scan i best_low best_pid =
            if i >= b.count then (best_low, best_pid)
            else
              let s = W.get b.keys i in
              if t.ks.compare_probe probe s >= 0 then
                if best_low = min_int || t.ks.compare_words s best_low > 0 then
                  scan (i + 1) s (W.get b.vals (i + 1))
                else scan (i + 1) best_low best_pid
              else (best_low, best_pid)
          in
          let low, pid = scan 0 best_low best_pid in
          if low = min_int then Down (W.get b.vals 0) else Down pid
        end
  in
  go node min_int (-1)

(* --- helping: complete an interrupted split's parent update --------------------------- *)

let rec add_index t parent_pid sep child_pid =
  let node = mapping_get t parent_pid in
  (* Already present? *)
  let rec present n =
    match n with
    | NDelta { dop = DIndex (s, _); dnext; _ } ->
        t.ks.compare_words s sep = 0 || present dnext
    | NDelta { dnext; _ } -> present dnext
    | NBase b ->
        let rec scan i =
          i < b.count
          && (t.ks.compare_words (W.get b.keys i) sep = 0 || scan (i + 1))
        in
        scan 0
  in
  if not (present node) then begin
    (* If the separator moved right of the parent (the parent itself split),
       follow the parent's sibling. *)
    match node with
    | NBase b when b.has_high && t.ks.compare_words sep b.high >= 0 ->
        add_index t b.next_pid sep child_pid
    | _ ->
        let d = make_delta ~site:s_index ~leaf:false (DIndex (sep, child_pid)) node in
        Pmem.Crash.point ~site:s_index ();
        if mapping_cas ~site:s_index t parent_pid ~expected:node ~desired:(NDelta d) then begin
          Atomic.incr t.helps [@pm.volatile];
          maybe_consolidate t parent_pid None
        end
        else add_index t parent_pid sep child_pid
  end

(* --- consolidation and splits ------------------------------------------------------------ *)

and maybe_consolidate t pid parent =
  let node = mapping_get t pid in
  if chain_length node > max_chain then consolidate t pid parent node

and consolidate t pid parent node =
  if node_leaf node then begin
    let entries, has_high, high, next_pid = flatten_leaf t node in
    let entries = Array.of_list entries in
    let n = Array.length entries in
    if n <= max_entries then begin
      let nb =
        make_base ~site:s_consol ~leaf:true ~count:n ~has_high ~high ~next_pid
          (fun keys -> Array.iteri (fun i (k, _) -> W.set keys i k) entries)
          (fun vals -> Array.iteri (fun i (_, v) -> W.set vals i v) entries)
      in
      Pmem.Crash.point ~site:s_consol ();
      if mapping_cas ~site:s_consol t pid ~expected:node ~desired:(NBase nb) then
        Atomic.incr t.consolidations [@pm.volatile]
    end
    else split_leaf t pid parent node entries ~has_high ~high ~next_pid
  end
  else begin
    let leftmost, seps, has_high, high, next_pid = flatten_internal t node in
    let seps = Array.of_list seps in
    let n = Array.length seps in
    if n <= max_entries then begin
      let nb =
        make_base ~site:s_consol ~leaf:false ~count:n ~has_high ~high ~next_pid
          (fun keys -> Array.iteri (fun i (s, _) -> W.set keys i s) seps)
          (fun vals ->
            W.set vals 0 leftmost;
            Array.iteri (fun i (_, c) -> W.set vals (i + 1) c) seps)
      in
      Pmem.Crash.point ~site:s_consol ();
      if mapping_cas ~site:s_consol t pid ~expected:node ~desired:(NBase nb) then
        Atomic.incr t.consolidations [@pm.volatile]
    end
    else split_internal t pid parent node leftmost seps ~has_high ~high ~next_pid
  end

and split_leaf t pid parent node entries ~has_high ~high ~next_pid =
  let n = Array.length entries in
  let mid = n / 2 in
  let sep, _ = entries.(mid) in
  (* Sibling with the upper half at a fresh, unpublished page id. *)
  let sib_pid = alloc_pid t in
  let sib =
    make_base ~site:s_split ~leaf:true ~count:(n - mid) ~has_high ~high ~next_pid
      (fun keys ->
        for i = mid to n - 1 do
          W.set keys (i - mid) (fst entries.(i))
        done)
      (fun vals ->
        for i = mid to n - 1 do
          W.set vals (i - mid) (snd entries.(i))
        done)
  in
  mapping_set t sib_pid (NBase sib);
  Pmem.Crash.point ~site:s_split ();
  (* Lower half carries the new high key: the single-CAS logical split. *)
  let lower =
    make_base ~site:s_split ~leaf:true ~count:mid ~has_high:true ~high:sep ~next_pid:sib_pid
      (fun keys ->
        for i = 0 to mid - 1 do
          W.set keys i (fst entries.(i))
        done)
      (fun vals ->
        for i = 0 to mid - 1 do
          W.set vals i (snd entries.(i))
        done)
  in
  if mapping_cas ~site:s_split t pid ~expected:node ~desired:(NBase lower) then begin
    Atomic.incr t.consolidations [@pm.volatile];
    Pmem.Crash.point ~site:s_split ();
    finish_split t pid parent sep sib_pid
  end

and split_internal t pid parent node leftmost seps ~has_high ~high ~next_pid =
  let n = Array.length seps in
  let mid = n / 2 in
  let sep, sep_child = seps.(mid) in
  let sib_pid = alloc_pid t in
  let sib =
    make_base ~site:s_split ~leaf:false ~count:(n - mid - 1) ~has_high ~high ~next_pid
      (fun keys ->
        for i = mid + 1 to n - 1 do
          W.set keys (i - mid - 1) (fst seps.(i))
        done)
      (fun vals ->
        W.set vals 0 sep_child;
        for i = mid + 1 to n - 1 do
          W.set vals (i - mid) (snd seps.(i))
        done)
  in
  mapping_set t sib_pid (NBase sib);
  Pmem.Crash.point ~site:s_split ();
  let lower =
    make_base ~site:s_split ~leaf:false ~count:mid ~has_high:true ~high:sep ~next_pid:sib_pid
      (fun keys ->
        for i = 0 to mid - 1 do
          W.set keys i (fst seps.(i))
        done)
      (fun vals ->
        W.set vals 0 leftmost;
        for i = 0 to mid - 1 do
          W.set vals (i + 1) (snd seps.(i))
        done)
  in
  if mapping_cas ~site:s_split t pid ~expected:node ~desired:(NBase lower) then begin
    Atomic.incr t.consolidations [@pm.volatile];
    Pmem.Crash.point ~site:s_split ();
    finish_split t pid parent sep sib_pid
  end

(* Install the separator in the parent — or grow a new root when the split
   page was the root (the root page id is fixed). *)
and finish_split t pid parent sep sib_pid =
  match parent with
  | Some parent_pid -> add_index t parent_pid sep sib_pid
  | None ->
      if pid = 0 then begin
        (* Root split: push both halves down under a fresh internal root.
           A lost CAS (or a crash anywhere here) leaves the root chained
           sideways — still fully reachable through high-key jumps — and a
           later split of page 0 retries the growth. *)
        let lower_pid = alloc_pid t in
        let old = mapping_get t pid in
        mapping_set ~site:s_root t lower_pid old;
        let new_root =
          make_base ~site:s_root ~leaf:false ~count:1 ~has_high:false ~high:0 ~next_pid:0
            (fun keys -> W.set keys 0 sep)
            (fun vals ->
              W.set vals 0 lower_pid;
              W.set vals 1 sib_pid)
        in
        Pmem.Crash.point ~site:s_root ();
        ignore (mapping_cas ~site:s_root t pid ~expected:old ~desired:(NBase new_root))
      end
      (* else: a sibling of the (still-leaf) root split; its separator is
         installed by helping once the root has grown to an internal node. *)

(* --- descent -------------------------------------------------------------------------------- *)

(* Walk to the leaf page covering [probe]; returns (leaf pid, parent pid
   option).  Helping happens on every sideways jump. *)
let rec to_leaf t probe pid parent =
  let node = mapping_get t pid in
  if node_leaf node then (pid, parent)
  else
    match internal_child t node probe with
    | Down cpid -> to_leaf t probe cpid (Some pid)
    | Sideways_i (sep, sib) ->
        (match parent with
        | Some pp -> add_index t pp sep sib
        | None -> ());
        to_leaf t probe sib parent

(* The root page is the one page whose kind changes: a root split swings
   page 0 from a leaf to an internal node after a descent may have reached
   it as a leaf.  Callers that read a page expecting a leaf re-descend from
   it when it is internal. *)
let rec find_leaf_value t probe pid parent =
  let node = mapping_get t pid in
  if not (node_leaf node) then
    let pid, parent = to_leaf t probe pid parent in
    find_leaf_value t probe pid parent
  else
    match leaf_search t node probe with
    | Found v -> Some v
    | Absent | Not_here -> None
    | Sideways (sep, sib) ->
        (match parent with
        | Some pp -> add_index t pp sep sib
        | None -> ());
        find_leaf_value t probe sib parent

let lookup t probe =
  let pid, parent = to_leaf t probe 0 None in
  find_leaf_value t probe pid parent

(* --- updates ---------------------------------------------------------------------------------- *)

let rec write_op t probe make_op present_result absent_result =
  let pid, parent = to_leaf t probe 0 None in
  let rec attempt pid parent =
    let node = mapping_get t pid in
    if not (node_leaf node) then
      let pid, parent = to_leaf t probe pid parent in
      attempt pid parent
    else
      match leaf_search t node probe with
      | Sideways (sep, sib) ->
          (match parent with
          | Some pp -> add_index t pp sep sib
          | None -> ());
          attempt sib parent
      | (Found _ | Absent | Not_here) as hit -> (
          let decided =
            match hit with
            | Found v -> `Present v
            | Absent | Not_here -> `Absent
            | Sideways _ -> assert false
          in
          match make_op decided with
          | None -> (
              match decided with
              | `Present v -> present_result v
              | `Absent -> absent_result)
          | Some dop ->
              let d = make_delta ~leaf:true dop node in
              Pmem.Crash.point ~site:s_delta ();
              if mapping_cas ~site:s_delta t pid ~expected:node ~desired:(NDelta d) then begin
                maybe_consolidate t pid parent;
                match decided with
                | `Present v -> present_result v
                | `Absent -> absent_result
              end
              else (* CAS lost: abort and restart from the root (§6.3) *)
                write_op t probe make_op present_result absent_result)
  in
  attempt pid parent

let insert t probe value =
  let kw = lazy (t.ks.intern probe) in
  write_op t probe
    (fun decided ->
      match decided with
      | `Present _ -> None
      | `Absent -> Some (DInsert (Lazy.force kw, value)))
    (fun _ -> false)
    true

(* Update = prepend a fresh insert delta that shadows the old binding
   (chain replay is first-delta-wins); lock-free, single CAS. *)
let update t probe value =
  let kw = lazy (t.ks.intern probe) in
  write_op t probe
    (fun decided ->
      match decided with
      | `Present _ -> Some (DInsert (Lazy.force kw, value))
      | `Absent -> None)
    (fun _ -> true)
    false

let delete t probe =
  let kw = lazy (t.ks.intern probe) in
  write_op t probe
    (fun decided ->
      match decided with
      | `Present _ -> Some (DDelete (Lazy.force kw))
      | `Absent -> None)
    (fun _ -> true)
    false

(* --- scans -------------------------------------------------------------------------------------- *)

let scan t probe nwant f =
  if nwant <= 0 then 0
  else begin
    let emitted = ref 0 in
    let exception Done in
    let rec walk pid first =
      let node = mapping_get t pid in
      if not (node_leaf node) then walk (fst (to_leaf t probe pid None)) first
      else
        let entries, has_high, _, next_pid = flatten_leaf t node in
        List.iter
          (fun (k, v) ->
            if (not first) || t.ks.compare_probe probe k <= 0 then begin
              if !emitted >= nwant then raise Done;
              f (t.ks.to_key k) v;
              incr emitted
            end)
          entries;
        if has_high && next_pid > 0 then walk next_pid false
    in
    let pid, _ = to_leaf t probe 0 None in
    (try walk pid true with Done -> ());
    !emitted
  end

let range t lo hi =
  let acc = ref [] in
  let exception Past in
  (try
     ignore
       (scan t lo max_int (fun k v ->
            if String.compare k hi >= 0 then raise Past;
            acc := (k, v) :: !acc))
   with Past -> ());
  List.rev !acc

(* --- recovery -------------------------------------------------------------------------------------- *)

(* A mapping slot is live when it holds a delta chain or a base published by
   [make_base] (live marker in the spare metadata word); the segment-fill
   dummies carry no marker, and an unflushed marker reverts with the base —
   a never-published page correctly reads as dead after a crash. *)
let live_node = function
  | NDelta _ -> true
  | NBase b -> W.length b.bmeta > 5 && W.get b.bmeta 5 = 1

(* B-link fields of a chain, leaf or internal. *)
let chain_links t node =
  if node_leaf node then
    let _, has_high, high, next_pid = flatten_leaf t node in
    (has_high, high, next_pid)
  else
    let _, _, has_high, high, next_pid = flatten_internal t node in
    (has_high, high, next_pid)

(* BFS over pages reachable from the root — through child pointers and
   B-link siblings (a split sibling is reachable through the lower half's
   link before the parent learns its separator).  Calls [f pid parent node]
   once per page; returns the visited set. *)
let iter_reachable t f =
  let visited = Hashtbl.create 64 in
  let rec visit pid parent =
    if not (Hashtbl.mem visited pid) then begin
      Hashtbl.add visited pid ();
      let node = mapping_get t pid in
      f pid parent node;
      if node_leaf node then begin
        let _, has_high, _, next_pid = flatten_leaf t node in
        if has_high && next_pid > 0 then visit next_pid parent
      end
      else begin
        let leftmost, seps, has_high, _, next_pid = flatten_internal t node in
        visit leftmost (Some pid);
        List.iter (fun (_, c) -> visit c (Some pid)) seps;
        if has_high && next_pid > 0 then visit next_pid parent
      end
    end
  in
  visit 0 None;
  visited

(* Post-crash recovery:
   - rebuild the volatile page-id allocator from the highest live mapping
     slot;
   - complete an interrupted root split (root still a leaf with a B-link:
     the growth CAS was lost) by replaying [finish_split];
   - walk the reachable pages doing eager helping — every sibling hanging
     off a B-link gets its separator installed in the parent ([add_index]
     no-ops when it is already there) — and consolidating chains past the
     length threshold, converting the lazy repairs into eager ones. *)
let recover t =
  Util.Lock.new_epoch ();
  let hi = ref 0 in
  Array.iteri
    (fun s cell ->
      match Atomic.get cell with
      | None -> ()
      | Some seg ->
          for j = 0 to mapping_segment - 1 do
            if live_node (R.get seg j) then hi := max !hi ((s * mapping_segment) + j)
          done)
    t.segments;
  Atomic.set t.next_pid (!hi + 1) [@pm.volatile];
  let helps0 = Atomic.get t.helps and cons0 = Atomic.get t.consolidations in
  let root_completed = ref 0 in
  (let root = mapping_get t 0 in
   if node_leaf root then begin
     let _, has_high, high, next_pid = flatten_leaf t root in
     if has_high && next_pid > 0 then begin
       finish_split t 0 None high next_pid;
       incr root_completed
     end
   end);
  ignore
    (iter_reachable t (fun pid parent node ->
         let has_high, high, next_pid = chain_links t node in
         (match parent with
         | Some pp when has_high && next_pid > 0 -> add_index t pp high next_pid
         | Some _ | None -> ());
         maybe_consolidate t pid parent));
  Atomic.set t.repairs
    (!root_completed
    + (Atomic.get t.helps - helps0)
    + (Atomic.get t.consolidations - cons0))
  [@pm.volatile]

(* Sweep live mapping slots unreachable from the root: a split sibling (or a
   root split's demoted lower half) published at a fresh page id whose
   committing CAS was lost to the crash.  [~reclaim:true] resets the slot to
   a dummy placeholder. *)
let leak_sweep ?(reclaim = false) t =
  let reachable = iter_reachable t (fun _ _ _ -> ()) in
  let orphans = ref 0 and reclaimed = ref 0 in
  Array.iteri
    (fun s cell ->
      match Atomic.get cell with
      | None -> ()
      | Some seg ->
          for j = 0 to mapping_segment - 1 do
            let pid = (s * mapping_segment) + j in
            if live_node (R.get seg j) && not (Hashtbl.mem reachable pid) then begin
              incr orphans;
              if reclaim then begin
                mapping_set ~site:s_recover t pid (NBase (dummy_base ()));
                incr reclaimed
              end
            end
          done)
    t.segments;
  { Recipe.Recovery.repaired = Atomic.get t.repairs; orphans = !orphans; reclaimed = !reclaimed }
