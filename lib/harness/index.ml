(* The index registry: one entry per index of the reproduction, and the
   three projections that bind an entry to the tools (crash campaigns, the
   KV service, YCSB).  See index.mli. *)

type sizing = Small | Ycsb of Ycsb.key_kind

type 'k ops = {
  insert : 'k -> int -> bool;
  update : ('k -> int -> bool) option;
  lookup : 'k -> int option;
  delete : 'k -> bool;
  scan : ('k -> int -> ('k -> int -> unit) -> int) option;
  recover : unit -> unit;
  sweep : unit -> Recipe.Recovery.stats;
}

type family = Ordered of (sizing -> string ops) | Hash of (sizing -> int ops)

type t = {
  name : string;
  aliases : string list;
  converted : bool;
  lockfree_lookup : bool;
  family : family;
  bugs : (string * family) list;
}

(* --- native ops ----------------------------------------------------------- *)

let ops ~insert ?update ~lookup ~delete ?scan ~recover ~sweep t =
  {
    insert = insert t;
    update = Option.map (fun u -> u t) update;
    lookup = lookup t;
    delete = delete t;
    scan = Option.map (fun s -> s t) scan;
    recover = (fun () -> recover t);
    sweep = (fun () -> sweep t);
  }

(* Word-key space of the B+-trees: integer words unless a YCSB workload
   asks for string keys (paper §7's two key modes). *)
let space = function
  | Small | Ycsb Ycsb.Randint -> Recipe.Wordkey.int_space ()
  | Ycsb Ycsb.Strkey -> Recipe.Wordkey.string_space ()

(* Hash tables start tiny in campaigns and serving so short loads resize;
   YCSB keeps each constructor's paper-sized default. *)
let capacity small = function Small -> Some small | Ycsb _ -> None

let art_ops t =
  ops ~insert:Art.insert ~update:Art.update ~lookup:Art.lookup
    ~delete:Art.delete ~scan:Art.scan ~recover:Art.recover
    ~sweep:(Art.leak_sweep ~reclaim:true) t

let hot_ops t =
  ops ~insert:Hot.insert ~update:Hot.update ~lookup:Hot.lookup
    ~delete:Hot.delete ~scan:Hot.scan ~recover:Hot.recover
    ~sweep:(fun t -> Hot.leak_sweep t)
    t

let masstree_ops t =
  ops ~insert:Masstree.insert ~update:Masstree.update ~lookup:Masstree.lookup
    ~delete:Masstree.delete ~scan:Masstree.scan ~recover:Masstree.recover
    ~sweep:(Masstree.leak_sweep ~reclaim:true) t

let bwtree_ops t =
  ops ~insert:Bwtree.insert ~update:Bwtree.update ~lookup:Bwtree.lookup
    ~delete:Bwtree.delete ~scan:Bwtree.scan ~recover:Bwtree.recover
    ~sweep:(Bwtree.leak_sweep ~reclaim:true) t

let woart_ops t =
  ops ~insert:Woart.insert ~update:Woart.update ~lookup:Woart.lookup
    ~delete:Woart.delete ~scan:Woart.scan ~recover:Woart.recover
    ~sweep:(Woart.leak_sweep ~reclaim:true) t

let fastfair ?bug_highkey ?bug_split_order ?bug_root_flush sizing =
  ops ~insert:Fastfair.insert ~lookup:Fastfair.lookup ~delete:Fastfair.delete
    ~scan:Fastfair.scan ~recover:Fastfair.recover
    ~sweep:(Fastfair.leak_sweep ~reclaim:true)
    (Fastfair.create ?bug_highkey ?bug_split_order ?bug_root_flush
       ~space:(space sizing) ())

let clht sizing =
  ops ~insert:Clht.insert ~lookup:Clht.lookup ~delete:Clht.delete
    ~recover:Clht.recover
    ~sweep:(Clht.leak_sweep ~reclaim:true)
    (Clht.create ?capacity:(capacity 16 sizing) ())

let cceh ?bug_doubling sizing =
  ops ~insert:Cceh.insert ~lookup:Cceh.lookup ~delete:Cceh.delete
    ~recover:Cceh.recover
    ~sweep:(Cceh.leak_sweep ~reclaim:true)
    (Cceh.create ?bug_doubling ?capacity:(capacity 128 sizing) ())

let levelhash sizing =
  ops ~insert:Levelhash.insert ~lookup:Levelhash.lookup
    ~delete:Levelhash.delete ~recover:Levelhash.recover
    ~sweep:(Levelhash.leak_sweep ~reclaim:true)
    (Levelhash.create ?capacity:(capacity 12 sizing) ())

(* --- the registry --------------------------------------------------------- *)

let entry ?(aliases = []) ?(bugs = []) ~converted ~lockfree_lookup name
    family =
  { name; aliases; converted; lockfree_lookup; family; bugs }

(* [lockfree_lookup], per index, from its lookup code:
   - P-ART, P-HOT: lock-free descents over nodes a writer publishes with
     one atomic store (ROWEX);
   - P-Masstree: reads the permutation word and follows siblings right,
     never waiting on a node's lock;
   - P-CLHT, CCEH, Level: re-read the key after the value (atomic
     snapshot), no bucket or segment lock;
   - P-BwTree: no — a lookup that meets an unfinished split helps it,
     installing the separator itself, so it writes;
   - FAST&FAIR: no — a reader retries while a node's version is odd, so it
     would spin on a node a crashed writer left odd;
   - WOART: no — every operation takes one global lock. *)
let art =
  entry Art.name ~aliases:[ "art" ] ~converted:true ~lockfree_lookup:true
    (Ordered (fun _ -> art_ops (Art.create ())))

let all =
  [
    art;
    entry Hot.name ~aliases:[ "hot" ] ~converted:true ~lockfree_lookup:true
      (Ordered (fun _ -> hot_ops (Hot.create ())));
    entry Masstree.name ~aliases:[ "masstree" ] ~converted:true
      ~lockfree_lookup:true
      (Ordered (fun _ -> masstree_ops (Masstree.create ())));
    entry Bwtree.name ~aliases:[ "bwtree" ] ~converted:true
      ~lockfree_lookup:false
      (Ordered (fun sz -> bwtree_ops (Bwtree.create ~space:(space sz) ())));
    entry Fastfair.name ~aliases:[ "fastfair"; "ff" ] ~converted:false
      ~lockfree_lookup:false
      (Ordered fastfair)
      ~bugs:
        [
          ("highkey", Ordered (fastfair ~bug_highkey:true));
          ("split-order", Ordered (fastfair ~bug_split_order:true));
          ("root-flush", Ordered (fastfair ~bug_root_flush:true));
        ];
    entry Woart.name ~aliases:[ "w" ] ~converted:false ~lockfree_lookup:false
      (Ordered (fun _ -> woart_ops (Woart.create ())));
    entry Clht.name ~aliases:[ "clht" ] ~converted:true ~lockfree_lookup:true
      (Hash clht);
    entry Cceh.name ~converted:false ~lockfree_lookup:true
      (Hash cceh)
      ~bugs:[ ("doubling", Hash (cceh ~bug_doubling:true)) ];
    entry Levelhash.name ~aliases:[ "levelhash" ] ~converted:false
      ~lockfree_lookup:true
      (Hash levelhash);
  ]

let find name =
  let n = String.lowercase_ascii name in
  List.find_opt
    (fun e -> String.lowercase_ascii e.name = n || List.mem n e.aliases)
    all

let names () = String.concat ", " (List.map (fun e -> e.name) all)

let variant e bug =
  List.assoc_opt bug e.bugs
  |> Option.map (fun family ->
         { e with name = e.name ^ "(buggy)"; family; bugs = [] })

let resolve name bug =
  match (find name, bug) with
  | None, _ ->
      Error (Printf.sprintf "unknown index %S (one of: %s)" name (names ()))
  | Some e, None -> Ok e
  | Some e, Some b -> (
      match variant e b with
      | Some v -> Ok v
      | None ->
          Error
            (Printf.sprintf "%s has no --bug %S (%s)" e.name b
               (match e.bugs with
               | [] -> "it has no seeded bugs"
               | bugs -> "one of: " ^ String.concat ", " (List.map fst bugs))))

let ordered e = match e.family with Ordered _ -> true | Hash _ -> false

(* --- projections ---------------------------------------------------------- *)

let k = Util.Keys.encode_int

let subject e () =
  match e.family with
  | Ordered make ->
      let o = make Small in
      {
        Crashtest.sname = e.name;
        insert = (fun key v -> o.insert (k key) v);
        lookup = (fun key -> o.lookup (k key));
        recover = o.recover;
        scan_all =
          Option.map
            (fun scan () ->
              let acc = ref [] in
              ignore
                (scan (k 0) max_int (fun key v ->
                     acc := (Util.Keys.decode_int key, v) :: !acc));
              List.rev !acc)
            o.scan;
        sweep = Some o.sweep;
      }
  | Hash make ->
      let o = make Small in
      {
        Crashtest.sname = e.name;
        insert = o.insert;
        lookup = o.lookup;
        recover = o.recover;
        scan_all = None;
        sweep = Some o.sweep;
      }

(* An 8-byte key decodes as the big-endian integer ({!Util.Keys.encode_int}
   round-trip — what the load generator and crash campaigns send); any other
   length falls back to a 62-bit FNV-1a of the bytes (best-effort: two
   distinct long keys colliding would alias, which the service's own
   traffic never produces). *)
let int_of_key s =
  if String.length s = Util.Keys.int_key_length then Util.Keys.decode_int s
  else begin
    let h = ref 0x4BF29CE484222325 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001B3) s;
    !h land max_int
  end

let upsert o =
  match o.update with
  | None -> o.insert
  | Some update -> fun key v -> o.insert key v || update key v

let partition e () =
  match e.family with
  | Ordered make ->
      let o = make Small in
      {
        Kvserve.Server.p_name = e.name;
        p_insert = upsert o;
        p_lookup = o.lookup;
        p_lockfree_lookup = e.lockfree_lookup;
        p_key_ok = (fun _ -> true);
        p_delete = o.delete;
        p_scan =
          Option.map
            (fun scan start n ->
              let acc = ref [] in
              ignore (scan start n (fun key v -> acc := (key, v) :: !acc));
              List.rev !acc)
            o.scan;
        p_recover = o.recover;
        p_sweep = Some o.sweep;
      }
  | Hash make ->
      let o = make Small in
      let insert = upsert o in
      {
        Kvserve.Server.p_name = e.name;
        p_insert = (fun key v -> insert (int_of_key key) v);
        p_lookup = (fun key -> o.lookup (int_of_key key));
        p_lockfree_lookup = e.lockfree_lookup;
        (* The hash tables take positive integer keys only. *)
        p_key_ok = (fun key -> int_of_key key > 0);
        p_delete = (fun key -> o.delete (int_of_key key));
        p_scan = None;
        p_recover = o.recover;
        p_sweep = Some o.sweep;
      }

let sink_scan (_ : string) (_ : int) = ()

let ordered_driver name p o =
  {
    Ycsb.dname = name;
    insert = (fun i -> ignore (o.insert (Ycsb.key_string p i) i));
    read = (fun i -> o.lookup (Ycsb.key_string p i) <> None);
    scan =
      Option.map
        (fun scan i len -> scan (Ycsb.key_string p i) len sink_scan)
        o.scan;
  }

let driver ?kind e p =
  let sizing = Ycsb (Option.value kind ~default:(Ycsb.kind p)) in
  match e.family with
  | Ordered make -> ordered_driver e.name p (make sizing)
  | Hash make ->
      let o = make sizing in
      {
        Ycsb.dname = e.name;
        insert = (fun i -> ignore (o.insert (Ycsb.key_int p i) i));
        read = (fun i -> o.lookup (Ycsb.key_int p i) <> None);
        scan = None;
      }
