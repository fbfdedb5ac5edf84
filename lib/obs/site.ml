(* Attribution sites: index name × structural location.

   A site is created once at module initialization of an index library
   (e.g. [Site.v ~index:"P-ART" "n4/add"]) and passed to the flush, fence
   and crash-point primitives, which bump the site's sharded counters.  The
   substrate routes every *untagged* flush and fence to {!untagged}, and the
   site counters are the only flush and fence counters: the [Stats] totals
   are their sums ({!clwb_total}), so sites and totals cannot disagree.

   Sites created with [~crash:true] declare a crash-point location; the
   campaign coverage report compares the declared set against the sites
   where an injected crash actually fired. *)

type t = {
  index : string;
  label : string;
  name : string; (* "index/label" *)
  clwb : Counter.t;
  sfence : Counter.t;
  crash_site : bool;
  crash_visits : Counter.t; (* armed passes through the point *)
  crash_fires : Counter.t; (* crashes injected at the point *)
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let create ~index ~crash label name =
  let t =
    {
      index;
      label;
      name;
      clwb = Counter.v ("site." ^ name ^ ".clwb");
      sfence = Counter.v ("site." ^ name ^ ".sfence");
      crash_site = crash;
      crash_visits = Counter.v ("site." ^ name ^ ".crash_visits");
      crash_fires = Counter.v ("site." ^ name ^ ".crash_fires");
    }
  in
  Hashtbl.add registry name t;
  t

(* Registration is strict: a tag names one structural location, and two
   [v] calls for the same tag would silently share (or, typo'd, split)
   attribution between unrelated call sites.  Callers that legitimately
   re-derive a site from a tag they did not register (dynamic labels,
   test probes) use [find_or_create]/[find]. *)
let v ~index ?(crash = false) label =
  let name = index ^ "/" ^ label in
  Mutex.lock registry_mu;
  match Hashtbl.find_opt registry name with
  | Some _ ->
      Mutex.unlock registry_mu;
      invalid_arg
        (Printf.sprintf
           "Obs.Site.v: duplicate registration of site %S — each tag is \
            registered exactly once (use Obs.Site.find_or_create to look up \
            a site registered elsewhere)"
           name)
  | None ->
      let t = create ~index ~crash label name in
      Mutex.unlock registry_mu;
      t

(** Memoizing lookup: returns the already-registered site for this tag, or
    registers it.  For dynamic tags (the sanitizer's per-allocation
    "alloc/<name>" sites) and probes that want an index's site without
    owning its registration. *)
let find_or_create ~index ?(crash = false) label =
  let name = index ^ "/" ^ label in
  Mutex.lock registry_mu;
  let t =
    match Hashtbl.find_opt registry name with
    | Some t -> t
    | None -> create ~index ~crash label name
  in
  Mutex.unlock registry_mu;
  t

let find name =
  Mutex.lock registry_mu;
  let t = Hashtbl.find_opt registry name in
  Mutex.unlock registry_mu;
  t

(* Catch-all for flushes and fences issued without a site label (harness
   code, conversion prologues not yet tagged). *)
let untagged = v ~index:"_untagged" "flush"

let name t = t.name
let index t = t.index
let label t = t.label
let is_crash_site t = t.crash_site

let hit_clwb t = Counter.incr t.clwb
let hit_sfence t = Counter.incr t.sfence
let crash_visit t = Counter.incr t.crash_visits
let crash_fire t = Counter.incr t.crash_fires

let clwb_count t = Counter.value t.clwb
let sfence_count t = Counter.value t.sfence
let crash_visit_count t = Counter.value t.crash_visits
let crash_fire_count t = Counter.value t.crash_fires

(* Sum of one counter over every registered site: the [Stats] totals. *)
let total counter =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.fold (fun _ t acc -> acc + Counter.value (counter t)) registry 0)

let clwb_total () = total (fun t -> t.clwb)
let sfence_total () = total (fun t -> t.sfence)

let reset_flush_counts () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.iter
        (fun _ t ->
          Counter.reset t.clwb;
          Counter.reset t.sfence)
        registry)

let all () =
  Mutex.lock registry_mu;
  let l = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> compare a.name b.name) l

let by_index idx = List.filter (fun t -> t.index = idx) (all ())

(* Distinct index names owning at least one registered site. *)
let indexes () =
  List.sort_uniq compare (List.map (fun t -> t.index) (all ()))

(* Crash-point coverage of one index: sites declared as crash points, how
   many were visited while armed, how many actually had a crash injected. *)
type coverage = {
  cov_index : string;
  registered : int;
  visited : int;
  exercised : int;
  unexercised : string list; (* labels of declared-but-never-fired points *)
}

let coverage idx =
  let sites = List.filter is_crash_site (by_index idx) in
  let visited = List.filter (fun s -> crash_visit_count s > 0) sites in
  let fired = List.filter (fun s -> crash_fire_count s > 0) sites in
  {
    cov_index = idx;
    registered = List.length sites;
    visited = List.length visited;
    exercised = List.length fired;
    unexercised =
      List.filter_map
        (fun s -> if crash_fire_count s = 0 then Some s.label else None)
        sites;
  }
