(* PSan: persistency-ordering & domain-race sanitizer.

   RECIPE's correctness argument (§4) reduces to checkable ordering rules:
   anything a commit store makes reachable must be persisted first
   (Condition #1/#2), every flush/fence must do work (the perf smells of
   Table 4), and non-atomic data shared between threads must be published
   through a release/acquire edge.  The crash-test campaigns check the first
   rule *indirectly*, by sampling crash states and diffing recovered
   contents; this module checks all three *online*, PMTest-style, at every
   substrate event, so a missing flush becomes a deterministic, site-
   attributed report on the very operation that committed it.

   Mechanics: [enable] sets [Pmem.Mode.f_sanitize] and installs the
   sanitizer layer of the {!Pmem.Hook} seam (and {!Util.Lock} hooks); the
   substrate then reports every allocation, store, load, clwb, sfence,
   commit-publication, crash, and quiesce point.  The engine maintains:

   - a per-cache-line persistency state machine
       dirty --clwb--> flushed-unfenced --sfence (by the writing domain)-->
       persisted --store--> dirty
     keyed by global line id, with the last writer's site for attribution;
   - a per-domain *pending set*: lines this domain has written that are not
     yet persisted.  At every [Recipe.Persist] commit (the only publication
     points of the conversion discipline) any pending line other than the
     commit's own — the commit flushes that one immediately — is a
     Condition #1/#2 violation: [unpersisted-publish];
   - per-domain flush-since-fence counts: a fence with zero intervening
     flushes is [redundant-fence]; a clwb of a line already persisted is
     [redundant-flush];
   - a lightweight scalar-clock race check: every plain store stamps its
     word with a fresh global tick; release points (atomic stores/CAS,
     commit publications, lock hand-offs, domain joins) propagate the
     writer's clock, acquire points join it.  A plain read of a word whose
     stamp exceeds the reader's clock, from a different domain, outside a
     declared speculative (seqlock) section, is a [domain-race].

   All diagnostics land in {!Obs.Diag}, deduplicated, with the offending
   store site and the exposing publication/fence site.  Everything here is
   the sanitize-on slow path; when off, the substrate pays one extra bit in
   the flags test it already performs (asserted by test/test_psan.ml). *)

(* Diagnostic kinds. *)
let k_publish = "unpersisted-publish"
let k_flush = "redundant-flush"
let k_fence = "redundant-fence"
let k_race = "domain-race"

(* --- global clock -------------------------------------------------------- *)

let gclock = Atomic.make 1
let tick () = 1 + Atomic.fetch_and_add gclock 1
let now () = Atomic.get gclock

(* Total substrate events seen while enabled: the zero-overhead guard
   asserts this stays put across sanitize-off workloads. *)
let events = Atomic.make 0
let events_seen () = Atomic.get events

(* --- sharded int-keyed tables -------------------------------------------

   Line and word state is shared by every domain; a handful of mutex shards
   keeps the sanitize-on path from serializing multi-domain runs on one
   lock.  Global line ids are never reused ({!Pmem.Line_id} is a fetch-add
   counter), so records only accumulate. *)

module Tbl = struct
  let shards = 16

  type 'a shard = { mu : Mutex.t; tbl : (int, 'a) Hashtbl.t }
  type 'a t = 'a shard array

  let create () =
    Array.init shards (fun _ ->
        { mu = Mutex.create (); tbl = Hashtbl.create 512 })

  (* Find-or-create [k], then run [f] on the record under the shard lock. *)
  let with_key t k make f =
    let s = Array.unsafe_get t (k land (shards - 1)) in
    Mutex.lock s.mu;
    let r =
      match Hashtbl.find_opt s.tbl k with
      | Some r -> r
      | None ->
          let r = make () in
          Hashtbl.add s.tbl k r;
          r
    in
    let out = f r in
    Mutex.unlock s.mu;
    out

  (* Run [f] on [k]'s record if present. *)
  let find t k f =
    let s = Array.unsafe_get t (k land (shards - 1)) in
    Mutex.lock s.mu;
    let out =
      match Hashtbl.find_opt s.tbl k with
      | Some r -> Some (f r)
      | None -> None
    in
    Mutex.unlock s.mu;
    out

  let iter t f =
    Array.iter
      (fun s ->
        Mutex.lock s.mu;
        Hashtbl.iter (fun _ r -> f r) s.tbl;
        Mutex.unlock s.mu)
      t

  let clear t =
    Array.iter
      (fun s ->
        Mutex.lock s.mu;
        Hashtbl.reset s.tbl;
        Mutex.unlock s.mu)
      t
end

(* --- line / word / domain state ------------------------------------------ *)

let st_dirty = 0
let st_flushed = 1
let st_persisted = 2

type line_rec = {
  mutable st : int;
  mutable owner : int; (* domain of the last store *)
  mutable store_site : Obs.Site.t option; (* last attributed store *)
  mutable obj : string;
  mutable reported : bool; (* dedupe until the next store *)
  mutable persister : int;
      (* Domain whose fence moved it to persisted; -1 = a checkpoint.
         A redundant-flush is only reported against the domain that
         persisted the line itself: when lock-free writers share a line
         (CAS slots, 8 per line), one domain's commit fence can persist a
         neighbour's store first, and the neighbour's then-superfluous
         flush is concurrency coalescing, not a statically removable
         instruction. *)
}

type word_rec = {
  mutable wdom : int; (* last plain/atomic writer *)
  mutable wstamp : int; (* global tick of that write *)
  mutable wsite : Obs.Site.t option;
  mutable pub : int; (* release clock; 0 = never released *)
  mutable wreported : bool;
}

let lines : line_rec Tbl.t = Tbl.create ()
let words : word_rec Tbl.t = Tbl.create ()
let locks : int ref Tbl.t = Tbl.create ()

type dom = {
  mutable did : int; (* Domain id occupying this slot; -1 = free *)
  mutable clock : int;
  pending : (int, unit) Hashtbl.t; (* this domain's unpersisted lines *)
  mutable flushes : int; (* clwbs since this domain's last fence *)
}

let doms =
  Array.init Obs.Slot.max_domains (fun _ ->
      { did = -1; clock = 0; pending = Hashtbl.create 64; flushes = 0 })

(* One record per {!Obs.Slot}.  A slot outlives its domain and is recycled,
   so (re)initialize the record whenever a new domain id lands on it.  A
   fresh domain starts with the current global clock — the spawn edge:
   everything written before it existed is visible to it. *)
let dom () =
  let did = (Domain.self () :> int) in
  let d = Array.unsafe_get doms (Obs.Slot.get ()) in
  if d.did <> did then begin
    d.did <- did;
    d.clock <- now ();
    Hashtbl.reset d.pending;
    d.flushes <- 0
  end;
  d

let races_on = ref true

(* --- reporting ----------------------------------------------------------- *)

let diag kind ~store_site ~expose_site ~obj ~line ~domain detail =
  Obs.Diag.report
    {
      Obs.Diag.kind;
      store_site;
      expose_site;
      obj;
      line;
      domain;
      detail;
    }

(* --- event handlers ------------------------------------------------------ *)

let on_alloc name base n_lines =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  (* Allocation stores are not persistent until flushed; attribute the
     pending lines to a synthetic "alloc/<object>" site so an unflushed
     allocation (the §7.5 FAST&FAIR / CCEH root bugs) is reported with a
     name, not as an anonymous store. *)
  let site = Some (Obs.Site.find_or_create ~index:"alloc" name) in
  for l = base to base + n_lines - 1 do
    Tbl.with_key lines l
      (fun () ->
        { st = st_dirty; owner = d.did; store_site = site; obj = name;
          reported = false; persister = -1 })
      (fun r ->
        r.st <- st_dirty;
        r.owner <- d.did;
        r.store_site <- site;
        r.obj <- name;
        r.reported <- false);
    Hashtbl.replace d.pending l ()
  done

let on_store name base i release _persist =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  let line = base + (i lsr 3) in
  let wid = (base lsl 3) + i in
  let site = Pmem.Sanhook.current_site () in
  Tbl.with_key lines line
    (fun () ->
      { st = st_dirty; owner = d.did; store_site = site; obj = name;
        reported = false; persister = -1 })
    (fun r ->
      r.st <- st_dirty;
      r.owner <- d.did;
      (match site with Some _ -> r.store_site <- site | None -> ());
      r.obj <- name;
      r.reported <- false);
  Hashtbl.replace d.pending line ();
  let stamp = tick () in
  Tbl.with_key words wid
    (fun () ->
      (* A release store publishes even on the word's first write — a fresh
         atomic slot (new node's child pointer) must give its readers the
         edge covering the node's construction. *)
      { wdom = d.did; wstamp = stamp; wsite = site;
        pub = (if release then stamp else 0); wreported = false })
    (fun w ->
      (* RMW/atomic stores are acquire too: join the previous release. *)
      if release && w.pub > d.clock then d.clock <- w.pub;
      w.wdom <- d.did;
      w.wstamp <- stamp;
      w.wsite <- site;
      w.wreported <- false;
      if release then w.pub <- stamp);
  d.clock <- stamp

(* Atomic read-modify-write: run the hardware op inside the word's critical
   section so the new value cannot become visible before its release clock —
   a reader of [Words.get]/[Refs.get] joins the clock *after* its read, so
   the two orderings together close the publish race on the engine itself.
   A successful RMW is a release store; a failed CAS is an acquire load. *)
let on_rmw name base i op _persist =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  let line = base + (i lsr 3) in
  let wid = (base lsl 3) + i in
  let site = Pmem.Sanhook.current_site () in
  let ok =
    Tbl.with_key words wid
      (fun () ->
        { wdom = -1; wstamp = 0; wsite = None; pub = 0; wreported = false })
      (fun w ->
        let ok = op () in
        if w.pub > d.clock then d.clock <- w.pub;
        if ok then begin
          let stamp = tick () in
          w.wdom <- d.did;
          w.wstamp <- stamp;
          w.wsite <- site;
          w.wreported <- false;
          w.pub <- stamp;
          d.clock <- stamp
        end;
        ok)
  in
  if ok then begin
    Tbl.with_key lines line
      (fun () ->
        { st = st_dirty; owner = d.did; store_site = site; obj = name;
          reported = false; persister = -1 })
      (fun r ->
        r.st <- st_dirty;
        r.owner <- d.did;
        (match site with Some _ -> r.store_site <- site | None -> ());
        r.obj <- name;
        r.reported <- false);
    Hashtbl.replace d.pending line ()
  end;
  ok

let on_load name base i acquire =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  let wid = (base lsl 3) + i in
  ignore
    (Tbl.find words wid (fun w ->
         (* Join the word's release clock: an atomic load is an acquire;
            a plain load of a committed word rides the commit's release
            (the TSO read-from edge the flat substrate leans on). *)
         if w.pub > d.clock then d.clock <- w.pub;
         if
           (not acquire)
           && !races_on
           && w.wdom <> d.did
           && w.wstamp > d.clock
           && (not w.wreported)
           && Pmem.Sanhook.spec_depth () = 0
         then begin
           w.wreported <- true;
           diag k_race ~store_site:w.wsite ~expose_site:None ~obj:name
             ~line:wid ~domain:d.did
             (Printf.sprintf
                "plain word %d written by domain %d, read by domain %d with \
                 no release/acquire edge"
                wid w.wdom d.did)
         end))

(* The sanitizer observes flushes and fences; it never drops one (both
   handlers answer [false] to the seam). *)
let on_clwb name base i site =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  let line = base + (i lsr 3) in
  d.flushes <- d.flushes + 1;
  Tbl.with_key lines line
    (fun () ->
      (* First sighting: a flush of a line allocated before [enable];
         unknown history, so never flag it. *)
      { st = st_flushed; owner = d.did; store_site = None; obj = name;
        reported = false; persister = -1 })
    (fun r ->
      if r.st = st_dirty then r.st <- st_flushed
      else if r.st = st_persisted && r.persister = d.did && not r.reported
      then begin
        r.reported <- true;
        diag k_flush ~store_site:site ~expose_site:None ~obj:r.obj ~line
          ~domain:d.did "clwb of an already-persisted line"
      end);
  false

let on_sfence site =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  if d.flushes = 0 then
    diag k_fence ~store_site:site ~expose_site:None ~obj:"" ~line:0
      ~domain:d.did "sfence with no clwb since this domain's last fence"
  else begin
    d.flushes <- 0;
    (* The fence persists every line this domain has flushed. *)
    let done_ = ref [] in
    Hashtbl.iter
      (fun l () ->
        match Tbl.find lines l (fun r ->
                  if r.st = st_flushed then begin
                    r.st <- st_persisted;
                    r.persister <- d.did;
                    r.reported <- false;
                    true
                  end
                  else r.st = st_persisted)
        with
        | Some true -> done_ := l :: !done_
        | _ -> ())
      d.pending;
    List.iter (fun l -> Hashtbl.remove d.pending l) !done_
  end;
  false

let on_publish name base i site =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  let line = base + (i lsr 3) in
  let wid = (base lsl 3) + i in
  (* The commit store is a release: readers that see the committed word see
     everything that preceded it. *)
  let stamp = tick () in
  Tbl.with_key words wid
    (fun () ->
      { wdom = d.did; wstamp = stamp; wsite = site; pub = stamp;
        wreported = false })
    (fun w -> w.pub <- stamp);
  d.clock <- stamp;
  (* Condition #1/#2: nothing this publication makes reachable may still be
     dirty or flushed-unfenced.  The commit's own line is exempt — the
     combinator flushes and fences it immediately after this store. *)
  let offenders = ref [] in
  Hashtbl.iter
    (fun l () -> if l <> line then offenders := l :: !offenders)
    d.pending;
  List.iter
    (fun l ->
      let drop =
        match
          Tbl.find lines l (fun r ->
              if r.st = st_persisted then true
              else begin
                if not r.reported then begin
                  r.reported <- true;
                  diag k_publish ~store_site:r.store_site ~expose_site:site
                    ~obj:r.obj ~line:l ~domain:d.did
                    (if r.st = st_dirty then
                       "published while line still dirty (missing clwb)"
                     else
                       "published while line flushed but unfenced (missing \
                        sfence)")
                end;
                true
              end)
        with
        | Some b -> b
        | None -> true
      in
      if drop then Hashtbl.remove d.pending l)
    !offenders;
  ignore name

let on_crash () =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  (* The interrupted operation unwinds; its unflushed stores will be thrown
     away by the power-failure revert.  Forget them so they cannot poison
     post-recovery publications. *)
  Hashtbl.reset d.pending;
  d.flushes <- 0

let on_quiesce () =
  ignore (Atomic.fetch_and_add events 1);
  (* Whole-machine persist or power-failure revert, called at quiescent
     points by the harness: every line now equals its durable image, and
     the caller has observed every domain's writes. *)
  Tbl.iter lines (fun r ->
      r.st <- st_persisted;
      r.persister <- -1;
      r.reported <- false);
  let g = now () in
  Array.iter
    (fun d ->
      Hashtbl.reset d.pending;
      d.flushes <- 0;
      if d.did >= 0 then d.clock <- g)
    doms

let on_sync () =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  d.clock <- now ()

let on_lock_acquired id =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  ignore
    (Tbl.find locks id (fun c -> if !c > d.clock then d.clock <- !c))

let on_lock_released id =
  ignore (Atomic.fetch_and_add events 1);
  let d = dom () in
  let g = tick () in
  d.clock <- g;
  Tbl.with_key locks id (fun () -> ref g) (fun c -> c := g)

(* --- lifecycle ----------------------------------------------------------- *)

let reset_state () =
  Tbl.clear lines;
  Tbl.clear words;
  Tbl.clear locks;
  Array.iter
    (fun d ->
      d.did <- -1;
      d.clock <- 0;
      Hashtbl.reset d.pending;
      d.flushes <- 0)
    doms

let enabled () = Pmem.Mode.sanitize_enabled ()

(** Turn the sanitizer on.  [races:false] keeps the persistency-ordering
    checks but disables the cross-domain race check.  Call at a quiescent
    point (no concurrent index operations); objects allocated before
    enabling are tracked lazily from their first sanitized event. *)
let enable ?(races = true) () =
  if Pmem.Mode.dram_enabled () then
    invalid_arg "Psan.enable: sanitize mode is meaningless under DRAM mode";
  races_on := races;
  reset_state ();
  Pmem.Hook.set Pmem.Hook.Sanitize
    (Some
       {
         Pmem.Hook.alloc = on_alloc;
         store = on_store;
         load = on_load;
         rmw = on_rmw;
         clwb = on_clwb;
         sfence = on_sfence;
         publish = on_publish;
         crash = on_crash;
         quiesce = on_quiesce;
         sync = on_sync;
       });
  Util.Lock.set_hooks ~acquired:on_lock_acquired ~released:on_lock_released;
  Pmem.Mode.set_sanitize true

let disable () =
  Pmem.Mode.set_sanitize false;
  Util.Lock.clear_hooks ();
  Pmem.Hook.set Pmem.Hook.Sanitize None

(** [with_sanitizer f] runs [f] under the sanitizer, restoring the previous
    (off) state whatever happens.  Diagnostics are left in {!Obs.Diag} for
    the caller to inspect. *)
let with_sanitizer ?races f =
  enable ?races ();
  Fun.protect ~finally:disable f

(* Diagnostic passthroughs, so callers need not know the sink module. *)
let diagnostics = Obs.Diag.all
let diagnostic_count = Obs.Diag.count
let count_kind = Obs.Diag.count_kind
let clear_diagnostics = Obs.Diag.clear
let print_report ppf = Obs.Diag.pp_all ppf ()
