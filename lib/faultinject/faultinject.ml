(* Pluggable fault plans over the {!Pmem.Hook} seam (see faultinject.mli).

   A plan is armed globally (like {!Pmem.Crash} arming): [arm] installs the
   plan as the seam's fault layer, so every substrate allocation, store,
   flush and fence reports in.  Plans are one-shot: the hook that fires
   first disarms the whole plan before raising, so recovery code running
   after the crash executes injection-free unless a new plan is armed (that
   is how crash-during-recovery is exercised).

   Determinism: every counter is a single [Atomic.t] countdown decremented
   exactly once per matching event.  Under one domain the k-th event is
   always the same event for a fixed seed; under several domains the
   interleaving varies but the *count* of events before the crash does not,
   which is what the campaign's zero-lost-acked invariant needs. *)

type plan =
  | Crash_at_flush of { site : string option; k : int }
  | Crash_at_fence of { site : string option; k : int }
  | Crash_at_store of { k : int }
  | Alloc_fail of { k : int }
  | Torn_flush of { k : int; keep : int }

let describe = function
  | Crash_at_flush { site = None; k } -> Printf.sprintf "crash at flush #%d" k
  | Crash_at_flush { site = Some s; k } ->
      Printf.sprintf "crash at flush #%d of site %s" k s
  | Crash_at_fence { site = None; k } -> Printf.sprintf "crash at fence #%d" k
  | Crash_at_fence { site = Some s; k } ->
      Printf.sprintf "crash at fence #%d of site %s" k s
  | Crash_at_store { k } -> Printf.sprintf "crash at store #%d" k
  | Alloc_fail { k } -> Printf.sprintf "allocation failure at alloc #%d" k
  | Torn_flush { k; keep } ->
      Printf.sprintf "torn line at flush #%d (keep %d)" k keep

(* Crash attribution when the intercepted event carries no index site. *)
let site_fire = Obs.Site.v ~index:"faultinject" ~crash:true "fire"

let fires = Atomic.make 0
let fire_count () = Atomic.get fires

let armed_plan : plan option ref = ref None
let armed () = !armed_plan <> None

let disarm () =
  Pmem.Hook.set Pmem.Hook.Fault None;
  armed_plan := None

(* Fire a crash at an intercepted event: disarm first (one-shot), attribute
   to the event's own site when it has one. *)
let fire site =
  disarm ();
  Atomic.incr fires;
  let s = match site with Some _ -> site | None -> Some site_fire in
  Pmem.Crash.fire s

let site_matches filter site =
  match filter with
  | None -> true
  | Some name -> (
      match site with
      | Some s -> String.equal (Obs.Site.name s) name
      | None -> false)

(* The k-th matching event, exactly once across domains. *)
let countdown k =
  let c = Atomic.make k in
  fun () -> Atomic.fetch_and_add c (-1) = 1

let line_of base i = base + (i lsr 3)

(* A layer from the plan's view of the stream: [store line persist] sees
   plain stores before they land and successful read-modify-writes after;
   [clwb site line] and [sfence site] may raise but never drop. *)
let layer ?(alloc = ignore) ?(store = fun _ _ -> ()) ?(clwb = fun _ _ -> ())
    ?(sfence = ignore) () =
  {
    Pmem.Hook.noop with
    alloc = (fun name _ _ -> alloc name);
    store = (fun _ base i _ persist -> store (line_of base i) persist);
    rmw =
      (fun _ base i op persist ->
        let ok = op () in
        if ok then store (line_of base i) persist;
        ok);
    clwb =
      (fun _ base i s ->
        clwb s (line_of base i);
        false);
    sfence =
      (fun s ->
        sfence s;
        false);
  }

let install l = Pmem.Hook.set Pmem.Hook.Fault (Some l)

let arm plan =
  disarm ();
  armed_plan := Some plan;
  let hooks =
    match plan with
    | Crash_at_flush { site; k } ->
        let hit = countdown k in
        layer
          ~clwb:(fun s _line -> if site_matches site s && hit () then fire s)
          ()
    | Crash_at_fence { site; k } ->
        let hit = countdown k in
        layer
          ~sfence:(fun s -> if site_matches site s && hit () then fire s)
          ()
    | Crash_at_store { k } ->
        let hit = countdown k in
        layer ~store:(fun _line _persist -> if hit () then fire None) ()
    | Alloc_fail { k } ->
        let hit = countdown k in
        layer
          ~alloc:(fun name ->
            if hit () then begin
              disarm ();
              Atomic.incr fires;
              raise (Pmem.Hook.Alloc_failed name)
            end)
          ()
    | Torn_flush { k; keep } ->
        let hit = countdown k in
        (* Pending-store log, keyed by global line.  Entries are the persist
           closures of unflushed stores, oldest first once reversed; a normal
           flush of the line drops them (the real clwb persists the whole
           line anyway). *)
        let mu = Mutex.create () in
        let log : (int, (unit -> unit) list) Hashtbl.t = Hashtbl.create 64 in
        layer
          ~store:(fun line persist ->
            Mutex.lock mu;
            let prev = try Hashtbl.find log line with Not_found -> [] in
            Hashtbl.replace log line (persist :: prev);
            Mutex.unlock mu)
          ~clwb:(fun s line ->
            if hit () then begin
              Mutex.lock mu;
              let pending =
                try List.rev (Hashtbl.find log line) with Not_found -> []
              in
              Mutex.unlock mu;
              (* Persist a store-order-consistent prefix of the line's
                 pending stores: the line tears, but never out of program
                 order — the §2.3 model of an early eviction, under which
                 e.g. CLHT's value-then-key single-line protocol must
                 still hold. *)
              let n = List.length pending in
              let kept = if n = 0 then 0 else keep mod (n + 1) in
              List.iteri (fun i p -> if i < kept then p ()) pending;
              fire s
            end
            else begin
              Mutex.lock mu;
              Hashtbl.remove log line;
              Mutex.unlock mu
            end)
          ()
  in
  install hooks

(* --- deterministic plan generation -------------------------------------- *)

(* Draw a plan from an [Util.Rng.t]: kind and k are both rng-driven, with k
   in [1, max_events] so the plan lands inside the campaign's event budget
   (an overshooting k simply never fires — a legal, crash-free state). *)
let random_plan rng ~max_events =
  let k = 1 + Util.Rng.below rng (max max_events 1) in
  match Util.Rng.below rng 5 with
  | 0 -> Crash_at_flush { site = None; k }
  | 1 -> Crash_at_fence { site = None; k }
  | 2 -> Crash_at_store { k = 1 + Util.Rng.below rng (max (max_events * 2) 1) }
  | 3 -> Alloc_fail { k = 1 + Util.Rng.below rng (max (max_events / 8) 1) }
  | _ -> Torn_flush { k; keep = Util.Rng.below rng 8 }

(* --- event counting ------------------------------------------------------ *)

type event_counts = {
  flushes : int;
  fences : int;
  stores : int;
  allocs : int;
}

(* Run [f] with counting hooks installed (nothing fires) and report how many
   events of each class it generated — the injection analogue of
   [Pmem.Crash.count_points], used to size deterministic plans. *)
let count_events f =
  let fl = Atomic.make 0
  and fe = Atomic.make 0
  and st = Atomic.make 0
  and al = Atomic.make 0 in
  disarm ();
  install
    (layer
       ~alloc:(fun _ -> Atomic.incr al)
       ~store:(fun _ _ -> Atomic.incr st)
       ~clwb:(fun _ _ -> Atomic.incr fl)
       ~sfence:(fun _ -> Atomic.incr fe)
       ());
  Fun.protect ~finally:disarm f;
  {
    flushes = Atomic.get fl;
    fences = Atomic.get fe;
    stores = Atomic.get st;
    allocs = Atomic.get al;
  }
