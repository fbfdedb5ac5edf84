(* Tests for the observability subsystem: sharded counters and histograms
   under multi-domain load, per-domain slot isolation and recycling, the
   site-attribution invariant against the legacy Stats façade, trace ring
   wraparound, and the JSON round trip. *)

let reset () =
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  ignore (Pmem.persist_everything ());
  Pmem.Stats.reset ();
  Obs.reset_all ();
  Obs.Trace.set_enabled false;
  Util.Lock.new_epoch ()

(* --- sharded counters --------------------------------------------------- *)

let test_counter_cross_domain () =
  reset ();
  let c = Obs.counter "test.cross_domain" in
  let per = 10_000 and domains = 4 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Obs.Counter.incr c
            done))
  in
  (* The spawning domain counts too: its slot must merge with the others. *)
  for _ = 1 to per do
    Obs.Counter.incr c
  done;
  List.iter Domain.join spawned;
  Alcotest.(check int)
    "all domains' slots merge" ((domains + 1) * per) (Obs.Counter.value c);
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.value c)

let test_counter_find_or_create () =
  reset ();
  let a = Obs.counter "test.same_name" and b = Obs.counter "test.same_name" in
  Obs.Counter.incr a;
  Alcotest.(check int) "same name, same counter" 1 (Obs.Counter.value b)

let test_hist_cross_domain () =
  reset ();
  let h = Obs.hist "test.hist" in
  let spawned =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 1_000 do
              Obs.Hist.observe h (((d + 1) * 10_000) + i)
            done))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int) "all samples counted" 3_000 (Obs.Hist.count h);
  let m = Obs.Hist.merged h in
  Alcotest.(check int) "merged count" 3_000 (Util.Histogram.count m);
  Alcotest.(check bool)
    "p99 in the slowest domain's band" true
    (Util.Histogram.percentile m 0.99 >= 30_000)

(* --- site attribution vs the legacy Stats façade ------------------------ *)

(* Every flush/fence increments exactly one site (untagged when no label
   was given), and the Stats totals are the sums over sites — so summing
   must reproduce them, single-threaded and multi-threaded. *)
let check_invariant ctx =
  let s = Pmem.Stats.snapshot () in
  let sites = Obs.Site.all () in
  let clwb = List.fold_left (fun a x -> a + Obs.Site.clwb_count x) 0 sites
  and sfence = List.fold_left (fun a x -> a + Obs.Site.sfence_count x) 0 sites in
  Alcotest.(check int) (ctx ^ ": clwb sum = Stats") s.Pmem.Stats.s_clwb clwb;
  Alcotest.(check int) (ctx ^ ": sfence sum = Stats") s.Pmem.Stats.s_sfence
    sfence

let test_site_totals_single () =
  reset ();
  let t = Clht.create () in
  for k = 1 to 2_000 do
    ignore (Clht.insert t k (k * 2))
  done;
  Alcotest.(check bool)
    "workload flushed something" true
    ((Pmem.Stats.snapshot ()).Pmem.Stats.s_clwb > 0);
  check_invariant "clht load"

let test_site_totals_multi () =
  reset ();
  let t = Art.create () in
  let spawned =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 1_000 do
              let k = (d * 100_000) + i in
              ignore (Art.insert t (Util.Keys.encode_int k) k)
            done))
  in
  List.iter Domain.join spawned;
  check_invariant "art 4 domains";
  (* And the tagged sites actually fired: the work is attributed, not all
     falling through to the untagged catch-all. *)
  let art_clwb =
    List.fold_left
      (fun a x -> a + Obs.Site.clwb_count x)
      0
      (Obs.Site.by_index "P-ART")
  in
  Alcotest.(check bool) "P-ART sites attributed" true (art_clwb > 0)

(* Raw flushes and fences, tagged and untagged, from two domains at once:
   the per-site counts, read back one by one, add up to the snapshot, each
   flush is counted exactly once, and [Stats.reset] zeroes sites and totals
   alike. *)
let site_raw = Obs.Site.v ~index:"obs-test" "raw"

let test_site_totals_raw () =
  reset ();
  let w = Pmem.Words.make ~name:"obs.raw" 64 0 in
  let per = 5_000 in
  let body () =
    for i = 1 to per do
      if i land 1 = 0 then begin
        Pmem.Words.clwb ~site:site_raw w (i land 63);
        Pmem.sfence ~site:site_raw ()
      end
      else begin
        Pmem.Words.clwb w (i land 63);
        Pmem.sfence ()
      end
    done
  in
  let d = Domain.spawn body in
  body ();
  Domain.join d;
  check_invariant "two domains";
  let s = Pmem.Stats.snapshot () in
  Alcotest.(check int) "each flush counted once" (2 * per) s.Pmem.Stats.s_clwb;
  Alcotest.(check int) "each fence counted once" (2 * per) s.Pmem.Stats.s_sfence;
  Alcotest.(check int) "tagged half" per (Obs.Site.clwb_count site_raw);
  Alcotest.(check int)
    "untagged half" per
    (Obs.Site.sfence_count Obs.Site.untagged);
  Pmem.Stats.reset ();
  let s = Pmem.Stats.snapshot () in
  Alcotest.(check (pair int int)) "reset zeroes the totals" (0, 0)
    (s.Pmem.Stats.s_clwb, s.Pmem.Stats.s_sfence);
  Alcotest.(check (pair int int)) "reset zeroes the sites" (0, 0)
    (Obs.Site.clwb_count site_raw, Obs.Site.clwb_count Obs.Site.untagged)

(* --- trace ring --------------------------------------------------------- *)

let test_trace_wraparound () =
  reset ();
  Obs.Trace.set_enabled true;
  let cap = Obs.Trace.capacity () in
  let n = (cap * 2) + 37 in
  for i = 1 to n do
    Obs.Trace.record Obs.Trace.Note ~arg:i "wrap"
  done;
  Obs.Trace.set_enabled false;
  let events = Obs.Trace.dump () in
  Alcotest.(check int)
    "ring retains exactly its capacity" cap (List.length events);
  Alcotest.(check int)
    "older events dropped, not lost count" (n - cap) (Obs.Trace.dropped ());
  (* The retained window is the most recent events, in sequence order. *)
  let seqs = List.map (fun e -> e.Obs.Trace.seq) events in
  Alcotest.(check bool)
    "sorted by sequence" true
    (List.sort compare seqs = seqs);
  Alcotest.(check int)
    "newest event retained" (n - 1)
    (List.fold_left max 0 seqs);
  let last3 = Obs.Trace.recent 3 in
  Alcotest.(check int) "recent n" 3 (List.length last3);
  Obs.Trace.clear ();
  Alcotest.(check int) "clear empties the ring" 0
    (List.length (Obs.Trace.dump ()))

let test_trace_disabled_records_nothing () =
  reset ();
  Obs.Trace.record Obs.Trace.Note "dropped";
  Alcotest.(check int) "disabled ring stays empty" 0
    (List.length (Obs.Trace.dump ()))

(* Regression for the slot-collision race: counters, histograms, the
   sanitizer's speculation depth and the trace rings all used to pick
   their slot as [did land 127], so two live domains whose ids collide
   modulo 128 shared one slot and raced on it unsynchronized — increments,
   samples and events were silently lost.  Hunt for a spawned domain whose
   id collides with the main domain's modulo 128 (ids are sequential and
   never reused, so at most ~128 spawns), drive every per-domain table
   from both concurrently, and require exact totals from both domains.
   [per] is large enough that the race shows on two cores. *)
let test_trace_domain_collision () =
  reset ();
  Obs.Trace.set_capacity 16_384;
  Obs.Trace.set_enabled true;
  let c = Obs.counter "test.collision" in
  let h = Obs.hist "test.collision" in
  let per = 200_000 and events = 1_000 in
  (* One domain's share of the load; returns its speculation depth. *)
  let work label =
    for i = 1 to per do
      Obs.Counter.incr c;
      Obs.Hist.observe h i;
      Pmem.Sanhook.spec_enter ();
      Pmem.Sanhook.spec_exit ();
      if i <= events then Obs.Trace.record Obs.Trace.Note ~arg:i label
    done;
    Pmem.Sanhook.spec_depth ()
  in
  let d0 = (Domain.self () :> int) in
  let rec hunt budget =
    if budget = 0 then Alcotest.fail "no colliding domain id within budget"
    else begin
      let id = Atomic.make (-1) in
      let go = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            let self = (Domain.self () :> int) in
            Atomic.set id self;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            if (self - d0) mod 128 = 0 then work "spawned" else 0)
      in
      while Atomic.get id < 0 do
        Domain.cpu_relax ()
      done;
      let collide = (Atomic.get id - d0) mod 128 = 0 in
      Atomic.set go true;
      let main_depth = if collide then work "main" else 0 in
      let spawned_depth = Domain.join d in
      if collide then (main_depth, spawned_depth) else hunt (budget - 1)
    end
  in
  let main_depth, spawned_depth = hunt 300 in
  Obs.Trace.set_enabled false;
  Alcotest.(check int) "no increment lost to a shared slot" (2 * per)
    (Obs.Counter.value c);
  Alcotest.(check int) "no sample lost to a shared slot" (2 * per)
    (Obs.Hist.count h);
  Alcotest.(check int) "main domain's speculation depth balanced" 0 main_depth;
  Alcotest.(check int) "colliding domain's speculation depth balanced" 0
    spawned_depth;
  let events_of = Obs.Trace.dump () in
  let by label =
    List.length (List.filter (fun e -> e.Obs.Trace.label = label) events_of)
  in
  Alcotest.(check int) "no event lost to a shared ring" (2 * events)
    (List.length events_of);
  Alcotest.(check int) "main domain's events all retained" events (by "main");
  Alcotest.(check int) "colliding domain's events all retained" events
    (by "spawned");
  Alcotest.(check int) "nothing overwritten" 0 (Obs.Trace.dropped ());
  Obs.Trace.set_capacity Obs.Trace.default_capacity

(* Slots are recycled: 300 domains spawned and joined one after another
   (well past the 128 a live set may hold) each take a slot, count and
   trace into it, and hand it back on exit.  Without recycling the 129th
   domain would find no free slot and raise. *)
let test_slot_recycling () =
  reset ();
  Obs.Trace.set_enabled true;
  let c = Obs.counter "test.slot_recycling" in
  let n = 300 in
  for i = 1 to n do
    let d =
      Domain.spawn (fun () ->
          Obs.Counter.incr c;
          Obs.Trace.record Obs.Trace.Note ~arg:i "recycled")
    in
    match Domain.join d with
    | () -> ()
    | exception Failure msg -> Alcotest.failf "domain %d raised: %s" i msg
  done;
  Obs.Trace.set_enabled false;
  Alcotest.(check int) "exact count across recycled slots" n
    (Obs.Counter.value c);
  let events =
    List.filter (fun e -> e.Obs.Trace.label = "recycled") (Obs.Trace.dump ())
  in
  Alcotest.(check int) "every event retained at the default capacity" n
    (List.length events);
  Alcotest.(check int) "events keep their real domain ids" n
    (List.length
       (List.sort_uniq compare (List.map (fun e -> e.Obs.Trace.domain) events)))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_trace_set_capacity () =
  reset ();
  Obs.Trace.set_capacity 8;
  Obs.Trace.set_enabled true;
  for i = 1 to 20 do
    Obs.Trace.record Obs.Trace.Note ~arg:i "cap"
  done;
  Obs.Trace.set_enabled false;
  Alcotest.(check int) "configured capacity applies" 8
    (List.length (Obs.Trace.dump ()));
  Alcotest.(check int) "overwrites counted as dropped" 12
    (Obs.Trace.dropped ());
  let header = Format.asprintf "%a" Obs.Trace.pp_header () in
  Alcotest.(check bool) "header reports the drop count" true
    (contains header "12 dropped");
  Alcotest.(check bool) "header flags the truncated window" true
    (contains header "INCOMPLETE");
  Obs.Trace.set_capacity Obs.Trace.default_capacity;
  Alcotest.(check int) "set_capacity discards retained events" 0
    (List.length (Obs.Trace.dump ()))

(* --- trace-event export -------------------------------------------------- *)

let test_traceview_export () =
  reset ();
  Obs.Trace.set_enabled true;
  Obs.Span.set_enabled true;
  Obs.Trace.record Obs.Trace.Note ~arg:7 "export";
  let sp = Obs.Span.start ~sid:3 in
  Obs.Span.finish sp;
  Obs.Trace.set_enabled false;
  Obs.Span.set_enabled false;
  let doc = Obs.Traceview.to_json () in
  let get k = Option.get (Obs.Json.member k doc) in
  let events =
    match get "traceEvents" with
    | Obs.Json.List l -> l
    | _ -> Alcotest.fail "traceEvents not a list"
  in
  let named name e =
    match Option.bind (Obs.Json.member "name" e) Obs.Json.to_str with
    | Some n -> n = name
    | None -> false
  in
  (* One span -> queue/apply/fence slices + the whole-request slice; the
     instant event and the thread-name metadata ride along. *)
  List.iter
    (fun n ->
      Alcotest.(check bool) ("slice " ^ n) true (List.exists (named n) events))
    [ "queue"; "apply"; "fence"; "request"; "note: export"; "thread_name" ];
  (match Obs.Json.member "spans" (get "otherData") with
  | Some (Obs.Json.Num n) -> Alcotest.(check int) "span count" 1 (int_of_float n)
  | _ -> Alcotest.fail "otherData.spans missing");
  (* The export must survive its own parser (it is written to disk for
     Perfetto, which is strict about JSON). *)
  match Obs.Json.parse (Obs.Json.to_string doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "export does not reparse: %s" e

(* --- JSON --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("name", Str "P-ART");
        ("escaped", Str "a\"b\\c\nd\te");
        ("ok", Bool true);
        ("missing", Null);
        ("mops", Num 1.25);
        ("count", int 42);
        ("empty_list", List []);
        ("empty_obj", Obj []);
        ("sites", List [ Obj [ ("clwb", int 7) ]; Num 3.0 ]);
      ]
  in
  match parse (to_string v) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' ->
      Alcotest.(check bool) "roundtrip preserves the value" true (v = v');
      Alcotest.(check (option string))
        "member access" (Some "P-ART")
        (Option.bind (member "name" v') to_str);
      Alcotest.(check (option (float 0.0)))
        "number access" (Some 1.25)
        (Option.bind (member "mops" v') to_num)

let test_json_rejects_garbage () =
  let bad = [ "{"; "[1,"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "parsed garbage %S" s
      | Error _ -> ())
    bad

(* Runtime mirror of pmlint rule R4: a tag is registered exactly once.  A
   typo'd re-registration must fail loudly instead of silently minting a
   second site (split attribution) or aliasing an unrelated one. *)
let test_site_duplicate_registration_rejected () =
  let s = Obs.Site.v ~index:"obs-test" "dup/probe" in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match Obs.Site.v ~index:"obs-test" "dup/probe" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "error names the tag" true
        (contains ~sub:"obs-test/dup/probe" msg)
  | _ -> Alcotest.fail "duplicate Site.v registration did not raise");
  (* find_or_create is the sanctioned lookup-or-register path: same tag
     yields the same site, counters included. *)
  let s' = Obs.Site.find_or_create ~index:"obs-test" "dup/probe" in
  Alcotest.(check bool) "find_or_create aliases the registration" true (s == s');
  Alcotest.(check (option string))
    "find resolves the tag" (Some "obs-test/dup/probe")
    (Option.map Obs.Site.name (Obs.Site.find "obs-test/dup/probe"));
  let fresh = Obs.Site.find_or_create ~index:"obs-test" "dup/fresh" in
  Alcotest.(check string)
    "find_or_create registers unseen tags" "obs-test/dup/fresh"
    (Obs.Site.name fresh)

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "cross-domain merge" `Quick
            test_counter_cross_domain;
          Alcotest.test_case "find or create" `Quick test_counter_find_or_create;
          Alcotest.test_case "histogram cross-domain" `Quick
            test_hist_cross_domain;
        ] );
      ( "sites",
        [
          Alcotest.test_case "totals = Stats (single)" `Quick
            test_site_totals_single;
          Alcotest.test_case "totals = Stats (multi-domain)" `Quick
            test_site_totals_multi;
          Alcotest.test_case "raw flushes counted once" `Quick
            test_site_totals_raw;
          Alcotest.test_case "duplicate registration rejected" `Quick
            test_site_duplicate_registration_rejected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_trace_wraparound;
          Alcotest.test_case "disabled is free" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "no ring sharing across colliding domain ids"
            `Quick test_trace_domain_collision;
          Alcotest.test_case "slots recycled across 300 domains" `Quick
            test_slot_recycling;
          Alcotest.test_case "configurable capacity + drop accounting" `Quick
            test_trace_set_capacity;
          Alcotest.test_case "trace-event export" `Quick test_traceview_export;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
    ]
