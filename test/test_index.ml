(* The index registry: name resolution shared by every binary, and each
   index's semantics stated once, through the serving-partition projection
   that the KV service and its crash campaigns use. *)

module I = Harness.Index

let () = Harness.Sanitize_env.init ()

let reset () =
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  ignore (Pmem.persist_everything ());
  Util.Lock.new_epoch ()

(* --- name resolution ------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let resolves_to e name =
  match I.find name with
  | Some e' when e' == e -> ()
  | Some e' -> Alcotest.failf "%S resolves to %s, not %s" name e'.I.name e.I.name
  | None -> Alcotest.failf "%S does not resolve (expected %s)" name e.I.name

let test_every_name_resolves () =
  List.iter
    (fun e ->
      List.iter
        (fun n ->
          resolves_to e n;
          resolves_to e (String.uppercase_ascii n);
          resolves_to e (String.lowercase_ascii n))
        (e.I.name :: e.I.aliases))
    I.all

let test_unknown_name () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%S unknown" n) true
        (I.find n = None))
    [ ""; "p-"; "btree"; "P-ART "; "art2" ];
  match I.resolve "nope" None with
  | Ok _ -> Alcotest.fail "unknown index resolved"
  | Error msg ->
      List.iter
        (fun e ->
          if not (contains msg e.I.name) then
            Alcotest.failf "error %S does not list %s" msg e.I.name)
        I.all

let test_bug_variants () =
  List.iter
    (fun e ->
      List.iter
        (fun (bug, _) ->
          match I.resolve e.I.name (Some bug) with
          | Ok v ->
              Alcotest.(check string) "variant name" (e.I.name ^ "(buggy)")
                v.I.name;
              Alcotest.(check bool) "same family" (I.ordered e) (I.ordered v)
          | Error msg -> Alcotest.fail msg)
        e.I.bugs;
      match I.resolve e.I.name (Some "no-such-bug") with
      | Ok _ -> Alcotest.failf "%s accepted an unknown --bug" e.I.name
      | Error _ -> ())
    I.all;
  Alcotest.(check (list string))
    "indexes with seeded §3 bugs"
    [ Fastfair.name; Cceh.name ]
    (List.filter_map
       (fun e -> if e.I.bugs = [] then None else Some e.I.name)
       I.all)

(* Direct reads need a lookup that takes no lock, never waits on a writer
   and never writes; the three indexes whose lookup does one of those stay
   on the queued path. *)
let test_lockfree_lookup () =
  Alcotest.(check (list string))
    "indexes without a lock-free lookup"
    [ Bwtree.name; Fastfair.name; Woart.name ]
    (List.filter_map
       (fun e -> if e.I.lockfree_lookup then None else Some e.I.name)
       I.all)

(* --- semantics, one table over the registry ------------------------------- *)

(* The ordered indexes upsert through their [update], except FAST&FAIR,
   which has none; the hash indexes are put-if-absent. *)
let upserts e = I.ordered e && e.I.name <> Fastfair.name

let test_semantics () =
  reset ();
  List.iter
    (fun e ->
      let p = I.partition e () in
      let key = Util.Keys.encode_int 42 and other = Util.Keys.encode_int 43 in
      let label what = Printf.sprintf "%s: %s" e.I.name what in
      Alcotest.(check bool) (label "scan iff ordered") (I.ordered e)
        (p.Kvserve.Server.p_scan <> None);
      Alcotest.(check bool) (label "partition carries lockfree_lookup")
        e.I.lockfree_lookup p.p_lockfree_lookup;
      Alcotest.(check bool) (label "first insert") true (p.p_insert key 1);
      ignore (p.p_insert key 2);
      Alcotest.(check (option int))
        (label
           (if upserts e then "duplicate insert upserts"
            else "duplicate insert keeps"))
        (Some (if upserts e then 2 else 1))
        (p.p_lookup key);
      Alcotest.(check bool) (label "insert other") true (p.p_insert other 3);
      Alcotest.(check bool) (label "delete") true (p.p_delete key);
      Alcotest.(check (option int))
        (label "lookup after delete") None (p.p_lookup key);
      Alcotest.(check bool) (label "delete absent") false (p.p_delete key);
      Alcotest.(check (option int))
        (label "other kept") (Some 3) (p.p_lookup other);
      Option.iter
        (fun scan ->
          Alcotest.(check (list (pair string int)))
            (label "scan") [ (other, 3) ] (scan key 10))
        p.p_scan;
      let fresh = I.partition e () in
      fresh.p_recover ();
      match fresh.p_sweep with
      | None -> Alcotest.failf "%s has no leak sweep" e.I.name
      | Some sweep ->
          let st = sweep () in
          Alcotest.(check (list int))
            (label "fresh recover + sweep: repaired, orphans, reclaimed")
            [ 0; 0; 0 ]
            Recipe.Recovery.[ st.repaired; st.orphans; st.reclaimed ])
    I.all

let () =
  Alcotest.run "index"
    [
      ( "names",
        [
          Alcotest.test_case "every name and alias resolves" `Quick
            test_every_name_resolves;
          Alcotest.test_case "unknown name" `Quick test_unknown_name;
          Alcotest.test_case "bug variants" `Quick test_bug_variants;
          Alcotest.test_case "lock-free lookups" `Quick test_lockfree_lookup;
        ] );
      ( "semantics",
        [ Alcotest.test_case "partition table" `Quick test_semantics ] );
    ]
