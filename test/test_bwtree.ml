(* Tests for P-BwTree: delta-chain semantics, consolidation, splits with
   helping, lock-free concurrency, crash consistency, durability. *)

(* Under RECIPE_SANITIZE (the @sanitize alias) the whole suite runs with
   the psan sanitizer enabled and must produce zero diagnostics. *)
let () = Harness.Sanitize_env.init ()


let reset () =
  Pmem.Mode.set_shadow false;
  Pmem.Llc.set_enabled false;
  Pmem.Crash.disarm ();
  ignore (Pmem.persist_everything ());
  Pmem.Stats.reset ();
  Util.Lock.new_epoch ()

let k = Util.Keys.encode_int
let bw () = Bwtree.create ~space:(Recipe.Wordkey.int_space ()) ()

let test_insert_lookup () =
  reset ();
  let t = bw () in
  Alcotest.(check bool) "insert" true (Bwtree.insert t (k 1) 10);
  Alcotest.(check bool) "dup" false (Bwtree.insert t (k 1) 20);
  Alcotest.(check (option int)) "lookup" (Some 10) (Bwtree.lookup t (k 1));
  Alcotest.(check (option int)) "missing" None (Bwtree.lookup t (k 2))

let test_bulk_splits () =
  reset ();
  let t = bw () in
  let r = Util.Rng.create 17 in
  let keys = Array.init 20_000 (fun i -> i + 1) in
  Util.Rng.shuffle r keys;
  Array.iter (fun key -> ignore (Bwtree.insert t (k key) (key * 3))) keys;
  Alcotest.(check bool) "consolidations happened" true
    (Bwtree.consolidation_count t > 0);
  Array.iter
    (fun key ->
      if Bwtree.lookup t (k key) <> Some (key * 3) then
        Alcotest.failf "lost %d" key)
    keys

let test_update_shadows () =
  reset ();
  let t = bw () in
  for i = 1 to 2_000 do
    ignore (Bwtree.insert t (k i) i)
  done;
  (* Updates shadow older deltas and survive consolidation. *)
  for round = 1 to 3 do
    for i = 1 to 2_000 do
      if i mod 5 = 0 then
        Alcotest.(check bool) "update" true (Bwtree.update t (k i) (i * round))
    done
  done;
  Alcotest.(check bool) "update absent" false (Bwtree.update t (k 99_999) 1);
  for i = 1 to 2_000 do
    let expect = if i mod 5 = 0 then Some (i * 3) else Some i in
    if Bwtree.lookup t (k i) <> expect then Alcotest.failf "bad value at %d" i
  done

let test_delete_tombstones () =
  reset ();
  let t = bw () in
  for i = 1 to 1_000 do
    ignore (Bwtree.insert t (k i) i)
  done;
  for i = 1 to 1_000 do
    if i mod 2 = 0 then
      Alcotest.(check bool) "delete" true (Bwtree.delete t (k i))
  done;
  for i = 1 to 1_000 do
    let expect = if i mod 2 = 0 then None else Some i in
    Alcotest.(check (option int)) "after delete" expect (Bwtree.lookup t (k i))
  done;
  Alcotest.(check bool) "delete absent" false (Bwtree.delete t (k 2));
  for i = 1 to 1_000 do
    if i mod 2 = 0 then
      Alcotest.(check bool) "reinsert" true (Bwtree.insert t (k i) (i * 5))
  done;
  for i = 2 to 1_000 do
    if i mod 2 = 0 && Bwtree.lookup t (k i) <> Some (i * 5) then
      Alcotest.failf "reinsert lost %d" i
  done

let test_string_keys () =
  reset ();
  let t = Bwtree.create ~space:(Recipe.Wordkey.string_space ()) () in
  for i = 1 to 3_000 do
    ignore (Bwtree.insert t (Util.Keys.string_key i) i)
  done;
  for i = 1 to 3_000 do
    if Bwtree.lookup t (Util.Keys.string_key i) <> Some i then
      Alcotest.failf "lost string key %d" i
  done

let test_scan_sorted () =
  reset ();
  let t = bw () in
  let r = Util.Rng.create 4 in
  let keys = Array.init 3_000 (fun i -> (i * 2) + 1) in
  Util.Rng.shuffle r keys;
  Array.iter (fun key -> ignore (Bwtree.insert t (k key) key)) keys;
  let seen = ref [] in
  let n = Bwtree.scan t (k 200) 50 (fun key v -> seen := (key, v) :: !seen) in
  Alcotest.(check int) "scan count" 50 n;
  List.iteri
    (fun i (key, v) ->
      let expect = 201 + (2 * i) in
      Alcotest.(check int) "scan value" expect v;
      Alcotest.(check string) "scan key" (k expect) key)
    (List.rev !seen)

let test_range () =
  reset ();
  let t = bw () in
  for i = 1 to 500 do
    ignore (Bwtree.insert t (k i) i)
  done;
  let rs = Bwtree.range t (k 100) (k 150) in
  Alcotest.(check int) "range size" 50 (List.length rs)

let prop_matches_model =
  QCheck.Test.make ~name:"bwtree matches Hashtbl model" ~count:60
    QCheck.(
      make
        ~print:(fun l ->
          String.concat ";"
            (List.map (fun (op, key) -> Printf.sprintf "%d:%d" op key) l))
        (QCheck.Gen.list_size (QCheck.Gen.int_range 0 400)
           (QCheck.Gen.pair (QCheck.Gen.int_range 0 2) (QCheck.Gen.int_range 1 200))))
    (fun ops ->
      reset ();
      let t = bw () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (op, key) ->
          match op with
          | 0 ->
              let fresh = not (Hashtbl.mem model key) in
              if fresh then Hashtbl.replace model key (key * 3);
              Bwtree.insert t (k key) (key * 3) = fresh
          | 1 ->
              let present = Hashtbl.mem model key in
              Hashtbl.remove model key;
              Bwtree.delete t (k key) = present
          | _ -> Bwtree.lookup t (k key) = Hashtbl.find_opt model key)
        ops)

(* --- Concurrency (fully lock-free paths) ---------------------------------------- *)

let test_concurrent_inserts () =
  reset ();
  let t = bw () in
  let n_domains = 4 and per = 5_000 in
  let body d () =
    for i = 0 to per - 1 do
      let key = (i * n_domains) + d + 1 in
      ignore (Bwtree.insert t (k key) key)
    done
  in
  let ds = List.init n_domains (fun d -> Domain.spawn (body d)) in
  List.iter Domain.join ds;
  for key = 1 to n_domains * per do
    if Bwtree.lookup t (k key) <> Some key then Alcotest.failf "lost %d" key
  done

let test_concurrent_same_keys () =
  reset ();
  let t = bw () in
  let n_domains = 4 and keys = 3_000 in
  let wins = Array.init n_domains (fun _ -> Atomic.make 0) in
  let body d () =
    for key = 1 to keys do
      if Bwtree.insert t (k key) ((d * 1_000_000) + key) then
        Atomic.incr wins.(d)
    done
  in
  let ds = List.init n_domains (fun d -> Domain.spawn (body d)) in
  List.iter Domain.join ds;
  let total = Array.fold_left (fun acc w -> acc + Atomic.get w) 0 wins in
  Alcotest.(check int) "one winner per key" keys total;
  for key = 1 to keys do
    match Bwtree.lookup t (k key) with
    | Some v -> Alcotest.(check int) "winner value" key (v mod 1_000_000)
    | None -> Alcotest.failf "lost %d" key
  done

let test_concurrent_readers_writers () =
  reset ();
  let t = bw () in
  for i = 1 to 2_000 do
    ignore (Bwtree.insert t (k i) i)
  done;
  let stop = Atomic.make false in
  let reader () =
    let r = Util.Rng.create 9 in
    let bad = ref 0 in
    while not (Atomic.get stop) do
      let key = 1 + Util.Rng.below r 2_000 in
      if Bwtree.lookup t (k key) <> Some key then incr bad
    done;
    !bad
  in
  let writer () =
    for i = 2_001 to 20_000 do
      ignore (Bwtree.insert t (k i) i)
    done;
    0
  in
  let rd = Domain.spawn reader and wd = Domain.spawn writer in
  ignore (Domain.join wd);
  Atomic.set stop true;
  Alcotest.(check int) "stable keys always readable" 0 (Domain.join rd)

(* --- Crash consistency (Condition #2: helping repairs) ----------------------------- *)

(* A root split between a writer's descent and its leaf read.  The root
   page is the one page that turns from a leaf into an internal node; a
   writer that reached it as a leaf must not treat the internal node it
   reads next as a leaf (a leaf delta on an internal chain, or a separator
   read as a key).  A load hook parks the writer right after its descent
   read page 0 and grows the root from another domain. *)
let test_root_split_during_insert () =
  reset ();
  let t = bw () in
  let main = Domain.self () and armed = ref true in
  let load name _ _ _ =
    if !armed && name = "bw.mapping" && Domain.self () = main then begin
      armed := false;
      Domain.join
        (Domain.spawn (fun () ->
             for i = 1 to 300 do
               ignore (Bwtree.insert t (k (2 * i)) i)
             done))
    end
  in
  Fun.protect
    ~finally:(fun () -> Pmem.Hook.set Pmem.Hook.Fault None)
    (fun () ->
      Pmem.Hook.set Pmem.Hook.Fault (Some { Pmem.Hook.noop with load });
      Alcotest.(check bool) "parked insert" true (Bwtree.insert t (k 301) 7));
  Alcotest.(check bool) "the root grew under the writer" false !armed;
  Alcotest.(check (option int)) "parked key" (Some 7) (Bwtree.lookup t (k 301));
  for i = 1 to 300 do
    Alcotest.(check (option int)) "other key" (Some i)
      (Bwtree.lookup t (k (2 * i)))
  done

let test_crash_campaign () =
  let helps = ref 0 in
  for point = 1 to 80 do
    reset ();
    Pmem.Mode.set_shadow true;
    let t = bw () in
    for key = 1 to 400 do
      ignore (Bwtree.insert t (k key) key)
    done;
    Pmem.persist_everything ();
    Pmem.Crash.arm_at point;
    (try
       for key = 401 to 2_000 do
         ignore (Bwtree.insert t (k key) key)
       done;
       Pmem.Crash.disarm ()
     with Pmem.Crash.Simulated_crash -> ());
    Pmem.simulate_power_failure ();
    Bwtree.recover t;
    for key = 1 to 400 do
      if Bwtree.lookup t (k key) <> Some key then
        Alcotest.failf "crash point %d lost key %d" point key
    done;
    (* Post-crash writes trigger the helping mechanism where needed. *)
    for key = 10_001 to 10_400 do
      ignore (Bwtree.insert t (k key) key);
      if Bwtree.lookup t (k key) <> Some key then
        Alcotest.failf "post-crash insert broken at point %d" point
    done;
    helps := !helps + Bwtree.help_count t
  done;
  Pmem.Mode.set_shadow false;
  ignore !helps

let test_durability () =
  reset ();
  Pmem.Mode.set_shadow true;
  let t = bw () in
  Alcotest.(check int) "clean after create" 0 (Pmem.dirty_count ());
  let r = Util.Rng.create 7 in
  for i = 1 to 2_000 do
    ignore (Bwtree.insert t (k (Util.Rng.key r)) i);
    if Pmem.dirty_count () <> 0 then
      Alcotest.failf "dirty lines after insert %d: %s" i
        (String.concat "," (Pmem.dirty_objects ()))
  done;
  for i = 1 to 300 do
    ignore (Bwtree.insert t (k i) i);
    ignore (Bwtree.delete t (k i));
    if Pmem.dirty_count () <> 0 then Alcotest.failf "dirty after delete %d" i
  done;
  Pmem.Mode.set_shadow false

let () =
  Alcotest.run "bwtree"
    [
      ( "sequential",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "bulk splits" `Quick test_bulk_splits;
          Alcotest.test_case "update shadows" `Quick test_update_shadows;
          Alcotest.test_case "delete tombstones" `Quick test_delete_tombstones;
          Alcotest.test_case "string keys" `Quick test_string_keys;
          Alcotest.test_case "scan sorted" `Quick test_scan_sorted;
          Alcotest.test_case "range" `Quick test_range;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
      ( "concurrent",
        [
          Alcotest.test_case "inserts" `Quick test_concurrent_inserts;
          Alcotest.test_case "same keys" `Quick test_concurrent_same_keys;
          Alcotest.test_case "readers+writers" `Quick test_concurrent_readers_writers;
          Alcotest.test_case "root split during an insert" `Quick
            test_root_split_during_insert;
        ] );
      ("crash", [ Alcotest.test_case "campaign" `Quick test_crash_campaign ]);
      ("durability", [ Alcotest.test_case "no dirty lines" `Quick test_durability ]);
    ]
