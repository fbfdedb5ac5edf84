(* Tests for P-ART: radix semantics (node growth, path compression),
   model-based checks, concurrency, crash consistency with the Condition #3
   helper, durability. *)

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

let test_insert_lookup () =
  reset ();
  let t = Art.create () in
  Alcotest.(check bool) "insert" true (Art.insert t (k 1) 10);
  Alcotest.(check bool) "dup" false (Art.insert t (k 1) 20);
  Alcotest.(check (option int)) "lookup" (Some 10) (Art.lookup t (k 1));
  Alcotest.(check (option int)) "missing" None (Art.lookup t (k 2))

(* Dense keys exercise Node4 -> Node16 -> Node48 -> Node256 growth. *)
let test_node_growth () =
  reset ();
  let t = Art.create () in
  for i = 0 to 9_999 do
    Alcotest.(check bool) (Printf.sprintf "insert %d" i) true (Art.insert t (k i) i)
  done;
  for i = 0 to 9_999 do
    if Art.lookup t (k i) <> Some i then Alcotest.failf "lost %d" i
  done

(* Sparse random keys exercise path compression (long shared prefixes from
   the big-endian encoding of small-range keys). *)
let test_path_compression () =
  reset ();
  let t = Art.create () in
  let r = Util.Rng.create 9 in
  let keys = Array.init 5_000 (fun _ -> Util.Rng.key r) in
  Array.iter (fun key -> ignore (Art.insert t (k key) (key land 0xFFFF))) keys;
  Array.iter
    (fun key ->
      if Art.lookup t (k key) <> Some (key land 0xFFFF) then
        Alcotest.failf "lost %d" key)
    keys

let test_string_keys () =
  reset ();
  let t = Art.create () in
  for i = 1 to 3_000 do
    ignore (Art.insert t (Util.Keys.string_key i) i)
  done;
  for i = 1 to 3_000 do
    if Art.lookup t (Util.Keys.string_key i) <> Some i then
      Alcotest.failf "lost string key %d" i
  done

let test_update () =
  reset ();
  let t = Art.create () in
  for i = 1 to 500 do
    ignore (Art.insert t (k i) i)
  done;
  Alcotest.(check bool) "update existing" true (Art.update t (k 7) 700);
  Alcotest.(check (option int)) "new value" (Some 700) (Art.lookup t (k 7));
  Alcotest.(check bool) "update absent" false (Art.update t (k 9_999) 1);
  (* Crash-atomicity: the update is one atomic store — old or new value. *)
  Pmem.Mode.set_shadow true;
  let t2 = Art.create () in
  ignore (Art.insert t2 (k 1) 10);
  Pmem.persist_everything ();
  Pmem.Crash.arm_at 1;
  (try ignore (Art.update t2 (k 1) 20) with Pmem.Crash.Simulated_crash -> ());
  Pmem.Crash.disarm ();
  Pmem.simulate_power_failure ();
  Art.recover t2;
  (match Art.lookup t2 (k 1) with
  | Some v -> Alcotest.(check bool) "old or new" true (v = 10 || v = 20)
  | None -> Alcotest.fail "key lost by update crash");
  Pmem.Mode.set_shadow false

let test_delete () =
  reset ();
  let t = Art.create () in
  for i = 1 to 500 do
    ignore (Art.insert t (k i) i)
  done;
  for i = 1 to 500 do
    if i mod 3 = 0 then Alcotest.(check bool) "delete" true (Art.delete t (k i))
  done;
  for i = 1 to 500 do
    let expect = if i mod 3 = 0 then None else Some i in
    Alcotest.(check (option int)) "after delete" expect (Art.lookup t (k i))
  done;
  Alcotest.(check bool) "delete absent" false (Art.delete t (k 3));
  (* Reinsert into tombstoned slots. *)
  for i = 1 to 500 do
    if i mod 3 = 0 then
      Alcotest.(check bool) "reinsert" true (Art.insert t (k i) (i * 2))
  done;
  for i = 1 to 500 do
    let expect = if i mod 3 = 0 then Some (i * 2) else Some i in
    Alcotest.(check (option int)) "after reinsert" expect (Art.lookup t (k i))
  done

(* Deletes shrink nodes back down: grow to Node256 territory, delete most
   keys, and check the shrink machinery fired while semantics hold. *)
let test_shrink_on_delete () =
  reset ();
  let t = Art.create () in
  for i = 0 to 9_999 do
    ignore (Art.insert t (k i) i)
  done;
  for i = 0 to 9_999 do
    if i mod 32 <> 0 then ignore (Art.delete t (k i))
  done;
  Alcotest.(check bool) "shrinks happened" true (Art.shrink_count t > 0);
  for i = 0 to 9_999 do
    let expect = if i mod 32 = 0 then Some i else None in
    Alcotest.(check (option int)) "post-shrink lookup" expect (Art.lookup t (k i))
  done;
  (* Scans stay sorted and complete. *)
  let got = ref [] in
  ignore (Art.scan t (k 0) max_int (fun _ v -> got := v :: !got));
  let expect = List.init 313 (fun i -> i * 32) in
  Alcotest.(check (list int)) "scan after shrink" expect (List.rev !got);
  (* Reinsert into shrunken nodes. *)
  for i = 0 to 999 do
    ignore (Art.insert t (k i) (i * 7))
  done;
  for i = 1 to 999 do
    if i mod 32 <> 0 && Art.lookup t (k i) <> Some (i * 7) then
      Alcotest.failf "reinsert lost %d" i
  done

let test_concurrent_delete_shrink () =
  reset ();
  let t = Art.create () in
  for i = 0 to 19_999 do
    ignore (Art.insert t (k i) i)
  done;
  let deleter d () =
    for i = 0 to 19_999 do
      if i mod 4 = d && i mod 8 <> 0 then ignore (Art.delete t (k i))
    done
  in
  let ds = List.init 4 (fun d -> Domain.spawn (deleter d)) in
  List.iter Domain.join ds;
  for i = 0 to 19_999 do
    let expect = if i mod 8 = 0 then Some i else None in
    if Art.lookup t (k i) <> expect then Alcotest.failf "bad state at %d" i
  done

let test_scan_sorted () =
  reset ();
  let t = Art.create () in
  let r = Util.Rng.create 4 in
  let keys = Array.init 2_000 (fun i -> (i * 3) + 1) in
  Util.Rng.shuffle r keys;
  Array.iter (fun key -> ignore (Art.insert t (k key) key)) keys;
  let seen = ref [] in
  let n = Art.scan t (k 50) 40 (fun key v -> seen := (key, v) :: !seen) in
  Alcotest.(check int) "scan count" 40 n;
  let seen = List.rev !seen in
  (* Expect keys 52, 55, 58, ... (first key >= 50 in the 3i+1 sequence). *)
  List.iteri
    (fun i (key, v) ->
      let expect = 52 + (3 * i) in
      Alcotest.(check int) "scan value" expect v;
      Alcotest.(check string) "scan key" (k expect) key)
    seen

let test_range () =
  reset ();
  let t = Art.create () in
  for i = 1 to 300 do
    ignore (Art.insert t (k i) i)
  done;
  let rs = Art.range t (k 100) (k 110) in
  Alcotest.(check int) "range size" 10 (List.length rs);
  Alcotest.(check int) "first" 100 (snd (List.hd rs));
  Alcotest.(check int) "last" 109 (snd (List.nth rs 9))

let prop_matches_model =
  QCheck.Test.make ~name:"art matches Map model" ~count:60
    QCheck.(
      make
        ~print:(fun l ->
          String.concat ";"
            (List.map (fun (op, key) -> Printf.sprintf "%d:%d" op key) l))
        (QCheck.Gen.list_size (QCheck.Gen.int_range 0 400)
           (QCheck.Gen.pair (QCheck.Gen.int_range 0 2) (QCheck.Gen.int_range 1 256))))
    (fun ops ->
      reset ();
      let t = Art.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (op, key) ->
          match op with
          | 0 ->
              let fresh = not (Hashtbl.mem model key) in
              if fresh then Hashtbl.replace model key (key * 5);
              Art.insert t (k key) (key * 5) = fresh
          | 1 ->
              let present = Hashtbl.mem model key in
              Hashtbl.remove model key;
              Art.delete t (k key) = present
          | _ -> Art.lookup t (k key) = Hashtbl.find_opt model key)
        ops)

(* --- Concurrency -------------------------------------------------------------- *)

let test_concurrent_inserts () =
  reset ();
  let t = Art.create () in
  let n_domains = 4 and per = 5_000 in
  let body d () =
    let r = Util.Rng.create (d + 100) in
    for i = 0 to per - 1 do
      let key = (i * n_domains) + d + 1 in
      ignore (Art.insert t (k key) key);
      (* Interleave some random sparse keys to force splits. *)
      if i mod 16 = 0 then ignore (Art.insert t (k (Util.Rng.key r)) 1)
    done
  in
  let ds = List.init n_domains (fun d -> Domain.spawn (body d)) in
  List.iter Domain.join ds;
  for key = 1 to n_domains * per do
    if Art.lookup t (k key) <> Some key then Alcotest.failf "lost %d" key
  done

let test_concurrent_readers_writers () =
  reset ();
  let t = Art.create () in
  for i = 1 to 2_000 do
    ignore (Art.insert t (k i) i)
  done;
  let stop = Atomic.make false in
  let reader () =
    let r = Util.Rng.create 8 in
    let bad = ref 0 in
    while not (Atomic.get stop) do
      let key = 1 + Util.Rng.below r 2_000 in
      if Art.lookup t (k key) <> Some key then incr bad
    done;
    !bad
  in
  let writer () =
    let r = Util.Rng.create 77 in
    for _ = 1 to 20_000 do
      ignore (Art.insert t (k (Util.Rng.key r)) 1)
    done;
    0
  in
  let rd = Domain.spawn reader and wd = Domain.spawn writer in
  ignore (Domain.join wd);
  Atomic.set stop true;
  Alcotest.(check int) "stable keys always readable" 0 (Domain.join rd)

(* --- Crash consistency (Condition #3) ------------------------------------------ *)

(* Enumerate crash points across an insert burst heavy in path-compression
   splits (sparse random keys).  After recovery every persisted key must be
   readable, and further writes — which trigger the helper on stale
   prefixes — must succeed. *)
let test_crash_campaign () =
  let total_fixes = ref 0 in
  for point = 1 to 80 do
    reset ();
    Pmem.Mode.set_shadow true;
    let t = Art.create () in
    let r = Util.Rng.create 42 in
    let loaded = Array.init 300 (fun _ -> Util.Rng.key r) in
    Array.iter (fun key -> ignore (Art.insert t (k key) key)) loaded;
    Pmem.persist_everything ();
    Pmem.Crash.arm_at point;
    (try
       for _ = 1 to 200 do
         ignore (Art.insert t (k (Util.Rng.key r)) 7)
       done;
       Pmem.Crash.disarm ()
     with Pmem.Crash.Simulated_crash -> ());
    Pmem.simulate_power_failure ();
    Art.recover t;
    (* Reads tolerate any crash-interrupted SMO state. *)
    Array.iter
      (fun key ->
        if Art.lookup t (k key) <> Some key then
          Alcotest.failf "crash point %d lost key %d" point key)
      loaded;
    (* Writes detect and fix stale prefixes via the helper. *)
    let r2 = Util.Rng.create (point * 13) in
    for _ = 1 to 300 do
      let key = Util.Rng.key r2 in
      ignore (Art.insert t (k key) 9);
      if Art.lookup t (k key) <> Some 9 then
        Alcotest.failf "post-crash insert broken at point %d" point
    done;
    Array.iter
      (fun key ->
        if Art.lookup t (k key) <> Some key then
          Alcotest.failf "crash point %d: key %d lost after helper fixes" point key)
      loaded;
    total_fixes := !total_fixes + Art.helper_fixes t
  done;
  Pmem.Mode.set_shadow false;
  ignore !total_fixes

(* Deterministic Condition #3 scenario with crafted keys:
   A and B share prefix "abcde" below the root byte, so their chain node has
   a 5-byte compressed prefix at level 6.  C diverges inside that prefix
   (matched = 3), forcing the two-step path-compression split.  Crashing at
   every point of C's insert and then inserting D (which traverses the old
   node) must exercise the stale-prefix detection + helper on the crash
   point that falls between the split's two ordered steps. *)
let test_helper_fires_on_smo_crash () =
  let key_a = "\x05abcdeX1" and key_b = "\x05abcdeY1" in
  let key_c = "\x05abcZZZ1" and key_d = "\x05abcdeZ1" in
  let setup () =
    reset ();
    Pmem.Mode.set_shadow true;
    let t = Art.create () in
    ignore (Art.insert t key_a 1);
    ignore (Art.insert t key_b 2);
    Pmem.persist_everything ();
    t
  in
  (* Count the crash points of C's insert on a throwaway tree. *)
  let points =
    let t = setup () in
    Pmem.Crash.count_points (fun () -> ignore (Art.insert t key_c 3))
  in
  Alcotest.(check bool) "split has multiple ordered steps" true (points >= 2);
  let helper_fired = ref false in
  for point = 1 to points do
    let t = setup () in
    Pmem.Crash.arm_at point;
    (try ignore (Art.insert t key_c 3) with Pmem.Crash.Simulated_crash -> ());
    Pmem.Crash.disarm ();
    Pmem.simulate_power_failure ();
    Art.recover t;
    (* Previously persisted keys always readable (reads tolerate). *)
    Alcotest.(check (option int)) "A survives" (Some 1) (Art.lookup t key_a);
    Alcotest.(check (option int)) "B survives" (Some 2) (Art.lookup t key_b);
    (* D's insert traverses the possibly-stale old node: the writer must
       detect and fix, and all keys must be readable afterwards. *)
    ignore (Art.insert t key_d 4);
    Alcotest.(check (option int)) "D inserted" (Some 4) (Art.lookup t key_d);
    Alcotest.(check (option int)) "A still there" (Some 1) (Art.lookup t key_a);
    Alcotest.(check (option int)) "B still there" (Some 2) (Art.lookup t key_b);
    (match Art.lookup t key_c with
    | Some v -> Alcotest.(check int) "C committed fully" 3 v
    | None -> ignore (Art.insert t key_c 3));
    Alcotest.(check (option int)) "C readable" (Some 3) (Art.lookup t key_c);
    if Art.helper_fixes t > 0 then helper_fired := true
  done;
  Pmem.Mode.set_shadow false;
  Alcotest.(check bool) "helper fired at the step-1/step-2 crash point" true
    !helper_fired

let test_durability () =
  reset ();
  Pmem.Mode.set_shadow true;
  let t = Art.create () in
  Alcotest.(check int) "clean after create" 0 (Pmem.dirty_count ());
  let r = Util.Rng.create 11 in
  for i = 1 to 2_000 do
    ignore (Art.insert t (k (Util.Rng.key r)) i);
    if Pmem.dirty_count () <> 0 then
      Alcotest.failf "dirty lines after insert %d: %s" i
        (String.concat "," (Pmem.dirty_objects ()))
  done;
  for i = 1 to 500 do
    ignore (Art.insert t (k i) i);
    ignore (Art.delete t (k i));
    if Pmem.dirty_count () <> 0 then Alcotest.failf "dirty after delete %d" i
  done;
  Pmem.Mode.set_shadow false

(* --- footprint: host words per key, allocation per lookup ------------- *)

let test_words_per_key () =
  let w = Harness.Footprint.art_per_key 100_000 in
  if w > 21. then Alcotest.failf "P-ART holds %.2f words per key (> 21)" w

(* A lookup of a present key allocates only its [Some] (2 words) with the
   sanitizer off; with it on, every metadata read opens a speculation
   window, which allocates by design. *)
let test_lookup_allocation () =
  if Pmem.Mode.sanitize_enabled () then Alcotest.skip ();
  let n = 10_000 in
  let keys = Array.init n (fun i -> Util.Keys.encode_int ((i * 7919) + 1)) in
  let t = Art.create () in
  Array.iteri (fun i k -> ignore (Art.insert t k i)) keys;
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Art.lookup t (Array.unsafe_get keys i)))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int n in
  if per_call > 2. then
    Alcotest.failf "Art.lookup allocates %.3f minor words per call (> 2)" per_call

(* A fresh-key insert into a 100k-key tree allocates its leaf and what its
   commit needs, not a closure, tuple or prefix string per level; with the
   sanitizer off it stays under 40 minor words. *)
let test_insert_allocation () =
  if Pmem.Mode.sanitize_enabled () then Alcotest.skip ();
  let rng = Util.Rng.create 42 in
  let t = Art.create () in
  let fill = 100_000 and n = 10_000 in
  let inserted = ref 0 in
  while !inserted < fill do
    if Art.insert t (Util.Keys.encode_int (Util.Rng.key rng)) 0 then
      incr inserted
  done;
  let keys = Array.init n (fun _ -> Util.Keys.encode_int (Util.Rng.key rng)) in
  let before = Gc.minor_words () in
  let fresh = ref 0 in
  for i = 0 to n - 1 do
    if Art.insert t (Array.unsafe_get keys i) i then incr fresh
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int !fresh in
  if per_call > 40. then
    Alcotest.failf "Art.insert allocates %.1f minor words per fresh key (> 40)"
      per_call

let () =
  Alcotest.run "art"
    [
      ( "sequential",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "node growth" `Quick test_node_growth;
          Alcotest.test_case "path compression" `Quick test_path_compression;
          Alcotest.test_case "string keys" `Quick test_string_keys;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "shrink on delete" `Quick test_shrink_on_delete;
          Alcotest.test_case "concurrent delete+shrink" `Quick
            test_concurrent_delete_shrink;
          Alcotest.test_case "scan sorted" `Quick test_scan_sorted;
          Alcotest.test_case "range" `Quick test_range;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_matches_model ]);
      ( "concurrent",
        [
          Alcotest.test_case "inserts" `Quick test_concurrent_inserts;
          Alcotest.test_case "readers+writers" `Quick test_concurrent_readers_writers;
        ] );
      ( "crash",
        [
          Alcotest.test_case "campaign" `Quick test_crash_campaign;
          Alcotest.test_case "helper on SMO crash" `Quick
            test_helper_fires_on_smo_crash;
        ] );
      ("durability", [ Alcotest.test_case "no dirty lines" `Quick test_durability ]);
      ( "footprint",
        [
          Alcotest.test_case "words per key" `Quick test_words_per_key;
          Alcotest.test_case "lookup allocation" `Quick test_lookup_allocation;
          Alcotest.test_case "insert allocation" `Quick test_insert_allocation;
        ] );
    ]
