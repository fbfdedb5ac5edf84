(* Property-based differential testing: random operation tapes applied in
   lockstep to every index subject and a Hashtbl oracle, over a small key
   space so collisions, duplicate inserts and misses are all exercised.
   Two properties:

   - agreement: after a full tape, the subject answers exactly like the
     oracle for every key in the space (present with the same value, or
     absent);
   - crash agreement: a tape interrupted at a random declared crash point,
     power-failed, recovered and leak-swept must preserve every
     acknowledged insert; the only key allowed to differ from the oracle is
     the single in-flight insert (which may or may not have committed), and
     ordered subjects must scan the oracle's keys in order without
     duplicates.

   Tapes are driven by a seeded [Random.State], so every failure replays. *)

let key_space = 80
let value_of k = (k * 13) + 5

let fresh_env () =
  Pmem.Crash.disarm ();
  Pmem.Mode.set_shadow true;
  ignore (Pmem.persist_everything ());
  Util.Lock.new_epoch ()

let teardown () =
  Pmem.Crash.disarm ();
  Pmem.Mode.set_shadow false

let subjects =
  List.map
    (fun e -> (e.Harness.Index.name, Harness.Index.subject e))
    Harness.Index.all

(* One tape op: 60% insert (random key), 40% lookup checked on the spot. *)
let apply_op rng (s : Crashtest.subject) oracle =
  let k = 1 + Random.State.int rng key_space in
  if Random.State.int rng 10 < 6 then begin
    let acked = s.Crashtest.insert k (value_of k) in
    let fresh = not (Hashtbl.mem oracle k) in
    if acked then begin
      if not fresh then
        Alcotest.failf "insert %d acked but oracle already had it" k;
      Hashtbl.replace oracle k (value_of k)
    end
    else if fresh then
      Alcotest.failf "insert %d rejected but oracle does not have it" k
  end
  else
    let expect = Hashtbl.find_opt oracle k in
    let got = s.Crashtest.lookup k in
    if got <> expect then
      Alcotest.failf "lookup %d: oracle %s, index %s" k
        (match expect with Some v -> string_of_int v | None -> "None")
        (match got with Some v -> string_of_int v | None -> "None")

let check_agreement name (s : Crashtest.subject) oracle ~allow =
  for k = 1 to key_space do
    let expect = Hashtbl.find_opt oracle k in
    let got = s.Crashtest.lookup k in
    let ok =
      got = expect
      || (List.mem k allow && (got = None || got = Some (value_of k)))
    in
    if not ok then
      Alcotest.failf "%s: key %d diverged from oracle (oracle %s, index %s)"
        name k
        (match expect with Some v -> string_of_int v | None -> "None")
        (match got with Some v -> string_of_int v | None -> "None")
  done;
  match s.Crashtest.scan_all with
  | None -> ()
  | Some scan ->
      let bindings = scan () in
      let keys = List.map fst bindings in
      if keys <> List.sort_uniq compare keys then
        Alcotest.failf "%s: scan out of order or duplicated" name;
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt oracle k with
          | Some ov ->
              if v <> ov then
                Alcotest.failf "%s: scan key %d value %d <> oracle %d" name k
                  v ov
          | None ->
              if not (List.mem k allow && v = value_of k) then
                Alcotest.failf "%s: scan surfaced unknown key %d" name k)
        bindings;
      Hashtbl.iter
        (fun k _ ->
          if not (List.mem k keys) then
            Alcotest.failf "%s: scan missed oracle key %d" name k)
        oracle

let test_tapes_agree () =
  Fun.protect ~finally:teardown (fun () ->
      List.iter
        (fun (name, make) ->
          List.iter
            (fun seed ->
              fresh_env ();
              let rng = Random.State.make [| seed; 77 |] in
              let s = make () in
              let oracle = Hashtbl.create 64 in
              for _ = 1 to 300 do
                apply_op rng s oracle
              done;
              check_agreement name s oracle ~allow:[])
            [ 1; 2; 3 ])
        subjects)

(* Crash the tape at a random declared crash point, recover, verify, then
   keep going on the recovered structure and verify again: recovery must
   hand back a structure that is both correct and still writable. *)
let test_crashed_tapes_agree () =
  Fun.protect ~finally:teardown (fun () ->
      List.iter
        (fun (name, make) ->
          List.iter
            (fun seed ->
              fresh_env ();
              let rng = Random.State.make [| seed; 1234 |] in
              let s = make () in
              let oracle = Hashtbl.create 64 in
              Pmem.Crash.arm_at (1 + Random.State.int rng 400);
              let in_flight = ref [] in
              (try
                 for _ = 1 to 300 do
                   (* Remember the key the op might touch: if the crash
                      lands inside this insert, the key is neither promised
                      present nor promised absent. *)
                   let saved = Random.State.copy rng in
                   let k = 1 + Random.State.int saved key_space in
                   in_flight := [ k ];
                   apply_op rng s oracle;
                   in_flight := []
                 done
               with Pmem.Crash.Simulated_crash -> ());
              Pmem.Crash.disarm ();
              Pmem.simulate_power_failure ();
              s.Crashtest.recover ();
              (match s.Crashtest.sweep with
              | Some sweep -> ignore (sweep ())
              | None -> ());
              check_agreement name s oracle ~allow:!in_flight;
              (* The recovered structure must accept the rest of the tape.
                 The in-flight key's slot may hold an unacked committed
                 binding; drop it from further play to keep the oracle
                 exact. *)
              let rng2 = Random.State.make [| seed; 4321 |] in
              for _ = 1 to 150 do
                let k = 1 + Random.State.int rng2 key_space in
                if not (List.mem k !in_flight) then begin
                  if Random.State.int rng2 10 < 6 then begin
                    let acked = s.Crashtest.insert k (value_of k) in
                    if acked then Hashtbl.replace oracle k (value_of k)
                    else if not (Hashtbl.mem oracle k) then
                      (* Committed-but-unacked leftovers of the crashed op
                         are legal; anything else is a divergence. *)
                      if s.Crashtest.lookup k <> Some (value_of k) then
                        Alcotest.failf
                          "%s: post-recovery insert %d rejected on empty slot"
                          name k
                      else Hashtbl.replace oracle k (value_of k)
                  end
                  else begin
                    let expect = Hashtbl.find_opt oracle k in
                    let got = s.Crashtest.lookup k in
                    if got <> expect then
                      Alcotest.failf "%s: post-recovery lookup %d diverged"
                        name k
                  end
                end
              done;
              check_agreement name s oracle ~allow:!in_flight)
            [ 1; 2; 3 ])
        subjects)

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        [
          Alcotest.test_case "random tapes agree" `Quick test_tapes_agree;
          Alcotest.test_case "crashed tapes agree after recovery" `Quick
            test_crashed_tapes_agree;
        ] );
    ]
