(* Differential testing: all five ordered indexes (and WOART) must agree
   with each other and with a reference model on arbitrary operation
   sequences — inserts, deletes, lookups, and ordered scans. *)

module SM = Map.Make (String)

let reset () =
  Pmem.Mode.set_shadow false;
  Pmem.Crash.disarm ();
  ignore (Pmem.persist_everything ());
  Pmem.Stats.reset ();
  Util.Lock.new_epoch ()

module I = Harness.Index

(* Fresh native ops of every ordered index in the registry. *)
let ordered sizing =
  List.filter_map
    (fun e ->
      match e.I.family with
      | I.Ordered make -> Some (make sizing)
      | I.Hash _ -> None)
    I.all

let scan_list o key n =
  let acc = ref [] in
  ignore ((Option.get o.I.scan) key n (fun k v -> acc := (k, v) :: !acc));
  List.rev !acc

type op = Insert of int * int | Delete of int | Lookup of int | Scan of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Insert (k, v)) (int_range 1 300) (int_range 1 999));
        (2, map (fun k -> Delete k) (int_range 1 300));
        (2, map (fun k -> Lookup k) (int_range 1 300));
        (1, map2 (fun k n -> Scan (k, n)) (int_range 1 300) (int_range 1 20));
      ])

let show_op = function
  | Insert (k, v) -> Printf.sprintf "I(%d,%d)" k v
  | Delete k -> Printf.sprintf "D%d" k
  | Lookup k -> Printf.sprintf "L%d" k
  | Scan (k, n) -> Printf.sprintf "S(%d,%d)" k n

let prop_all_agree =
  QCheck.Test.make ~name:"six ordered indexes agree with the Map model"
    ~count:30
    QCheck.(
      make
        ~print:(fun l -> String.concat ";" (List.map show_op l))
        (QCheck.Gen.list_size (QCheck.Gen.int_range 0 250) op_gen))
    (fun ops ->
      reset ();
      let idxs = ordered I.Small in
      let model = ref SM.empty in
      List.for_all
        (fun op ->
          match op with
          | Insert (k, v) ->
              let key = Util.Keys.encode_int k in
              let fresh = not (SM.mem key !model) in
              if fresh then model := SM.add key v !model;
              List.for_all (fun i -> i.I.insert key v = fresh) idxs
          | Delete k ->
              let key = Util.Keys.encode_int k in
              let present = SM.mem key !model in
              model := SM.remove key !model;
              List.for_all (fun i -> i.I.delete key = present) idxs
          | Lookup k ->
              let key = Util.Keys.encode_int k in
              let expect = SM.find_opt key !model in
              List.for_all (fun i -> i.I.lookup key = expect) idxs
          | Scan (k, n) ->
              let key = Util.Keys.encode_int k in
              let expect =
                SM.bindings !model
                |> List.filter (fun (key', _) -> String.compare key' key >= 0)
                |> List.filteri (fun i _ -> i < n)
              in
              List.for_all (fun i -> scan_list i key n = expect) idxs)
        ops)

(* Same differential check with string keys; the B+-trees keep them behind
   pointers into the persistent string pool (§7's string mode). *)
let prop_string_keys_agree =
  QCheck.Test.make ~name:"ordered indexes agree on string keys" ~count:20
    QCheck.(
      make
        ~print:(fun l -> String.concat "," (List.map string_of_int l))
        (QCheck.Gen.list_size (QCheck.Gen.int_range 0 200)
           (QCheck.Gen.int_range 1 500)))
    (fun ids ->
      reset ();
      let idxs = ordered (I.Ycsb Ycsb.Strkey) in
      let model = ref SM.empty in
      List.iter
        (fun id ->
          let key = Util.Keys.string_key id in
          if not (SM.mem key !model) then model := SM.add key id !model;
          List.iter (fun (i : string I.ops) -> ignore (i.I.insert key id)) idxs)
        ids;
      SM.for_all
        (fun key v -> List.for_all (fun i -> i.I.lookup key = Some v) idxs)
        !model)

(* Update agreement across the update-capable ordered indexes. *)
let prop_updates_agree =
  QCheck.Test.make ~name:"update-capable indexes agree" ~count:25
    QCheck.(
      make
        ~print:(fun l ->
          String.concat ";"
            (List.map (fun (op, key) -> Printf.sprintf "%d:%d" op key) l))
        (QCheck.Gen.list_size (QCheck.Gen.int_range 0 250)
           (QCheck.Gen.pair (QCheck.Gen.int_range 0 3) (QCheck.Gen.int_range 1 200))))
    (fun ops ->
      reset ();
      let idxs =
        List.filter_map
          (fun (i : string I.ops) -> Option.map (fun u -> (i, u)) i.I.update)
          (ordered I.Small)
      in
      let model = Hashtbl.create 16 in
      let tick = ref 0 in
      let all f = List.for_all f idxs in
      List.for_all
        (fun (op, key) ->
          incr tick;
          let kk = Util.Keys.encode_int key in
          match op with
          | 0 ->
              let fresh = not (Hashtbl.mem model key) in
              if fresh then Hashtbl.replace model key !tick;
              all (fun (i, _) -> i.I.insert kk !tick = fresh)
          | 1 ->
              let present = Hashtbl.mem model key in
              if present then Hashtbl.replace model key (- !tick);
              all (fun (_, update) -> update kk (- !tick) = present)
          | 2 ->
              let present = Hashtbl.mem model key in
              Hashtbl.remove model key;
              all (fun (i, _) -> i.I.delete kk = present)
          | _ ->
              let expect = Hashtbl.find_opt model key in
              all (fun (i, _) -> i.I.lookup kk = expect))
        ops)

let () =
  Alcotest.run "ordered-diff"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_all_agree;
          QCheck_alcotest.to_alcotest prop_string_keys_agree;
          QCheck_alcotest.to_alcotest prop_updates_agree;
        ] );
    ]
