(* The benchmark's own spans: one per call it makes into a layer, kept in
   preallocated per-client rings while tracing is on and written out once,
   at the end, as Chrome/Perfetto trace-event JSON next to whatever the
   program itself recorded ({!Obs.Traceview}, or the trace file a
   [kv_server --trace-out] child wrote). *)

module J = Obs.Json

type ring = {
  names : string array;
  rids : int array;
  t0s : int array;
  t1s : int array;
  mutable next : int;
  mutable total : int;
}

type t = { rings : ring array; mutable on : bool }

let create ~clients ~capacity =
  let ring () =
    {
      names = Array.make capacity "";
      rids = Array.make capacity 0;
      t0s = Array.make capacity 0;
      t1s = Array.make capacity 0;
      next = 0;
      total = 0;
    }
  in
  { rings = Array.init clients (fun _ -> ring ()); on = false }

let set_on t b = t.on <- b

(** Record span [name] of request [rid] on client [c]'s row.  Only the
    client that owns ring [c] writes it. *)
let record t c name rid t0 t1 =
  if t.on then begin
    let r = t.rings.(c) in
    let i = r.next in
    r.names.(i) <- name;
    r.rids.(i) <- rid;
    r.t0s.(i) <- t0;
    r.t1s.(i) <- t1;
    r.next <- (if i + 1 = Array.length r.names then 0 else i + 1);
    r.total <- r.total + 1
  end

let retained r = min r.total (Array.length r.names)

let recorded t = Array.fold_left (fun a r -> a + r.total) 0 t.rings

let fold t f acc =
  let acc = ref acc in
  Array.iteri
    (fun c r ->
      for i = 0 to retained r - 1 do
        acc := f !acc c r.names.(i) r.rids.(i) r.t0s.(i) r.t1s.(i)
      done)
    t.rings;
  !acc

let pid_bench = 100

let meta ~pid ?tid kind name =
  J.Obj
    ([ ("name", J.Str kind); ("ph", J.Str "M"); ("pid", J.int pid) ]
    @ (match tid with Some tid -> [ ("tid", J.int tid) ] | None -> [])
    @ [ ("args", J.Obj [ ("name", J.Str name) ]) ])

let events_of (j : J.t) =
  match J.member "traceEvents" j with Some (J.List es) -> es | _ -> []

(* Move a foreign event by [dus] microseconds and its pid by [dpid]. *)
let shift ~dus ~dpid (e : J.t) =
  match e with
  | J.Obj kvs ->
      J.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "ts", J.Num ts -> (k, J.Num (ts +. dus))
             | "pid", J.Num p -> (k, J.Num (p +. float_of_int dpid))
             | _ -> (k, v))
           kvs)
  | e -> e

(** Perfetto JSON of this benchmark's spans plus [program] events from
    another trace-event document (already normalized by its writer to
    start at 0), placed so that [program]'s time 0 falls at absolute
    monotonic time [program_t0] and its pids move up by [dpid]. *)
let to_json t ~label ?program ?(program_t0 = 0) ?(dpid = 0) ~other () =
  let t_min =
    fold t (fun m _ _ _ t0 _ -> min m t0) max_int
    |> min (match program with Some _ -> program_t0 | None -> max_int)
  in
  let t_min = if t_min = max_int then 0 else t_min in
  let us ns = float_of_int ns /. 1e3 in
  let mine =
    fold t
      (fun acc c name rid t0 t1 ->
        J.Obj
          [
            ("name", J.Str name);
            ("cat", J.Str "bench");
            ("ph", J.Str "X");
            ("ts", J.Num (us (t0 - t_min)));
            ("dur", J.Num (us (max 0 (t1 - t0))));
            ("pid", J.int pid_bench);
            ("tid", J.int c);
            ("args", J.Obj [ ("rid", J.int rid) ]);
          ]
        :: acc)
      []
  in
  let rows =
    meta ~pid:pid_bench "process_name" ("benchmark " ^ label)
    :: List.init (Array.length t.rings) (fun c ->
           meta ~pid:pid_bench ~tid:c "thread_name" (Printf.sprintf "client %d" c))
  in
  let foreign =
    match program with
    | None -> []
    | Some j ->
        List.map (shift ~dus:(us (program_t0 - t_min)) ~dpid) (events_of j)
  in
  J.Obj
    [
      ("traceEvents", J.List (rows @ List.rev mine @ foreign));
      ("displayTimeUnit", J.Str "ms");
      ( "otherData",
        J.Obj
          (("bench_spans", J.int (recorded t))
          :: ("bench_spans_retained", J.int (fold t (fun a _ _ _ _ _ -> a + 1) 0))
          :: other) );
    ]

let write_file path j =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> J.to_channel oc j)
