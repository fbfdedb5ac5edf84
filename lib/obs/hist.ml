(* Named, per-domain sharded log-scale histograms.

   One {!Util.Histogram} per {!Slot}; [observe] mutates only the calling
   domain's histogram, [merged] folds the slots into a fresh histogram for
   percentile queries (unsynchronized, as {!Counter.value}). *)

type t = { name : string; slots : Util.Histogram.t array }

let registry : (string, t) Hashtbl.t = Hashtbl.create 32
let registry_mu = Mutex.create ()

let v name =
  Mutex.lock registry_mu;
  let t =
    match Hashtbl.find_opt registry name with
    | Some t -> t
    | None ->
        let slots = Array.init Slot.max_domains (fun _ -> Util.Histogram.create ()) in
        let t = { name; slots } in
        Hashtbl.add registry name t;
        t
  in
  Mutex.unlock registry_mu;
  t

let name t = t.name

let observe t ns =
  Util.Histogram.add (Array.unsafe_get t.slots (Slot.get ())) ns

let merged t =
  let h = Util.Histogram.create () in
  Array.iter (fun s -> Util.Histogram.merge h s) t.slots;
  h

let count t = Array.fold_left (fun a s -> a + Util.Histogram.count s) 0 t.slots

let reset t =
  Array.iteri (fun i _ -> t.slots.(i) <- Util.Histogram.create ()) t.slots

let all () =
  Mutex.lock registry_mu;
  let l = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> compare a.name b.name) l

let reset_all () = List.iter reset (all ())
