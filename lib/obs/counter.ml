(* Named, per-domain sharded counters.

   [incr]/[add] touch only the calling domain's {!Slot}, so multi-threaded
   YCSB runs count without contention.  Slot cells are plain ints spaced
   [stride] words apart (OCaml atomics are boxed, so an "atomic array"
   would not pad them).  [value] merges the slots unsynchronized: exact
   after [Domain.join], possibly a few increments behind while workers
   still run. *)

type t = { name : string; slots : int array }

let stride = 8 (* 8 words = 64 bytes: one slot per cache line *)

(* Registry of every counter ever created, for exporters.  Creation is rare
   (module init, first use); guarded by a mutex.  Reads copy under the same
   mutex so enumeration never sees a half-added entry. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let v name =
  Mutex.lock registry_mu;
  let t =
    match Hashtbl.find_opt registry name with
    | Some t -> t
    | None ->
        let t = { name; slots = Array.make (Slot.max_domains * stride) 0 } in
        Hashtbl.add registry name t;
        t
  in
  Mutex.unlock registry_mu;
  t

let name t = t.name

let[@inline] add t n =
  let i = Slot.get () * stride in
  Array.unsafe_set t.slots i (Array.unsafe_get t.slots i + n)

let incr t = add t 1

let value t =
  let s = ref 0 in
  let i = ref 0 in
  while !i < Array.length t.slots do
    s := !s + t.slots.(!i);
    i := !i + stride
  done;
  !s

let reset t = Array.fill t.slots 0 (Array.length t.slots) 0

let all () =
  Mutex.lock registry_mu;
  let l = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> compare a.name b.name) l

let reset_all () = List.iter reset (all ())
