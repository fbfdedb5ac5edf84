(* Per-domain ring buffers, one per {!Slot}: the storage under both the
   event trace and the span rings.

   Each recording domain writes only the ring of its own slot, so the
   hot-path record is a plain write to domain-private memory.  A ring is
   created on its slot's first record, under [mu], so a concurrent
   [clear]/[set_capacity] never leaves a ring of a stale capacity
   installed.  A recycled slot's ring simply continues with the new
   occupant's events; every stored value carries its own real domain id
   where the consumer needs one.  Readers ([dump]/[total]) take [mu] to
   snapshot the ring table but read ring contents unsynchronized — the
   same snapshot-after-join discipline as {!Counter} merging. *)

type 'a ring = {
  events : 'a option array;
  mutable next : int;
  mutable total : int; (* recorded ever, retained or overwritten *)
}

type 'a t = {
  mu : Mutex.t;
  mutable cap : int; (* capacity of rings created from now on *)
  rings : 'a ring option array; (* index = slot *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Domring.create: capacity must be positive";
  { mu = Mutex.create (); cap = capacity; rings = Array.make Slot.max_domains None }

let capacity t = t.cap

let reset t cap =
  Mutex.protect t.mu (fun () ->
      t.cap <- cap;
      Array.fill t.rings 0 Slot.max_domains None)

let clear t = reset t t.cap

(** Change the per-ring capacity.  Existing rings are discarded (their
    retained events included): capacity is a creation-time property, so a
    live resize would mix ring sizes within one dump. *)
let set_capacity t n =
  if n <= 0 then invalid_arg "Domring.set_capacity: capacity must be positive";
  reset t n

(* The calling domain's ring, created on its slot's first use. *)
let ring_for t =
  let s = Slot.get () in
  match t.rings.(s) with
  | Some r -> r
  | None ->
      Mutex.protect t.mu (fun () ->
          let r = { events = Array.make t.cap None; next = 0; total = 0 } in
          t.rings.(s) <- Some r;
          r)

let record t v =
  let r = ring_for t in
  let cap = Array.length r.events in
  r.events.(r.next) <- Some v;
  r.next <- (r.next + 1) mod cap;
  r.total <- r.total + 1

let fold_rings t f acc =
  let rings = Mutex.protect t.mu (fun () -> Array.copy t.rings) in
  Array.fold_left
    (fun acc -> function None -> acc | Some r -> f acc r)
    acc rings

(** Every retained event, unordered (callers sort by their own stamp). *)
let dump t =
  fold_rings t
    (fun acc r ->
      Array.fold_left
        (fun acc -> function Some e -> e :: acc | None -> acc)
        acc r.events)
    []

(** Events recorded ever, including those since overwritten. *)
let total t = fold_rings t (fun acc r -> acc + r.total) 0

(** Events lost to ring overwrites across all slots. *)
let dropped t =
  fold_rings t (fun acc r -> acc + max 0 (r.total - Array.length r.events)) 0
