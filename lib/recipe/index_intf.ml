(* Common interfaces for every index in the repository (paper §2.1).

   Two families, matching the paper's evaluation split (§7): ordered indexes
   support point and range queries over byte-string keys; unordered indexes
   support point queries over positive integer keys.  Values are 8-byte
   integers everywhere — on real PM a value slot holds a pointer into the
   storage system, and the unit tests exploit that values fit in one
   failure-atomic store exactly as the converted C indexes do. *)

(** Ordered index over byte-string keys compared lexicographically.
    Integer keys are used through {!Util.Keys.encode_int} so integer order
    equals byte order. *)
module type ORDERED = sig
  type t

  val name : string

  val create : unit -> t

  (** [insert t key value] binds [key].  Returns [false] if the key was
      already present, leaving its value unchanged; indexes that can
      overwrite a binding expose a separate [update]. *)
  val insert : t -> string -> int -> bool

  (** [lookup t key] returns the latest value bound to [key]. *)
  val lookup : t -> string -> int option

  (** [delete t key] removes the binding; [false] if absent. *)
  val delete : t -> string -> bool

  (** [scan t key n f] visits at most [n] bindings with keys >= [key] in
      ascending key order and returns how many were visited — the YCSB
      workload-E operation. *)
  val scan : t -> string -> int -> (string -> int -> unit) -> int

  (** [range t lo hi] returns all bindings with lo <= key < hi, ascending. *)
  val range : t -> string -> string -> (string * int) list

  (** Post-crash recovery hook.  RECIPE-converted indexes have no recovery
      algorithm to run — this only re-initializes volatile locks (§6 "lock
      initialization"); hand-crafted baselines may do real work here. *)
  val recover : t -> unit
end

(** Unordered (hash) index over positive integer keys; key 0 is reserved as
    the empty-slot sentinel, matching CLHT's representation. *)
module type UNORDERED = sig
  type t

  val name : string

  (** [create ~capacity ()] — initial table size in buckets/slots; the
      evaluation starts all hash tables at 48 KB (§7). *)
  val create : ?capacity:int -> unit -> t

  val insert : t -> int -> int -> bool
  val lookup : t -> int -> int option
  val delete : t -> int -> bool
  val recover : t -> unit
end
