(* Host-heap footprint of simulated persistent objects, in OCaml words.

   The simulator's cache-line counters see only the words an index stores;
   these measure what the objects cost the host heap, headers and boxes
   included.  Each figure is a marginal cost: objects reached through a
   shared value (a name literal, the substrate's shared plain-object
   record) are counted once and vanish in the average. *)

(* Words reachable from [n] values built by [make], beyond the array that
   holds them, per value. *)
let per_object n make =
  let a = Array.init n make in
  float_of_int (Obj.reachable_words (Obj.repr a) - (n + 1)) /. float_of_int n

let words n = per_object 1000 (fun _ -> Pmem.Words.make n 0)

let refs_atomic n =
  per_object 1000 (fun _ -> Pmem.Refs.make ~atomic:true n (None : int option))

(** Words per key of a P-ART holding [n] distinct {!Util.Rng.key} 8-byte
    keys drawn from [seed]: the tree's reachable words, less the empty
    tree's and the key strings'. *)
let art_per_key ?(seed = 42) n =
  let rng = Util.Rng.create seed in
  let t = Art.create () in
  let key_words = ref 0 and inserted = ref 0 in
  while !inserted < n do
    let k = Util.Keys.encode_int (Util.Rng.key rng) in
    if Art.insert t k !inserted then begin
      key_words := !key_words + Obj.reachable_words (Obj.repr k);
      incr inserted
    end
  done;
  let empty = Obj.reachable_words (Obj.repr (Art.create ())) in
  float_of_int (Obj.reachable_words (Obj.repr t) - empty - !key_words)
  /. float_of_int n
