(* Deterministic, allocation-free pseudo-random numbers (splitmix64 core).
   Every workload generator and test takes an explicit [t] so runs are
   reproducible from a seed; benchmark threads each get an independently
   seeded state and never share one. *)

type t = { mutable state : int }

let create seed = { state = (if seed = 0 then 0x9E3779B9 else seed) }

let next t =
  t.state <- (t.state + 0x61C8864680B583EB) land max_int;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * 0x7F4A7C15 land max_int in
  let z = (z lxor (z lsr 27)) * 0x1CE4E5B9 land max_int in
  z lxor (z lsr 31)

(** Uniform integer in [0, bound).  Lemire multiply-shift reduction: for the
    bounds every workload generator actually uses (key universes, percents)
    the reduction is one multiply and one shift — no integer division, which
    costs 20-40 cycles on the sampling hot path.  Bounds at or above 2^30
    (never hit by the generators) fall back to [mod]. *)
let lemire_bits = 30
let lemire_max = 1 lsl lemire_bits

let below t bound =
  if bound <= 0 then invalid_arg "Rng.below: bound must be positive";
  if bound < lemire_max then
    ((next t land (lemire_max - 1)) * bound) lsr lemire_bits
  else next t mod bound

(** Uniform float in [0, 1): a 48-bit draw scaled by 2^-48. *)
let float t = float_of_int (next t land 0xFFFFFFFFFFFF) /. 281474976710656.0

(** Uniform positive key in [1, 2^61]; never 0, which indexes reserve as the
    empty-slot sentinel. *)
let key t = (next t land 0x1FFFFFFFFFFFFFFF) + 1

(** Fisher–Yates shuffle of an array prefix. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
