(* Exact order statistics and self-time arithmetic.

   Latencies are kept as raw integer nanosecond samples and ranked
   exactly: a log-bucket histogram reports a bucket's lower bound, and on
   a 6.25%-wide bucket a single bucket flip would use most of a 10%
   run-to-run budget. *)

(* k-th smallest (0-based) of [a.(0 .. n-1)] by quickselect with a
   median-of-three pivot.  Permutes that prefix; O(n) expected. *)
let select a n k =
  if k < 0 || k >= n || n > Array.length a then invalid_arg "Measure.select";
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let x = a.(!lo) and y = a.((!lo + !hi) / 2) and z = a.(!hi) in
    let pivot = max (min x y) (min (max x y) z) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.(k)

(** Nearest-rank percentile of the first [n] samples of [a]: the smallest
    sample with at least [q * n] samples at or below it.  Reorders the
    prefix. *)
let percentile a n q =
  if n <= 0 then invalid_arg "Measure.percentile: no samples";
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  select a n (max 0 (min (n - 1) k))

let median_f xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median_f: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** First, second and third quartile by the method of Python's
    [statistics.quantiles(xs, n=4)] (the default, "exclusive"), so that
    run-to-run spreads printed here are the ones a Python reader
    recomputes.  With a single value all three are that value. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Measure.quartiles: empty"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)
  end

(** Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median_f xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(** A phase's requests: when each counts ([at]: completion for a closed
    loop, due time for an open one), its latency, and the operations it
    got acknowledged, over the span [t_lo, t_hi) the phase measured. *)
type samples = {
  at : int array;
  lat : int array;
  ops : int array;
  t_lo : int;
  t_hi : int;
}

(** The samples of each of [w] equal windows of [t_lo, t_hi): latencies
    and acknowledged operations.  Samples outside the span are dropped. *)
let windows ~w s =
  let len = max 1 (s.t_hi - s.t_lo) in
  let slot i =
    let d = s.at.(i) - s.t_lo in
    if d < 0 || d >= len then -1 else d * w / len
  in
  let count = Array.make w 0 and ops = Array.make w 0 in
  Array.iteri
    (fun i _ ->
      let k = slot i in
      if k >= 0 then begin
        count.(k) <- count.(k) + 1;
        ops.(k) <- ops.(k) + s.ops.(i)
      end)
    s.at;
  let lats = Array.map (fun n -> Array.make n 0) count in
  let fill = Array.make w 0 in
  Array.iteri
    (fun i _ ->
      let k = slot i in
      if k >= 0 then begin
        lats.(k).(fill.(k)) <- s.lat.(i);
        fill.(k) <- fill.(k) + 1
      end)
    s.at;
  (Array.to_list lats, Array.to_list ops, float_of_int len /. float_of_int w)

(** Self time of a span: its duration minus the part of its interval that
    its child spans cover.  Children are clipped to the parent and may
    overlap one another; each covered nanosecond counts once. *)
let self_time ~parent:(s, e) ~children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a s and b = min b e in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, s) clipped
  in
  max 0 (e - s) - covered
