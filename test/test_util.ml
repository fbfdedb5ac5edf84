(* Tests for the util substrate: locks, RNG, key codecs, bit helpers,
   histogram. *)

let test_lock_basic () =
  let l = Util.Lock.create () in
  Alcotest.(check bool) "initially free" false (Util.Lock.is_locked l);
  Alcotest.(check bool) "try_lock" true (Util.Lock.try_lock l);
  Alcotest.(check bool) "now held" true (Util.Lock.is_locked l);
  Alcotest.(check bool) "second try fails" false (Util.Lock.try_lock l);
  Util.Lock.unlock l;
  Alcotest.(check bool) "free again" false (Util.Lock.is_locked l)

let test_lock_epoch_recovery () =
  let l = Util.Lock.create () in
  Util.Lock.lock l;
  (* Simulated crash while the lock is held: recovery bumps the epoch and the
     lock must be reacquirable without an unlock. *)
  Util.Lock.new_epoch ();
  Alcotest.(check bool) "stale lock is free" false (Util.Lock.is_locked l);
  Alcotest.(check bool) "reacquire after recovery" true (Util.Lock.try_lock l);
  Util.Lock.unlock l

let test_lock_mutual_exclusion () =
  let l = Util.Lock.create () in
  let counter = ref 0 in
  let per = 10_000 in
  let body () =
    for _ = 1 to per do
      Util.Lock.with_lock l (fun () -> incr counter)
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn body) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" (4 * per) !counter

let test_rng_determinism () =
  let a = Util.Rng.create 7 and b = Util.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Rng.next a) (Util.Rng.next b)
  done

let test_rng_below () =
  let r = Util.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.below r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_unit () =
  let r = Util.Rng.create 13 in
  let n = 10_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let u = Util.Rng.float r in
    if not (u >= 0.0 && u < 1.0) then Alcotest.failf "out of [0, 1): %g" u;
    sum := !sum +. u
  done;
  let mean = !sum /. float_of_int n in
  if not (mean >= 0.49 && mean <= 0.51) then
    Alcotest.failf "mean %g outside [0.49, 0.51]" mean

let test_rng_keys_positive () =
  let r = Util.Rng.create 5 in
  for _ = 1 to 10_000 do
    if Util.Rng.key r <= 0 then Alcotest.fail "key must be positive"
  done

let test_keys_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check int) "roundtrip" k Util.Keys.(decode_int (encode_int k)))
    [ 0; 1; 255; 256; 65_535; 1_000_000_007; max_int / 2 ]

let test_keys_order_preserving () =
  let sign x = compare x 0 in
  let r = Util.Rng.create 11 in
  for _ = 1 to 1_000 do
    let a = Util.Rng.key r and b = Util.Rng.key r in
    let sa = Util.Keys.encode_int a and sb = Util.Keys.encode_int b in
    Alcotest.(check int) "byte order = int order" (sign (compare a b))
      (sign (String.compare sa sb))
  done

let test_string_key_shape () =
  let k = Util.Keys.string_key 42 in
  Alcotest.(check int) "24 bytes" Util.Keys.string_key_length (String.length k);
  Alcotest.(check bool) "user prefix" true (String.length k > 4 && String.sub k 0 4 = "user");
  (* Order-preserving for ids of equal digit count (zero-padded). *)
  Alcotest.(check bool) "ordered" true
    (String.compare (Util.Keys.string_key 41) (Util.Keys.string_key 42) < 0)

let test_successor () =
  (match Util.Keys.successor "ab" with
  | Some s -> Alcotest.(check string) "bump last byte" "ac" s
  | None -> Alcotest.fail "successor exists");
  (match Util.Keys.successor "a\xff" with
  | Some s -> Alcotest.(check string) "carry" "b" s
  | None -> Alcotest.fail "successor exists");
  Alcotest.(check bool) "all-0xff has none" true
    (Util.Keys.successor "\xff\xff" = None)

let test_bits () =
  Alcotest.(check int) "clz 1" 62 (Util.Bits.count_leading_zeros 1);
  Alcotest.(check int) "clz 2" 61 (Util.Bits.count_leading_zeros 2);
  Alcotest.(check int) "clz max" 1 (Util.Bits.count_leading_zeros max_int);
  Alcotest.(check int) "hdb" 62 (Util.Bits.highest_differing_bit 0 1);
  Alcotest.(check int) "pow2" 8 (Util.Bits.next_power_of_two 5);
  Alcotest.(check int) "pow2 exact" 8 (Util.Bits.next_power_of_two 8);
  Alcotest.(check bool) "is_pow2" true (Util.Bits.is_power_of_two 64);
  Alcotest.(check bool) "not pow2" false (Util.Bits.is_power_of_two 48);
  Alcotest.(check int) "popcount" 3 (Util.Bits.popcount 0b10101)

let test_histogram () =
  let h = Util.Histogram.create () in
  for i = 1 to 1000 do
    Util.Histogram.add h i
  done;
  Alcotest.(check int) "count" 1000 (Util.Histogram.count h);
  let p50 = Util.Histogram.percentile h 0.5 in
  Alcotest.(check bool) "p50 near 500" true (p50 > 300 && p50 < 800);
  let p99 = Util.Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p99 above p50" true (p99 >= p50);
  let m = Util.Histogram.mean h in
  Alcotest.(check bool) "mean near 500" true (m > 450.0 && m < 550.0)

(* Regression: with few samples, [q * count] truncates to 0 and percentile
   used to return bucket 0 (= 1 ns) regardless of the data. *)
let test_histogram_small_counts () =
  let h = Util.Histogram.create () in
  Util.Histogram.add h 1_000;
  Alcotest.(check bool)
    "p50 of a single 1000ns sample is ~1000ns (4%% bucket floor)" true
    (Util.Histogram.percentile h 0.5 >= 960);
  Alcotest.(check bool)
    "p99 of a single sample equals p50" true
    (Util.Histogram.percentile h 0.99 = Util.Histogram.percentile h 0.5);
  let h2 = Util.Histogram.create () in
  Util.Histogram.add h2 100;
  Util.Histogram.add h2 10_000;
  (* target rank of q=0.4 over 2 samples is ceil(0.8)=1: the first sample *)
  Alcotest.(check bool)
    "low quantile picks the smaller sample" true
    (Util.Histogram.percentile h2 0.4 < 1_000);
  Alcotest.(check bool)
    "high quantile picks the larger sample" true
    (Util.Histogram.percentile h2 0.99 >= 9_000);
  (* Empty histogram stays at 0 (no clamping to rank 1). *)
  let h3 = Util.Histogram.create () in
  Alcotest.(check int) "empty percentile" 0 (Util.Histogram.percentile h3 0.99)

let test_histogram_merge () =
  let a = Util.Histogram.create () and b = Util.Histogram.create () in
  for i = 1 to 100 do
    Util.Histogram.add a i
  done;
  for i = 10_001 to 10_100 do
    Util.Histogram.add b i
  done;
  Util.Histogram.merge a b;
  Alcotest.(check int) "merged count" 200 (Util.Histogram.count a);
  Alcotest.(check bool)
    "p99 comes from the slow half" true
    (Util.Histogram.percentile a 0.99 >= 9_000);
  Alcotest.(check bool)
    "p25 comes from the fast half" true
    (Util.Histogram.percentile a 0.25 <= 128)

(* qcheck: key encoding is a monotone bijection. *)
let prop_encode_monotone =
  QCheck.Test.make ~name:"encode_int monotone" ~count:1000
    QCheck.(pair (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 30) - 1)))
    (fun (a, b) ->
      let sa = Util.Keys.encode_int a and sb = Util.Keys.encode_int b in
      compare a b = compare sa sb)

let prop_successor_is_upper_bound =
  QCheck.Test.make ~name:"successor bounds prefix" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 1 10))
    (fun s ->
      match Util.Keys.successor s with
      | None -> String.for_all (fun c -> c = '\xff') s
      | Some succ -> String.compare s succ < 0)

let () =
  Alcotest.run "util"
    [
      ( "lock",
        [
          Alcotest.test_case "basic" `Quick test_lock_basic;
          Alcotest.test_case "epoch recovery" `Quick test_lock_epoch_recovery;
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "below range" `Quick test_rng_below;
          Alcotest.test_case "float in [0, 1)" `Quick test_rng_float_unit;
          Alcotest.test_case "keys positive" `Quick test_rng_keys_positive;
        ] );
      ( "keys",
        [
          Alcotest.test_case "roundtrip" `Quick test_keys_roundtrip;
          Alcotest.test_case "order preserving" `Quick test_keys_order_preserving;
          Alcotest.test_case "string key shape" `Quick test_string_key_shape;
          Alcotest.test_case "successor" `Quick test_successor;
        ] );
      ("bits", [ Alcotest.test_case "helpers" `Quick test_bits ]);
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram;
          Alcotest.test_case "small counts" `Quick test_histogram_small_counts;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_encode_monotone;
          QCheck_alcotest.to_alcotest prop_successor_is_upper_bound;
        ] );
    ]
