(* The KV service layer end to end: wire-codec round trips (including
   limit cases and truncated/corrupt frames), the commit-deferral and epoch
   substrate, the sharded server over real index partitions through the
   codec-exercising in-process transport, all-or-nothing backpressure, the
   epoch flush/fence saving, and the crash-mid-serving campaign (zero lost
   acknowledged writes). *)

let () = Harness.Sanitize_env.init ()

let art_part = Harness.Index.(partition art)
let clht_part = Harness.Index.(partition (Option.get (find Clht.name)))

open Kvserve

let fresh_env () =
  Faultinject.disarm ();
  Pmem.Crash.disarm ();
  Pmem.Mode.set_shadow true;
  ignore (Pmem.persist_everything ());
  Util.Lock.new_epoch ()

let teardown () =
  Faultinject.disarm ();
  Pmem.Crash.disarm ();
  Recipe.Persist.set_group false;
  Pmem.Mode.set_shadow false

let with_env f = Fun.protect ~finally:teardown (fun () -> fresh_env (); f ())

(* --- wire codec ---------------------------------------------------------- *)

let arb_key =
  QCheck.Gen.(
    frequency
      [
        (8, string_size ~gen:printable (int_range 0 24));
        (1, string_size ~gen:char (int_range 0 300));
        (1, return (String.make 65535 'k'));
      ])

(* Legal transaction members: get/put/delete only (the codec enforces the
   restriction on both sides, so the generator must respect it for the
   round-trip property to hold). *)
let arb_txn_member =
  QCheck.Gen.(
    arb_key >>= fun k ->
    frequency
      [
        (2, return (Wire.Get k));
        (3, map (fun v -> Wire.Put (k, v land max_int)) int);
        (2, return (Wire.Delete k));
      ])

let arb_op =
  QCheck.Gen.(
    arb_key >>= fun k ->
    frequency
      [
        (3, return (Wire.Get k));
        (3, map (fun v -> Wire.Put (k, v land max_int)) int);
        (2, return (Wire.Delete k));
        (2, map (fun n -> Wire.Scan (k, n land 0xFFFF)) int);
        (1, return Wire.Stats);
        ( 1,
          map
            (fun ms -> Wire.Txn ms)
            (list_size (int_range 0 8) arb_txn_member) );
      ])

let arb_request =
  QCheck.Gen.(
    map2
      (fun rid ops -> { Wire.rid = rid land 0xFFFFFFFF; ops })
      int
      (list_size (int_range 0 12) arb_op))

let arb_reply =
  QCheck.Gen.(
    frequency
      [
        (3, return Wire.Absent);
        (3, map (fun v -> Wire.Found (v land max_int)) int);
        (2, map (fun b -> Wire.Done b) bool);
        ( 2,
          map
            (fun items -> Wire.Scanned items)
            (list_size (int_range 0 8)
               (map2 (fun k v -> (k, v land max_int)) arb_key int))
        );
        ( 2,
          map
            (fun fields -> Wire.Stats_reply fields)
            (list_size (int_range 0 10)
               (map2 (fun k v -> (k, v land max_int)) arb_key int)) );
        (1, return Wire.Unsupported);
        ( 1,
          map
            (fun rs -> Wire.Txn_ok rs)
            (list_size (int_range 0 8)
               (frequency
                  [
                    (2, return Wire.Absent);
                    (3, map (fun v -> Wire.Found (v land max_int)) int);
                    (2, map (fun b -> Wire.Done b) bool);
                  ])) );
        (1, return Wire.Txn_aborted);
      ])

let arb_response =
  QCheck.Gen.(
    map2 (fun rid (status, replies) -> { Wire.rrid = rid land 0xFFFFFFFF;
                                         status; replies })
      int
      (frequency
         [
           ( 6,
             map
               (fun rs -> (Wire.Ok, rs))
               (list_size (int_range 0 12) arb_reply) );
           (1, return (Wire.Overloaded, []));
           (1, return (Wire.Bad_request, []));
           (1, return (Wire.Shutdown, []));
         ]))

let request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request round-trip"
    (QCheck.make arb_request) (fun req ->
      let s = Wire.request_string req in
      match Wire.decode_request s 0 with
      | `Ok (req', consumed) -> req' = req && consumed = String.length s
      | _ -> false)

let response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"response round-trip"
    (QCheck.make arb_response) (fun resp ->
      let s = Wire.response_string resp in
      match Wire.decode_response s 0 with
      | `Ok (resp', consumed) -> resp' = resp && consumed = String.length s
      | _ -> false)

(* Every strict prefix of a valid frame must decode as [`Need_more] — the
   incremental TCP read contract.  Each cut is decoded in place through
   [?limit]: copying every prefix out made these properties quadratic in
   the frame size, and a 65 535-byte key makes frames hundreds of KB. *)
let every_prefix_needs_more s decode =
  let ok = ref true in
  for cut = 0 to String.length s - 1 do
    match decode cut with `Need_more -> () | _ -> ok := false
  done;
  !ok

let request_prefix_needs_more =
  QCheck.Test.make ~count:100 ~name:"truncated frame decodes Need_more"
    (QCheck.make arb_request) (fun req ->
      let s = Wire.request_string req in
      every_prefix_needs_more s (fun limit -> Wire.decode_request ~limit s 0))

(* Response frames have the same incremental-read contract; this is the
   path the extended (epoch-field) stats snapshot travels. *)
let response_prefix_needs_more =
  QCheck.Test.make ~count:100 ~name:"truncated response decodes Need_more"
    (QCheck.make arb_response) (fun resp ->
      let s = Wire.response_string resp in
      every_prefix_needs_more s (fun limit -> Wire.decode_response ~limit s 0))

(* [?limit] ends the received bytes inside a larger buffer: the frame
   before it decodes, a frame cut by it needs more, and a limit past the
   string's end is the string's end. *)
let test_wire_limit () =
  let a = Wire.request_string { Wire.rid = 1; ops = [ Wire.Get "a" ] } in
  let b = Wire.request_string { Wire.rid = 2; ops = [ Wire.Put ("b", 2) ] } in
  let s = a ^ b in
  let la = String.length a and n = String.length s in
  (match Wire.decode_request ~limit:la s 0 with
  | `Ok (r, pos) ->
      Alcotest.(check int) "first frame" 1 r.Wire.rid;
      Alcotest.(check int) "consumed" la pos
  | _ -> Alcotest.fail "frame before the limit must decode");
  (match Wire.decode_request ~limit:(n - 1) s la with
  | `Need_more -> ()
  | _ -> Alcotest.fail "frame cut by the limit must need more");
  match Wire.decode_request ~limit:(n + 100) s la with
  | `Ok (r, pos) ->
      Alcotest.(check int) "second frame" 2 r.Wire.rid;
      Alcotest.(check int) "consumed all" n pos
  | _ -> Alcotest.fail "limit past the end is the end"

(* --- Txn frames: same property bar as the Stats_reply extension --------- *)

let arb_txn_request =
  QCheck.Gen.(
    map2
      (fun rid batches ->
        { Wire.rid = rid land 0xFFFFFFFF;
          ops = List.map (fun ms -> Wire.Txn ms) batches })
      int
      (list_size (int_range 1 3)
         (list_size (int_range 0 8) arb_txn_member)))

let txn_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"txn request round-trip"
    (QCheck.make arb_txn_request) (fun req ->
      let s = Wire.request_string req in
      match Wire.decode_request s 0 with
      | `Ok (req', consumed) -> req' = req && consumed = String.length s
      | _ -> false)

let txn_request_prefix_needs_more =
  QCheck.Test.make ~count:100 ~name:"truncated txn frame decodes Need_more"
    (QCheck.make arb_txn_request) (fun req ->
      let s = Wire.request_string req in
      every_prefix_needs_more s (fun limit -> Wire.decode_request ~limit s 0))

let arb_txn_response =
  QCheck.Gen.(
    map2
      (fun rid rs -> { Wire.rrid = rid land 0xFFFFFFFF; status = Wire.Ok;
                       replies = rs })
      int
      (list_size (int_range 1 3)
         (frequency
            [
              ( 3,
                map
                  (fun rs -> Wire.Txn_ok rs)
                  (list_size (int_range 0 8)
                     (frequency
                        [
                          (2, return Wire.Absent);
                          (3, map (fun v -> Wire.Found (v land max_int)) int);
                          (2, map (fun b -> Wire.Done b) bool);
                        ])) );
              (1, return Wire.Txn_aborted);
            ])))

let txn_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"txn response round-trip"
    (QCheck.make arb_txn_response) (fun resp ->
      let s = Wire.response_string resp in
      match Wire.decode_response s 0 with
      | `Ok (resp', consumed) -> resp' = resp && consumed = String.length s
      | _ -> false)

(* Member restriction and value-range rejections, on both codec sides. *)
let test_wire_txn_reject () =
  Alcotest.check_raises "scan member rejected on encode"
    (Wire.Encode_error "txn member must be get/put/delete") (fun () ->
      ignore
        (Wire.request_string
           { Wire.rid = 1; ops = [ Wire.Txn [ Wire.Scan ("k", 5) ] ] }));
  Alcotest.check_raises "nested txn rejected on encode"
    (Wire.Encode_error "txn member must be get/put/delete") (fun () ->
      ignore
        (Wire.request_string
           { Wire.rid = 1; ops = [ Wire.Txn [ Wire.Txn [] ] ] }));
  Alcotest.check_raises "negative member value rejected"
    (Wire.Encode_error "value out of 63-bit unsigned range") (fun () ->
      ignore
        (Wire.request_string
           { Wire.rid = 1; ops = [ Wire.Txn [ Wire.Put ("k", -1) ] ] }));
  Alcotest.check_raises "scanned inside txn reply rejected"
    (Wire.Encode_error "txn reply member must be absent/found/done")
    (fun () ->
      ignore
        (Wire.response_string
           {
             Wire.rrid = 1;
             status = Wire.Ok;
             replies = [ Wire.Txn_ok [ Wire.Scanned [] ] ];
           }));
  (* Decoder side: a hand-crafted frame carrying a stats member (opcode 4)
     inside a txn must be [`Malformed], not silently accepted.  Payload:
     kind 0 | u32 rid | u16 nops=1 | u8 5 | u16 n=1 | u8 4. *)
  let payload = "\x00\x00\x00\x00\x01\x00\x01\x05\x00\x01\x04" in
  let frame =
    let b = Buffer.create 16 in
    Buffer.add_string b "\x00\x00\x00\x0b";
    Buffer.add_string b payload;
    Buffer.contents b
  in
  (match Wire.decode_request frame 0 with
  | `Malformed m ->
      Alcotest.(check string) "member restriction enforced on decode"
        "txn member must be get/put/delete" m
  | _ -> Alcotest.fail "stats member inside txn must be Malformed");
  (* And a response frame carrying a scanned member (tag 3) inside txn ok:
     kind 1 | u32 rid | u8 status=0 | u16 n=1 | u8 6 | u16 n=1 | u8 3 |
     u16 0 (empty scan). *)
  let payload = "\x01\x00\x00\x00\x01\x00\x00\x01\x06\x00\x01\x03\x00\x00" in
  let frame =
    let b = Buffer.create 16 in
    Buffer.add_string b "\x00\x00\x00\x0e";
    Buffer.add_string b payload;
    Buffer.contents b
  in
  match Wire.decode_response frame 0 with
  | `Malformed m ->
      Alcotest.(check string) "reply restriction enforced on decode"
        "txn reply member must be absent/found/done" m
  | _ -> Alcotest.fail "scanned member inside txn ok must be Malformed"

(* The epoch extension adds fields to [Stats_reply], not opcodes: a snapshot
   with every new field must survive the codec bit-exactly. *)
let test_wire_epoch_stats_reply () =
  let fields =
    [
      ("persist_mode", 2);
      ("epochs", 12345);
      ("epoch.max_ops", 64);
      ("epoch.max_lines", 256);
      ("epoch.max_delay_ns", 200_000);
      ("shard.0.pending_acks", 0);
      ("shard.0.last_epoch", 41);
      ("shard.0.epoch_ops.count", 17);
      ("shard.0.epoch_wait_ns.p99", 123_456);
    ]
  in
  let resp =
    {
      Wire.rrid = 9;
      status = Wire.Ok;
      replies = [ Wire.Stats_reply fields ];
    }
  in
  match Wire.decode_response (Wire.response_string resp) 0 with
  | `Ok (resp', _) ->
      Alcotest.(check bool) "epoch stats reply round-trips" true (resp' = resp)
  | _ -> Alcotest.fail "epoch stats reply did not decode"

let test_wire_empty_batch () =
  let req = { Wire.rid = 7; ops = [] } in
  match Wire.decode_request (Wire.request_string req) 0 with
  | `Ok (req', _) -> Alcotest.(check bool) "empty batch" true (req' = req)
  | _ -> Alcotest.fail "empty batch did not round-trip"

let test_wire_max_key () =
  let k = String.init 65535 (fun i -> Char.chr (i land 0xFF)) in
  let req = { Wire.rid = 1; ops = [ Wire.Put (k, max_int) ] } in
  (match Wire.decode_request (Wire.request_string req) 0 with
  | `Ok (req', _) -> Alcotest.(check bool) "max key" true (req' = req)
  | _ -> Alcotest.fail "max-size key did not round-trip");
  (* One byte over the u16 limit must be an encoder error, not a silent
     truncation. *)
  Alcotest.check_raises "oversized key rejected"
    (Wire.Encode_error "key exceeds 65535 bytes") (fun () ->
      ignore (Wire.request_string
                { Wire.rid = 1; ops = [ Wire.Get (String.make 65536 'x') ] }))

(* A negative value would round-trip to a different positive int if the
   encoder masked silently — it must be an encode error instead. *)
let test_wire_negative_value () =
  Alcotest.check_raises "negative put value rejected"
    (Wire.Encode_error "value out of 63-bit unsigned range") (fun () ->
      ignore
        (Wire.request_string { Wire.rid = 1; ops = [ Wire.Put ("k", -1) ] }));
  Alcotest.check_raises "negative found value rejected"
    (Wire.Encode_error "value out of 63-bit unsigned range") (fun () ->
      ignore
        (Wire.response_string
           { Wire.rrid = 1; status = Wire.Ok; replies = [ Wire.Found min_int ] }));
  Alcotest.check_raises "negative stats field rejected"
    (Wire.Encode_error "value out of 63-bit unsigned range") (fun () ->
      ignore
        (Wire.response_string
           {
             Wire.rrid = 1;
             status = Wire.Ok;
             replies = [ Wire.Stats_reply [ ("ops_acked", -1) ] ];
           }))

let test_wire_malformed () =
  let s = Wire.request_string { Wire.rid = 3; ops = [ Wire.Get "abc" ] } in
  (* Corrupt the opcode byte (offset 4 length + 1 kind + 4 rid + 2 nops). *)
  let b = Bytes.of_string s in
  Bytes.set b 11 '\x09';
  (match Wire.decode_request (Bytes.to_string b) 0 with
  | `Malformed _ -> ()
  | _ -> Alcotest.fail "bad opcode not rejected");
  (* A frame whose declared length exceeds its content is truncation; a
     frame with bytes left over is malformed. *)
  (match Wire.decode_request (s ^ "\x00") 0 with
  | `Ok (_, consumed) -> Alcotest.(check int) "consumed" (String.length s) consumed
  | _ -> Alcotest.fail "valid frame with trailing bytes must decode");
  let b = Bytes.of_string s in
  (* Inflate the declared length: decoder must wait for the missing bytes. *)
  Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) + 1));
  (match Wire.decode_request (Bytes.to_string b) 0 with
  | `Need_more -> ()
  | _ -> Alcotest.fail "inflated length must be Need_more");
  (* Deflate it: the ops can no longer fit, so the frame is malformed. *)
  let b = Bytes.of_string s in
  Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) - 1));
  match Wire.decode_request (Bytes.to_string b) 0 with
  | `Malformed _ -> ()
  | _ -> Alcotest.fail "deflated length must be Malformed"

(* --- commit deferral ------------------------------------------------------ *)

let test_commit_deferral () =
  with_env (fun () ->
      let w = Pmem.Words.make ~name:"kv.defer" 64 0 in
      ignore (Pmem.persist_everything ());
      let before = Pmem.Stats.snapshot () in
      Recipe.Persist.set_group true;
      (* Eight commits on the same cache line defer to ONE flush. *)
      for i = 0 to 7 do
        Recipe.Persist.commit w i (i + 1)
      done;
      Alcotest.(check int) "one line pending" 1 (Recipe.Persist.group_pending ());
      let mid = Pmem.Stats.snapshot () in
      Alcotest.(check int) "no flush before the advance" 0
        (mid.Pmem.Stats.s_clwb - before.Pmem.Stats.s_clwb);
      Alcotest.(check int) "no fence before the advance" 0
        (mid.Pmem.Stats.s_sfence - before.Pmem.Stats.s_sfence);
      let _, lines = Recipe.Persist.epoch_advance () in
      Alcotest.(check int) "one line flushed" 1 lines;
      let after = Pmem.Stats.snapshot () in
      Alcotest.(check int) "one clwb" 1
        (after.Pmem.Stats.s_clwb - mid.Pmem.Stats.s_clwb);
      Alcotest.(check int) "one sfence" 1
        (after.Pmem.Stats.s_sfence - mid.Pmem.Stats.s_sfence);
      Alcotest.(check int) "nothing dirty after the advance" 0
        (Pmem.dirty_count ());
      (* An explicit ordering flush supersedes the deferred one. *)
      Recipe.Persist.commit w 8 99;
      Alcotest.(check int) "line deferred" 1 (Recipe.Persist.group_pending ());
      Recipe.Persist.flush w 8;
      Alcotest.(check int) "explicit flush drops deferred line" 0
        (Recipe.Persist.group_pending ());
      Alcotest.(check int) "empty advance is free" 0
        (snd (Recipe.Persist.epoch_advance ()));
      Recipe.Persist.set_group false)

(* Deferral is domain-local: toggling it on one domain (another server
   starting or stopping) must not drop a worker domain's deferred commit
   lines — those lines back acknowledgements, so losing them silently
   breaks acked-implies-durable. *)
let test_deferral_domain_scoped () =
  with_env (fun () ->
      let w = Pmem.Words.make ~name:"kv.defer.dls" 16 0 in
      ignore (Pmem.persist_everything ());
      let deferred = Atomic.make false and release = Atomic.make false in
      let worker =
        Domain.spawn (fun () ->
            Recipe.Persist.set_group true;
            Recipe.Persist.commit w 0 42;
            Atomic.set deferred true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            let pending = Recipe.Persist.group_pending () in
            let _, flushed = Recipe.Persist.epoch_advance () in
            (pending, flushed))
      in
      while not (Atomic.get deferred) do
        Domain.cpu_relax ()
      done;
      (* With a process-global flag this cleared every domain's table and the
         worker's advance below would have seen nothing to flush. *)
      Recipe.Persist.set_group true;
      Recipe.Persist.set_group false;
      Atomic.set release true;
      let pending, flushed = Domain.join worker in
      Alcotest.(check int) "worker's deferred line survives" 1 pending;
      Alcotest.(check int) "worker flushes its own line" 1 flushed;
      Alcotest.(check int) "nothing left dirty" 0 (Pmem.dirty_count ()))

(* --- the epoch substrate --------------------------------------------------- *)

(* Epoch numbering and cost: commits defer, one advance = one fence for the
   whole epoch, the persisted watermark trails the open epoch by exactly
   one (numbering is per domain and monotone, so it is checked relative to
   the open epoch), and an empty advance is free (no flush, no fence) but
   still renumbers — the degenerate idle case the controller relies on. *)
let test_epoch_substrate () =
  with_env (fun () ->
      let w = Pmem.Words.make ~name:"kv.epoch" 64 0 in
      ignore (Pmem.persist_everything ());
      Recipe.Persist.set_group true;
      Fun.protect
        ~finally:(fun () -> Recipe.Persist.set_group false)
        (fun () ->
          let e0 = Recipe.Persist.epoch_current () in
          Alcotest.(check int) "watermark trails the open epoch" (e0 - 1)
            (Recipe.Persist.epoch_persisted ());
          for i = 0 to 7 do
            Recipe.Persist.commit w i (i + 1)
          done;
          let before = Pmem.Stats.snapshot () in
          let e, lines = Recipe.Persist.epoch_advance () in
          let after = Pmem.Stats.snapshot () in
          Alcotest.(check int) "open epoch persisted" e0 e;
          Alcotest.(check int) "one line flushed" 1 lines;
          Alcotest.(check int) "one clwb for the epoch" 1
            (after.Pmem.Stats.s_clwb - before.Pmem.Stats.s_clwb);
          Alcotest.(check int) "one sfence for the epoch" 1
            (after.Pmem.Stats.s_sfence - before.Pmem.Stats.s_sfence);
          Alcotest.(check int) "next epoch open" (e0 + 1)
            (Recipe.Persist.epoch_current ());
          Alcotest.(check int) "persisted watermark" e0
            (Recipe.Persist.epoch_persisted ());
          Alcotest.(check int) "deferral table drained" 0
            (Recipe.Persist.group_pending ());
          let b2 = Pmem.Stats.snapshot () in
          let e2, l2 = Recipe.Persist.epoch_advance () in
          let a2 = Pmem.Stats.snapshot () in
          Alcotest.(check int) "empty epoch still renumbers" (e0 + 1) e2;
          Alcotest.(check int) "empty epoch flushes nothing" 0 l2;
          Alcotest.(check int) "empty epoch costs no fence" 0
            (a2.Pmem.Stats.s_sfence - b2.Pmem.Stats.s_sfence)))

(* --- the epoch controller (pure, fake clock) ------------------------------- *)

module EC = Kvserve.Epoch_ctl

let arb_ctl_trace =
  QCheck.Gen.(
    let cfg =
      map3
        (fun ops lines delay ->
          { EC.max_ops = ops; max_lines = lines; max_delay_ns = delay })
        (int_range 1 48) (int_range 1 48) (int_range 1 2_000)
    in
    let step =
      map3
        (fun dt n (q, l) -> (dt, n, q, l))
        (int_range 0 500) (int_range 1 8)
        (pair (int_range 0 4) (int_range 0 64))
    in
    pair cfg (list_size (int_range 1 60) step))

(* Drive a random trace through the controller under a fake clock and check
   the closure contract at every decision point.  The three advertised
   properties are the contrapositive of the "keep the epoch open" case:
   whenever [decide] says *stay open*, the epoch must be under the size cap,
   under the line cap, inside the deadline, and the queue non-empty — so a
   full epoch always closes, a deadline never overshoots by a full decision
   round, and an empty queue drains immediately. *)
let epoch_ctl_props =
  QCheck.Test.make ~count:500 ~name:"epoch controller closure contract"
    (QCheck.make arb_ctl_trace) (fun (cfg, trace) ->
      let st = EC.create cfg in
      let now = ref 0 in
      let ok = ref true in
      let opened_at = ref 0 in
      (* An empty epoch never fires: an advance would fence for nobody. *)
      if EC.decide st ~now:!now ~pending_lines:64 ~queue_depth:0 then
        ok := false;
      List.iter
        (fun (dt, n, queue_depth, pending_lines) ->
          now := !now + dt;
          if EC.open_ops st = 0 then opened_at := !now;
          EC.note st ~now:!now n;
          let fired = EC.decide st ~now:!now ~pending_lines ~queue_depth in
          if fired then EC.advanced st
          else begin
            (* Stay-open is only legal strictly inside every bound. *)
            if EC.open_ops st >= cfg.EC.max_ops then ok := false;
            if pending_lines >= cfg.EC.max_lines then ok := false;
            if !now - !opened_at >= cfg.EC.max_delay_ns then ok := false;
            if queue_depth = 0 then ok := false
          end;
          if fired && EC.open_ops st <> 0 then ok := false)
        trace;
      !ok)

(* The configuration gate: a controller with a zero or negative bound would
   either never close (unbounded ack debt) or spin — reject at start. *)
let test_epoch_ctl_validate () =
  let bad cfg =
    match EC.create cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid epoch cfg accepted"
  in
  bad { EC.default_cfg with EC.max_ops = 0 };
  bad { EC.default_cfg with EC.max_lines = -1 };
  bad { EC.default_cfg with EC.max_delay_ns = 0 };
  match Server.start
          { Server.shards = 1; batch = 4; queue_cap = 16;
            mode = Server.Epoch { EC.default_cfg with EC.max_ops = 0 } }
          [||]
  with
  | exception Invalid_argument _ -> ()
  | srv ->
      Server.stop srv;
      Alcotest.fail "server accepted an invalid epoch config"

(* --- in-process server through the framed transport ----------------------- *)

let ik = Util.Keys.encode_int

(* Submit one request through a framed connection so every smoke operation
   also exercises encode -> decode -> serve -> encode -> decode. *)
let via_conn conn req =
  let out = Server.Conn.feed conn (Wire.request_string req) in
  match Wire.decode_response out 0 with
  | `Ok (resp, consumed) when consumed = String.length out -> resp
  | _ -> Alcotest.fail "connection did not return exactly one response"

let test_server_smoke () =
  with_env (fun () ->
      let cfg =
        { Server.shards = 2; batch = 8; queue_cap = 64;
          mode = Server.Epoch { EC.default_cfg with max_ops = 1 } }
      in
      let srv = Server.start cfg (Array.init 2 (fun _ -> art_part ())) in
      let conn = Server.Conn.create srv in
      (* Batched puts, one request. *)
      let put_ops = List.init 100 (fun i -> Wire.Put (ik (i + 1), (i + 1) * 3)) in
      let resp = via_conn conn { Wire.rid = 1; ops = put_ops } in
      Alcotest.(check bool) "puts acked" true (resp.Wire.status = Wire.Ok);
      List.iter
        (function
          | Wire.Done true -> ()
          | _ -> Alcotest.fail "put not applied")
        resp.Wire.replies;
      (* After the ack, everything is flushed: the group fence ran. *)
      Alcotest.(check int) "no dirty lines after acked batch" 0
        (Pmem.dirty_count ());
      (* Point lookups route to the right shard. *)
      let resp =
        via_conn conn
          { Wire.rid = 2; ops = List.init 100 (fun i -> Wire.Get (ik (i + 1))) }
      in
      List.iteri
        (fun i r ->
          match r with
          | Wire.Found v when v = (i + 1) * 3 -> ()
          | _ -> Alcotest.fail (Printf.sprintf "get %d wrong" (i + 1)))
        resp.Wire.replies;
      (* Upsert: same key, new value. *)
      let resp =
        via_conn conn { Wire.rid = 3; ops = [ Wire.Put (ik 1, 777) ] }
      in
      Alcotest.(check bool) "upsert acked" true
        (resp.Wire.replies = [ Wire.Done true ]);
      let resp = via_conn conn { Wire.rid = 4; ops = [ Wire.Get (ik 1) ] } in
      Alcotest.(check bool) "upsert visible" true
        (resp.Wire.replies = [ Wire.Found 777 ]);
      (* Scan fans out to both shards and merges in global key order. *)
      let resp =
        via_conn conn { Wire.rid = 5; ops = [ Wire.Scan (ik 0, 50) ] }
      in
      (match resp.Wire.replies with
      | [ Wire.Scanned items ] ->
          Alcotest.(check int) "scan length" 50 (List.length items);
          List.iteri
            (fun i (kk, v) ->
              if kk <> ik (i + 1) then Alcotest.fail "scan key order";
              let expect = if i = 0 then 777 else (i + 1) * 3 in
              if v <> expect then Alcotest.fail "scan value")
            items
      | _ -> Alcotest.fail "scan reply shape");
      (* Delete, then absent. *)
      let resp =
        via_conn conn
          { Wire.rid = 6; ops = [ Wire.Delete (ik 2); Wire.Get (ik 2) ] }
      in
      Alcotest.(check bool) "delete then absent" true
        (match resp.Wire.replies with
        | [ Wire.Done true; _ ] -> true
        | _ -> false);
      let resp = via_conn conn { Wire.rid = 7; ops = [ Wire.Get (ik 2) ] } in
      Alcotest.(check bool) "deleted key absent" true
        (resp.Wire.replies = [ Wire.Absent ]);
      (* Malformed bytes poison the connection with one Bad_request. *)
      let out = Server.Conn.feed conn "\x00\x00\x00\x01\xFF" in
      (match Wire.decode_response out 0 with
      | `Ok (r, _) ->
          Alcotest.(check bool) "bad request" true
            (r.Wire.status = Wire.Bad_request)
      | _ -> Alcotest.fail "no Bad_request response");
      Alcotest.(check bool) "connection poisoned" true (Server.Conn.broken conn);
      Server.stop srv)

(* Byte-at-a-time delivery: the connection must buffer silently until the
   frame completes (the O(1) length-prefix peek path), then answer, and
   interleaved frames in one feed must each get a response. *)
let test_conn_trickle () =
  with_env (fun () ->
      let cfg =
        { Server.shards = 1; batch = 4; queue_cap = 16;
          mode = Server.Epoch { EC.default_cfg with max_ops = 1 } }
      in
      let srv = Server.start cfg [| art_part () |] in
      let conn = Server.Conn.create srv in
      let req = Wire.request_string { Wire.rid = 9; ops = [ Wire.Put (ik 1, 5) ] } in
      String.iteri
        (fun i ch ->
          let out = Server.Conn.feed conn (String.make 1 ch) in
          if i < String.length req - 1 then
            Alcotest.(check string)
              (Printf.sprintf "silent at byte %d" i)
              "" out
          else
            match Wire.decode_response out 0 with
            | `Ok (resp, _) ->
                Alcotest.(check bool) "trickled put acked" true
                  (resp.Wire.status = Wire.Ok)
            | _ -> Alcotest.fail "no response after final byte")
        req;
      (* Two frames in one feed: two responses in order. *)
      let two =
        Wire.request_string { Wire.rid = 10; ops = [ Wire.Get (ik 1) ] }
        ^ Wire.request_string { Wire.rid = 11; ops = [ Wire.Get (ik 2) ] }
      in
      let out = Server.Conn.feed conn two in
      (match Wire.decode_response out 0 with
      | `Ok (r1, pos) -> (
          Alcotest.(check bool) "first response" true
            (r1.Wire.rrid = 10 && r1.Wire.replies = [ Wire.Found 5 ]);
          match Wire.decode_response out pos with
          | `Ok (r2, pos') ->
              Alcotest.(check bool) "second response" true
                (r2.Wire.rrid = 11 && r2.Wire.replies = [ Wire.Absent ]);
              Alcotest.(check int) "nothing extra" (String.length out) pos'
          | _ -> Alcotest.fail "second response missing")
      | _ -> Alcotest.fail "first response missing");
      Server.stop srv)

(* Unordered partitions: scans answer [Unsupported], point ops work. *)
let test_server_hash_partition () =
  with_env (fun () ->
      let cfg =
        { Server.shards = 2; batch = 4; queue_cap = 64;
          mode = Server.Epoch { EC.default_cfg with max_ops = 1 } }
      in
      let srv =
        Server.start cfg (Array.init 2 (fun _ -> clht_part ()))
      in
      let resp =
        Server.submit srv
          {
            Wire.rid = 1;
            ops = [ Wire.Put (ik 5, 15); Wire.Scan (ik 0, 10); Wire.Get (ik 5) ];
          }
      in
      Alcotest.(check bool) "hash partition serves" true
        (resp.Wire.replies = [ Wire.Done true; Wire.Unsupported; Wire.Found 15 ]);
      Server.stop srv)

(* A key a hash table cannot hold (0, or an 8-byte key that decodes to a
   negative integer) is answered [Bad_request] on the submitting domain,
   on the queued and the direct path alike and inside a transaction; the
   workers never see it, so the service keeps serving. *)
(* [Util.Keys.decode_int] of this key drops bit 63 and gives 5. *)
let alias5 = "\x80\x00\x00\x00\x00\x00\x00\x05"

let test_bad_keys_rejected () =
  List.iter
    (fun e ->
      match e.Harness.Index.family with
      | Harness.Index.Ordered _ -> ()
      | Harness.Index.Hash _ ->
          with_env (fun () ->
              let cfg =
                { Server.default_config with Server.shards = 2; batch = 4 }
              in
              let srv =
                Server.start cfg
                  (Array.init 2 (fun _ -> Harness.Index.partition e ()))
              in
              let status ops =
                (Server.submit srv { Wire.rid = 3; ops }).Wire.status
              in
              List.iter
                (fun bad ->
                  List.iter
                    (fun (what, ops) ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s: %s gets Bad_request"
                           e.Harness.Index.name what)
                        true
                        (status ops = Wire.Bad_request))
                    [
                      ("get", [ Wire.Get bad ]);
                      ("get beside a good key", [ Wire.Get (ik 7); Wire.Get bad ]);
                      ("put", [ Wire.Put (bad, 1) ]);
                      ("delete", [ Wire.Delete bad ]);
                      ( "txn member",
                        [ Wire.Txn [ Wire.Put (ik 8, 1); Wire.Put (bad, 2) ] ] );
                    ])
                [
                  ik 0;
                  "\xff\xff\xff\xff\xff\xff\xff\xfd";
                  "\x40\x00\x00\x00\x00\x00\x00\x00";
                  alias5;
                ];
              let resp =
                Server.submit srv
                  { Wire.rid = 4; ops = [ Wire.Put (ik 5, 15); Wire.Get (ik 5) ] }
              in
              Alcotest.(check bool)
                (e.Harness.Index.name ^ ": still serving")
                true
                (resp.Wire.status = Wire.Ok
                && resp.Wire.replies = [ Wire.Done true; Wire.Found 15 ]);
              (* Bit 63 set: once dropped, the key would be [ik 5]. *)
              List.iter
                (fun (what, op) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %s of the key aliasing 5 gets Bad_request"
                       e.Harness.Index.name what)
                    true
                    (status [ op ] = Wire.Bad_request))
                [ ("put", Wire.Put (alias5, 99)); ("get", Wire.Get alias5) ];
              Alcotest.(check bool)
                (e.Harness.Index.name ^ ": direct Get after the rejections")
                true
                ((Server.submit srv { Wire.rid = 5; ops = [ Wire.Get (ik 5) ] })
                   .Wire.replies = [ Wire.Found 15 ]);
              Server.stop srv))
    Harness.Index.all

(* --- the stats endpoint ---------------------------------------------------- *)

let stats_fields conn rid =
  match via_conn conn { Wire.rid; ops = [ Wire.Stats ] } with
  | { Wire.status = Wire.Ok; replies = [ Wire.Stats_reply fields ]; _ } ->
      fields
  | _ -> Alcotest.fail "stats request did not return a snapshot"

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> Alcotest.failf "stats field %S missing" k

(* Live snapshot through the framed transport, with spans enabled: config
   echoed, acked ops counted, queues drained after the blocking submits,
   and the per-shard phase histograms populated and internally ordered. *)
let test_stats_endpoint () =
  with_env (fun () ->
      Obs.reset_all ();
      Obs.Span.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Span.set_enabled false)
        (fun () ->
          let cfg =
            { Server.shards = 2; batch = 8; queue_cap = 64;
              mode = Server.Epoch { EC.default_cfg with max_ops = 1 } }
          in
          let srv =
            Server.start cfg (Array.init 2 (fun _ -> art_part ()))
          in
          let conn = Server.Conn.create srv in
          let nput = 60 in
          let resp =
            via_conn conn
              {
                Wire.rid = 1;
                ops = List.init nput (fun i -> Wire.Put (ik (i + 1), i));
              }
          in
          Alcotest.(check bool) "puts acked" true (resp.Wire.status = Wire.Ok);
          (* Stats mixed into a data request answers in slot order without
             consuming serving capacity. *)
          let resp =
            via_conn conn
              { Wire.rid = 2; ops = [ Wire.Get (ik 1); Wire.Stats ] }
          in
          let fields =
            match resp.Wire.replies with
            | [ Wire.Found _; Wire.Stats_reply fields ] -> fields
            | _ -> Alcotest.fail "mixed request reply shape"
          in
          let f = field fields in
          Alcotest.(check int) "shards echoed" cfg.Server.shards (f "shards");
          Alcotest.(check int) "batch echoed" cfg.Server.batch (f "batch");
          Alcotest.(check int) "epoch mode tagged" 2 (f "persist_mode");
          Alcotest.(check int) "max_ops echoed" 1 (f "epoch.max_ops");
          Alcotest.(check int) "healthy" 0 (f "crashed");
          Alcotest.(check int) "spans flagged on" 1 (f "spans_enabled");
          Alcotest.(check bool) "acked ops counted" true (f "ops_acked" >= nput);
          Alcotest.(check bool) "batches counted" true (f "batches" >= 1);
          for sid = 0 to cfg.Server.shards - 1 do
            let sf k = f (Printf.sprintf "shard.%d.%s" sid k) in
            Alcotest.(check int)
              (Printf.sprintf "shard %d drained" sid)
              0 (sf "queue_depth");
            (* Every routed op passes all four phases, so the per-shard phase
               histograms agree on the sample count. *)
            let acks = sf "ack_ns.count" in
            List.iter
              (fun phase ->
                Alcotest.(check int)
                  (Printf.sprintf "shard %d %s samples" sid phase)
                  acks
                  (sf (phase ^ "_ns.count"));
                if acks > 0 then
                  Alcotest.(check bool)
                    (Printf.sprintf "shard %d %s p50<=p99" sid phase)
                    true
                    (sf (phase ^ "_ns.p50") <= sf (phase ^ "_ns.p99")))
              [ "queue"; "apply"; "fence"; "ack" ];
            (* Per span the pipeline phases sum to at most the ack time, so
               their means do too: the breakdown attributes ack latency.
               Slack of 5% + 1 us for the separate clock reads. *)
            let parts =
              List.fold_left
                (fun a phase -> a + sf (phase ^ "_ns.mean_x1000"))
                0
                [ "queue"; "apply"; "epoch_wait"; "fence" ]
            and ack = sf "ack_ns.mean_x1000" in
            if acks > 0 && parts > (ack * 105 / 100) + 1_000_000 then
              Alcotest.failf "shard %d: phase means sum %d > ack mean %d (x1000 ns)"
                sid parts ack
          done;
          Alcotest.(check bool) "every put spanned" true
            (f "shard.0.ack_ns.count" + f "shard.1.ack_ns.count" >= nput);
          (* A stats-only poll must not skew the serving ack histogram: two
             consecutive polls see the same sample count. *)
          let acks_before = field (stats_fields conn 3) "ack_ns.count" in
          let acks_after = field (stats_fields conn 4) "ack_ns.count" in
          Alcotest.(check int) "stats poll not measured as serving" acks_before
            acks_after;
          Server.stop srv))

(* The serving counters are process-global named metrics: a server restarted
   on recovered partitions re-attaches to them, so the snapshot's ops_acked
   stays a floor of everything any generation acknowledged — the campaign's
   no-undercount check, exercised here deterministically across a stop,
   power failure, recovery and restart. *)
let test_stats_across_recovery () =
  with_env (fun () ->
      Obs.reset_all ();
      let cfg =
        { Server.shards = 2; batch = 8; queue_cap = 64;
          mode = Server.Epoch { EC.default_cfg with max_ops = 1 } }
      in
      let parts = Array.init 2 (fun _ -> art_part ()) in
      let srv = Server.start cfg parts in
      let conn = Server.Conn.create srv in
      let n1 = 40 in
      let resp =
        via_conn conn
          { Wire.rid = 1; ops = List.init n1 (fun i -> Wire.Put (ik (i + 1), i)) }
      in
      Alcotest.(check bool) "gen-1 puts acked" true (resp.Wire.status = Wire.Ok);
      let a1 = field (stats_fields conn 2) "ops_acked" in
      Alcotest.(check bool) "gen-1 count" true (a1 >= n1);
      Server.stop srv;
      Pmem.simulate_power_failure ();
      Array.iter (fun (p : Server.partition) -> p.Server.p_recover ()) parts;
      let srv2 = Server.start cfg parts in
      let conn2 = Server.Conn.create srv2 in
      let n2 = 25 in
      let resp =
        via_conn conn2
          {
            Wire.rid = 3;
            ops = List.init n2 (fun i -> Wire.Put (ik (1000 + i), i));
          }
      in
      Alcotest.(check bool) "gen-2 puts acked" true (resp.Wire.status = Wire.Ok);
      let fields = stats_fields conn2 4 in
      Alcotest.(check bool) "counter re-attached, no undercount" true
        (field fields "ops_acked" >= a1 + n2);
      Alcotest.(check int) "recovered server healthy" 0 (field fields "crashed");
      (* And the recovered data still serves: an acked gen-1 binding. *)
      let resp = via_conn conn2 { Wire.rid = 5; ops = [ Wire.Get (ik 1) ] } in
      Alcotest.(check bool) "acked binding survived recovery" true
        (resp.Wire.replies = [ Wire.Found 0 ]);
      Server.stop srv2)

(* Off-path discipline, mirroring the PSan guard: with spans disabled
   (the default), served traffic must leave zero span state behind — no
   finished spans, nothing in the rings, empty phase histograms.  This is
   what keeps the always-on serving path at one ref read per request. *)
let test_spans_off_zero_overhead () =
  with_env (fun () ->
      Obs.reset_all ();
      Alcotest.(check bool) "spans off by default" false (Obs.Span.enabled ());
      let cfg =
        { Server.shards = 2; batch = 8; queue_cap = 64;
          mode = Server.Epoch { EC.default_cfg with max_ops = 1 } }
      in
      let srv = Server.start cfg (Array.init 2 (fun _ -> art_part ())) in
      let conn = Server.Conn.create srv in
      let resp =
        via_conn conn
          { Wire.rid = 1; ops = List.init 50 (fun i -> Wire.Put (ik i, i)) }
      in
      Alcotest.(check bool) "traffic served" true (resp.Wire.status = Wire.Ok);
      let fields = stats_fields conn 2 in
      Server.stop srv;
      Alcotest.(check int) "no span ever finished" 0 (Obs.Span.count ());
      Alcotest.(check int) "span rings untouched" 0
        (List.length (Obs.Span.dump ()));
      Alcotest.(check int) "snapshot reports spans off" 0
        (field fields "spans_enabled");
      List.iter
        (fun phase ->
          Alcotest.(check int)
            (phase ^ " histogram empty")
            0
            (field fields (Printf.sprintf "shard.0.%s_ns.count" phase)))
        [ "queue"; "apply"; "fence" ])

(* --- backpressure: all-or-nothing, exactly-once --------------------------- *)

let test_backpressure () =
  with_env (fun () ->
      (* A deliberately slow pure-OCaml partition that counts every apply:
         no op may be lost or double-applied, acked or not. *)
      let applied : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let amu = Mutex.create () in
      let slow_part =
        {
          Server.p_name = "slow";
          p_insert =
            (fun k _ ->
              Unix.sleepf 0.002;
              Mutex.lock amu;
              Hashtbl.replace applied k
                (1 + Option.value ~default:0 (Hashtbl.find_opt applied k));
              Mutex.unlock amu;
              true);
          p_lookup = (fun _ -> None);
          p_lockfree_lookup = false;
          p_key_ok = (fun _ -> true);
          p_delete = (fun _ -> false);
          p_scan = None;
          p_recover = ignore;
          p_sweep = None;
        }
      in
      let cfg =
        { Server.shards = 1; batch = 2; queue_cap = 4; mode = Server.Per_op }
      in
      let srv = Server.start cfg [| slow_part |] in
      let nclients = 4 and per_client = 12 in
      let client cid () =
        let acked = ref [] and overloaded = ref 0 in
        for r = 0 to per_client - 1 do
          let keys = List.init 3 (fun j -> ik ((cid * 1000) + (r * 10) + j)) in
          let req =
            { Wire.rid = r; ops = List.map (fun kk -> Wire.Put (kk, 1)) keys }
          in
          let resp = Server.submit srv req in
          match resp.Wire.status with
          | Wire.Ok -> acked := keys @ !acked
          | Wire.Overloaded -> incr overloaded
          | _ -> ()
        done;
        (!acked, !overloaded)
      in
      let outs =
        List.init nclients (fun cid -> Domain.spawn (client cid))
        |> List.map Domain.join
      in
      Server.stop srv;
      let acked = List.concat_map fst outs in
      let overloaded = List.fold_left (fun a (_, o) -> a + o) 0 outs in
      Alcotest.(check bool)
        (Printf.sprintf "backpressure observed (%d rejections)" overloaded)
        true (overloaded > 0);
      (* Exactly-once: every acked key applied exactly once... *)
      List.iter
        (fun kk ->
          match Hashtbl.find_opt applied kk with
          | Some 1 -> ()
          | Some n ->
              Alcotest.fail (Printf.sprintf "acked key applied %d times" n)
          | None -> Alcotest.fail "acked key never applied")
        acked;
      (* ...and nothing was applied more than once, acked or not (a rejected
         request must have enqueued nothing, but a drained in-flight op may
         have been applied without an ack — never twice). *)
      Hashtbl.iter
        (fun _ n ->
          if n <> 1 then
            Alcotest.fail (Printf.sprintf "key applied %d times" n))
        applied)

(* --- epoch-mode serving ---------------------------------------------------- *)

(* The buffered-durability serving path end to end: epoch mode acks only at
   epoch boundaries, leaves nothing parked once every submit has returned,
   nothing dirty once acked, and the snapshot tells the whole epoch story
   (mode tag, cfg echo, advances, per-shard watermarks). *)
let test_server_epoch_mode () =
  with_env (fun () ->
      Obs.reset_all ();
      let ecfg = { EC.max_ops = 8; max_lines = 64; max_delay_ns = 50_000 } in
      let cfg =
        { Server.shards = 2; batch = 8; queue_cap = 64;
          mode = Server.Epoch ecfg }
      in
      let srv =
        Server.start cfg (Array.init 2 (fun _ -> art_part ()))
      in
      let conn = Server.Conn.create srv in
      let nput = 120 in
      let resp =
        via_conn conn
          {
            Wire.rid = 1;
            ops = List.init nput (fun i -> Wire.Put (ik (i + 1), i * 7));
          }
      in
      Alcotest.(check bool) "puts acked" true (resp.Wire.status = Wire.Ok);
      (* Acked implies the epoch fence ran: no line backing an ack is dirty. *)
      Alcotest.(check int) "nothing dirty after acked epoch" 0
        (Pmem.dirty_count ());
      let resp =
        via_conn conn
          { Wire.rid = 2; ops = List.init nput (fun i -> Wire.Get (ik (i + 1))) }
      in
      List.iteri
        (fun i r ->
          match r with
          | Wire.Found v when v = i * 7 -> ()
          | _ -> Alcotest.fail (Printf.sprintf "get %d wrong" (i + 1)))
        resp.Wire.replies;
      let f = field (stats_fields conn 3) in
      Alcotest.(check int) "epoch mode tagged" 2 (f "persist_mode");
      Alcotest.(check int) "max_ops echoed" ecfg.EC.max_ops (f "epoch.max_ops");
      Alcotest.(check int) "max_lines echoed" ecfg.EC.max_lines
        (f "epoch.max_lines");
      Alcotest.(check int) "max_delay echoed" ecfg.EC.max_delay_ns
        (f "epoch.max_delay_ns");
      Alcotest.(check bool) "epochs advanced" true (f "epochs" >= 1);
      for sid = 0 to cfg.Server.shards - 1 do
        let sf k = f (Printf.sprintf "shard.%d.%s" sid k) in
        Alcotest.(check int)
          (Printf.sprintf "shard %d nothing parked" sid)
          0 (sf "pending_acks");
        Alcotest.(check bool)
          (Printf.sprintf "shard %d epoch watermark moved" sid)
          true
          (sf "last_epoch" >= 1)
      done;
      Server.stop srv)

(* Acked epoch-mode bindings survive stop -> power failure -> recovery:
   the buffered-durability contract at the coarsest grain. *)
let test_epoch_acked_survive_power_failure () =
  with_env (fun () ->
      let cfg =
        {
          Server.shards = 2;
          batch = 8;
          queue_cap = 64;
          mode = Server.Epoch { EC.max_ops = 8; max_lines = 64;
                                max_delay_ns = 50_000 };
        }
      in
      let parts = Array.init 2 (fun _ -> art_part ()) in
      let srv = Server.start cfg parts in
      let conn = Server.Conn.create srv in
      let nput = 80 in
      let resp =
        via_conn conn
          {
            Wire.rid = 1;
            ops = List.init nput (fun i -> Wire.Put (ik (i + 1), i + 100));
          }
      in
      Alcotest.(check bool) "puts acked" true (resp.Wire.status = Wire.Ok);
      Server.stop srv;
      Pmem.simulate_power_failure ();
      Array.iter (fun (p : Server.partition) -> p.Server.p_recover ()) parts;
      let srv2 = Server.start cfg parts in
      let conn2 = Server.Conn.create srv2 in
      let resp =
        via_conn conn2
          { Wire.rid = 2; ops = List.init nput (fun i -> Wire.Get (ik (i + 1))) }
      in
      List.iteri
        (fun i r ->
          match r with
          | Wire.Found v when v = i + 100 -> ()
          | _ ->
              Alcotest.fail
                (Printf.sprintf "acked key %d lost across power failure" (i + 1)))
        resp.Wire.replies;
      Server.stop srv2)

(* --- the batching win ----------------------------------------------------- *)

(* Flush and fence counts of one write-heavy overwrite stream over a small
   key space, identical traffic in every mode. *)
let flushes_for ~shards ~mode () =
  fresh_env ();
  let cfg = { Server.shards; batch = 32; queue_cap = 256; mode } in
  let srv = Server.start cfg (Array.init shards (fun _ -> art_part ())) in
  let lg =
    {
      Loadgen.default_cfg with
      workers = 2;
      requests = 50;
      ops_per_request = 16;
      write_pct = 100;
      mode = Loadgen.Overwrite 64;
      seed = 7;
    }
  in
  let before = Pmem.Stats.snapshot () in
  let out = Loadgen.run srv lg in
  let after = Pmem.Stats.snapshot () in
  Server.stop srv;
  Alcotest.(check int) "all ops acked" (2 * 50 * 16) out.Loadgen.ops_acked;
  ( after.Pmem.Stats.s_clwb - before.Pmem.Stats.s_clwb,
    after.Pmem.Stats.s_sfence - before.Pmem.Stats.s_sfence )

(* Epoch persistence — closing after every batch ([max_ops = 1]) or under
   the adaptive default — must spend no more flushes than per-op persist
   and under a quarter of its fences: the epoch fence covers at least one
   whole batch.  Over 2 and 4 shards, the E21 grid. *)
let test_epoch_persist_saves_fences () =
  with_env (fun () ->
      List.iter
        (fun shards ->
          let clwb_p, sfence_p = flushes_for ~shards ~mode:Server.Per_op () in
          List.iter
            (fun (name, ecfg) ->
              let clwb_e, sfence_e =
                flushes_for ~shards ~mode:(Server.Epoch ecfg) ()
              in
              if not (clwb_e <= clwb_p) then
                Alcotest.failf "%d shards, %s flushed more than per-op: %d vs %d"
                  shards name clwb_e clwb_p;
              if not (sfence_e < sfence_p / 4) then
                Alcotest.failf
                  "%d shards, %s fences not amortized: %d vs %d (per-op)" shards
                  name sfence_e sfence_p)
            [
              ("max_ops=1", { EC.default_cfg with max_ops = 1 });
              ("default epoch", EC.default_cfg);
            ])
        [ 2; 4 ])

(* --- crash mid-serving ----------------------------------------------------- *)

let servecrash_cfg =
  { Server.shards = 2; batch = 8; queue_cap = 64;
    mode = Server.Epoch { EC.default_cfg with max_ops = 1 } }

(* Requests one op longer than [batch] never run as direct writes, so the
   campaigns of this group keep crashing shard workers mid-batch, with acks
   parked in open epochs; the direct-write group below drives requests of
   at most [batch] ops. *)
let queued_ops = servecrash_cfg.Server.batch + 1

let run_campaign ?(mode = servecrash_cfg.Server.mode) make =
  Servecrash.campaign ~make ~cfg:{ servecrash_cfg with mode }
    ~ops_per_request:queued_ops ~states:3 ~load:60 ~ops:160 ~workers:2
    ~seed:11 ()

let check_campaign name r =
  let b = r.Crashtest.base in
  Alcotest.(check int) (name ^ ": lost acked") 0 b.Crashtest.lost_keys;
  Alcotest.(check int) (name ^ ": wrong values") 0 b.Crashtest.wrong_values;
  Alcotest.(check int) (name ^ ": stalled") 0 b.Crashtest.stalled;
  Alcotest.(check bool) (name ^ ": recovered every state") true
    (r.Crashtest.recoveries >= servecrash_cfg.Server.shards)

(* A worker that crashes mid-batch must fail-drain ops that were enqueued to
   its shard between the batch pop and the kill — before the fix, [late]'s
   submit below blocked forever (no other worker drains a foreign ring). *)
let test_crash_drains_queue () =
  with_env (fun () ->
      let boom = "boom" in
      let part =
        {
          Server.p_name = "crashy";
          p_insert =
            (fun k _ ->
              if k = boom then begin
                Unix.sleepf 0.05;
                raise Pmem.Crash.Simulated_crash
              end
              else true);
          p_lookup = (fun _ -> None);
          p_lockfree_lookup = false;
          p_key_ok = (fun _ -> true);
          p_delete = (fun _ -> false);
          p_scan = None;
          p_recover = ignore;
          p_sweep = None;
        }
      in
      (* Two-op requests exceed [batch], so both take the queue. *)
      let cfg =
        { Server.shards = 1; batch = 1; queue_cap = 8; mode = Server.Per_op }
      in
      let srv = Server.start cfg [| part |] in
      let crasher =
        Domain.spawn (fun () ->
            Server.submit srv
              { Wire.rid = 1; ops = [ Wire.Put (boom, 1); Wire.Put ("b2", 1) ] })
      in
      Unix.sleepf 0.01;
      (* Lands in the ring while the worker is mid-crash (or is rejected with
         [Shutdown] if the kill already landed) — either way it must resolve. *)
      let late =
        Server.submit srv
          { Wire.rid = 2; ops = [ Wire.Put ("late", 1); Wire.Put ("l2", 1) ] }
      in
      let boom_resp = Domain.join crasher in
      Alcotest.(check bool) "crashing op not acked" true
        (boom_resp.Wire.status = Wire.Shutdown);
      Alcotest.(check bool) "queued op failed, not hung" true
        (late.Wire.status = Wire.Shutdown);
      Alcotest.(check bool) "server declared crashed" true (Server.crashed srv);
      Server.stop srv)

let test_crash_mid_serving_ordered () =
  with_env (fun () ->
      let r = run_campaign (fun _ -> art_part ()) in
      check_campaign "art" r)

let test_crash_mid_serving_hash () =
  with_env (fun () ->
      let r = run_campaign (fun _ -> clht_part ()) in
      check_campaign "clht" r)

(* Per-op mode acks through the same epoch release as every other mode, so
   the campaign's post-restart stats check (nothing parked, >= 1 epoch)
   must hold for it too. *)
let test_crash_mid_serving_per_op () =
  with_env (fun () ->
      let r =
        run_campaign ~mode:Server.Per_op (fun _ -> art_part ())
      in
      check_campaign "art per-op" r)

(* --- crash mid-serving, epoch mode ----------------------------------------- *)

(* The tentpole's durability gate.  [`Mid_epoch] aims the crash at a random
   persistent store — inside the fence-free apply window, with
   applied-but-unacked ops parked in the open epoch; [`Boundary] aims it at
   a random flush or fence — the epoch advance itself.  Either way the
   campaign must report zero lost acknowledged operations: a mid-epoch
   fault may shed the open epoch's unacked suffix, never an acked op. *)
let epoch_crash_cfg =
  {
    Server.shards = 2;
    batch = 8;
    queue_cap = 64;
    mode =
      Server.Epoch { EC.max_ops = 16; max_lines = 128; max_delay_ns = 100_000 };
  }

let run_epoch_campaign ~plan make =
  Servecrash.campaign ~make ~cfg:epoch_crash_cfg ~plan
    ~ops_per_request:queued_ops ~states:3 ~load:60 ~ops:160 ~workers:2
    ~seed:13 ()

let check_epoch_campaign name r =
  let b = r.Crashtest.base in
  Alcotest.(check int) (name ^ ": lost acked") 0 b.Crashtest.lost_keys;
  Alcotest.(check int) (name ^ ": wrong values") 0 b.Crashtest.wrong_values;
  Alcotest.(check int) (name ^ ": stalled") 0 b.Crashtest.stalled;
  Alcotest.(check bool) (name ^ ": recovered every state") true
    (r.Crashtest.recoveries >= epoch_crash_cfg.Server.shards)

let test_epoch_crash_mid_epoch_art () =
  with_env (fun () ->
      check_epoch_campaign "art mid-epoch"
        (run_epoch_campaign ~plan:`Mid_epoch (fun _ -> art_part ())))

let test_epoch_crash_boundary_art () =
  with_env (fun () ->
      check_epoch_campaign "art boundary"
        (run_epoch_campaign ~plan:`Boundary (fun _ -> art_part ())))

let test_epoch_crash_mid_epoch_clht () =
  with_env (fun () ->
      check_epoch_campaign "clht mid-epoch"
        (run_epoch_campaign ~plan:`Mid_epoch (fun _ -> clht_part ())))

let test_epoch_crash_boundary_clht () =
  with_env (fun () ->
      check_epoch_campaign "clht boundary"
        (run_epoch_campaign ~plan:`Boundary (fun _ -> clht_part ())))

(* Mutation adequacy: delete the epoch fence (advance drops the open
   epoch's deferred lines without flushing, still reports it persisted) and
   the campaign MUST see lost acknowledged operations — otherwise the
   zero-loss verdict above is vacuous. *)
let test_epoch_mutation_caught () =
  with_env (fun () ->
      Recipe.Persist.mutate_drop_epoch_flush := true;
      let r =
        Fun.protect
          ~finally:(fun () -> Recipe.Persist.mutate_drop_epoch_flush := false)
          (fun () ->
            Servecrash.campaign
              ~make:(fun _ -> art_part ())
              ~cfg:epoch_crash_cfg ~plan:`Mid_epoch ~ops_per_request:queued_ops
              ~states:2 ~load:60 ~ops:120 ~workers:2 ~seed:17 ())
      in
      Alcotest.(check bool) "dropped epoch fence detected as loss" true
        (r.Crashtest.base.Crashtest.lost_keys > 0))

(* --- direct reads --------------------------------------------------------- *)

(* An ART partition whose inserts linger after applying: each put is
   visible, but not yet fenced, for [linger] seconds — the window in which
   a direct read must not answer. *)
let lingering_art ~linger () =
  let p = art_part () in
  {
    p with
    Server.p_insert =
      (fun k v ->
        let r = p.Server.p_insert k v in
        Unix.sleepf linger;
        r);
  }

let stat srv k =
  match Server.stats_snapshot srv |> List.assoc_opt k with
  | Some v -> v
  | None -> Alcotest.fail ("snapshot lacks " ^ k)

let direct_counts srv = (stat srv "direct_gets", stat srv "direct_fallbacks")

(* Read durability under a crash.  A writer puts fresh keys while readers
   send Get-only requests for the keys it is putting right now; a fault
   crashes a worker mid-apply; after power failure and recovery, every key
   a reader saw [Found] must still be present with its value.  Returns
   (violations, direct Gets served, crashes fired, direct writes) over
   [states].  The writer's requests hold [per_request] puts: more than
   [batch] (the default) sends them through a shard worker, at most [batch]
   runs them as direct writes on the writer's domain. *)
let read_durability_campaign ?(per_request = 9) ~states ~seed () =
  let cfg =
    { Server.shards = 2; batch = 8; queue_cap = 64;
      mode = Server.Epoch EC.default_cfg }
  in
  let requests = 40 and readers = 2 in
  let run_traffic srv ~base =
    (* [hi]: the highest key whose put has been submitted. *)
    let hi = Atomic.make 0 and writing = Atomic.make true in
    let writer =
      Domain.spawn (fun () ->
          let stop = ref false and r = ref 0 in
          while (not !stop) && !r < requests do
            let k0 = base + (!r * per_request) in
            Atomic.set hi (k0 + per_request - 1);
            let ops =
              List.init per_request (fun j ->
                  Wire.Put (ik (k0 + j), Loadgen.value_of_key (k0 + j)))
            in
            (match (Server.submit srv { Wire.rid = !r; ops }).Wire.status with
            | Wire.Ok -> ()
            | _ -> stop := true);
            incr r
          done;
          Atomic.set writing false)
    in
    let reader rid =
      Domain.spawn (fun () ->
          let g = Util.Rng.create (seed + rid) in
          let seen = ref [] in
          while Atomic.get writing do
            let top = Atomic.get hi in
            let ks =
              List.init 2 (fun _ -> max 1 (top - Util.Rng.below g per_request))
            in
            let resp =
              Server.submit srv
                { Wire.rid = 0; ops = List.map (fun k -> Wire.Get (ik k)) ks }
            in
            if resp.Wire.status = Wire.Ok then
              List.iter2
                (fun k r ->
                  match r with
                  | Wire.Found v -> seen := (k, v) :: !seen
                  | _ -> ())
                ks resp.Wire.replies
          done;
          !seen)
    in
    let rs = List.init readers reader in
    Domain.join writer;
    List.concat_map Domain.join rs
  in
  let mk_parts () =
    Array.init cfg.Server.shards (fun _ -> lingering_art ~linger:0.0002 ())
  in
  (* Preview: the traffic's store count, so crash points land inside it. *)
  let stores =
    Servecrash.fresh_env ();
    let srv = Server.start cfg (mk_parts ()) in
    let ev =
      Faultinject.count_events (fun () -> ignore (run_traffic srv ~base:1))
    in
    Server.stop srv;
    ev.Faultinject.stores
  in
  let rng = Util.Rng.create seed in
  let violations = ref 0 and direct = ref 0 and crashes = ref 0 in
  let writes = ref 0 in
  for state = 1 to states do
    Servecrash.fresh_env ();
    let parts = mk_parts () in
    let srv = Server.start cfg parts in
    let d0, _ = direct_counts srv in
    let w0 = stat srv "direct_writes" in
    let k = 1 + Util.Rng.below rng (max 1 stores) in
    Faultinject.arm (Faultinject.Crash_at_store { k });
    let seen = run_traffic srv ~base:(state * 100_000) in
    if Server.crashed srv then incr crashes;
    let d1, _ = direct_counts srv in
    direct := !direct + (d1 - d0);
    writes := !writes + (stat srv "direct_writes" - w0);
    Server.stop srv;
    Faultinject.disarm ();
    Pmem.Crash.disarm ();
    Pmem.sanitize_sync ();
    Pmem.simulate_power_failure ();
    Array.iter (fun p -> p.Server.p_recover ()) parts;
    List.iter
      (fun (k, v) ->
        let p = parts.(Server.shard_of_key cfg (ik k)) in
        if p.Server.p_lookup (ik k) <> Some v then incr violations)
      seen
  done;
  (!violations, !direct, !crashes, !writes)

let test_direct_read_durability () =
  with_env (fun () ->
      let violations, direct, crashes, _ =
        read_durability_campaign ~states:6 ~seed:31 ()
      in
      Alcotest.(check bool) "crashes fired" true (crashes > 0);
      Alcotest.(check bool) "reads were served directly" true (direct > 0);
      Alcotest.(check int) "reads that did not survive the crash" 0 violations)

(* Mutation adequacy: without the odd mark a direct read can return a put
   that is applied but not fenced, and the campaign must see it vanish. *)
let test_direct_read_mutation_caught () =
  with_env (fun () ->
      Server.mutate_skip_odd_mark := true;
      let violations, _, _, _ =
        Fun.protect
          ~finally:(fun () -> Server.mutate_skip_odd_mark := false)
          (fun () -> read_durability_campaign ~states:6 ~seed:37 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "skipped odd mark detected (%d violations)" violations)
        true (violations > 0))

let rec chunks n l =
  match l with
  | [] -> []
  | _ ->
      let rec split i acc = function
        | x :: rest when i < n -> split (i + 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = split 0 [] l in
      c :: chunks n rest

(* Direct and queued reads against a sequential model, under concurrent
   writers and transactions.  Each model key has one writer, which writes
   strictly increasing values: single puts, committed transactions over
   several of its keys, and transactions doomed to abort (they overflow the
   undo WAL) that write [poison] to one of its keys.  A read of key [k]
   that spans [rs, re] must return a value that was written to [k], no
   older than the last write acked before [rs] and no newer than the last
   write submitted before [re] — and never [poison]. *)
let test_direct_read_differential () =
  with_env (fun () ->
      let cfg =
        { Server.shards = 2; batch = 8; queue_cap = 256;
          mode = Server.Epoch EC.default_cfg }
      in
      let srv = Server.start cfg (Array.init 2 (fun _ -> art_part ())) in
      let writers = 2 and per_writer = 12 and steps = 120 and readers = 2 in
      let nkeys = writers * per_writer in
      let key i = ik (i + 1) in
      (* A doomed transaction also updates every ballast key: one undo entry
         per leaf, more than either shard's WAL holds. *)
      let poison = -7 and ballast0 = 1_000_000 and ballast = 1200 in
      let ballast_key j = ik (ballast0 + j) in
      let started = Array.init nkeys (fun _ -> Atomic.make 1)
      and acked = Array.init nkeys (fun _ -> Atomic.make 1) in
      List.iteri
        (fun c ops ->
          let r = Server.submit srv { Wire.rid = c; ops } in
          Alcotest.(check bool) "preload acked" true (r.Wire.status = Wire.Ok))
        (chunks 64
           (List.init nkeys (fun i -> Wire.Put (key i, 1))
           @ List.init ballast (fun j -> Wire.Put (ballast_key j, 0))));
      let d0, _ = direct_counts srv in
      let writing = Atomic.make writers in
      let writer w =
        Domain.spawn (fun () ->
            let g = Util.Rng.create (100 + w) in
            let mine () = (w * per_writer) + Util.Rng.below g per_writer in
            let written = ref [] and doomed = ref 0 and bad = ref [] in
            let fail fmt = Printf.ksprintf (fun e -> bad := e :: !bad) fmt in
            let write is v ops =
              List.iter (fun i -> Atomic.set started.(i) v) is;
              match (Server.submit srv { Wire.rid = v; ops }).Wire.replies with
              | [ (Wire.Done _ | Wire.Txn_ok _) ] ->
                  List.iter
                    (fun i ->
                      written := (i, v) :: !written;
                      Atomic.set acked.(i) v)
                    is
              | _ -> fail "write %d not acked" v
            in
            for v = 2 to steps + 1 do
              match Util.Rng.below g 20 with
              | 0 -> (
                  let ops =
                    Wire.Put (key (mine ()), poison)
                    :: List.init ballast (fun j -> Wire.Put (ballast_key j, v))
                  in
                  let req = { Wire.rid = v; ops = [ Wire.Txn ops ] } in
                  match (Server.submit srv req).Wire.replies with
                  | [ Wire.Txn_aborted ] -> incr doomed
                  | _ -> fail "doomed transaction %d not aborted" v)
              | r when r < 8 ->
                  let is =
                    List.sort_uniq compare (List.init 3 (fun _ -> mine ()))
                  in
                  write is v
                    [ Wire.Txn (List.map (fun i -> Wire.Put (key i, v)) is) ]
              | _ ->
                  let i = mine () in
                  write [ i ] v [ Wire.Put (key i, v) ]
            done;
            Atomic.decr writing;
            (!written, !doomed, !bad))
      in
      let reader r =
        Domain.spawn (fun () ->
            let g = Util.Rng.create (200 + r) in
            let reads = ref [] and errors = ref [] and n = ref 0 in
            let fail fmt =
              Printf.ksprintf (fun e -> errors := e :: !errors) fmt
            in
            while Atomic.get writing > 0 || !n < 50 do
              incr n;
              let is =
                List.init (1 + Util.Rng.below g 3) (fun _ ->
                    Util.Rng.below g nkeys)
              in
              let lo = List.map (fun i -> Atomic.get acked.(i)) is in
              let gets = List.map (fun i -> Wire.Get (key i)) is in
              (* Every third request carries a put to a reader-private key,
                 which sends it down the queued path. *)
              let ops =
                if !n mod 3 <> 0 then gets
                else gets @ [ Wire.Put (ik (5_000_000 + r), !n) ]
              in
              let resp = Server.submit srv { Wire.rid = !n; ops } in
              let hi = List.map (fun i -> Atomic.get started.(i)) is in
              if resp.Wire.status <> Wire.Ok then fail "read request not served"
              else
                List.iteri
                  (fun j i ->
                    let lo = List.nth lo j and hi = List.nth hi j in
                    match List.nth resp.Wire.replies j with
                    | Wire.Found v when v = poison ->
                        fail "key %d: read an aborted transaction's write" i
                    | Wire.Found v when lo <= v && v <= hi ->
                        reads := (i, v) :: !reads
                    | Wire.Found v ->
                        fail "key %d read %d outside [%d, %d]" i v lo hi
                    | _ -> fail "key %d not found" i)
                  is
            done;
            (!reads, !errors))
      in
      let ws = List.init writers writer and rs = List.init readers reader in
      let wouts = List.map Domain.join ws and routs = List.map Domain.join rs in
      let d1, _ = direct_counts srv in
      let written = Hashtbl.create 256 in
      for i = 0 to nkeys - 1 do
        Hashtbl.replace written (i, 1) ()
      done;
      List.iter
        (fun (ws, _, bad) ->
          List.iter (fun iv -> Hashtbl.replace written iv ()) ws;
          List.iter Alcotest.fail bad)
        wouts;
      List.iter
        (fun (reads, errors) ->
          List.iter Alcotest.fail errors;
          List.iter
            (fun (i, v) ->
              if not (Hashtbl.mem written (i, v)) then
                Alcotest.failf "key %d read %d, never written" i v)
            reads)
        routs;
      Alcotest.(check bool) "some transactions aborted" true
        (List.exists (fun (_, d, _) -> d > 0) wouts);
      List.iter
        (fun ops ->
          let r = Server.submit srv { Wire.rid = 0; ops } in
          Alcotest.(check bool) "aborted transactions rolled back" true
            (List.for_all (( = ) (Wire.Found 0)) r.Wire.replies))
        (chunks 64 (List.init ballast (fun j -> Wire.Get (ballast_key j))));
      Alcotest.(check bool) "some reads were served directly" true (d1 > d0);
      Server.stop srv)

(* Every index the registry marks lock-free serves direct reads beside a
   writer: a reader never sees a wrong value, and finds every key whose put
   was acked before its request began. *)
let test_direct_read_every_lockfree_index () =
  List.iter
    (fun (e : Harness.Index.t) ->
      with_env (fun () ->
          let cfg =
            { Server.shards = 2; batch = 8; queue_cap = 64;
              mode = Server.Epoch EC.default_cfg }
          in
          let srv =
            Server.start cfg
              (Array.init 2 (fun _ -> Harness.Index.partition e ()))
          in
          let acked = Atomic.make 0 and writing = Atomic.make true in
          let writer =
            Domain.spawn (fun () ->
                for r = 0 to 59 do
                  let ops =
                    List.init 8 (fun j ->
                        let k = (r * 8) + j + 1 in
                        Wire.Put (ik k, 3 * k))
                  in
                  if (Server.submit srv { Wire.rid = r; ops }).Wire.status
                     = Wire.Ok
                  then Atomic.set acked ((r + 1) * 8)
                done;
                Atomic.set writing false)
          in
          let reader =
            Domain.spawn (fun () ->
                let g = Util.Rng.create 5 and bad = ref [] in
                while Atomic.get writing do
                  let lo = Atomic.get acked in
                  let ks =
                    List.init 3 (fun _ -> 1 + Util.Rng.below g (lo + 8))
                  in
                  let ops = List.map (fun k -> Wire.Get (ik k)) ks in
                  let r = Server.submit srv { Wire.rid = 0; ops } in
                  List.iter2
                    (fun k rep ->
                      match rep with
                      | Wire.Found v when v = 3 * k -> ()
                      | Wire.Absent when k > lo -> ()
                      | _ -> bad := k :: !bad)
                    ks r.Wire.replies
                done;
                !bad)
          in
          Domain.join writer;
          let bad = Domain.join reader in
          let direct, _ = direct_counts srv in
          Server.stop srv;
          Alcotest.(check (list int)) (e.name ^ ": wrong reads") [] bad;
          Alcotest.(check bool) (e.name ^ ": reads served directly") true
            (direct > 0)))
    (List.filter (fun (e : Harness.Index.t) -> e.lockfree_lookup)
       Harness.Index.all)

(* A stopped or crashed shard's sequence is odd for good, so a Get-only
   request falls back to the queued path, which answers [Shutdown]. *)
let test_direct_read_after_stop_and_kill () =
  with_env (fun () ->
      let cfg =
        { Server.shards = 2; batch = 8; queue_cap = 64;
          mode = Server.Epoch EC.default_cfg }
      in
      let submit srv rid ops = Server.submit srv { Wire.rid; ops } in
      let get srv = submit srv 2 [ Wire.Get (ik 1); Wire.Get (ik 2) ] in
      let serving () =
        let srv = Server.start cfg (Array.init 2 (fun _ -> art_part ())) in
        let put = submit srv 1 [ Wire.Put (ik 1, 10); Wire.Put (ik 2, 20) ] in
        Alcotest.(check bool) "puts acked" true (put.Wire.status = Wire.Ok);
        let d0, _ = direct_counts srv in
        let r = get srv in
        Alcotest.(check bool) "gets answered" true
          (r.Wire.status = Wire.Ok
          && r.Wire.replies = [ Wire.Found 10; Wire.Found 20 ]);
        Alcotest.(check int) "both gets direct" (d0 + 2)
          (fst (direct_counts srv));
        srv
      in
      let shutdown what srv =
        Alcotest.(check bool) (what ^ ": direct read answers Shutdown") true
          ((get srv).Wire.status = Wire.Shutdown)
      in
      let srv = serving () in
      Server.stop srv;
      shutdown "after stop" srv;
      let srv = serving () in
      Server.kill srv;
      shutdown "after kill" srv;
      Server.stop srv;
      let srv = serving () in
      Faultinject.arm (Faultinject.Crash_at_store { k = 1 });
      let put = submit srv 3 [ Wire.Put (ik 3, 30) ] in
      Faultinject.disarm ();
      Alcotest.(check bool) "crashing put not acked" true
        (put.Wire.status = Wire.Shutdown);
      shutdown "after a worker crash" srv;
      Server.stop srv)

(* --- direct writes --------------------------------------------------------- *)

let counter name = Obs.Counter.value (Obs.Counter.v name)

(* The serving crash campaign with requests of exactly [batch] ops, so they
   run as direct writes on the client domains and faults fire there.
   Returns the report, the crashes that fired inside a direct write, and
   the ops applied directly. *)
let direct_campaign ?(mode = Server.Epoch EC.default_cfg) ?(states = 3) ~plan
    ~seed make =
  let cfg = { Server.shards = 2; batch = 8; queue_cap = 64; mode } in
  let c0 = counter "serve.direct_write_crashes"
  and w0 = counter "serve.direct_writes" in
  let r =
    Servecrash.campaign ~make ~cfg ~plan ~ops_per_request:cfg.Server.batch
      ~states ~load:60 ~ops:160 ~workers:2 ~seed ()
  in
  ( r,
    counter "serve.direct_write_crashes" - c0,
    counter "serve.direct_writes" - w0 )

(* Zero lost acknowledged ops when the crash lands inside a direct write —
   mid-apply, at the caller's epoch advance, or anywhere — over ordered and
   hash partitions and in per-op mode; and some crashes did land there. *)
let test_direct_write_crash_campaign () =
  with_env (fun () ->
      let runs =
        [
          ("art mid-epoch", Server.Epoch EC.default_cfg, `Mid_epoch, 41, art_part);
          ("art boundary", Server.Epoch EC.default_cfg, `Boundary, 43, art_part);
          ("clht random", Server.Epoch EC.default_cfg, `Random, 47, clht_part);
          ("art per-op", Server.Per_op, `Random, 53, art_part);
        ]
      in
      let crashes, writes =
        List.fold_left
          (fun (c, w) (name, mode, plan, seed, make) ->
            let r, dc, dw =
              direct_campaign ~mode ~plan ~seed (fun _ -> make ())
            in
            check_campaign name r;
            (c + dc, w + dw))
          (0, 0) runs
      in
      Alcotest.(check bool) "ops applied by direct writes" true (writes > 0);
      Alcotest.(check bool)
        (Printf.sprintf "crashes fired inside direct writes (%d)" crashes)
        true (crashes > 0))

(* Direct reads beside direct writes: the writer's requests run on its own
   domain under shard claims, and every read that saw [Found] survives. *)
let test_direct_write_read_durability () =
  with_env (fun () ->
      let violations, _, crashes, writes =
        read_durability_campaign ~per_request:8 ~states:6 ~seed:59 ()
      in
      Alcotest.(check bool) "crashes fired" true (crashes > 0);
      Alcotest.(check bool) "writes applied directly" true (writes > 0);
      Alcotest.(check int) "reads that did not survive the crash" 0 violations)

(* Mutation adequacy with direct writes in play: deleting the epoch flush,
   or the odd mark of the persistence sequence, must still be caught. *)
let test_direct_write_mutations_caught () =
  with_env (fun () ->
      Recipe.Persist.mutate_drop_epoch_flush := true;
      let r, _, writes =
        Fun.protect
          ~finally:(fun () -> Recipe.Persist.mutate_drop_epoch_flush := false)
          (fun () ->
            direct_campaign ~states:2 ~plan:`Mid_epoch ~seed:17 (fun _ ->
                art_part ()))
      in
      Alcotest.(check bool) "dropped flush: writes applied directly" true
        (writes > 0);
      Alcotest.(check bool) "dropped epoch flush detected as loss" true
        (r.Crashtest.base.Crashtest.lost_keys > 0);
      Server.mutate_skip_odd_mark := true;
      let violations, _, _, writes =
        Fun.protect
          ~finally:(fun () -> Server.mutate_skip_odd_mark := false)
          (fun () ->
            read_durability_campaign ~per_request:8 ~states:6 ~seed:37 ())
      in
      Alcotest.(check bool) "skipped mark: writes applied directly" true
        (writes > 0);
      Alcotest.(check bool)
        (Printf.sprintf "skipped odd mark detected (%d violations)" violations)
        true (violations > 0))

(* Keys [1..] that hash to shard [sid] of a 2-shard server. *)
let shard_keys cfg sid n =
  let rec go k acc m =
    if m = n then List.rev acc
    else if Server.shard_of_key cfg (ik k) = sid then go (k + 1) (k :: acc) (m + 1)
    else go (k + 1) acc m
  in
  go 1 [] 0

(* Two systhreads of one domain — kv_server's connection handlers — write
   through their own [Server.Conn], each to its own shard, so their direct
   writes would overlap: the partition lingers after each insert, which
   switches threads mid-write.  They share the domain's commit-deferral
   table, so one thread's crash cleanup or epoch advance must never drop
   or skip the other's deferred lines.  A crash at a random store or flush
   fires in one of them; after power failure every acked put must be
   present.
   Returns (acked puts missing after recovery, crashes fired). *)
let shared_domain_campaign ~states ~seed =
  let cfg =
    { Server.shards = 2; batch = 8; queue_cap = 64;
      mode = Server.Epoch EC.default_cfg }
  in
  let per_thread = 30 in
  let keys = Array.init 2 (fun sid -> shard_keys cfg sid per_thread) in
  let run_traffic srv =
    let acked = Array.make 2 [] in
    let writer sid () =
      let conn = Server.Conn.create srv in
      let stop = ref false in
      List.iteri
        (fun i k ->
          if not !stop then
            match via_conn conn { Wire.rid = i; ops = [ Wire.Put (ik k, 3 * k) ] } with
            | { Wire.status = Wire.Ok; replies = [ Wire.Done true ]; _ } ->
                acked.(sid) <- k :: acked.(sid)
            | _ -> stop := true)
        keys.(sid)
    in
    let ts = List.init 2 (fun sid -> Thread.create (writer sid) ()) in
    List.iter Thread.join ts;
    Array.to_list acked |> List.concat
  in
  let mk_parts () =
    Array.init cfg.Server.shards (fun _ -> lingering_art ~linger:0.0002 ())
  in
  let ev =
    Servecrash.fresh_env ();
    let srv = Server.start cfg (mk_parts ()) in
    let ev =
      Faultinject.count_events (fun () -> ignore (run_traffic srv))
    in
    Server.stop srv;
    ev
  in
  let rng = Util.Rng.create seed in
  let missing = ref 0 and crashes = ref 0 in
  for state = 1 to states do
    Servecrash.fresh_env ();
    let parts = mk_parts () in
    let srv = Server.start cfg parts in
    (* Alternate a crash mid-apply with one inside an epoch advance, where
       the flushes of the other thread's deferred lines may be running. *)
    let draw n = 1 + Util.Rng.below rng (max 1 n) in
    Faultinject.arm
      (if state land 1 = 0 then
         Faultinject.Crash_at_store { k = draw ev.Faultinject.stores }
       else
         Faultinject.Crash_at_flush
           { site = None; k = draw ev.Faultinject.flushes });
    let acked = run_traffic srv in
    if Server.crashed srv then incr crashes;
    Server.stop srv;
    Faultinject.disarm ();
    Pmem.Crash.disarm ();
    Pmem.sanitize_sync ();
    Pmem.simulate_power_failure ();
    Array.iter (fun p -> p.Server.p_recover ()) parts;
    List.iter
      (fun k ->
        let p = parts.(Server.shard_of_key cfg (ik k)) in
        if p.Server.p_lookup (ik k) <> Some (3 * k) then incr missing)
      acked
  done;
  (!missing, !crashes)

let test_direct_write_shared_domain () =
  with_env (fun () ->
      let missing, crashes = shared_domain_campaign ~states:8 ~seed:61 in
      Alcotest.(check bool) "crashes fired" true (crashes > 0);
      Alcotest.(check int) "acked puts lost across power failure" 0 missing)

(* A partition whose insert of [hold] blocks until [gate] opens, so a
   direct write can be caught holding its claim. *)
let gated_art ~entered ~gate () =
  let p = art_part () in
  {
    p with
    Server.p_insert =
      (fun k v ->
        if k = "hold" then begin
          Atomic.set entered true;
          while not (Atomic.get gate) do
            Unix.sleepf 0.001
          done
        end;
        p.Server.p_insert k v);
  }

(* [stop] returns only once the claim is released (a campaign power-fails
   right after it), and a submitter waiting for the claimed shard gets
   [Shutdown] from [stop] or [kill]; the holder's own write, fenced by its
   own advance, is acknowledged. *)
let test_direct_write_stop_and_kill () =
  with_env (fun () ->
      let cfg =
        { Server.shards = 1; batch = 8; queue_cap = 64;
          mode = Server.Epoch EC.default_cfg }
      in
      let put srv rid k () = Server.submit srv { Wire.rid; ops = [ Wire.Put (k, rid) ] } in
      List.iter
        (fun action ->
          let entered = Atomic.make false and gate = Atomic.make false in
          let srv = Server.start cfg [| gated_art ~entered ~gate () |] in
          (* The idle worker may not be waiting yet: retry until a small
             write has gone direct, so the holder below can claim. *)
          let tries = ref 0 in
          while stat srv "direct_writes" = 0 && !tries < 1000 do
            ignore (put srv 0 (ik 1) ());
            incr tries;
            Unix.sleepf 0.001
          done;
          let holder = Domain.spawn (put srv 1 "hold") in
          while not (Atomic.get entered) do
            Unix.sleepf 0.001
          done;
          let waiter = Domain.spawn (put srv 2 (ik 2)) in
          Unix.sleepf 0.01;
          let stopped = Atomic.make false in
          let stopper =
            match action with
            | `Stop ->
                Some
                  (Domain.spawn (fun () ->
                       Server.stop srv;
                       Atomic.set stopped true))
            | `Kill ->
                Server.kill srv;
                None
          in
          let w = Domain.join waiter in
          Alcotest.(check bool) "waiter answered Shutdown" true
            (w.Wire.status = Wire.Shutdown);
          Unix.sleepf 0.02;
          Alcotest.(check bool) "stop waits for the claim" false
            (Atomic.get stopped);
          Atomic.set gate true;
          let h = Domain.join holder in
          Alcotest.(check bool) "holder's fenced write acked" true
            (h.Wire.status = Wire.Ok);
          (match stopper with
          | Some d ->
              Domain.join d;
              Alcotest.(check bool) "stop returned after the release" true
                (Atomic.get stopped)
          | None -> Server.stop srv))
        [ `Stop; `Kill ])

(* Which requests may go direct: a request of at most [batch] point ops is
   counted as a direct write or a fallback; one of [batch + 1] puts and a
   transaction take the queue and touch neither counter.  With spans on, a
   direct write's op has no queue and no epoch-wait time, and every
   shard's phase histograms keep one sample per ack. *)
let test_direct_write_routing () =
  with_env (fun () ->
      Obs.reset_all ();
      Obs.Span.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Span.set_enabled false)
        (fun () ->
          let cfg =
            { Server.shards = 2; batch = 4; queue_cap = 64;
              mode = Server.Epoch EC.default_cfg }
          in
          let srv = Server.start cfg (Array.init 2 (fun _ -> art_part ())) in
          let routed () =
            stat srv "direct_writes" + stat srv "direct_write_fallbacks"
          in
          let submit rid ops =
            let r = Server.submit srv { Wire.rid; ops } in
            Alcotest.(check bool) "request served" true (r.Wire.status = Wire.Ok)
          in
          let tries = ref 0 in
          while stat srv "direct_writes" = 0 && !tries < 1000 do
            submit 0 [ Wire.Put (ik 1, 1) ];
            incr tries;
            Unix.sleepf 0.001
          done;
          Alcotest.(check bool) "a small write went direct" true
            (stat srv "direct_writes" > 0);
          let r0 = routed () in
          submit 1 (List.init 4 (fun i -> Wire.Put (ik (10 + i), i)));
          Alcotest.(check int) "batch-sized request tried directly" (r0 + 4)
            (routed ());
          let r1 = routed () in
          submit 2 (List.init 5 (fun i -> Wire.Put (ik (20 + i), i)));
          Alcotest.(check int) "batch + 1 puts take the queue" r1 (routed ());
          submit 3 [ Wire.Txn [ Wire.Put (ik 30, 1); Wire.Put (ik 31, 2) ] ];
          Alcotest.(check int) "a transaction takes the queue" r1 (routed ());
          Server.stop srv;
          let direct_spans =
            List.filter
              (fun sp ->
                sp.Obs.Span.t_enqueue = sp.Obs.Span.t_submit
                && sp.Obs.Span.t_dequeue = sp.Obs.Span.t_submit)
              (Obs.Span.dump ())
          in
          Alcotest.(check bool) "direct writes spanned" true
            (List.length direct_spans >= stat srv "direct_writes");
          List.iter
            (fun sp ->
              Alcotest.(check int) "no queue time" 0 (Obs.Span.queue_ns sp);
              Alcotest.(check int) "no epoch wait" 0 (Obs.Span.epoch_ns sp))
            direct_spans;
          let f = Server.stats_snapshot srv in
          for sid = 0 to cfg.Server.shards - 1 do
            let sf k = List.assoc (Printf.sprintf "shard.%d.%s" sid k) f in
            List.iter
              (fun phase ->
                Alcotest.(check int)
                  (Printf.sprintf "shard %d %s samples" sid phase)
                  (sf "ack_ns.count")
                  (sf (phase ^ "_ns.count")))
              [ "queue"; "apply"; "epoch_wait"; "fence" ]
          done))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "kvserve"
    [
      ( "wire",
        q
          [
            request_roundtrip;
            response_roundtrip;
            request_prefix_needs_more;
            response_prefix_needs_more;
            txn_request_roundtrip;
            txn_request_prefix_needs_more;
            txn_response_roundtrip;
          ]
        @ [
            Alcotest.test_case "txn member rejections" `Quick
              test_wire_txn_reject;
            Alcotest.test_case "empty batch" `Quick test_wire_empty_batch;
            Alcotest.test_case "max-size key" `Quick test_wire_max_key;
            Alcotest.test_case "negative value" `Quick test_wire_negative_value;
            Alcotest.test_case "malformed frames" `Quick test_wire_malformed;
            Alcotest.test_case "decode limit" `Quick test_wire_limit;
            Alcotest.test_case "epoch stats reply" `Quick
              test_wire_epoch_stats_reply;
          ] );
      ( "deferral",
        [
          Alcotest.test_case "commit deferral" `Quick test_commit_deferral;
          Alcotest.test_case "domain-scoped deferral" `Quick
            test_deferral_domain_scoped;
        ] );
      ( "epoch",
        q [ epoch_ctl_props ]
        @ [
            Alcotest.test_case "substrate numbering and cost" `Quick
              test_epoch_substrate;
            Alcotest.test_case "controller config gate" `Quick
              test_epoch_ctl_validate;
            Alcotest.test_case "epoch-mode serving over ART" `Quick
              test_server_epoch_mode;
            Alcotest.test_case "acked ops survive power failure" `Quick
              test_epoch_acked_survive_power_failure;
            Alcotest.test_case "flush and fence saving vs per-op" `Quick
              test_epoch_persist_saves_fences;
          ] );
      ( "server",
        [
          Alcotest.test_case "2-shard smoke over ART" `Quick test_server_smoke;
          Alcotest.test_case "trickled frames" `Quick test_conn_trickle;
          Alcotest.test_case "hash partitions" `Quick test_server_hash_partition;
          Alcotest.test_case "bad keys rejected" `Quick test_bad_keys_rejected;
          Alcotest.test_case "backpressure exactly-once" `Quick
            test_backpressure;
        ] );
      ( "stats",
        [
          Alcotest.test_case "live endpoint with spans" `Quick
            test_stats_endpoint;
          Alcotest.test_case "consistent across recovery" `Quick
            test_stats_across_recovery;
          Alcotest.test_case "zero overhead when off" `Quick
            test_spans_off_zero_overhead;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crashed shard drains its queue" `Quick
            test_crash_drains_queue;
          Alcotest.test_case "mid-serving, ordered" `Quick
            test_crash_mid_serving_ordered;
          Alcotest.test_case "mid-serving, hash" `Quick
            test_crash_mid_serving_hash;
          Alcotest.test_case "mid-serving, per-op" `Quick
            test_crash_mid_serving_per_op;
          Alcotest.test_case "epoch mid-epoch, ordered" `Quick
            test_epoch_crash_mid_epoch_art;
          Alcotest.test_case "epoch boundary, ordered" `Quick
            test_epoch_crash_boundary_art;
          Alcotest.test_case "epoch mid-epoch, hash" `Quick
            test_epoch_crash_mid_epoch_clht;
          Alcotest.test_case "epoch boundary, hash" `Quick
            test_epoch_crash_boundary_clht;
          Alcotest.test_case "dropped epoch fence is caught" `Quick
            test_epoch_mutation_caught;
        ] );
      ( "direct",
        [
          Alcotest.test_case "direct reads survive a crash" `Quick
            test_direct_read_durability;
          Alcotest.test_case "skipped odd mark is caught" `Quick
            test_direct_read_mutation_caught;
          Alcotest.test_case "differential vs a sequential model" `Quick
            test_direct_read_differential;
          Alcotest.test_case "every lock-free index" `Quick
            test_direct_read_every_lockfree_index;
          Alcotest.test_case "Shutdown after stop or kill" `Quick
            test_direct_read_after_stop_and_kill;
        ] );
      ( "direct-write",
        [
          Alcotest.test_case "crash campaign" `Quick
            test_direct_write_crash_campaign;
          Alcotest.test_case "direct reads survive a crash" `Quick
            test_direct_write_read_durability;
          Alcotest.test_case "mutations are caught" `Quick
            test_direct_write_mutations_caught;
          Alcotest.test_case "systhreads sharing a domain" `Quick
            test_direct_write_shared_domain;
          Alcotest.test_case "stop and kill with a claim held" `Quick
            test_direct_write_stop_and_kill;
          Alcotest.test_case "queued-path routing and spans" `Quick
            test_direct_write_routing;
        ] );
    ]
