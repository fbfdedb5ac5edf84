(* Binary wire codec for the KV service layer.

   Framing: every message is [u32 BE payload-length | payload].  The length
   covers the payload only, so a reader needs 4 bytes to learn the frame
   size and [4 + length] bytes to decode it — the incremental-decode
   contract of {!decode_request}/{!decode_response} ([`Need_more] until a
   whole frame has arrived, [`Malformed] only for bytes that can never
   become a valid frame).

   Request payload:
     u8 kind=0 | u32 rid | u16 nops | nops × op
     op: u8 opcode | u16 klen | klen key bytes | opcode-specific tail
         opcode 0 = get     (no tail)
         opcode 1 = put     (u64 value)
         opcode 2 = delete  (no tail)
         opcode 3 = scan    (u16 max results; key is the inclusive start)
         opcode 4 = stats   (no key, no tail: live server snapshot)
         opcode 5 = txn     (no key; u16 n | n × op) — an atomic multi-key
                    batch; members are restricted to get/put/delete (no
                    nesting, no scans/stats inside a transaction), enforced
                    on both encode and decode

   Response payload:
     u8 kind=1 | u32 rid | u8 status | u16 nreplies | nreplies × reply
     status: 0 ok | 1 overloaded | 2 bad_request | 3 shutdown
     reply:  u8 tag 0 = absent
             u8 tag 1 = found    (u64 value)
             u8 tag 2 = done     (u8 applied?)
             u8 tag 3 = scanned  (u16 n | n × (u16 klen | key | u64 value))
             u8 tag 4 = unsupported  (scan sent to an unordered index)
             u8 tag 5 = stats    (u16 n | n × (u16 klen | field name | u64 value))
             u8 tag 6 = txn ok   (u16 n | n × reply, one per txn member in
                        order, members restricted to tags 0–2)
             u8 tag 7 = txn aborted  (the batch was not applied)
   Non-[Ok] statuses carry zero replies: the request was not applied.

   Values are 63-bit OCaml ints carried in a u64 slot (the sign bit is
   unused by the value generators; decode rejects a set top bit rather than
   silently wrapping).  Keys and scan counts are u16-sized, so the maximum
   key is 65535 bytes — exercised by the round-trip property tests. *)

type op =
  | Get of string
  | Put of string * int
  | Delete of string
  | Scan of string * int
  | Stats
  | Txn of op list
      (* failure-atomic multi-key batch; members must be Get/Put/Delete *)

type request = { rid : int; ops : op list }

type status = Ok | Overloaded | Bad_request | Shutdown

type reply =
  | Absent
  | Found of int
  | Done of bool
  | Scanned of (string * int) list
  | Unsupported
  | Stats_reply of (string * int) list (* named non-negative fields *)
  | Txn_ok of reply list (* one member reply per txn op, in op order *)
  | Txn_aborted

type response = { rrid : int; status : status; replies : reply list }

(* Hard cap on accepted frames: largest legal frame is a response of 65535
   scan replies... in principle; in practice nothing near this is ever sent.
   The cap's job is to make a corrupt length prefix [`Malformed] instead of
   an unbounded buffer wait. *)
let max_frame = 1 lsl 26

let u16_max = 0xFFFF

exception Encode_error of string

let check_key k =
  if String.length k > u16_max then
    raise (Encode_error "key exceeds 65535 bytes")

(* --- encoding ------------------------------------------------------------ *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let add_u16 b v =
  add_u8 b (v lsr 8);
  add_u8 b v

let add_u32 b v =
  add_u16 b (v lsr 16);
  add_u16 b v

(* A negative int (sign bit set) would encode with the u32-halves' top bits
   masked away and round-trip to a *different* positive value — reject it
   rather than corrupt silently. *)
let add_u64 b v =
  if v < 0 then raise (Encode_error "value out of 63-bit unsigned range");
  add_u32 b (v lsr 32);
  add_u32 b v

let add_key b k =
  check_key k;
  add_u16 b (String.length k);
  Buffer.add_string b k

let rec add_op b = function
  | Get k ->
      add_u8 b 0;
      add_key b k
  | Put (k, v) ->
      add_u8 b 1;
      add_key b k;
      add_u64 b v
  | Delete k ->
      add_u8 b 2;
      add_key b k
  | Scan (k, n) ->
      add_u8 b 3;
      add_key b k;
      if n < 0 || n > u16_max then
        raise (Encode_error "scan count out of u16 range");
      add_u16 b n
  | Stats -> add_u8 b 4
  | Txn ops ->
      add_u8 b 5;
      let n = List.length ops in
      if n > u16_max then raise (Encode_error "txn exceeds u16 op count");
      add_u16 b n;
      List.iter
        (fun op ->
          (match op with
          | Get _ | Put _ | Delete _ -> ()
          | Scan _ | Stats | Txn _ ->
              raise (Encode_error "txn member must be get/put/delete"));
          add_op b op)
        ops

let status_code = function
  | Ok -> 0
  | Overloaded -> 1
  | Bad_request -> 2
  | Shutdown -> 3

let rec add_reply b = function
  | Absent -> add_u8 b 0
  | Found v ->
      add_u8 b 1;
      add_u64 b v
  | Done applied ->
      add_u8 b 2;
      add_u8 b (if applied then 1 else 0)
  | Scanned items ->
      add_u8 b 3;
      let n = List.length items in
      if n > u16_max then raise (Encode_error "scan result exceeds u16 count");
      add_u16 b n;
      List.iter
        (fun (k, v) ->
          add_key b k;
          add_u64 b v)
        items
  | Unsupported -> add_u8 b 4
  | Stats_reply fields ->
      add_u8 b 5;
      let n = List.length fields in
      if n > u16_max then raise (Encode_error "stats reply exceeds u16 count");
      add_u16 b n;
      List.iter
        (fun (k, v) ->
          add_key b k;
          add_u64 b v)
        fields
  | Txn_ok replies ->
      add_u8 b 6;
      let n = List.length replies in
      if n > u16_max then raise (Encode_error "txn reply exceeds u16 count");
      add_u16 b n;
      List.iter
        (fun r ->
          (match r with
          | Absent | Found _ | Done _ -> ()
          | Scanned _ | Unsupported | Stats_reply _ | Txn_ok _ | Txn_aborted
            ->
              raise (Encode_error "txn reply member must be absent/found/done"));
          add_reply b r)
        replies
  | Txn_aborted -> add_u8 b 7

(* Append one framed message to [b]: payload built in a scratch buffer so
   the length prefix can go first. *)
let frame b payload =
  let len = Buffer.length payload in
  if len > max_frame then raise (Encode_error "frame exceeds max size");
  add_u32 b len;
  Buffer.add_buffer b payload

let encode_request b (r : request) =
  let p = Buffer.create 64 in
  add_u8 p 0;
  add_u32 p (r.rid land 0xFFFFFFFF);
  let n = List.length r.ops in
  if n > u16_max then raise (Encode_error "request exceeds u16 op count");
  add_u16 p n;
  List.iter (add_op p) r.ops;
  frame b p

let encode_response b (r : response) =
  let p = Buffer.create 64 in
  add_u8 p 1;
  add_u32 p (r.rrid land 0xFFFFFFFF);
  add_u8 p (status_code r.status);
  let n = List.length r.replies in
  if n > u16_max then raise (Encode_error "response exceeds u16 reply count");
  add_u16 p n;
  List.iter (add_reply p) r.replies;
  frame b p

let request_string r =
  let b = Buffer.create 64 in
  encode_request b r;
  Buffer.contents b

let response_string r =
  let b = Buffer.create 64 in
  encode_response b r;
  Buffer.contents b

(* --- decoding ------------------------------------------------------------ *)

type 'a decoded = [ `Ok of 'a * int | `Need_more | `Malformed of string ]

(* Cursor over [s.[pos .. limit)].  [Short] aborts to [`Need_more] — it can
   only fire inside a frame whose declared length lied, which [decode_frame]
   converts to [`Malformed] (the framing layer already proved the bytes are
   present). *)
exception Short
exception Bad of string

type cursor = { s : string; limit : int; mutable pos : int }

let need c n = if c.pos + n > c.limit then raise Short

let u8 c =
  need c 1;
  let v = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  v

let u16 c =
  let hi = u8 c in
  let lo = u8 c in
  (hi lsl 8) lor lo

let u32 c =
  let hi = u16 c in
  let lo = u16 c in
  (hi lsl 16) lor lo

let u64 c =
  let hi = u32 c in
  let lo = u32 c in
  if hi land 0x80000000 <> 0 then raise (Bad "value exceeds 63 bits");
  (hi lsl 32) lor lo

let key c =
  let n = u16 c in
  need c n;
  let k = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  k

let rec dec_op c =
  match u8 c with
  | 0 -> Get (key c)
  | 1 ->
      let k = key c in
      Put (k, u64 c)
  | 2 -> Delete (key c)
  | 3 ->
      let k = key c in
      Scan (k, u16 c)
  | 4 -> Stats
  | 5 ->
      let n = u16 c in
      let ops = ref [] in
      for _ = 1 to n do
        match dec_op c with
        | (Get _ | Put _ | Delete _) as op -> ops := op :: !ops
        | Scan _ | Stats | Txn _ ->
            raise (Bad "txn member must be get/put/delete")
      done;
      Txn (List.rev !ops)
  | n -> raise (Bad (Printf.sprintf "unknown opcode %d" n))

let dec_status = function
  | 0 -> Ok
  | 1 -> Overloaded
  | 2 -> Bad_request
  | 3 -> Shutdown
  | n -> raise (Bad (Printf.sprintf "unknown status %d" n))

let rec dec_reply c =
  match u8 c with
  | 0 -> Absent
  | 1 -> Found (u64 c)
  | 2 -> (
      match u8 c with
      | 0 -> Done false
      | 1 -> Done true
      | n -> raise (Bad (Printf.sprintf "bad bool %d" n)))
  | 3 ->
      let n = u16 c in
      let items = ref [] in
      for _ = 1 to n do
        let k = key c in
        let v = u64 c in
        items := (k, v) :: !items
      done;
      Scanned (List.rev !items)
  | 4 -> Unsupported
  | 5 ->
      let n = u16 c in
      let fields = ref [] in
      for _ = 1 to n do
        let k = key c in
        let v = u64 c in
        fields := (k, v) :: !fields
      done;
      Stats_reply (List.rev !fields)
  | 6 ->
      let n = u16 c in
      let replies = ref [] in
      for _ = 1 to n do
        match dec_reply c with
        | (Absent | Found _ | Done _) as r -> replies := r :: !replies
        | Scanned _ | Unsupported | Stats_reply _ | Txn_ok _ | Txn_aborted ->
            raise (Bad "txn reply member must be absent/found/done")
      done;
      Txn_ok (List.rev !replies)
  | 7 -> Txn_aborted
  | n -> raise (Bad (Printf.sprintf "unknown reply tag %d" n))

(* Generic frame decode: check the length prefix, then run [payload] on a
   cursor confined to the frame.  Inside the frame, running short or leaving
   trailing bytes are both [`Malformed] — the framing said exactly how many
   bytes the message has.  [limit] (default: the string's length) ends the
   bytes received so far, so a caller holding a larger buffer decodes its
   prefix without copying it out. *)
let decode_frame ?limit payload s pos : _ decoded =
  let limit =
    match limit with
    | None -> String.length s
    | Some l -> max 0 (min l (String.length s))
  in
  let avail = limit - pos in
  if avail < 4 then `Need_more
  else begin
    let c = { s; limit; pos } in
    let len = u32 c in
    if len > max_frame then `Malformed "frame length exceeds max"
    else if avail < 4 + len then `Need_more
    else begin
      let fc = { s; limit = c.pos + len; pos = c.pos } in
      match payload fc with
      | v ->
          if fc.pos <> fc.limit then `Malformed "trailing bytes in frame"
          else `Ok (v, fc.limit)
      | exception Short -> `Malformed "frame truncates message"
      | exception Bad m -> `Malformed m
    end
  end

let decode_request ?limit s pos : request decoded =
  decode_frame ?limit
    (fun c ->
      (match u8 c with
      | 0 -> ()
      | k -> raise (Bad (Printf.sprintf "expected request, got kind %d" k)));
      let rid = u32 c in
      let n = u16 c in
      let ops = ref [] in
      for _ = 1 to n do
        ops := dec_op c :: !ops
      done;
      { rid; ops = List.rev !ops })
    s pos

let decode_response ?limit s pos : response decoded =
  decode_frame ?limit
    (fun c ->
      (match u8 c with
      | 1 -> ()
      | k -> raise (Bad (Printf.sprintf "expected response, got kind %d" k)));
      let rrid = u32 c in
      let status = dec_status (u8 c) in
      let n = u16 c in
      let replies = ref [] in
      for _ = 1 to n do
        replies := dec_reply c :: !replies
      done;
      { rrid; status; replies = List.rev !replies })
    s pos

let status_name = function
  | Ok -> "ok"
  | Overloaded -> "overloaded"
  | Bad_request -> "bad_request"
  | Shutdown -> "shutdown"
