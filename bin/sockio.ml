(* Blocking socket I/O shared by [kv_server] (its connection handler and
   smoke client) and [kv_stats]: write a whole string; read and decode one
   response frame in place. *)

module Wire = Kvserve.Wire

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

(* Bytes received but not yet decoded: [buf.[0 .. len)]. *)
type pending = { mutable buf : Bytes.t; mutable len : int }

let pending () = { buf = Bytes.create 4096; len = 0 }

(** Read until one whole response frame is buffered, decode it in place
    (no copy of the pending bytes) and drop it from [p]. *)
let read_response fd p =
  let rec go () =
    match
      Wire.decode_response ~limit:p.len (Bytes.unsafe_to_string p.buf) 0
    with
    | `Ok (resp, consumed) ->
        p.len <- p.len - consumed;
        Bytes.blit p.buf consumed p.buf 0 p.len;
        resp
    | `Malformed m -> failwith ("malformed response: " ^ m)
    | `Need_more ->
        if p.len = Bytes.length p.buf then begin
          let b = Bytes.create (2 * p.len) in
          Bytes.blit p.buf 0 b 0 p.len;
          p.buf <- b
        end;
        let n = Unix.read fd p.buf p.len (Bytes.length p.buf - p.len) in
        if n = 0 then failwith "connection closed mid-response";
        p.len <- p.len + n;
        go ()
  in
  go ()
