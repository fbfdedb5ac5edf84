(* Lightweight event trace: a fixed-capacity ring buffer per domain.

   Recording is off by default and costs one ref read when disabled.  When
   enabled, an event is a small record stamped with a global sequence number
   (atomic fetch-add — tracing trades some contention for a total order) and
   a monotonic-ns timestamp, written into the recording domain's ring (see
   {!Domring}: one ring per {!Slot}, so live domains never share one; each
   event carries its real domain id); the oldest events of a full ring are
   silently dropped, which bounds both memory and overhead.  [dump] merges
   all rings in sequence order, typically printed when a crash campaign
   fails; always print {!pp_header} (or check {!dropped}) alongside a dump
   so a truncated window is never read as the complete history. *)

type kind =
  | Op_begin (* label = op name, arg = key/universe index *)
  | Op_end
  | Crash_point (* armed pass through a crash point; label = site *)
  | Crash_fired (* crash injected; label = site *)
  | Recovery (* label = index *)
  | Llc_evict (* arg = evicted line id *)
  | Note

let kind_name = function
  | Op_begin -> "op_begin"
  | Op_end -> "op_end"
  | Crash_point -> "crash_point"
  | Crash_fired -> "crash_fired"
  | Recovery -> "recovery"
  | Llc_evict -> "llc_evict"
  | Note -> "note"

type event = {
  seq : int;
  ts : int; (* monotonic ns, comparable with Span stamps *)
  domain : int;
  kind : kind;
  label : string;
  arg : int;
}

let default_capacity = 1024 (* events per slot ring *)

let rings : event Domring.t =
  let cap =
    match Sys.getenv_opt "RECIPE_TRACE_CAP" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n > 0 -> n
        | _ -> default_capacity)
    | None -> default_capacity
  in
  Domring.create ~capacity:cap

let capacity () = Domring.capacity rings
let set_capacity n = Domring.set_capacity rings n
let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b
let seq = Atomic.make 0
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let record kind ?(arg = 0) label =
  if !enabled_flag then begin
    let did = (Domain.self () :> int) in
    let s = Atomic.fetch_and_add seq 1 in
    Domring.record rings { seq = s; ts = now_ns (); domain = did; kind; label; arg }
  end

(* Events dropped so far (ring overwrites): total recorded - retained. *)
let dropped () = Domring.dropped rings
let total () = Domring.total rings

let clear () =
  Domring.clear rings;
  Atomic.set seq 0

(** All retained events, oldest first. *)
let dump () =
  List.sort (fun a b -> compare a.seq b.seq) (Domring.dump rings)

(** The [n] most recent events, oldest first. *)
let recent n =
  let all = dump () in
  let len = List.length all in
  if len <= n then all else List.filteri (fun i _ -> i >= len - n) all

let pp_event ppf e =
  Fmt.pf ppf "#%-6d d%-2d %-12s %s%s" e.seq e.domain (kind_name e.kind) e.label
    (if e.arg = 0 then "" else Printf.sprintf " (%d)" e.arg)

(** One-line dump header: retained/dropped accounting for the window that a
    subsequent [dump]/[recent] print actually covers. *)
let pp_header ppf () =
  let tot = total () in
  let drop = dropped () in
  Fmt.pf ppf "trace: %d recorded, %d retained, %d dropped (capacity %d/slot)%s"
    tot (tot - drop) drop (capacity ())
    (if drop > 0 then " — window is INCOMPLETE" else "")
