(* Which rules apply to which file.

   The rule catalog is not uniform over the tree: R1 (raw-mutation escape)
   only makes sense where state is supposed to live in simulated PM — the
   nine index libraries and [lib/recipe]; [lib/kvserve] is deliberately
   full of volatile queues and rings, and [lib/pmem] *implements* the
   primitives the rules reason about.  R2/R3 (publish/fence hygiene) add
   kvserve, whose batch executor issues flushes and fences of its own.
   R4 (site hygiene) is global: every lib registers attribution sites.
   R5 (lazy hygiene) runs wherever R4 does: any lib may run on several
   domains. *)

type t = { r1 : bool; r23 : bool; r4 : bool }

let none = { r1 = false; r23 = false; r4 = false }
let all = { r1 = true; r23 = true; r4 = true }

(* The nine paper indexes. *)
let index_libs =
  [
    "art"; "bwtree"; "cceh"; "clht"; "fastfair"; "hot"; "levelhash";
    "masstree"; "woart";
  ]

let r1_libs = index_libs @ [ "recipe" ]
let r23_libs = r1_libs @ [ "kvserve" ]

(* The library owning [file]: the path component following the last "lib". *)
let lib_of_path file =
  let parts = String.split_on_char '/' file in
  let rec after_lib = function
    | "lib" :: l :: _ -> Some l
    | _ :: rest -> after_lib rest
    | [] -> None
  in
  after_lib parts

let of_path file =
  match lib_of_path file with
  | None -> none
  | Some l ->
      {
        r1 = List.mem l r1_libs;
        r23 = List.mem l r23_libs;
        r4 = true;
      }
