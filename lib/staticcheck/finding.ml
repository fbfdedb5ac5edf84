(* A pmlint diagnostic: file:line-anchored, carrying the rule that fired.

   Findings are rendered to one canonical line each; that rendered line is
   also the baseline key (see {!Baseline}), so two findings are "the same"
   exactly when their file, line, rule and message coincide.  Columns are
   kept for display but excluded from the key — editors shift columns far
   more often than they shift the shape of a statement. *)

type rule =
  | R1  (* raw-mutation escape: state changed outside the Pmem API *)
  | R2  (* publish hygiene: commit/publish without a dominating clwb *)
  | R3  (* fence hygiene: redundant or unreachable fences *)
  | R4  (* site hygiene: Obs.Site registration and usage *)
  | R5  (* lazy hygiene: Lazy values shared across domains *)
  | Parse  (* the file could not be parsed at all *)

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | Parse -> "parse"

(* One-line rule summaries for --rules and the report header. *)
let rule_doc = function
  | R1 ->
      "raw mutation (<-, :=, Array.set, Atomic.*) bypassing the \
       Pmem.Words/Refs API; annotate [@pm.volatile] for deliberately \
       volatile state"
  | R2 ->
      "publication (Persist.commit*, sanitize_publish) with unflushed \
       stores in the same straight-line sequence; annotate [@pm.deferred] \
       for epoch/group-deferred paths"
  | R3 ->
      "fence hygiene: back-to-back sfence with no intervening clwb, or a \
       function that flushes but never fences"
  | R4 ->
      "site hygiene: Obs.Site tags must be registered exactly once, used, \
       and ?site arguments must resolve to registered sites"
  | R5 ->
      "lazy hygiene: Lazy.is_val, or a module-level lazy forced from a \
       function body; annotate [@@pm.lazy_safe \"why\"] on a binding that \
       is provably forced before any domain can race on it"
  | Parse -> "the file could not be parsed"

type t = { file : string; line : int; col : int; rule : rule; msg : string }

let v ~file ~loc rule msg =
  let p = loc.Location.loc_start in
  { file; line = p.Lexing.pos_lnum; col = p.pos_cnum - p.pos_bol; rule; msg }

(* The canonical (and baseline-key) rendering. *)
let render t = Printf.sprintf "%s:%d: [%s] %s" t.file t.line (rule_id t.rule) t.msg

(* Display rendering with the column, for humans/editors. *)
let render_loc t =
  Printf.sprintf "%s:%d:%d: [%s] %s" t.file t.line t.col (rule_id t.rule) t.msg

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (render a) (render b)
