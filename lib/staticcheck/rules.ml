(* The pmlint rule engine: a Parsetree walk per file.

   Everything here is *syntactic*.  The analysis unit is the top-level
   binding; within one, R2/R3 run a straight-line abstract interpretation
   over two booleans:

     pending     — "this sequence performed a persistent store that no
                    clwb has covered yet"
     fence_open  — "the last fence has seen no clwb since"

   Control-flow joins are deliberately asymmetric: [pending] joins with OR
   (a *possibly* unflushed store before a publication is worth a report —
   R2 is a safety rule), [fence_open] joins with AND (R3a is a redundancy
   smell, so we only report fences that are provably back-to-back on every
   path).  Calls to functions defined in the same file are summarized by a
   fixpoint over their syntactic effects, so the idiom of a local
   [persist_node]-style helper — flush everything, one fence — reads as
   the flush it is.

   Suppression is by attribute, checked on the expression and every
   enclosing expression / value binding:
     [@pm.volatile]  — R1: this mutation is deliberately volatile state;
     [@pm.deferred]  — R2/R3: the flush/fence for this site is carried by
                       the epoch/group machinery or by the caller.
   A floating [@@@pm.volatile] exempts a whole file from R1 (used by
   pure-DRAM shims). *)

open Parsetree

let volatile_attr = "pm.volatile"
let deferred_attr = "pm.deferred"

let has_attr name attrs =
  List.exists (fun (a : attribute) -> a.attr_name.txt = name) attrs

let split_longident lid =
  match Longident.flatten lid with
  | parts -> (
      match List.rev parts with
      | name :: revmods -> Some (List.rev revmods, name)
      | [] -> None)
  | exception _ -> None

let head_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> split_longident txt
  | _ -> None

(* Immediate sub-expressions of [e], in source order — the generic
   fallback for AST nodes the scanner has no special case for. *)
let immediate_children (e : expression) =
  let acc = ref [] in
  let collector =
    { Ast_iterator.default_iterator with expr = (fun _ x -> acc := x :: !acc) }
  in
  Ast_iterator.default_iterator.expr collector e;
  List.rev !acc

(* Every identifier occurrence under [e] (not just application heads:
   partially applied flushes and functions passed as values count too),
   paired with its location. *)
let idents_under iter_root =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> (
              match split_longident txt with
              | Some p -> acc := (p, loc) :: !acc
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter_root it;
  List.rev !acc

let idents_under_expr e = idents_under (fun it -> it.Ast_iterator.expr it e)

(* --- per-file statistics (EXPERIMENTS.md E24) ---------------------------- *)

type stats = {
  mutable s_functions : int;  (* top-level bindings analyzed *)
  mutable s_stores : int;  (* recognized persistent-store call sites *)
  mutable s_flushes : int;  (* recognized clwb-bearing call sites *)
  mutable s_fences : int;  (* recognized sfence-bearing call sites *)
  mutable s_publishes : int;  (* recognized publication call sites *)
  mutable s_mutations : int;  (* R1 catalog hits, flagged or exempt *)
  mutable s_sites : int;  (* Obs.Site registrations *)
}

let stats_zero () =
  {
    s_functions = 0;
    s_stores = 0;
    s_flushes = 0;
    s_fences = 0;
    s_publishes = 0;
    s_mutations = 0;
    s_sites = 0;
  }

(* --- context -------------------------------------------------------------- *)

type ctx = {
  file : string;
  scope : Scope.t;
  emit : Finding.t -> unit;
  carriers : (string, Names.effect_) Hashtbl.t;
  stats : stats;
}

let report ctx rule loc msg =
  ctx.emit (Finding.v ~file:ctx.file ~loc rule msg)

(* --- R2/R3: the straight-line scan ---------------------------------------- *)

type st = { pending : bool; fence_open : bool }

let st0 = { pending = false; fence_open = false }

let join a b =
  { pending = a.pending || b.pending; fence_open = a.fence_open && b.fence_open }

(* Resolve the effect of a call through an identifier: the primitive
   tables first, then same-file helper summaries for unqualified names. *)
let effect_of ctx ~mods ~name =
  let direct = Names.classify ~mods ~name in
  if Names.is_effect direct then direct
  else
    match (mods, Hashtbl.find_opt ctx.carriers name) with
    | [], Some s -> s
    | _ -> Names.no_effect

let apply_effect ctx ~exempt ~silent ~bare_sfence st eff loc =
  if not (Names.is_effect eff) then st
  else begin
    if not silent then begin
      if eff.Names.e_store then ctx.stats.s_stores <- ctx.stats.s_stores + 1;
      if eff.e_flush then ctx.stats.s_flushes <- ctx.stats.s_flushes + 1;
      if eff.e_fence then ctx.stats.s_fences <- ctx.stats.s_fences + 1;
      if eff.e_publish then ctx.stats.s_publishes <- ctx.stats.s_publishes + 1
    end;
    if eff.e_publish && st.pending && ctx.scope.r23 && not exempt then
      report ctx Finding.R2 loc
        "publication with unflushed stores in the same straight-line \
         sequence (missing dominating clwb); annotate [@pm.deferred] if the \
         flush is deferred to the epoch/group fence";
    if bare_sfence && st.fence_open && ctx.scope.r23 && not exempt then
      report ctx Finding.R3 loc
        "back-to-back sfence with no intervening clwb (redundant fence)";
    let st = if eff.e_flush then { pending = false; fence_open = false } else st in
    let st = if eff.e_store && not eff.e_flush then { st with pending = true } else st in
    let st = if eff.e_fence then { st with fence_open = true } else st in
    st
  end

let rec scan ctx ~exempt ~silent st (e : expression) =
  let exempt = exempt || has_attr deferred_attr e.pexp_attributes in
  let scan1 = scan ctx ~exempt ~silent in
  match e.pexp_desc with
  | Pexp_sequence (a, b) ->
      let st = scan1 st a in
      scan1 st b
  | Pexp_let (_, vbs, body) ->
      let st =
        List.fold_left
          (fun st vb ->
            let exempt =
              exempt || has_attr deferred_attr vb.pvb_attributes
            in
            match vb.pvb_expr.pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
                (* A local function *definition*: no effect at the binding;
                   its body is still checked, from a clean entry state. *)
                ignore (scan ctx ~exempt ~silent st0 vb.pvb_expr);
                st
            | _ -> scan ctx ~exempt ~silent st vb.pvb_expr)
          st vbs
      in
      scan1 st body
  | Pexp_ifthenelse (c, t, f) ->
      let st = scan1 st c in
      let a = scan1 st t in
      let b = match f with None -> st | Some f -> scan1 st f in
      join a b
  | Pexp_match (scr, cases) | Pexp_try (scr, cases) -> (
      let st = scan1 st scr in
      match cases with
      | [] -> st
      | cases ->
          let branch c =
            let st =
              match c.pc_guard with None -> st | Some g -> scan1 st g
            in
            scan1 st c.pc_rhs
          in
          let states = List.map branch cases in
          List.fold_left join (List.hd states) (List.tl states))
  | Pexp_while (c, b) ->
      let st = scan1 st c in
      let after = scan1 st b in
      join st after
  | Pexp_for (_, lo, hi, _, body) ->
      let st = scan1 st lo in
      let st = scan1 st hi in
      let after = scan1 st body in
      join st after
  | Pexp_fun (_, default, _, body) ->
      (* A lambda in expression position is almost always an argument to an
         iterator ([Array.iteri], [List.iter]) executed right here: inline
         its effects.  Lambdas *bound* to names are handled in Pexp_let. *)
      let st =
        match default with None -> st | Some d -> scan1 st d
      in
      scan1 st body
  | Pexp_function cases -> (
      match cases with
      | [] -> st
      | cases ->
          let states = List.map (fun c -> scan1 st c.pc_rhs) cases in
          List.fold_left join (List.hd states) (List.tl states))
  | Pexp_apply (fn, args) -> (
      let st =
        match fn.pexp_desc with
        | Pexp_ident _ -> st
        | _ -> scan1 st fn
      in
      let st = List.fold_left (fun st (_, a) -> scan1 st a) st args in
      match head_ident fn with
      | Some (mods, name) ->
          let eff = effect_of ctx ~mods ~name in
          let bare_sfence =
            Names.is_bare_sfence ~mods ~name
            && Names.is_effect (Names.classify ~mods ~name)
          in
          apply_effect ctx ~exempt ~silent ~bare_sfence st eff e.pexp_loc
      | None -> st)
  | _ -> List.fold_left scan1 st (immediate_children e)

(* --- helper summaries (same-file "carriers") ------------------------------ *)

(* Top-level bindings of the file that look like functions, with the
   syntactic effect union of everything they mention, closed transitively
   over same-file references. *)
let toplevel_bindings structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> Some (txt, vb)
              | _ -> None)
            vbs
      | _ -> [])
    structure

let build_carriers ctx structure =
  let fns = toplevel_bindings structure in
  let names = List.map fst fns in
  let direct = Hashtbl.create 32 in
  let deps = Hashtbl.create 32 in
  List.iter
    (fun (name, vb) ->
      let eff = ref Names.no_effect in
      let dep = ref [] in
      List.iter
        (fun ((mods, n), _loc) ->
          eff := Names.union !eff (Names.classify ~mods ~name:n);
          if mods = [] && List.mem n names && n <> name then dep := n :: !dep)
        (idents_under_expr vb.pvb_expr);
      Hashtbl.replace direct name !eff;
      Hashtbl.replace deps name !dep)
    fns;
  (* Fixpoint: effects flow through same-file calls. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun name ->
        let cur = Hashtbl.find direct name in
        let nxt =
          List.fold_left
            (fun acc d ->
              match Hashtbl.find_opt direct d with
              | Some e -> Names.union acc e
              | None -> acc)
            cur
            (Hashtbl.find deps name)
        in
        if nxt <> cur then begin
          Hashtbl.replace direct name nxt;
          changed := true
        end)
      names
  done;
  Hashtbl.iter (fun k v -> Hashtbl.replace ctx.carriers k v) direct;
  (* Second pass: a helper whose publication is internally dominated by its
     own flush must not re-trigger R2 at every call site.  Probe each
     publishing helper by scanning its body silently from pending=true and
     from pending=false: if the entry state makes no difference, the
     publish is internally guarded — drop e_publish from its summary. *)
  List.iter
    (fun (name, vb) ->
      match Hashtbl.find_opt ctx.carriers name with
      | Some eff when eff.Names.e_publish ->
          let count_r2 entry =
            let n = ref 0 in
            let probe_ctx =
              {
                ctx with
                emit =
                  (fun f -> if f.Finding.rule = Finding.R2 then incr n);
                scope = Scope.all;
              }
            in
            ignore (scan probe_ctx ~exempt:false ~silent:true entry vb.pvb_expr);
            !n
          in
          let exposed =
            count_r2 { pending = true; fence_open = false }
            > count_r2 { pending = false; fence_open = false }
          in
          if not exposed then
            Hashtbl.replace ctx.carriers name
              { eff with Names.e_publish = false }
      | _ -> ())
    fns

(* --- R3b: clwb with no reachable sfence in the function ------------------- *)

let check_unfenced_flush ctx (name, vb) =
  ignore name;
  if ctx.scope.r23 && not (has_attr deferred_attr vb.pvb_attributes) then
    let idents = idents_under_expr vb.pvb_expr in
    let eff =
      List.fold_left
        (fun acc ((mods, n), _) ->
          let e = effect_of ctx ~mods ~name:n in
          Names.union acc e)
        Names.no_effect idents
    in
    if eff.Names.e_flush && not eff.e_fence then
      let first_flush =
        List.find_opt
          (fun ((mods, n), _) ->
            (Names.classify ~mods ~name:n).Names.e_flush)
          idents
      in
      match first_flush with
      | Some (_, loc) ->
          report ctx Finding.R3 loc
            "clwb with no reachable sfence in this function; annotate \
             [@pm.deferred] if the fence is the caller's or the epoch's"
      | None -> ()

(* --- R1: raw-mutation escape ---------------------------------------------- *)

(* Names let-bound (anywhere inside [root]) to a locally allocated ref,
   array or atomic: mutating those cannot touch simulated PM, which only
   hands out Words/Refs. *)
let local_volatiles iter_root =
  let acc = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
          | Ppat_var { txt; _ }, Pexp_apply (fn, _) -> (
              match head_ident fn with
              | Some (mods, name) when Names.local_maker ~mods ~name ->
                  Hashtbl.replace acc txt ()
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  iter_root it;
  acc

let rec r1_walk ctx locals ~exempt (e : expression) =
  let exempt = exempt || has_attr volatile_attr e.pexp_attributes in
  let walk = r1_walk ctx locals ~exempt in
  match e.pexp_desc with
  | Pexp_setfield (lhs, _, rhs) ->
      ctx.stats.s_mutations <- ctx.stats.s_mutations + 1;
      if not exempt then
        report ctx Finding.R1 e.pexp_loc
          "record field mutation (<-) bypasses the Pmem.Words/Refs API; \
           annotate [@pm.volatile] if this state is deliberately volatile";
      walk lhs;
      walk rhs
  | Pexp_apply (fn, args) ->
      (match head_ident fn with
      | Some (mods, name) -> (
          match Names.mutation_of ~mods ~name with
          | Some kind ->
              ctx.stats.s_mutations <- ctx.stats.s_mutations + 1;
              let target_is_local =
                match args with
                | ( _,
                    {
                      pexp_desc = Pexp_ident { txt = Longident.Lident x; _ };
                      _;
                    } )
                  :: _ ->
                    Hashtbl.mem locals x
                | _ -> false
              in
              if (not exempt) && not target_is_local then
                report ctx Finding.R1 e.pexp_loc
                  (Printf.sprintf
                     "raw %s bypasses the Pmem.Words/Refs API; annotate \
                      [@pm.volatile] if this state is deliberately volatile"
                     (Names.mutation_doc kind))
          | None -> ())
      | None -> ());
      walk fn;
      List.iter (fun (_, a) -> walk a) args
  | Pexp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          r1_walk ctx locals
            ~exempt:(exempt || has_attr volatile_attr vb.pvb_attributes)
            vb.pvb_expr)
        vbs;
      walk body
  | _ -> List.iter walk (immediate_children e)

(* --- R4: site hygiene ------------------------------------------------------ *)

type site_def = {
  sd_name : string;  (* the bound variable *)
  sd_tag : string option;  (* "index/label" when statically resolvable *)
  sd_loc : Location.t;
  sd_file : string;
}

let is_site_v path =
  match List.rev path with "v" :: "Site" :: _ -> true | _ -> false

let string_lit (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* R4 state gathered in one pass over the file. *)
type r4_env = {
  mutable str_env : (string * string) list;  (* top-level string constants *)
  mutable creators : (string * string option) list;  (* partial Site.v apps *)
  mutable wrapped : string list;
      (* [let o = Some s] of a registered site [s]: the same site, pre-wrapped
         so an optional [?site] argument allocates no [Some] per call *)
  mutable defs : site_def list;
  uses : (string, int) Hashtbl.t;
}

let resolve_index env (e : expression) =
  match string_lit e with
  | Some s -> Some s
  | None -> (
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } ->
          List.assoc_opt x env.str_env
      | _ -> None)

(* Classify a top-level RHS as a site registration / creator, if it is one. *)
let classify_site_rhs env (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (fn, args) -> (
      match head_ident fn with
      | Some (path, name) when is_site_v (path @ [ name ]) ->
          let index =
            List.fold_left
              (fun acc (lbl, a) ->
                match lbl with
                | Asttypes.Labelled "index" -> resolve_index env a
                | _ -> acc)
              None args
          in
          let label =
            List.fold_left
              (fun acc (lbl, a) ->
                match (lbl, string_lit a) with
                | Asttypes.Nolabel, Some s -> Some s
                | _ -> acc)
              None args
          in
          Some (index, label)
      | Some ([], c) -> (
          match List.assoc_opt c env.creators with
          | Some index ->
              let label =
                List.fold_left
                  (fun acc (lbl, a) ->
                    match (lbl, string_lit a) with
                    | Asttypes.Nolabel, Some s -> Some s
                    | _ -> acc)
                  None args
              in
              Some (index, label)
          | None -> None)
      | _ -> None)
  | _ -> None

let r4_analyze ctx structure =
  if not ctx.scope.r4 then []
  else begin
    let env =
      {
        str_env = [];
        creators = [];
        wrapped = [];
        defs = [];
        uses = Hashtbl.create 64;
      }
    in
    (* Pass 1: top-level environment, in order. *)
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = x; loc = _ } -> (
                    match string_lit vb.pvb_expr with
                    | Some s -> env.str_env <- (x, s) :: env.str_env
                    | None -> (
                        match classify_site_rhs env vb.pvb_expr with
                        | Some (index, Some label) ->
                            ctx.stats.s_sites <- ctx.stats.s_sites + 1;
                            env.defs <-
                              {
                                sd_name = x;
                                sd_tag =
                                  Option.map
                                    (fun i -> i ^ "/" ^ label)
                                    index;
                                sd_loc = vb.pvb_loc;
                                sd_file = ctx.file;
                              }
                              :: env.defs
                        | Some (index, None) ->
                            (* Partial application: a per-index creator. *)
                            env.creators <- (x, index) :: env.creators
                        | None -> (
                            match vb.pvb_expr.pexp_desc with
                            | Pexp_construct
                                ( { txt = Longident.Lident "Some"; _ },
                                  Some
                                    {
                                      pexp_desc =
                                        Pexp_ident { txt = Longident.Lident s; _ };
                                      _;
                                    } )
                              when List.exists (fun d -> d.sd_name = s) env.defs
                              ->
                                env.wrapped <- x :: env.wrapped
                            | _ -> ())))
                | _ -> ())
              vbs
        | _ -> ())
      structure;
    let site_names =
      List.map (fun d -> d.sd_name) env.defs
      @ List.map fst env.creators
      @ env.wrapped
    in
    let toplevel_names =
      List.concat_map
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.filter_map
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } -> Some txt
                  | _ -> None)
                vbs
          | _ -> [])
        structure
    in
    (* Pass 2: uses, ~site: arguments, and Site.v calls in function bodies. *)
    let count_use x =
      Hashtbl.replace env.uses x
        (1 + Option.value ~default:0 (Hashtbl.find_opt env.uses x))
    in
    let check_site_arg (a : expression) =
      let check_name x loc =
        if
          x <> "site"
          && (not (List.mem x site_names))
          && List.mem x toplevel_names
        then
          report ctx Finding.R4 loc
            (Printf.sprintf
               "?site argument %s does not resolve to a registered Obs.Site \
                in this file"
               x)
      in
      match a.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; loc } -> check_name x loc
      | Pexp_construct
          ( { txt = Longident.Lident "Some"; _ },
            Some { pexp_desc = Pexp_ident { txt = Longident.Lident x; loc }; _ }
          ) ->
          check_name x loc
      | _ -> ()
    in
    let rec walk ~in_fun (e : expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> count_use x
      | _ -> ());
      match e.pexp_desc with
      | Pexp_apply (fn, args) ->
          (match head_ident fn with
          | Some (path, name) when is_site_v (path @ [ name ]) && in_fun ->
              report ctx Finding.R4 e.pexp_loc
                "Obs.Site.v inside a function body re-registers its tag on \
                 every call (and raises); register at module init or use \
                 Obs.Site.find_or_create"
          | _ -> ());
          List.iter
            (fun (lbl, a) ->
              (match lbl with
              | Asttypes.Labelled "site" | Asttypes.Optional "site" ->
                  check_site_arg a
              | _ -> ());
              walk ~in_fun a)
            args;
          walk ~in_fun fn
      | Pexp_fun (_, default, _, body) ->
          Option.iter (walk ~in_fun) default;
          walk ~in_fun:true body
      | Pexp_function cases ->
          List.iter
            (fun c ->
              Option.iter (walk ~in_fun) c.pc_guard;
              walk ~in_fun:true c.pc_rhs)
            cases
      | _ -> List.iter (walk ~in_fun) (immediate_children e)
    in
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter (fun vb -> walk ~in_fun:false vb.pvb_expr) vbs
        | _ ->
            (* expressions elsewhere (Pstr_eval etc.) *)
            let it =
              {
                Ast_iterator.default_iterator with
                expr = (fun _ e -> walk ~in_fun:false e);
              }
            in
            Ast_iterator.default_iterator.structure_item it item)
      structure;
    (* The definition site of a creator counts itself (its RHS mentions
       [Obs.Site.v], not the bound name), so a use count of 0 really means
       "registered and never passed anywhere". *)
    List.iter
      (fun d ->
        match Hashtbl.find_opt env.uses d.sd_name with
        | Some n when n > 0 -> ()
        | _ ->
            report ctx Finding.R4 d.sd_loc
              (Printf.sprintf
                 "site %s%s is registered but never used in this file"
                 d.sd_name
                 (match d.sd_tag with
                 | Some t -> Printf.sprintf " (tag %S)" t
                 | None -> "")))
      env.defs;
    env.defs
  end

(* --- R5: lazy hygiene ------------------------------------------------------

   OCaml 5's [Lazy] is not domain-safe.  [Lazy.is_val] is also true while
   another domain is still forcing the value, and forcing a lazy that
   another domain is forcing raises [CamlinternalLazy.Undefined].  So every
   [Lazy.is_val] is flagged, and so is every [Lazy.force] of a module-level
   [lazy] binding from inside a function body, where any domain may run
   it.  A binding that is provably forced before any race says why:
   [let x = lazy ... [@@pm.lazy_safe "reason"]]. *)

let lazy_safe_attr = "pm.lazy_safe"

let rec is_lazy (e : expression) =
  match e.pexp_desc with
  | Pexp_lazy _ -> true
  | Pexp_constraint (e, _) -> is_lazy e
  | _ -> false

(* Module-level lazy bindings with no [pm.lazy_safe] reason. *)
let unsafe_lazies structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ }
              | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _)
                when is_lazy vb.pvb_expr
                     && not (has_attr lazy_safe_attr vb.pvb_attributes) ->
                  Some txt
              | _ -> None)
            vbs
      | _ -> [])
    structure

let r5_check ctx structure =
  let lazies = unsafe_lazies structure in
  let in_fun = ref 0 in
  let default = Ast_iterator.default_iterator in
  let expr self (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc }
      when split_longident txt = Some ([ "Lazy" ], "is_val") ->
        report ctx Finding.R5 loc
          "Lazy.is_val is also true while another domain is still forcing \
           the value; publish the finished value through an Atomic instead"
    | Pexp_apply (f, [ (_, { pexp_desc = Pexp_ident { txt = Lident x; _ }; _ }) ])
      when !in_fun > 0 && List.mem x lazies -> (
        match head_ident f with
        | Some ([ "Lazy" ], ("force" | "force_val")) ->
            report ctx Finding.R5 e.pexp_loc
              (Printf.sprintf
                 "module-level lazy %s forced from a function body: two \
                  domains forcing it at once raise \
                  CamlinternalLazy.Undefined; force it at initialisation, \
                  hold it in an Atomic, or annotate [@@pm.lazy_safe \"why\"]"
                 x)
        | _ -> ())
    | _ -> ());
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
        incr in_fun;
        default.expr self e;
        decr in_fun
    | _ -> default.expr self e
  in
  let it = { default with expr } in
  it.structure it structure

(* --- file entry point ------------------------------------------------------ *)

let lint_structure ~file ~scope ~emit structure =
  let ctx =
    { file; scope; emit; carriers = Hashtbl.create 32; stats = stats_zero () }
  in
  let file_volatile =
    List.exists
      (fun item ->
        match item.pstr_desc with
        | Pstr_attribute a -> a.attr_name.txt = volatile_attr
        | _ -> false)
      structure
  in
  build_carriers ctx structure;
  let bindings = toplevel_bindings structure in
  List.iter
    (fun (name, vb) ->
      ctx.stats.s_functions <- ctx.stats.s_functions + 1;
      let exempt = has_attr deferred_attr vb.pvb_attributes in
      if ctx.scope.r23 then
        ignore (scan ctx ~exempt ~silent:false st0 vb.pvb_expr);
      check_unfenced_flush ctx (name, vb);
      if ctx.scope.r1 && not file_volatile then begin
        let locals =
          local_volatiles (fun it -> it.Ast_iterator.value_binding it vb)
        in
        r1_walk ctx locals
          ~exempt:(has_attr volatile_attr vb.pvb_attributes)
          vb.pvb_expr
      end)
    bindings;
  if ctx.scope.r4 then r5_check ctx structure;
  let defs = r4_analyze ctx structure in
  (defs, ctx.stats)

(* Cross-file R4: each resolved tag is registered exactly once. *)
let check_duplicate_tags ~emit (defs : site_def list) =
  let by_tag = Hashtbl.create 64 in
  List.iter
    (fun d ->
      match d.sd_tag with
      | Some t ->
          Hashtbl.replace by_tag t (d :: Option.value ~default:[] (Hashtbl.find_opt by_tag t))
      | None -> ())
    defs;
  Hashtbl.iter
    (fun tag ds ->
      match
        List.sort
          (fun a b ->
            let c = String.compare a.sd_file b.sd_file in
            if c <> 0 then c
            else
              Int.compare a.sd_loc.loc_start.pos_lnum
                b.sd_loc.loc_start.pos_lnum)
          ds
      with
      | first :: (_ :: _ as rest) ->
          List.iter
            (fun d ->
              emit
                (Finding.v ~file:d.sd_file ~loc:d.sd_loc Finding.R4
                   (Printf.sprintf
                      "duplicate registration of site tag %S (first \
                       registered at %s:%d)"
                      tag first.sd_file first.sd_loc.loc_start.pos_lnum)))
            rest
      | _ -> ())
    by_tag
