(* pmlint fixture: R5 lazy hygiene.  Parsed by the linter, never
   compiled. *)

let table = lazy (Array.make 64 0)

let get i = (Lazy.force table).(i)

let ready () = Lazy.is_val table

let calibration = lazy (Sys.time ())
[@@pm.lazy_safe "forced by [init] before any domain starts"]

let init () = ignore (Lazy.force calibration)

let at_startup = Lazy.force table

let local () =
  let l = lazy 3 in
  Lazy.force l
