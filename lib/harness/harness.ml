(* Test and bench harness: the index registry, the compile-time interface
   conformance checks, and the sanitizer switch for test executables. *)

module Index = Index
module Sanitize_env = Sanitize_env

(* The P-ART projections under their pre-registry names, used only by
   benchmark/. *)
module Drivers = struct
  let art p t = Index.ordered_driver Art.name p (Index.art_ops t)
end

module Kvparts = struct
  let art () = Index.partition Index.art ()
end
