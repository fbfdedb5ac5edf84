(* Test and bench harness: the index registry, the compile-time interface
   conformance checks, the sanitizer switch for test executables, and the
   host-heap footprint probes. *)

module Index = Index
module Sanitize_env = Sanitize_env
module Footprint = Footprint

(* The P-ART projections under their pre-registry names, used only by
   benchmark/. *)
module Drivers = struct
  let art p t = Index.ordered_driver Art.name p (Index.art_ops t)
end

module Kvparts = struct
  let art () = Index.partition Index.art ()
end
