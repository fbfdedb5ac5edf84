(* Per-domain slots: the one map from a live domain to a dense index.

   Every per-domain table (counter and histogram shards, trace and span
   rings, the sanitizer's per-domain cells) is a fixed [max_domains]-entry
   array indexed by the calling domain's slot, so the hot path writes
   domain-private memory with no lock.  A domain takes an index from a
   mutex-guarded free list on first use, caches it in [Domain.DLS], and
   returns it from [Domain.at_exit] (which runs before [Domain.join]
   returns).  The runtime allows [max_domains] live domains, so a live
   domain always finds a free index; acquisition raises rather than share.

   A freed index's next occupant inherits what the dead one accumulated:
   sums stay exact because the free-list mutex orders the old occupant's
   last write before the new occupant's first, and ring events carry their
   real domain id.  A domain must not touch slot-indexed state from an
   [at_exit] callback registered before its first [get]: those run after
   the release. *)

let max_domains = 128
let mu = Mutex.create ()

(* Free indices; a released index goes back on top, so domains spawned
   and joined one after another all reuse one slot. *)
let free = ref (List.init max_domains Fun.id)

let key =
  Domain.DLS.new_key (fun () ->
      let s =
        Mutex.protect mu (fun () ->
            match !free with
            | [] -> failwith "Obs.Slot: more than max_domains live domains"
            | s :: rest ->
                free := rest;
                s)
      in
      Domain.at_exit (fun () -> Mutex.protect mu (fun () -> free := s :: !free));
      s)

(* The calling domain's slot, in [0, max_domains). *)
let[@inline] get () = Domain.DLS.get key
