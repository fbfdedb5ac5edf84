(* The first use of the 2PC decision table, raced from several domains.

   The table is built at first use, and the first coordinated transactions
   after a start claim their slots from every client domain at once.  A
   domain that finds the table still being built by another must wait for
   it, never use a half-built one.  This test must run in a fresh process,
   where nothing has built the table yet, so it is an executable of its
   own: [domains] domains wait at a barrier, then each makes the process's
   first [Decision.claim].  Every claim must return a distinct slot, and
   none may raise.  Exit 0 on success, 1 on failure. *)

let domains = 4

let () =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let claimers =
    List.init domains (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            match Recipe.Txn.Decision.claim ~tid:(i + 1) with
            | slot -> Ok slot
            | exception e -> Error (Printexc.to_string e)))
  in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let results = List.map Domain.join claimers in
  let slots =
    List.filter_map (function Ok (Some s) -> Some s | _ -> None) results
  in
  let errors =
    List.filter_map
      (function
        | Error e -> Some e
        | Ok None -> Some "no free slot"
        | Ok (Some _) -> None)
      results
  in
  List.iter (Printf.eprintf "decision race: claim failed: %s\n") errors;
  let distinct = List.length (List.sort_uniq compare slots) = domains in
  if not distinct then
    Printf.eprintf "decision race: slots not distinct: %s\n"
      (String.concat " " (List.map string_of_int slots));
  if errors = [] && distinct then print_endline "decision race: ok"
  else exit 1
