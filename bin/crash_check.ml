(* Crash-recovery checker: run the §5 consistency campaign and durability
   test against one index (optionally a deliberately buggy variant).

     dune exec bin/crash_check.exe -- --index P-ART --states 100
     dune exec bin/crash_check.exe -- --index fastfair --bug split-order *)

open Cmdliner

(* Crash-point coverage over the campaign just run: for every index whose
   declared crash sites were reached while armed, how many of them actually
   had a crash injected (and which never fired).  Sites register at module
   init for all linked indexes; only the subject under test gets visits, so
   the report stays focused on it (WOART's points surface as P-ART's — it
   delegates every persist). *)
let print_coverage () =
  print_endline "crash-point coverage:";
  let any = ref false in
  List.iter
    (fun idx ->
      let c = Obs.Site.coverage idx in
      if c.Obs.Site.registered > 0 && c.Obs.Site.visited > 0 then begin
        any := true;
        Printf.printf
          "  %-12s %d/%d declared points exercised (%d visited while armed)\n"
          c.Obs.Site.cov_index c.Obs.Site.exercised c.Obs.Site.registered
          c.Obs.Site.visited;
        if c.Obs.Site.unexercised <> [] then
          Printf.printf "    never fired: %s\n"
            (String.concat ", " c.Obs.Site.unexercised)
      end)
    (Obs.Site.indexes ());
  if not !any then
    print_endline "  (no declared crash point was reached while armed)"

let failed r =
  Crashtest.(r.lost_keys > 0 || r.wrong_values > 0 || r.stalled > 0)

let dump_trace () =
  Format.printf "%a@." Obs.Trace.pp_header ();
  let recent = Obs.Trace.recent 64 in
  Printf.printf "last %d events:\n" (List.length recent);
  List.iter (fun e -> Format.printf "  %a@." Obs.Trace.pp_event e) recent

let main index bug states sweep faults load seed trace =
  match Harness.Index.resolve index bug with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok entry ->
      let make = Harness.Index.subject entry in
      if trace then Obs.Trace.set_enabled true;
      let bad =
        if sweep then begin
          let r =
            Crashtest.sweep ~make ~points:(states * 100) ~stride:1 ~load ()
          in
          Format.printf "sweep: %a@." Crashtest.pp_report r;
          failed r
        end
        else if faults then begin
          let r =
            Crashtest.recovery_under_load_campaign ~make ~states ~load
              ~ops:load ~threads:4 ~seed ~faults:true
              ~crash_during_recovery:true ()
          in
          Format.printf "faults: %a@." Crashtest.pp_load_report r;
          failed r.Crashtest.base
        end
        else begin
          let r =
            Crashtest.consistency_campaign ~make ~states ~load ~ops:load
              ~threads:4 ~seed ()
          in
          Format.printf "campaign: %a@." Crashtest.pp_report r;
          failed r
        end
      in
      print_coverage ();
      if trace && bad then dump_trace ();
      let v = Crashtest.durability_test ~make ~inserts:1_000 ~seed () in
      Printf.printf "durability violations: %d -> %s\n" v
        (if v = 0 then "PASS" else "FAIL");
      0

let cmd =
  let index =
    Arg.(value & opt string "P-ART" & info [ "index"; "i" ] ~docv:"INDEX")
  in
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"BUG"
          ~doc:
            "Enable a reproduced paper bug: highkey | split-order | \
             root-flush (FAST&FAIR), doubling (CCEH).")
  in
  let states = Arg.(value & opt int 100 & info [ "states" ] ~docv:"N") in
  let sweep =
    Arg.(value & flag & info [ "sweep" ] ~doc:"Deterministic crash-point sweep")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Recovery-under-load campaign with fault injection: crash a \
             multi-domain run at arbitrary substrate events (flush, fence, \
             store, allocation, torn line), crash recovery itself, and \
             verify zero lost acknowledged operations plus the leak sweep.")
  in
  let load = Arg.(value & opt int 400 & info [ "load" ] ~docv:"N") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record the event trace ring during the campaign and dump the \
             most recent events if it fails.")
  in
  Cmd.v
    (Cmd.info "crash_check" ~doc:"Crash-recovery testing for one index (§5)")
    Term.(
      const main $ index $ bug $ states $ sweep $ faults $ load $ seed $ trace)

let () = exit (Cmd.eval' cmd)
