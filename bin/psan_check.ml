(* PSan runner: exercise one index (optionally a deliberately buggy
   variant) under the persistency-ordering & domain-race sanitizer and
   report every diagnostic, exit status 1 if any fired.

     dune exec bin/psan_check.exe -- --index P-ART --ops 5000
     dune exec bin/psan_check.exe -- --index fastfair --bug root-flush
     dune exec bin/psan_check.exe -- --index cceh --bug doubling --threads 1

   A clean converted index must produce zero diagnostics; the reproduced §3
   bugs must produce site-attributed [unpersisted-publish] reports. *)

open Cmdliner

(* Insert/lookup/recover workload, [ops] keys split over [threads] domains
   on disjoint ranges.  Every substrate event runs under the sanitizer; the
   recovery pass exercises the post-crash read paths too. *)
let drive make ~ops ~threads ~races =
  Psan.enable ~races ();
  let s = make () in
  let per = max 1 (ops / threads) in
  let worker tid () =
    for i = 1 to per do
      let k = (tid * per) + i in
      ignore (s.Crashtest.insert k (k * 3) : bool);
      if i land 7 = 0 then ignore (s.Crashtest.lookup k : int option)
    done
  in
  if threads <= 1 then worker 0 ()
  else begin
    let ds = List.init threads (fun tid -> Domain.spawn (worker tid)) in
    List.iter
      (fun d ->
        Domain.join d;
        Pmem.sanitize_sync ())
      ds
  end;
  s.Crashtest.recover ();
  for k = 1 to min ops 256 do
    ignore (s.Crashtest.lookup k : int option)
  done;
  (match s.Crashtest.scan_all with Some f -> ignore (f () : (int * int) list) | None -> ());
  Psan.disable ();
  s.Crashtest.sname

let main index bug ops threads no_races =
  match Harness.Index.resolve index bug with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok entry ->
      let make = Harness.Index.subject entry in
      (* Bug reproductions default to one domain: the pending-set check is
         per-domain, so the unflushed-allocation bugs are only exposed when
         the allocating domain itself publishes — exactly the deterministic
         single-threaded §3 reproductions.  Multi-domain stays the default
         for clean-index runs (the race check needs it). *)
      let threads =
        match threads with Some t -> t | None -> if bug = None then 4 else 1
      in
      let name = drive make ~ops ~threads ~races:(not no_races) in
      let n = Psan.diagnostic_count () in
      if n = 0 then begin
        Printf.printf "psan: %s clean (%d ops, %d domain%s)\n" name ops threads
          (if threads = 1 then "" else "s");
        0
      end
      else begin
        Format.printf "psan: %s FAILED@.%t@." name Psan.print_report;
        1
      end

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
  let ops = Arg.(value & opt int 5_000 & info [ "ops" ] ~docv:"N") in
  let threads =
    Arg.(
      value
      & opt (some int) None
      & info [ "threads"; "t" ] ~docv:"T"
          ~doc:"Domains to run (default 4, or 1 when --bug is given).")
  in
  let no_races =
    Arg.(
      value & flag
      & info [ "no-races" ]
          ~doc:
            "Keep the persistency-ordering checks but disable the \
             cross-domain race check.")
  in
  Cmd.v
    (Cmd.info "psan_check"
       ~doc:"Run one index under the PSan sanitizer (RECIPE §4 conditions)")
    Term.(const main $ index $ bug $ ops $ threads $ no_races)

let () = exit (Cmd.eval' cmd)
