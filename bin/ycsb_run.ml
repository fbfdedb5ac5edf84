(* Run one YCSB workload against one index and print the measurement.

     dune exec bin/ycsb_run.exe -- --index P-ART --workload a --keys 100000

   [--index] takes any name or alias of {!Harness.Index.all},
   case-insensitively. *)

open Cmdliner

(* [--shards N]: route every operation through the sharded KV service
   instead of calling the index directly — each YCSB thread becomes a
   closed-loop client of the epoch-persist router, so concurrent clients'
   writes coalesce into shared epoch fences.  Returns the server so the
   caller can stop it after the measurement. *)
let build_served_driver p entry ~shards ~batch =
  let parts = Array.init shards (fun _ -> Harness.Index.partition entry ()) in
  let cfg =
    {
      Kvserve.Server.shards;
      batch;
      queue_cap = max 256 batch;
      mode =
        (if batch > 1 then Kvserve.Server.default_config.mode
         else Kvserve.Server.Per_op);
    }
  in
  let srv = Kvserve.Server.start cfg parts in
  let submit1 i op =
    let resp = Kvserve.Server.submit srv { Kvserve.Wire.rid = i; ops = [ op ] } in
    match (resp.Kvserve.Wire.status, resp.Kvserve.Wire.replies) with
    | Kvserve.Wire.Ok, [ r ] -> Some r
    | _ -> None
  in
  let scan =
    if parts.(0).Kvserve.Server.p_scan = None then None
    else
      Some
        (fun i len ->
          match submit1 i (Kvserve.Wire.Scan (Ycsb.key_string p i, len)) with
          | Some (Kvserve.Wire.Scanned items) -> List.length items
          | _ -> 0)
  in
  ( srv,
    {
      Ycsb.dname =
        Printf.sprintf "%s/serve(%dx%d)" entry.Harness.Index.name shards batch;
      insert =
        (fun i -> ignore (submit1 i (Kvserve.Wire.Put (Ycsb.key_string p i, i))));
      read =
        (fun i ->
          match submit1 i (Kvserve.Wire.Get (Ycsb.key_string p i)) with
          | Some (Kvserve.Wire.Found _) -> true
          | _ -> false);
      scan;
    } )

let main index workload keys ops threads strkeys seed shards batch sanitize
    trace_out =
  match (Ycsb.workload_of_string workload, Harness.Index.find index) with
  | None, _ ->
      Printf.eprintf "unknown workload %S (loada|a|b|c|e)\n" workload;
      1
  | _, None ->
      Printf.eprintf "unknown index %S (one of: %s)\n" index
        (Harness.Index.names ());
      1
  | Some w, Some entry -> (
      let kind = if strkeys then Ycsb.Strkey else Ycsb.Randint in
      let p =
        Ycsb.prepare ~workload:w ~kind ~nloaded:keys ~nops:ops ~threads ~seed ()
      in
      match
        if shards > 0 then
          let srv, d = build_served_driver p entry ~shards ~batch in
          (Some srv, d)
        else (None, Harness.Index.driver entry p)
      with
      | srv, d ->
          if trace_out <> None then begin
            Obs.Span.set_enabled true;
            Obs.Trace.set_enabled true
          end;
          if sanitize then Psan.enable ();
          let loadres = Ycsb.load p d in
          Format.printf "load: %a@." Ycsb.pp_result loadres;
          if w <> Ycsb.Load_a then begin
            match Ycsb.run p d with
            | r -> Format.printf "run:  %a@." Ycsb.pp_result r
            | exception Ycsb.Scan_unsupported dname ->
                Printf.printf
                  "run:  skipped — %s is unordered and does not support \
                   range scans (workload E)\n"
                  dname
          end;
          Option.iter Kvserve.Server.stop srv;
          Option.iter
            (fun file ->
              Obs.Traceview.write_file file;
              Printf.printf "ycsb_run: wrote trace-event JSON to %s (spans \
                             only in --shards mode)\n%!"
                file)
            trace_out;
          if sanitize then begin
            Psan.disable ();
            let n = Psan.diagnostic_count () in
            if n = 0 then begin
              print_endline "psan: no diagnostics";
              0
            end
            else begin
              Format.printf "%t@." Psan.print_report;
              1
            end
          end
          else 0)

let cmd =
  let index =
    Arg.(value & opt string "P-ART" & info [ "index"; "i" ] ~docv:"INDEX")
  in
  let workload =
    Arg.(value & opt string "a" & info [ "workload"; "w" ] ~docv:"WORKLOAD")
  in
  let keys = Arg.(value & opt int 100_000 & info [ "keys" ] ~docv:"N") in
  let ops = Arg.(value & opt int 100_000 & info [ "ops" ] ~docv:"N") in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N") in
  let strkeys = Arg.(value & flag & info [ "string-keys" ]) in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Route operations through the sharded KV service with $(docv) \
             shards instead of calling the index directly (0: direct).")
  in
  let batch =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Batch size for --shards mode, served in the default epoch mode \
             (1: per-op flush+fence).")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Run the whole workload under the PSan sanitizer and report its \
             diagnostics; exit 1 if any fired.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Enable request spans + event tracing and write a Chrome \
             trace-event JSON file after the run (load it in \
             chrome://tracing or ui.perfetto.dev).")
  in
  Cmd.v
    (Cmd.info "ycsb_run" ~doc:"Run one YCSB workload against one index")
    Term.(
      const main $ index $ workload $ keys $ ops $ threads $ strkeys $ seed
      $ shards $ batch $ sanitize $ trace_out)

let () = exit (Cmd.eval' cmd)
