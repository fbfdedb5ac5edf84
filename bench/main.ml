(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§7).  Run with no arguments for a scaled-down pass over all
   experiments, or name specific ones:

     dune exec bench/main.exe -- fig4a fig5 --keys 1000000 --threads 8

   The experiments are listed in [experiments] below and by --help (see
   DESIGN.md's experiment index). *)

open Cmdliner

let experiments =
  [
    ("fig4a", fun cfg -> Experiments.fig4 cfg Ycsb.Randint);
    ("fig4b", fun cfg -> Experiments.fig4 cfg Ycsb.Strkey);
    ("fig4c", fun _ -> Experiments.fig4c ());
    ("fig4d", fun _ -> Experiments.fig4d ());
    ("fig5", Experiments.fig5);
    ("table4", fun _ -> Experiments.table4 ());
    ("woart", Experiments.woart_comparison);
    ("crash", Experiments.crash_campaign);
    ("durability", fun _ -> Experiments.durability ());
    ("taxonomy", fun _ -> Experiments.taxonomy ());
    ("micro", fun _ -> Experiments.micro ());
    ("micro-pmem", Experiments.micro_pmem);
    ("ablation", Experiments.ablation);
    ("single", Experiments.single_thread_hash);
    ("overhead", Experiments.conversion_overhead);
    ("recovery", Experiments.recovery_time);
    ("zipf", Experiments.zipfian);
    ("latency", Experiments.latency);
    ("serve", Experiments.serve);
    ("txn", Experiments.txn);
  ]

let names = String.concat " " (List.map fst experiments)

let main todo keys ops threads states seed =
  match List.filter (fun n -> not (List.mem_assoc n experiments)) todo with
  | bad :: _ ->
      Printf.eprintf "unknown experiment %S (one of: %s)\n" bad names;
      1
  | [] ->
      let cfg =
        { Experiments.nloaded = keys; nops = ops; threads; states; seed }
      in
      Printf.printf
        "RECIPE reproduction benchmarks — keys=%d ops=%d threads=%d states=%d \
         seed=%d\n"
        keys ops threads states seed;
      Printf.printf
        "(paper setup: 64M keys, 16 threads on Optane DC PMM; scale with \
         --keys/--ops/--threads)\n";
      let todo = if todo = [] then List.map fst experiments else todo in
      List.iter (fun n -> (List.assoc n experiments) cfg) todo;
      0

let experiments_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:("Experiments to run (default: all). One of: " ^ names ^ "."))

let keys_arg =
  Arg.(
    value & opt int 100_000
    & info [ "keys" ] ~docv:"N"
        ~doc:"Keys loaded before each measured run (paper: 64M).")

let ops_arg =
  Arg.(
    value & opt int 100_000
    & info [ "ops" ] ~docv:"N" ~doc:"Operations per measured run (paper: 64M).")

let threads_arg =
  Arg.(
    value & opt int 4
    & info [ "threads" ] ~docv:"N" ~doc:"Worker domains (paper: 16 threads).")

let states_arg =
  Arg.(
    value & opt int 50
    & info [ "states" ] ~docv:"N"
        ~doc:"Crash states per index in the crash campaign (paper: 10K).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let cmd =
  let doc = "Regenerate the tables and figures of the RECIPE paper (SOSP '19)" in
  Cmd.v
    (Cmd.info "recipe-bench" ~doc)
    Term.(
      const main $ experiments_arg $ keys_arg $ ops_arg $ threads_arg
      $ states_arg $ seed_arg)

let () = exit (Cmd.eval' cmd)
