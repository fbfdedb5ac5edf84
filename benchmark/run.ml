(* The repository benchmark: one command for every performance claim.

     dune exec benchmark/run.exe -- --seed 42 --runs 5 --out results.json
     dune exec benchmark/run.exe -- --seed 42 --runs 5 --traced
     dune exec benchmark/run.exe -- --workload serve-txn --seed 7 --seconds 10 --trace 0

   With [--workload] it runs that one workload in this process and prints,
   as its last line, the result: correctness, operations attempted and
   failed, and every metric BENCHMARK.json declares — the end-to-end ones
   ([--trace 0]) or the per-layer ones ([--trace 1]).  Without it, it runs
   every workload [--runs] times, each in a fresh child process, prints
   each end-to-end metric's median and quartiles over the runs, and with
   [--traced] adds one traced run per workload (per-layer metrics and a
   Perfetto trace).  See benchmark/README.md. *)

open Benchmark
module J = Obs.Json

let workloads =
  [
    (W_ycsb.name, W_ycsb.run);
    (W_tcp.name, W_tcp.run);
    (W_serve.name W_serve.Overwrite, W_serve.run W_serve.Overwrite);
    (W_serve.name W_serve.Txn, W_serve.run W_serve.Txn);
  ]

(* Exit codes: 0 correct run; 1 a reply contradicted the model or the
   metric set disagrees with BENCHMARK.json; 2 usage; 3 an invalid run
   (a miscalibrated PM charge, a colliding counter slot, an overloaded
   open-loop generator) — no result is printed for it. *)

let child ~spec_path ~name ~seed ~seconds ~trace ~smoke ~trace_dir =
  let spec = Report.load_spec spec_path in
  let run =
    match List.assoc_opt name workloads with
    | Some r -> r
    | None ->
        Printf.eprintf "unknown workload %s (have: %s)\n" name
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let ctx = { Common.seed; seconds; trace; smoke; trace_dir } in
  match run ctx with
  | exception Common.Invalid_run msg ->
      Printf.printf "%s: invalid run: %s\n%!" name msg;
      exit 3
  | tl, metrics, detail ->
      (* Every counter slot is [domain id land 127]: an id past 127 could
         have shared a slot with a live domain and lost increments. *)
      let max_id = Team.max_domain_id () in
      if max_id > 127 then begin
        Printf.printf "%s: invalid run: domain id %d spawned (counter slots collide)\n%!"
          name max_id;
        exit 3
      end;
      let problems = Report.check spec ~trace metrics in
      List.iter (fun p -> Printf.printf "%s: %s\n" name p) problems;
      if tl.Common.wrong > 0 then
        Printf.printf "%s: %d wrong replies, first: %s\n" name tl.Common.wrong
          tl.Common.first_wrong;
      let correct = problems = [] && tl.Common.wrong = 0 in
      List.iter
        (fun m ->
          Printf.printf "%-40s %14s %s\n" m.Report.name (Report.num m.Report.value)
            m.Report.unit_)
        metrics;
      print_endline
        (J.to_string
           (J.Obj
              [ ("detail", J.Obj (("max_domain_id", J.int max_id) :: detail)) ])
        |> String.map (fun c -> if c = '\n' then ' ' else c));
      print_endline
        (Report.result_line ~correct ~attempted:tl.Common.attempted
           ~failed:tl.Common.failed metrics);
      exit (if correct then 0 else 1)

(* --- orchestrator ----------------------------------------------------------- *)

type run_out = {
  status : int;
  result : J.t option;  (** the result line *)
  detail : J.t option;
  text : string;
}

let spawn_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let text = In_channel.input_all ic in
  let status =
    match Unix.close_process_in ic with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 128
  in
  let lines = String.split_on_char '\n' (String.trim text) in
  let parse l = match J.parse l with Ok j -> Some j | Error _ -> None in
  let result =
    match List.rev lines with l :: _ -> parse l | [] -> None
  in
  let detail =
    List.find_map
      (fun l ->
        match parse l with
        | Some j -> Option.map (fun _ -> j) (J.member "detail" j)
        | None -> None)
      lines
  in
  { status; result; detail; text }

let metric_values (j : J.t) =
  match J.member "metrics" j with
  | Some (J.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match (J.member "value" v, J.member "unit" v) with
          | Some (J.Num x), Some (J.Str u) -> Some { Report.name = k; unit_ = u; value = x }
          | _ -> None)
        kvs
  | _ -> []

let result_ok (r : run_out) =
  r.status = 0
  && match r.result with
     | Some j -> J.member "correct" j = Some (J.Bool true)
     | None -> false

let summary_table spec runs =
  let per_metric =
    List.map
      (fun (n, u) ->
        let xs =
          List.filter_map
            (fun r ->
              Option.bind r.result (fun j ->
                  List.find_map
                    (fun m -> if m.Report.name = n then Some m.Report.value else None)
                    (metric_values j)))
            runs
        in
        (n, u, xs))
      spec.Report.e2e
  in
  Printf.printf "  %-18s %-5s %12s %12s %12s %8s %6s\n" "metric" "unit" "median" "q1" "q3"
    "spread" "bound";
  List.map
    (fun (n, u, xs) ->
      match xs with
      | [] ->
          Printf.printf "  %-18s %-5s %12s\n" n u "(no runs)";
          (n, J.Null)
      | _ ->
          let q1, med, q3 = Measure.quartiles xs in
          let bound = Option.value (List.assoc_opt n spec.Report.bounds) ~default:nan in
          let sp = Measure.spread xs in
          Printf.printf "  %-18s %-5s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%\n" n u med q1 q3
            (100. *. sp) (100. *. bound);
          ( n,
            J.Obj
              [
                ("unit", J.Str u);
                ("median", J.Num med);
                ("q1", J.Num q1);
                ("q3", J.Num q3);
                ("spread", J.Num sp);
                ("runs", J.int (List.length xs));
                ("values", J.List (List.map (fun x -> J.Num x) xs));
              ] ))
    per_metric

let orchestrate ~spec_path ~seed ~seconds ~runs ~traced ~smoke ~trace_dir ~out =
  let spec = Report.load_spec spec_path in
  let common =
    [ "--seed"; string_of_int seed; "--seconds"; Report.num seconds; "--spec"; spec_path;
      "--trace-dir"; trace_dir ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ok = ref true in
  let report =
    List.map
      (fun (name, _) ->
        Printf.printf "== %s: %d run(s), seed %d, %s s each ==\n%!" name runs seed
          (Report.num seconds);
        let rs =
          List.init runs (fun i ->
              let r = spawn_child ([ "--workload"; name; "--trace"; "0" ] @ common) in
              if not (result_ok r) then begin
                ok := false;
                Printf.eprintf "%s run %d FAILED (exit %d):\n%s\n%!" name (i + 1) r.status
                  r.text
              end;
              r)
        in
        let summary = summary_table spec rs in
        let traced_json =
          if not traced then []
          else begin
            let r = spawn_child ([ "--workload"; name; "--trace"; "1" ] @ common) in
            if not (result_ok r) then begin
              ok := false;
              Printf.eprintf "%s traced run FAILED (exit %d):\n%s\n%!" name r.status r.text
            end
            else
              List.iter
                (fun m ->
                  Printf.printf "  %-40s %14s %s\n" m.Report.name (Report.num m.Report.value)
                    m.Report.unit_)
                (Option.fold ~none:[] ~some:metric_values r.result);
            [
              ( "traced",
                J.Obj
                  [
                    ("result", Option.value r.result ~default:J.Null);
                    ("detail", Option.value r.detail ~default:J.Null);
                  ] );
            ]
          end
        in
        ( name,
          J.Obj
            ([
               ( "runs",
                 J.List
                   (List.map
                      (fun r ->
                        J.Obj
                          [
                            ("exit", J.int r.status);
                            ("result", Option.value r.result ~default:J.Null);
                            ("detail", Option.value r.detail ~default:J.Null);
                          ])
                      rs) );
               ("summary", J.Obj summary);
             ]
            @ traced_json) ))
      workloads
  in
  Option.iter
    (fun path ->
      let doc =
        J.Obj
          [
            ("seed", J.int seed);
            ("seconds", J.Num seconds);
            ("runs", J.int runs);
            ("smoke", J.Bool smoke);
            ("workloads", J.Obj report);
          ]
      in
      let oc = open_out path in
      J.to_channel oc doc;
      close_out oc;
      Printf.printf "wrote %s\n" path)
    out;
  if not !ok then prerr_endline "benchmark: FAILED";
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref nan in
  let trace = ref 0 and runs = ref 0 and traced = ref false and smoke = ref false in
  let out = ref "" and spec_path = ref "BENCHMARK.json" in
  let trace_dir = ref (Filename.concat "benchmark" "out") in
  let usage = "run.exe [--workload NAME --trace 0|1 | --runs N [--traced]] [options]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default: run_seconds)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--runs", Arg.Set_int runs, "N runs of every workload, each in a child process");
      ("--traced", Arg.Set traced, " add one traced run per workload");
      ("--smoke", Arg.Set smoke, " tiny sizes: a self-test of the whole pipeline");
      ("--out", Arg.Set_string out, "FILE write every run and the summary as JSON");
      ("--spec", Arg.Set_string spec_path, "FILE BENCHMARK.json (default ./BENCHMARK.json)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced runs write Perfetto traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (Sys.file_exists !spec_path) then begin
    Printf.eprintf "%s not found (run from the repository root, or pass --spec)\n" !spec_path;
    exit 2
  end;
  let seconds =
    if Float.is_nan !seconds then
      if !smoke then 0.4 else (Report.load_spec !spec_path).Report.run_seconds
    else !seconds
  in
  if seconds <= 0. then (prerr_endline "--seconds must be positive"; exit 2);
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  if !workload <> "" then
    child ~spec_path:!spec_path ~name:!workload ~seed:!seed ~seconds ~trace:(!trace = 1)
      ~smoke:!smoke ~trace_dir:!trace_dir
  else if !runs > 0 then
    orchestrate ~spec_path:!spec_path ~seed:!seed ~seconds ~runs:!runs ~traced:!traced
      ~smoke:!smoke ~trace_dir:!trace_dir
      ~out:(if !out = "" then None else Some !out)
  else begin
    prerr_endline usage;
    exit 2
  end
