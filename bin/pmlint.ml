(* pmlint — the persistence-hygiene linter over the library tree.

   Usage:
     pmlint [ROOTS...]                    lint and print every finding
     pmlint --baseline FILE [ROOTS...]    fail only on findings not in FILE,
                                          and on stale FILE entries
     pmlint --update-baseline             rewrite the baseline from the tree
     pmlint --mutation-check              also verify that deleting the clwb
                                          on the FAST&FAIR split path is
                                          caught statically
     pmlint --stats                       per-library call-site statistics
     pmlint --rules                       print the rule catalog *)

let () =
  let opts = ref Staticcheck.Driver.default_opts in
  let roots = ref [] in
  let usage = "pmlint [options] [roots]  (default root: lib)" in
  let spec =
    [
      ( "--baseline",
        Arg.String
          (fun p -> opts := { !opts with Staticcheck.Driver.baseline = Some p }),
        "FILE compare findings against FILE; fail on new or stale entries" );
      ( "--update-baseline",
        Arg.Unit (fun () -> opts := { !opts with update_baseline = true }),
        " rewrite the baseline file from the current tree" );
      ( "--mutation-check",
        Arg.Unit (fun () -> opts := { !opts with run_mutation_check = true }),
        " verify seeded FAST&FAIR clwb deletions are caught statically" );
      ( "--mutation-file",
        Arg.String (fun p -> opts := { !opts with mutation_file = p }),
        "FILE file the mutation self-check mutates (default \
         lib/fastfair/fastfair.ml)" );
      ( "--all-rules",
        Arg.Unit (fun () -> opts := { !opts with all_rules = true }),
        " apply every rule to every file (for fixture trees outside lib/)" );
      ( "--stats",
        Arg.Unit (fun () -> opts := { !opts with show_stats = true }),
        " print per-library persistence call-site statistics" );
      ( "--rules",
        Arg.Unit
          (fun () ->
            List.iter
              (fun r ->
                Printf.printf "%-5s %s\n"
                  (Staticcheck.Finding.rule_id r)
                  (Staticcheck.Finding.rule_doc r))
              Staticcheck.Finding.[ R1; R2; R3; R4; R5; Parse ];
            exit 0),
        " print the rule catalog and exit" );
    ]
  in
  Arg.parse spec (fun r -> roots := r :: !roots) usage;
  let opts =
    match List.rev !roots with
    | [] -> !opts
    | roots -> { !opts with roots }
  in
  exit (Staticcheck.Driver.run opts)
