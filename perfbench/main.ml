(** The repository benchmark: command line and result output.

    [main.exe --workload NAME --seed N --seconds S --trace 0|1] runs one
    workload ([bst-read], [bst-churn] or [kv-text]; [all] runs the three
    in turn) and prints, as its last line, one JSON object with the keys
    [correct], [attempted], [failed] and [metrics]. With [--trace 0] the
    metrics are the end-to-end ones, with [--trace 1] the per-layer ones.
    The line before it stamps the run (commit, build profile, OCaml
    version, domain count, seed, run lengths, sample counts). Exits 1 when
    an output check fails. Build and run it through [run.py]. *)

let workloads =
  [
    ("bst-read", fun o -> Bst_load.run Bst_load.bst_read o);
    ("bst-churn", fun o -> Bst_load.run Bst_load.bst_churn o);
    ("kv-text", Kv_load.run);
  ]

let usage =
  "main.exe --workload (bst-read|bst-churn|kv-text|all) --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let git_sha = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N seed every input is generated from");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--git-sha", Arg.Set_string git_sha, "SHA commit to stamp on the output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let chosen =
    if !workload = "all" then workloads
    else
      match List.assoc_opt !workload workloads with
      | Some f -> [ (!workload, f) ]
      | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let opts = { Opts.seed = !seed; seconds = !seconds; trace = !trace = 1 } in
  let results =
    List.map
      (fun (name, run) ->
        let r : Report.t = run opts in
        List.iter (fun p -> Printf.eprintf "%s: CHECK FAILED: %s\n%!" name p) r.problems;
        let stamp =
          [
            ("workload", Report.json_string name);
            ("git_sha", Report.json_string !git_sha);
            ("profile", Report.json_string Build_info.profile);
            ("ocaml", Report.json_string Sys.ocaml_version);
            ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
            ("seed", string_of_int !seed);
            ("seconds", Report.json_number !seconds);
            ("trace", string_of_int !trace);
          ]
          @ r.stamp
        in
        print_endline (Report.json_object [ ("stamp", Report.json_object stamp) ]);
        (name, r))
      chosen
  in
  let final =
    match results with
    | [ (_, r) ] -> r
    | _ ->
      (* [all]: one combined line, metric names prefixed by workload *)
      {
        Report.correct = List.for_all (fun (_, (r : Report.t)) -> r.correct) results;
        attempted = List.fold_left (fun a (_, (r : Report.t)) -> a + r.attempted) 0 results;
        failed = List.fold_left (fun a (_, (r : Report.t)) -> a + r.failed) 0 results;
        metrics =
          List.concat_map
            (fun (n, (r : Report.t)) ->
              List.map (fun (m : Report.metric) -> { m with name = n ^ "." ^ m.name }) r.metrics)
            results;
        stamp = [];
        problems = [];
      }
  in
  print_endline (Report.to_json final);
  exit (if final.correct then 0 else 1)
