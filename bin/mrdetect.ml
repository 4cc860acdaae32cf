(* mrdetect: command-line driver for the reproduction experiments.

   Every subcommand regenerates one table/figure of the dissertation's
   evaluation; the set of experiments, their descriptions and their
   cost classes all come from Experiments.Registry (the same list the
   odoc index uses).  `all` runs the whole set —
   optionally on a pool of domains (--jobs) and merged into one JSON
   document (--json). *)

open Cmdliner
module Exp = Experiments.Exp
module Registry = Experiments.Registry
module Pool = Experiments.Pool

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"evaluate experiments on N domains (results and output are \
                 identical for every N; 0 selects the machine's recommended \
                 domain count)")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"merge every experiment's structured result into FILE as one \
                 mrdetect-experiments-v1 JSON document")

let resolve_jobs n = if n = 0 then Pool.default_jobs () else max 1 n

let run_entries ~jobs ~json entries =
  let results = Registry.eval_all ~jobs:(resolve_jobs jobs) ~entries () in
  List.iter Exp.render results;
  match json with
  | None -> `Ok ()
  | Some path -> (
      try
        Telemetry.Export.write_file path (Registry.json_document results);
        Printf.printf "\nstructured results written to %s\n" path;
        `Ok ()
      with Sys_error msg -> `Error (false, "cannot write JSON file: " ^ msg))

let all_cmd =
  let run jobs json = run_entries ~jobs ~json Registry.all in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every reproduction experiment")
    Term.(ret (const run $ jobs_arg $ json_arg))

let quick_cmd =
  let run jobs json = run_entries ~jobs ~json Registry.quick in
  Cmd.v
    (Cmd.info "quick"
       ~doc:"Run the sub-second experiments (the registry's Quick cost class; \
             this is what the @quick dune alias executes)")
    Term.(ret (const run $ jobs_arg $ json_arg))

let ablations_cmd =
  (* The ablations are themselves five independent sweeps, so --jobs
     parallelizes inside the experiment rather than across the registry. *)
  let run jobs json =
    let result = Experiments.Ablations.eval ~jobs:(resolve_jobs jobs) () in
    Exp.render result;
    match json with
    | None -> `Ok ()
    | Some path -> (
        try
          Telemetry.Export.write_file path (Registry.json_document [ result ]);
          Printf.printf "\nstructured results written to %s\n" path;
          `Ok ()
        with Sys_error msg -> `Error (false, "cannot write JSON file: " ^ msg))
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Design-choice ablations: jitter, tau, sampling, clock skew")
    Term.(ret (const run $ jobs_arg $ json_arg))

let simulate_cmd =
  let topo =
    Arg.(value & opt string "ring"
         & info [ "topology" ] ~docv:"TOPO" ~doc:"line | ring | grid | abilene")
  in
  let protocol =
    let names =
      Core.Detectors.register_all ();
      String.concat " | " (Core.Detector.names ())
    in
    Arg.(value & opt string "fatih" & info [ "protocol" ] ~docv:"P" ~doc:names)
  in
  let attack =
    Arg.(value & opt string "drop-fraction"
         & info [ "attack" ] ~docv:"A" ~doc:"none | drop-all | drop-fraction | syn | queue")
  in
  let fraction =
    Arg.(value & opt float 0.2
         & info [ "fraction" ] ~docv:"F" ~doc:"drop fraction / queue trigger")
  in
  let attacker =
    Arg.(value & opt int 2 & info [ "attacker" ] ~docv:"R" ~doc:"compromised router id")
  in
  let duration =
    Arg.(value & opt float 60.0 & info [ "duration" ] ~docv:"S" ~doc:"seconds simulated")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"rng seed") in
  let flows = Arg.(value & opt int 8 & info [ "flows" ] ~docv:"N" ~doc:"CBR flows") in
  let trace =
    Arg.(value & opt int 0
         & info [ "trace" ] ~docv:"N" ~doc:"dump the last N events at the attacker")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"write run metrics (counters, detection latency, profiling) to \
                   FILE as JSON; a .prom/.txt suffix selects Prometheus text")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"write the typed event journal (link/router/verdict records) to \
                   FILE as JSONL")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"write a Chrome trace-event JSON file (per-hop packet spans, \
                   detector round spans, verdict provenance); load it in \
                   Perfetto or query it with $(b,mrdetect trace explain)")
  in
  let trace_sample =
    Arg.(value & opt float 1.0
         & info [ "trace-sample" ] ~docv:"RATE"
             ~doc:"fraction of injected packets to trace, in [0,1] \
                   (deterministic per seed; verdicts and round spans are \
                   always recorded)")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"FILE"
             ~doc:"inject the benign fault plan in FILE (link flaps, crashes, \
                   lossy control channels, clock skew; see the Robustness \
                   section of the README for the schedule syntax) and score \
                   every verdict against ground truth")
  in
  let shards =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"K"
             ~doc:"partition the router graph into K shards and run the \
                   conservative-parallel engine (one domain per shard); 0 \
                   runs the classic single-heap engine.  Output is \
                   byte-identical for every K >= 1")
  in
  let run topology protocol attack fraction attacker duration seed flows trace
      metrics journal trace_out trace_sample faults shards =
    match
      Experiments.Simulate.Config.of_cmdline ~topology ~protocol ~attack ~fraction
        ~attacker ~duration ~seed ~flows ~trace ~metrics ~journal ~trace_out
        ~trace_sample ~faults ~shards
    with
    | Error msg -> `Error (false, msg)
    | Ok config -> (
        try
          Experiments.Simulate.run config;
          `Ok ()
        with
        | Sys_error msg -> `Error (false, "cannot write output file: " ^ msg)
        | Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a custom attack/detector scenario")
    Term.(ret (const run $ topo $ protocol $ attack $ fraction $ attacker $ duration
               $ seed $ flows $ trace $ metrics $ journal $ trace_out
               $ trace_sample $ faults $ shards))

let chaos_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"rng seed") in
  let trials =
    Arg.(value & opt int 6
         & info [ "trials" ] ~docv:"N"
             ~doc:"seeded chaos trials to run (benign/attacked alternating)")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"short deterministic run (10 s, at most 2 trials) for CI; \
                   this is what the @chaos-smoke dune alias executes")
  in
  let shards =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"K"
             ~doc:"run each trial on the K-shard conservative-parallel \
                   engine (0 = classic single heap)")
  in
  let byzantine =
    Arg.(value & flag
         & info [ "byzantine" ]
             ~doc:"sweep the byzantine chaos budget: the benign churn plus \
                   up to two protocol-faulty roles (framer, equivocator, \
                   mute, staller) per trial, with the hardened detectors' \
                   framing metrics reported")
  in
  let run seed trials jobs smoke byzantine shards json =
    try
      Experiments.Fig_robustness.chaos_run ~seed ~trials
        ~jobs:(resolve_jobs jobs) ~smoke ~byzantine ~shards ?json ();
      `Ok ()
    with
    | Sys_error msg -> `Error (false, "cannot write output file: " ^ msg)
    | Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Sweep seeded random benign faults (within a budget) over the \
             ring8 scenario and score fatih against the ground-truth oracle; \
             output is byte-identical for a given --seed across --jobs values")
    Term.(ret (const run $ seed $ trials $ jobs_arg $ smoke $ byzantine $ shards
               $ json_arg))

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"a trace file written by --trace-out")
  in
  let explain file =
    (* read_file's errors already name the file. *)
    match Telemetry.Export.read_file file with
    | Error msg -> `Error (false, msg)
    | Ok doc -> (
        match Telemetry.Trace_export.explain doc with
        | Ok report ->
            print_string report;
            `Ok ()
        | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg))
  in
  let explain_cmd =
    Cmd.v
      (Cmd.info "explain"
         ~doc:"Print every verdict's evidence chain (why was each router \
               blamed?) from a recorded trace")
      Term.(ret (const explain $ file))
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect Chrome trace-event files written by \
                            $(b,simulate --trace-out)")
    [ explain_cmd ]

let report_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"METRICS"
             ~doc:"an mrdetect-metrics-v1 JSON file written by \
                   $(b,simulate --metrics)")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"write the report to FILE instead of stdout")
  in
  let as_json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"emit the normalized mrdetect-report-v1 JSON document \
                   instead of HTML (engine-independent: byte-identical for \
                   every --shards K >= 1 of the same scenario)")
  in
  let run file out as_json =
    match Experiments.Report.load file with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
    | Ok report -> (
        let render () =
          if as_json then Telemetry.Export.to_string report ^ "\n"
          else
            match Experiments.Report.html report with
            | Ok html -> html
            | Error msg -> failwith msg
        in
        match render () with
        | exception Failure msg -> `Error (false, msg)
        | text -> (
            match out with
            | None ->
                print_string text;
                `Ok ()
            | Some path -> (
                try
                  let oc = open_out path in
                  Fun.protect
                    ~finally:(fun () -> close_out oc)
                    (fun () -> output_string oc text);
                  Printf.printf "report written to %s\n" path;
                  `Ok ()
                with Sys_error msg ->
                  `Error (false, "cannot write report: " ^ msg))))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a simulate --metrics document as a self-contained HTML \
             dashboard (inline SVG sparklines and histograms) or, with \
             --json, as the engine-independent mrdetect-report-v1 document")
    Term.(ret (const run $ file $ out $ as_json))

let top_cmd =
  let topo =
    Arg.(value & opt string "ring"
         & info [ "topology" ] ~docv:"TOPO" ~doc:"line | ring | grid | abilene")
  in
  let protocol =
    Arg.(value & opt string "fatih" & info [ "protocol" ] ~docv:"P" ~doc:"detector")
  in
  let attack =
    Arg.(value & opt string "drop-fraction"
         & info [ "attack" ] ~docv:"A" ~doc:"none | drop-all | drop-fraction | syn | queue")
  in
  let fraction =
    Arg.(value & opt float 0.2
         & info [ "fraction" ] ~docv:"F" ~doc:"drop fraction / queue trigger")
  in
  let attacker =
    Arg.(value & opt int 2 & info [ "attacker" ] ~docv:"R" ~doc:"compromised router id")
  in
  let duration =
    Arg.(value & opt float 60.0 & info [ "duration" ] ~docv:"S" ~doc:"seconds simulated")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"rng seed") in
  let flows = Arg.(value & opt int 8 & info [ "flows" ] ~docv:"N" ~doc:"CBR flows") in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"FILE" ~doc:"inject the benign fault plan in FILE")
  in
  let shards =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"K"
             ~doc:"run the K-shard conservative-parallel engine (0 = classic)")
  in
  let refresh =
    Arg.(value & opt float 0.5
         & info [ "refresh" ] ~docv:"S"
             ~doc:"sim seconds between dashboard refreshes (classic engine; \
                   the sharded engine refreshes at its epoch barriers)")
  in
  let run topology protocol attack fraction attacker duration seed flows faults
      shards refresh =
    match
      Experiments.Simulate.Config.of_cmdline ~topology ~protocol ~attack ~fraction
        ~attacker ~duration ~seed ~flows ~trace:0 ~metrics:None ~journal:None
        ~trace_out:None ~trace_sample:1.0 ~faults ~shards
    with
    | Error msg -> `Error (false, msg)
    | Ok config -> (
        if not (refresh > 0.0) then `Error (false, "refresh must be positive")
        else
          let interactive = Unix.isatty Unix.stdout in
          let last = ref "" in
          let draw ~now net =
            match Netsim.Net.stats net with
            | None -> ()
            | Some st ->
                let frame = Experiments.Live.render ~now ~duration st in
                if interactive then begin
                  (* Home + clear-to-end repaint: no flicker, no history spam. *)
                  print_string "\x1b[H\x1b[2J";
                  print_string frame;
                  flush stdout
                end
                else last := frame
          in
          try
            Experiments.Simulate.run ~on_progress:draw ~progress_interval:refresh
              config;
            if not interactive then begin
              print_newline ();
              print_string !last
            end;
            `Ok ()
          with
          | Sys_error msg -> `Error (false, msg)
          | Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Run a scenario with a live terminal dashboard (headline rates, \
             latency quantiles, per-router queue depths) fed by the always-on \
             stats collectors; on a non-TTY only the final frame is printed")
    Term.(ret (const run $ topo $ protocol $ attack $ fraction $ attacker
               $ duration $ seed $ flows $ faults $ shards $ refresh))

let subcommand (e : Exp.entry) =
  let run () = Exp.render (e.eval ()) in
  Cmd.v (Cmd.info e.id ~doc:e.doc) Term.(const run $ const ())

let () =
  let info =
    Cmd.info "mrdetect" ~version:"1.0.0"
      ~doc:"Reproduction driver for 'Detecting Malicious Routers'"
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let registry_cmds =
    (* ablations has a dedicated command with --jobs. *)
    List.filter_map
      (fun (e : Exp.entry) -> if e.id = "ablations" then None else Some (subcommand e))
      Registry.all
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          (all_cmd :: quick_cmd :: ablations_cmd :: simulate_cmd :: chaos_cmd
           :: trace_cmd :: report_cmd :: top_cmd :: registry_cmds)))
