(* Simulate goldens, report pipeline and bench regression gate.

   - `mrdetect simulate` goldens: stdout and journal of fixed scenarios
     (ring8 under every detector, abilene/chi, a chaos fault plan,
     --trace 20) pinned by MD5 digests.
   - `mrdetect report` determinism: the mrdetect-report-v1 document
     distilled from a run's metrics export, and the stats section it
     carries, are pinned by digest and repeatable run-to-run.
   - Prometheus exposition: a Hist renders exactly its Hist.uppers as
     le edges, and a `simulate --metrics x.prom` file gives each family
     one # TYPE header, ahead of its samples.
   - Benchgate band arithmetic: pass/fail on both sides of each
     threshold, plus baseline-document spelunking and the file reader. *)

module Export = Telemetry.Export
module Hist = Telemetry.Hist
module Report = Experiments.Report
module Gate = Experiments.Benchgate
module Simulate = Experiments.Simulate

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_captured_stdout f =
  let path = Filename.temp_file "report_stdout" ".txt" in
  let oc = open_out path in
  let backup = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel oc) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 backup Unix.stdout;
      Unix.close backup;
      close_out oc)
    f;
  let s = read_file path in
  Sys.remove path;
  s

(* --- simulate goldens ------------------------------------------------ *)

(* Report text and typed journal of one `mrdetect simulate` run, folded
   into one string. *)
let simulate_digest ~topo ~protocol ?faults () =
  let journal = Filename.temp_file "golden_journal" ".jsonl" in
  let out =
    with_captured_stdout (fun () ->
        Simulate.run
          { Simulate.Config.default with
            topo; protocol; duration = 12.0; seed = 7; flows = 6; journal = Some journal;
            faults })
  in
  let j = read_file journal in
  Sys.remove journal;
  out ^ "--journal--\n" ^ j

let check_digest name ~topo ~protocol ?faults hex =
  let got = simulate_digest ~topo ~protocol ?faults () in
  Alcotest.(check bool) (name ^ ": non-trivial run") true (String.length got > 500);
  Alcotest.(check string) (name ^ ": matches the recorded digest") hex
    (Digest.to_hex (Digest.string got))

(* Digests recorded from the seed engine (pre-pooling, pre-flat-heap);
   recycling, flat events and lazy transmission ends are pure
   mechanics, never observable.  Every digest in this file was
   re-recorded once when each hop's processing jitter came to be drawn
   at transmit-start and folded into the arrival event, which moved
   the random draw order. *)
let test_golden_ring_fatih () =
  check_digest "ring8/fatih" ~topo:Simulate.Ring ~protocol:"fatih"
    "2f8077f91f4e1ae1ac5c54a2a11e47e2"

let test_golden_abilene_chi () =
  check_digest "abilene/chi" ~topo:Simulate.Abilene ~protocol:"chi"
    "5f902bb1578f0bc7a59065cfa1f315bc"

(* The other four detectors, same settings; digests recorded before the
   detector registry became a closed table.  pik2 is the fatih
   deployment under its paper name, so it shares fatih's digest. *)
let test_golden_ring_pi2 () =
  check_digest "ring8/pi2" ~topo:Simulate.Ring ~protocol:"pi2"
    "f7d0b78d183aba07f8ef08d6f0138a4e"

let test_golden_ring_pik2 () =
  check_digest "ring8/pik2" ~topo:Simulate.Ring ~protocol:"pik2"
    "2f8077f91f4e1ae1ac5c54a2a11e47e2"

let test_golden_ring_watchers () =
  check_digest "ring8/watchers" ~topo:Simulate.Ring ~protocol:"watchers"
    "79c10861465213ec46a09afc203ed4b0"

let test_golden_ring_perlman () =
  check_digest "ring8/perlman" ~topo:Simulate.Ring ~protocol:"perlman"
    "eb0a0dc56239e173d2cd7781f5056cf2"

(* Under a gentle chaos plan (benign flaps and a crash), the oracle line
   and every journaled fault record are pinned too. *)
let test_golden_chaos_faults () =
  let g = Topology.Generate.ring ~n:8 in
  let schedule =
    Faults.Chaos.generate ~seed:5 ~graph:g ~duration:12.0
      ~budget:Faults.Chaos.gentle_budget ()
  in
  let path = Filename.temp_file "golden_faults" ".txt" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Faults.Schedule.to_string schedule));
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_digest "ring8/fatih/chaos" ~topo:Simulate.Ring ~protocol:"fatih"
        ~faults:path "d3ede0b56da47512c8a94c4f6724e783")

(* `mrdetect simulate --trace 20`: the attacker's last 20 wire and
   router events, one rendered line each, after the report.  Digest
   recorded before the trace journal moved into Simulate. *)
let test_golden_trace () =
  let out =
    with_captured_stdout (fun () ->
        Simulate.run
          { Simulate.Config.default with duration = 12.0; seed = 7; flows = 6; trace = 20 })
  in
  Alcotest.(check string) "--trace 20 stdout matches the recorded digest"
    "5fed3b29cde310736439117957c3ab05"
    (Digest.to_hex (Digest.string out));
  let rec dump = function
    | [] -> Alcotest.fail "no trace header"
    | "last 20 events at router 2:" :: rest -> List.filter (( <> ) "") rest
    | _ :: rest -> dump rest
  in
  let lines = dump (String.split_on_char '\n' out) in
  Alcotest.(check int) "bounded to 20 lines" 20 (List.length lines);
  let time l = float_of_string (List.hd (String.split_on_char ' ' (String.trim l))) in
  let times = List.map time lines in
  Alcotest.(check bool) "chronological" true (List.sort compare times = times)

(* --- report determinism ---------------------------------------------- *)

(* The golden scenario: ring8/fatih, 12 s, seed 7.  Returns the "stats"
   section of the metrics export and the normalized report. *)
let golden_outputs () =
  let metrics = Filename.temp_file "report_metrics" ".json" in
  ignore
    (with_captured_stdout (fun () ->
         Simulate.run
           { Simulate.Config.default with
             duration = 12.0; seed = 7; flows = 6; metrics = Some metrics }));
  let doc =
    match Export.of_string (read_file metrics) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "metrics parse: %s" e
  in
  Sys.remove metrics;
  let stats =
    match Export.member "stats" doc with
    | Some (Export.Assoc _ as s) -> Export.to_string s
    | _ -> Alcotest.fail "metrics export has no stats section"
  in
  match Report.of_metrics doc with
  | Ok report -> (stats, Export.to_string report)
  | Error e -> Alcotest.failf "report: %s" e

(* MD5 digests of the golden scenario's stats section and report,
   recorded before Stats moved behind the probe; a second run must
   reproduce the report byte for byte. *)
let test_stats_pinned () =
  let stats, report = golden_outputs () in
  Alcotest.(check string) "stats section matches the recorded digest"
    "b581c29be5d2fa187c376897e3d7c262"
    (Digest.to_hex (Digest.string stats));
  Alcotest.(check string) "report matches the recorded digest"
    "047790ee861b42f7962dfc854bdcab98"
    (Digest.to_hex (Digest.string report));
  Alcotest.(check bool) "report repeatable" true
    (String.equal report (snd (golden_outputs ())));
  match Export.of_string report with
  | Error e -> Alcotest.failf "report does not parse: %s" e
  | Ok doc -> (
      (match Export.member "schema" doc with
      | Some (Export.String s) ->
          Alcotest.(check string) "report schema" Report.schema s
      | _ -> Alcotest.fail "missing report schema");
      match Export.member "stats" doc with
      | Some (Export.Assoc _) -> ()
      | _ -> Alcotest.fail "report carries no stats block")

let test_report_html () =
  let metrics = Filename.temp_file "report_metrics" ".json" in
  ignore
    (with_captured_stdout (fun () ->
         Simulate.run
           { Simulate.Config.default with
             duration = 5.0; seed = 3; flows = 4; metrics = Some metrics }));
  let doc =
    match Export.of_string (read_file metrics) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "metrics parse: %s" e
  in
  Sys.remove metrics;
  let html =
    match Report.html_of_metrics doc with
    | Ok html -> html
    | Error e -> Alcotest.failf "html: %s" e
  in
  let contains needle =
    let n = String.length needle and h = String.length html in
    let rec go i = i + n <= h && (String.sub html i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "html contains %S" needle) true
        (contains needle))
    [ "<!doctype html>"; "<svg"; "delivery_latency"; "ring"; "fatih";
      "queue depth" ]

(* --- Prometheus exposition --- *)

(* A Hist renders exactly its [Hist.uppers] as le edges. *)
let test_prom_le_edges_agree () =
  let h = Hist.create ~buckets:10 ~min_exp:(-3) () in
  List.iter (Hist.record h) [ 0.01; 0.3; 0.3; 2.0; 500.0 ];
  let edges_of text =
    (* every le="..." occurrence, in order *)
    let out = ref [] in
    let n = String.length text in
    let rec go i =
      if i + 4 <= n then
        if String.sub text i 4 = "le=\"" then begin
          let j = String.index_from text (i + 4) '"' in
          out := String.sub text (i + 4) (j - i - 4) :: !out;
          go (j + 1)
        end
        else go (i + 1)
    in
    go 0;
    List.rev !out
  in
  let hist_prom =
    let buf = Buffer.create 512 in
    Export.prometheus_append_hist buf ~name:"x" h;
    Buffer.contents buf
  in
  let uppers =
    Array.to_list
      (Array.map
         (fun u -> if u = infinity then "+Inf" else Printf.sprintf "%.12g" u)
         (Hist.uppers h))
  in
  Alcotest.(check (list string)) "le edges are Hist.uppers" uppers
    (edges_of hist_prom)

(* Prometheus parsers reject a second # TYPE line for a family, and a
   family's samples must follow its header as one group.  The ring's
   per-router queue depths are one labelled family. *)
let test_prom_one_type_per_family () =
  let path = Filename.temp_file "prom_families" ".prom" in
  ignore
    (with_captured_stdout (fun () ->
         Simulate.run
           { Simulate.Config.default with
             protocol = "chi"; attack = Drop_fraction 0.3; duration = 5.0; seed = 3;
             flows = 4; metrics = Some path }));
  let lines = String.split_on_char '\n' (read_file path) in
  Sys.remove path;
  let types = Hashtbl.create 64 in
  let current = ref None in
  let samples = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "#" :: "TYPE" :: family :: kind :: _ ->
          if Hashtbl.mem types family then
            Alcotest.failf "second # TYPE line for %s" family;
          Hashtbl.add types family kind;
          current := Some family
      | "#" :: _ | [ "" ] -> ()
      | metric :: _ -> (
          incr samples;
          let name =
            match String.index_opt metric '{' with
            | Some i -> String.sub metric 0 i
            | None -> metric
          in
          let in_family family =
            name = family
            || Hashtbl.find_opt types family = Some "histogram"
               && List.mem name
                    [ family ^ "_bucket"; family ^ "_sum"; family ^ "_count" ]
          in
          match !current with
          | Some family when in_family family -> ()
          | _ -> Alcotest.failf "sample %s is not under its family's header" name)
      | [] -> ())
    lines;
  Alcotest.(check bool) "some samples" true (!samples > 0);
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " present") true (Hashtbl.mem types family))
    [ "stats_queue_depth_bucket_count"; "stats_dropped_total";
      "stats_malice_total"; "stats_round_duration_seconds" ]

(* --- benchgate bands --- *)

let test_gate_lower_better () =
  let b = Gate.band ~slack:1.0 ~direction:Gate.Lower_better ~limit:1.5 "m" in
  let j measured = (Gate.judge b ~baseline:10.0 ~measured).Gate.ok in
  Alcotest.(check bool) "well under" true (j 9.0);
  Alcotest.(check bool) "exactly at threshold" true (j 16.0);
  Alcotest.(check bool) "just over" false (j 16.01);
  Alcotest.(check bool) "2x regression" false (j 32.0)

let test_gate_higher_better () =
  let b = Gate.band ~direction:Gate.Higher_better ~limit:2.0 "m" in
  let j measured = (Gate.judge b ~baseline:100.0 ~measured).Gate.ok in
  Alcotest.(check bool) "above baseline" true (j 110.0);
  Alcotest.(check bool) "exactly at threshold" true (j 50.0);
  Alcotest.(check bool) "just under" false (j 49.9);
  Alcotest.(check bool)
    "all_ok spots the failure" false
    (Gate.all_ok [ Gate.judge b ~baseline:100.0 ~measured:10.0 ])

let test_gate_band_validation () =
  Alcotest.check_raises "limit 1.0 rejected"
    (Invalid_argument "Benchgate.band: limit must exceed 1") (fun () ->
      ignore (Gate.band ~direction:Gate.Lower_better ~limit:1.0 "m"));
  Alcotest.check_raises "negative slack rejected"
    (Invalid_argument "Benchgate.band: negative slack") (fun () ->
      ignore (Gate.band ~slack:(-1.0) ~direction:Gate.Lower_better ~limit:2.0 "m"))

let test_gate_baseline_lookup () =
  let doc =
    Export.Assoc
      [ ("simulator", Export.Assoc [ ("events_per_second", Export.Float 5e6) ]);
        ( "modes",
          Export.List
            [ Export.Assoc
                [ ("mode", Export.String "pooled");
                  ("minor_words_per_event", Export.Float 10.6) ] ] ) ]
  in
  (match Gate.float_at doc [ "simulator"; "events_per_second" ] with
  | Some v -> Alcotest.(check (float 0.0)) "nested float" 5e6 v
  | None -> Alcotest.fail "float_at missed");
  Alcotest.(check bool) "missing path" true
    (Gate.float_at doc [ "simulator"; "nope" ] = None);
  (match Gate.find_by doc ~field:"modes" ~key:"mode" ~value:"pooled" with
  | Some row ->
      Alcotest.(check bool) "row field" true
        (Gate.float_at row [ "minor_words_per_event" ] = Some 10.6)
  | None -> Alcotest.fail "find_by missed");
  Alcotest.(check bool) "absent row" true
    (Gate.find_by doc ~field:"modes" ~key:"mode" ~value:"unpooled" = None);
  (* The file reader: a missing file, a malformed one, a padded good one. *)
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "no-such-baseline.json"
  in
  (match Gate.load_json missing with
  | Error msg ->
      Alcotest.(check string) "missing file" (missing ^ ": No such file or directory") msg
  | Ok _ -> Alcotest.fail "loaded a missing file");
  let with_file text f =
    let path = Filename.temp_file "baseline" ".json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  with_file "{\"modes\": [1,\n" (fun path ->
      match Gate.load_json path with
      | Error msg ->
          Alcotest.(check bool) "malformed file names itself" true
            (String.starts_with ~prefix:(path ^ ": ") msg)
      | Ok _ -> Alcotest.fail "parsed a malformed file");
  with_file ("\n " ^ Export.to_string doc ^ "\n") (fun path ->
      match Gate.load_json path with
      | Ok back ->
          Alcotest.(check string) "padded file reads back" (Export.to_string doc)
            (Export.to_string back)
      | Error msg -> Alcotest.fail msg)

(* EXPERIMENTS.md §7.1 quotes kernel rows of BENCH_hotpath.json: each
   row is named in parentheses and backticks after the number it
   quotes, as in "69 ns per 40 B header (`siphash-40B`)".  The quote
   must equal the row's ns_per_op in the quoted unit, rounded to the
   quote's own decimals, so a re-recorded artifact cannot leave stale
   prose behind. *)
let test_experiments_quotes_hotpath () =
  (* The test runs in _build/default/test under dune, in the repository
     root under dune exec. *)
  let repo_file name = if Sys.file_exists ("../" ^ name) then "../" ^ name else name in
  let artifact =
    match Gate.load_json (repo_file "BENCH_hotpath.json") with
    | Ok doc -> doc
    | Error e -> Alcotest.fail e
  in
  let text = read_file (repo_file "EXPERIMENTS.md") in
  let find_from i needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length text then Alcotest.failf "EXPERIMENTS.md: no %S" needle
      else if String.sub text i n = needle then i
      else go (i + 1)
    in
    go i
  in
  let start = find_from 0 "\n## §7.1" in
  let stop = find_from (start + 1) "\n## " in
  let scale = function "ns" -> Some 1.0 | "µs" -> Some 1e3 | "ms" -> Some 1e6 | _ -> None in
  (* The last "<number> <unit>" among the words of [prose]. *)
  let quote prose =
    let words =
      String.split_on_char ' ' (String.map (fun c -> if c = '\n' then ' ' else c) prose)
      |> List.filter (( <> ) "")
    in
    let rec last = function
      | unit :: num :: rest ->
          if scale unit <> None && float_of_string_opt num <> None then Some (num, unit)
          else last (num :: rest)
      | [ _ ] | [] -> None
    in
    last (List.rev words)
  in
  let rec rows ~from checked =
    match String.index_from_opt text from '`' with
    | Some o when o < stop ->
        let c = String.index_from text (o + 1) '`' in
        let name = String.sub text (o + 1) (c - o - 1) in
        if not (text.[o - 1] = '(' && text.[c + 1] = ')') then rows ~from:(c + 1) checked
        else begin
          let row =
            match Gate.find_by artifact ~field:"kernels" ~key:"name" ~value:name with
            | Some row -> row
            | None -> Alcotest.failf "§7.1 names `%s`, which BENCH_hotpath.json lacks" name
          in
          let ns = Option.get (Gate.float_at row [ "ns_per_op" ]) in
          (match quote (String.sub text from (o - from)) with
          | None -> Alcotest.failf "§7.1 quotes no number for `%s`" name
          | Some (num, unit) ->
              let decimals =
                match String.index_opt num '.' with
                | Some d -> String.length num - d - 1
                | None -> 0
              in
              Alcotest.(check string)
                (Printf.sprintf "`%s` quoted in %s" name unit)
                (Printf.sprintf "%.*f" decimals (ns /. Option.get (scale unit)))
                num);
          rows ~from:(c + 1) (checked + 1)
        end
    | _ -> checked
  in
  Alcotest.(check bool) "§7.1 quotes some row" true (rows ~from:start 0 > 0)

let () =
  Alcotest.run "report"
    [ (* The "K-invariant" names are older than the single engine; they
         are kept so each pin's history stays under one test id. *)
      ( "golden",
        [ Alcotest.test_case "ring8 fatih K-invariant" `Quick test_golden_ring_fatih;
          Alcotest.test_case "abilene chi K-invariant" `Quick test_golden_abilene_chi;
          Alcotest.test_case "ring8 pi2 pinned" `Quick test_golden_ring_pi2;
          Alcotest.test_case "ring8 pik2 pinned" `Quick test_golden_ring_pik2;
          Alcotest.test_case "ring8 watchers pinned" `Quick test_golden_ring_watchers;
          Alcotest.test_case "ring8 perlman pinned" `Quick test_golden_ring_perlman;
          Alcotest.test_case "chaos faults K-invariant" `Quick
            test_golden_chaos_faults;
          Alcotest.test_case "simulate --trace pinned" `Quick test_golden_trace ] );
      ( "determinism",
        [ Alcotest.test_case "stats and report pinned" `Slow test_stats_pinned ] );
      ("html", [ Alcotest.test_case "self-contained page" `Quick test_report_html ]);
      ( "roundtrip",
        [ Alcotest.test_case "prometheus le edges" `Quick test_prom_le_edges_agree;
          Alcotest.test_case "prometheus one TYPE per family" `Quick
            test_prom_one_type_per_family ] );
      ( "benchgate",
        [ Alcotest.test_case "lower-better band" `Quick test_gate_lower_better;
          Alcotest.test_case "higher-better band" `Quick test_gate_higher_better;
          Alcotest.test_case "band validation" `Quick test_gate_band_validation;
          Alcotest.test_case "baseline lookup" `Quick test_gate_baseline_lookup;
          Alcotest.test_case "EXPERIMENTS §7.1 quotes the artifact" `Quick
            test_experiments_quotes_hotpath ] ) ]
