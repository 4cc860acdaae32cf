(* Report pipeline and bench regression gate.

   - `mrdetect report` determinism: the mrdetect-report-v1 document
     distilled from a run's metrics export is byte-identical for shard
     counts 1, 2 and 4, and repeatable for the classic engine (K=0,
     physically a different run — its own deterministic bytes).
   - Export round-trips: Hist and Timeseries survive JSON export and
     re-import with identical observable state, and the Prometheus
     rendering of a Hist uses exactly the registry histogram's le edges.
   - Benchgate band arithmetic: pass/fail on both sides of each
     threshold, plus baseline-document spelunking and the file reader. *)

module Export = Telemetry.Export
module Hist = Telemetry.Hist
module Ts = Telemetry.Timeseries
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

(* The shard suite's golden scenario: ring8/fatih, 12 s, seed 7. *)
let report_json ~shards () =
  let metrics = Filename.temp_file "report_metrics" ".json" in
  ignore
    (with_captured_stdout (fun () ->
         Simulate.run
           (Simulate.Config.make_exn ~protocol:"fatih" ~duration:12.0 ~seed:7
              ~flows:6 ~metrics ~shards Simulate.Ring)));
  let doc =
    match Export.of_string (read_file metrics) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "metrics parse (K=%d): %s" shards e
  in
  Sys.remove metrics;
  match Report.of_metrics doc with
  | Ok report -> Export.to_string report
  | Error e -> Alcotest.failf "report (K=%d): %s" shards e

let test_report_shard_identity () =
  let reference = report_json ~shards:1 () in
  Alcotest.(check bool)
    "non-trivial report" true
    (String.length reference > 500);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "K=%d report byte-identical to K=1" k)
        true
        (String.equal reference (report_json ~shards:k ())))
    [ 2; 4 ];
  (* The classic engine is a physically different run (its own RNG
     streams) but must be deterministic in its own right. *)
  let classic = report_json ~shards:0 () in
  Alcotest.(check bool)
    "K=0 repeatable" true
    (String.equal classic (report_json ~shards:0 ()));
  match Export.of_string classic with
  | Error e -> Alcotest.failf "classic report does not parse: %s" e
  | Ok doc -> (
      (match Export.member "schema" doc with
      | Some (Export.String s) ->
          Alcotest.(check string) "report schema" Report.schema s
      | _ -> Alcotest.fail "missing report schema");
      (match Option.bind (Export.member "scenario" doc) (Export.member "shards") with
      | None -> ()
      | Some _ -> Alcotest.fail "report must not echo the shard count");
      match Export.member "stats" doc with
      | Some (Export.Assoc _) -> ()
      | _ -> Alcotest.fail "report carries no stats block")

let test_report_html () =
  let metrics = Filename.temp_file "report_metrics" ".json" in
  ignore
    (with_captured_stdout (fun () ->
         Simulate.run
           (Simulate.Config.make_exn ~protocol:"fatih" ~duration:5.0 ~seed:3
              ~flows:4 ~metrics ~shards:1 Simulate.Ring)));
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

(* --- export round-trips --- *)

let test_hist_roundtrip () =
  let h = Hist.create ~buckets:12 ~min_exp:(-6) () in
  List.iter (Hist.record h) [ 0.001; 0.02; 0.02; 0.4; 7.0; 1e9; -3.0; 0.0 ];
  match Export.hist_of_json (Export.json_of_hist h) with
  | Error e -> Alcotest.failf "hist does not round-trip: %s" e
  | Ok h' ->
      Alcotest.(check int) "buckets" (Hist.buckets h) (Hist.buckets h');
      Alcotest.(check int) "min_exp" (Hist.min_exp h) (Hist.min_exp h');
      Alcotest.(check int) "count" (Hist.count h) (Hist.count h');
      Alcotest.(check (float 0.0)) "sum (exact)" (Hist.sum h) (Hist.sum h');
      for i = 0 to Hist.buckets h - 1 do
        Alcotest.(check int)
          (Printf.sprintf "bucket %d" i)
          (Hist.bucket_count h i)
          (Hist.bucket_count h' i)
      done

let test_timeseries_roundtrip () =
  let ts = Ts.create ~capacity:8 ~resolution:0.5 () in
  (* Push past the window so the series coarsens at least once. *)
  List.iter
    (fun (t, v) -> Ts.record ts ~time:t v)
    [ (0.1, 1.0); (0.2, 2.5); (1.7, 0.25); (3.9, 4.0); (9.5, 1.0); (11.0, 6.5) ];
  Alcotest.(check bool) "coarsened" true (Ts.level ts > 0);
  match Export.timeseries_of_json (Export.json_of_timeseries ts) with
  | Error e -> Alcotest.failf "timeseries does not round-trip: %s" e
  | Ok ts' ->
      Alcotest.(check int) "capacity" (Ts.capacity ts) (Ts.capacity ts');
      Alcotest.(check (float 0.0))
        "base resolution" (Ts.base_resolution ts)
        (Ts.base_resolution ts');
      Alcotest.(check int) "level" (Ts.level ts) (Ts.level ts');
      Alcotest.(check int) "used" (Ts.used ts) (Ts.used ts');
      for i = 0 to Ts.used ts - 1 do
        Alcotest.(check int)
          (Printf.sprintf "count %d" i)
          (Ts.bucket_count ts i)
          (Ts.bucket_count ts' i);
        Alcotest.(check (float 0.0))
          (Printf.sprintf "sum %d (exact)" i)
          (Ts.bucket_sum ts i) (Ts.bucket_sum ts' i)
      done

(* A registry histogram and a standalone Hist of the same geometry must
   render the same le edges — the always-on collectors and the registry
   share one exposition path. *)
let test_prom_le_edges_agree () =
  let buckets = 10 and min_exp = -3 in
  let h = Hist.create ~buckets ~min_exp () in
  let registry = Telemetry.Metrics.create () in
  let mh = Telemetry.Metrics.histogram registry ~buckets ~min_exp "x" in
  List.iter
    (fun v ->
      Hist.record h v;
      Hist.record mh v)
    [ 0.01; 0.3; 0.3; 2.0; 500.0 ];
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
  let hist_prom = Export.prometheus_of_hist ~name:"x" h in
  let registry_prom = Export.prometheus_of_registry registry in
  Alcotest.(check (list string))
    "identical le edges" (edges_of registry_prom) (edges_of hist_prom)

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

let () =
  Alcotest.run "report"
    [ ( "determinism",
        [ Alcotest.test_case "shard-count byte identity" `Slow
            test_report_shard_identity ] );
      ("html", [ Alcotest.test_case "self-contained page" `Quick test_report_html ]);
      ( "roundtrip",
        [ Alcotest.test_case "hist json" `Quick test_hist_roundtrip;
          Alcotest.test_case "timeseries json" `Quick test_timeseries_roundtrip;
          Alcotest.test_case "prometheus le edges" `Quick test_prom_le_edges_agree ] );
      ( "benchgate",
        [ Alcotest.test_case "lower-better band" `Quick test_gate_lower_better;
          Alcotest.test_case "higher-better band" `Quick test_gate_higher_better;
          Alcotest.test_case "band validation" `Quick test_gate_band_validation;
          Alcotest.test_case "baseline lookup" `Quick test_gate_baseline_lookup ] ) ]
