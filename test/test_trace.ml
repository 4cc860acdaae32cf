(* Tests for the span/trace layer: collector unit behaviour (ids,
   ordering, sampling), the flight recorder (verdict evidence pinned
   against ring eviction), Chrome trace-event export (schema
   validation, verdict extraction, the `trace explain` renderer) and a
   golden end-to-end check that `mrdetect simulate --trace-out` writes
   a file that parses back with per-hop spans, round spans and a
   verdict whose evidence ids all resolve. *)

open Telemetry

(* --- collector: ids, ordering, lookup --- *)

let test_span_ids_monotone () =
  let t = Span.create () in
  let a = Span.instant t ~name:"a" ~pid:1 ~tid:0 ~time:1.0 () in
  let b =
    Span.span t ~name:"b" ~pid:1 ~tid:0 ~start:0.5 ~finish:0.7 ()
  in
  let c = Span.instant t ~name:"c" ~pid:1 ~tid:0 ~time:2.0 () in
  Alcotest.(check bool) "ids strictly increase" true (a < b && b < c);
  Alcotest.(check bool) "id 0 never issued" true (a > 0);
  Alcotest.(check int) "recorded counts entries" 3 (Span.recorded t);
  (match Span.find t b with
  | Some e ->
      Alcotest.(check string) "find resolves" "b" e.Span.name;
      (match e.Span.kind with
      | Span.Complete { duration } ->
          Alcotest.(check (float 1e-9)) "duration" 0.2 duration
      | _ -> Alcotest.fail "b should be a Complete span")
  | None -> Alcotest.fail "find lost entry b");
  (* entries come back sorted by (time, id), not by recording order. *)
  let names = List.map (fun e -> e.Span.name) (Span.entries t) in
  Alcotest.(check (list string)) "sorted by time" [ "b"; "a"; "c" ] names

let test_span_negative_duration_clamped () =
  let t = Span.create () in
  let i = Span.span t ~name:"x" ~pid:1 ~tid:0 ~start:5.0 ~finish:4.0 () in
  match Span.find t i with
  | Some { Span.kind = Span.Complete { duration }; _ } ->
      Alcotest.(check (float 1e-9)) "finish before start clamps" 0.0 duration
  | _ -> Alcotest.fail "span lost"

(* --- sampling --- *)

let test_sampling_extremes () =
  let all = Span.create ~sample:1.0 () in
  for _ = 1 to 100 do
    if Span.new_trace all = None then Alcotest.fail "rate 1.0 skipped a packet"
  done;
  Alcotest.(check int) "all offered" 100 (Span.traces_started all);
  Alcotest.(check int) "all sampled" 100 (Span.traces_sampled all);
  let none = Span.create ~sample:0.0 () in
  for _ = 1 to 100 do
    if Span.new_trace none <> None then Alcotest.fail "rate 0.0 traced a packet"
  done;
  Alcotest.(check int) "none sampled" 0 (Span.traces_sampled none)

let test_sampling_deterministic () =
  let draw seed =
    let t = Span.create ~sample:0.3 ~seed () in
    List.init 200 (fun _ -> Span.new_trace t <> None)
  in
  Alcotest.(check (list bool)) "same seed, same coin sequence" (draw 42)
    (draw 42);
  let hits = List.length (List.filter Fun.id (draw 42)) in
  Alcotest.(check bool) "rate 0.3 samples some but not all" true
    (hits > 0 && hits < 200)

let test_sampling_rejects_bad_rate () =
  Alcotest.(check bool) "rate above 1 rejected" true
    (match Span.create ~sample:1.5 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- flight recorder: evidence survives ring eviction --- *)

let test_flight_recorder_pins_evidence () =
  let t = Span.create ~capacity:32 ~flight:4 () in
  let ev =
    Span.instant t ~name:"suspicious-loss" ~cat:"evidence" ~pid:2 ~tid:0
      ~time:1.0 ~routers:[ 2 ] ()
  in
  let v =
    Span.verdict t
      { Span.time = 2.0; detector = "chi"; subject = Some 2; suspects = [ 2 ];
        confidence = None; alarm = true; detail = ""; evidence = [ ev ] }
  in
  (* Flood the ring far past capacity; the pinned entries must survive. *)
  for i = 1 to 1_000 do
    ignore
      (Span.instant t ~name:"noise" ~pid:1 ~tid:9 ~time:(3.0 +. float i) ())
  done;
  Alcotest.(check bool) "ring evicted entries" true (Span.dropped t > 0);
  Alcotest.(check bool) "flight recorder holds pins" true (Span.pinned t > 0);
  (match Span.find t ev with
  | Some e -> Alcotest.(check string) "evidence survives" "suspicious-loss" e.Span.name
  | None -> Alcotest.fail "pinned evidence was evicted");
  (match Span.find t v with
  | Some { Span.kind = Span.Verdict { evidence; detector; _ }; _ } ->
      Alcotest.(check (list int)) "verdict keeps its evidence ids" [ ev ] evidence;
      Alcotest.(check string) "detector" "chi" detector
  | _ -> Alcotest.fail "pinned verdict was evicted");
  (* Unpinned noise from before the flood's tail is gone. *)
  Alcotest.(check (option string)) "unpinned entries do evict" None
    (Option.map (fun e -> e.Span.name) (Span.find t (v + 1)));
  (* entries() merges ring and flight buffer without duplicates. *)
  let es = Span.entries t in
  let ids = List.map (fun e -> e.Span.id) es in
  Alcotest.(check int) "no duplicate ids in merged view"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_pin_recent_without_verdict () =
  let t = Span.create ~capacity:16 ~flight:8 () in
  let marked =
    Span.instant t ~name:"crash-site" ~pid:1 ~tid:3 ~time:1.0 ~routers:[ 3 ] ()
  in
  let pinned = Span.pin_recent t ~routers:[ 3 ] () in
  Alcotest.(check bool) "pin_recent pinned something" true (pinned > 0);
  for i = 1 to 200 do
    ignore (Span.instant t ~name:"noise" ~pid:1 ~tid:0 ~time:(2.0 +. float i) ())
  done;
  match Span.find t marked with
  | Some _ -> ()
  | None -> Alcotest.fail "pin_recent did not protect the crash window"

(* --- export: document structure, validation, explain --- *)

let populated_collector () =
  let t = Span.create () in
  let tid = Span.thread t ~pid:Span.detector_pid "chi r2" in
  let hop =
    Span.span t ~trace:1 ~name:"queue" ~cat:"hop" ~pid:Span.network_pid ~tid:2
      ~start:0.10 ~finish:0.25 ~routers:[ 2; 3 ] ()
  in
  let loss =
    Span.instant t ~trace:1 ~name:"suspicious-loss" ~cat:"evidence"
      ~pid:Span.detector_pid ~tid ~time:0.5 ~routers:[ 2 ]
      ~args:[ ("confidence", Export.Float 0.9) ]
      ()
  in
  let _v =
    Span.verdict t
      { Span.time = 1.0; detector = "chi"; subject = Some 2; suspects = [ 2 ];
        confidence = Some 0.9; alarm = true; detail = "loss above threshold";
        evidence = [ hop; loss ] }
  in
  t

let test_document_roundtrip_and_validate () =
  let t = populated_collector () in
  let doc = Trace_export.document t in
  (match Trace_export.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh document fails validation: %s" e);
  (* The serialized form parses back and still validates. *)
  (match Export.of_string (Export.to_string doc) with
  | Error e -> Alcotest.failf "document does not parse back: %s" e
  | Ok parsed -> (
      match Trace_export.validate parsed with
      | Ok () -> ()
      | Error e -> Alcotest.failf "round-tripped document invalid: %s" e));
  Alcotest.(check (option string)) "schema tag" (Some "mrdetect-trace-v1")
    (Option.bind
       (Option.bind (Export.member "otherData" doc) (Export.member "schema"))
       Export.to_string_opt)

let test_verdict_extraction () =
  let doc = Trace_export.document (populated_collector ()) in
  match Trace_export.verdicts doc with
  | [ v ] ->
      Alcotest.(check string) "detector" "chi" v.Span.detector;
      Alcotest.(check (option int)) "subject" (Some 2) v.Span.subject;
      Alcotest.(check (list int)) "suspects" [ 2 ] v.Span.suspects;
      Alcotest.(check bool) "alarm" true v.Span.alarm;
      Alcotest.(check int) "two evidence entries" 2
        (List.length v.Span.evidence)
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

let test_explain_renders_chain () =
  let doc = Trace_export.document (populated_collector ()) in
  match Trace_export.explain doc with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok report ->
      let has needle =
        let nl = String.length needle and tl = String.length report in
        let rec go i = i + nl <= tl && (String.sub report i nl = needle || go (i + 1)) in
        if not (go 0) then Alcotest.failf "missing %S in report:\n%s" needle report
      in
      has "chi ALARM";
      has "subject=r2";
      has "loss above threshold";
      has "suspicious-loss";
      has "queue"

let test_validate_rejects_malformed () =
  let open Export in
  let ev ?(ph = "i") ?(ts = 1.0) ?dur ?(args = []) () =
    Assoc
      ([ ("name", String "e"); ("ph", String ph); ("ts", Float ts);
         ("pid", Int 1); ("tid", Int 0) ]
      @ (match dur with Some d -> [ ("dur", Float d) ] | None -> [])
      @ [ ("args", Assoc (("id", Int 1) :: args)) ])
  in
  let doc evs = Assoc [ ("traceEvents", List evs) ] in
  let rejects label d =
    match Trace_export.validate d with
    | Ok () -> Alcotest.failf "%s should have been rejected" label
    | Error _ -> ()
  in
  rejects "no traceEvents" (Assoc [ ("displayTimeUnit", String "ms") ]);
  rejects "unknown phase" (doc [ ev ~ph:"B" () ]);
  rejects "X without dur" (doc [ ev ~ph:"X" () ]);
  rejects "negative dur" (doc [ ev ~ph:"X" ~dur:(-1.0) () ]);
  rejects "time going backwards" (doc [ ev ~ts:2.0 (); ev ~ts:1.0 () ]);
  rejects "dangling evidence id"
    (doc [ ev ~args:[ ("evidence", List [ Int 999 ]) ] () ]);
  match Trace_export.validate (doc [ ev ~ph:"X" ~dur:3.0 () ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-formed event rejected: %s" e

(* --- golden: a simulate run's trace export parses and explains --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count_events pred doc =
  match Option.bind (Export.member "traceEvents" doc) Export.to_list_opt with
  | None -> 0
  | Some evs -> List.length (List.filter pred evs)

let event_str k ev = Option.bind (Export.member k ev) Export.to_string_opt

let test_simulate_trace_golden () =
  let path = Filename.temp_file "mrdetect_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Quiet scenario output; the trace file is what we check. *)
      let devnull = open_out (if Sys.win32 then "NUL" else "/dev/null") in
      let stdout_backup = Unix.dup Unix.stdout in
      flush stdout;
      Unix.dup2 (Unix.descr_of_out_channel devnull) Unix.stdout;
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 stdout_backup Unix.stdout;
          Unix.close stdout_backup;
          close_out devnull)
        (fun () ->
          Experiments.Simulate.run
            { Experiments.Simulate.Config.default with
              attack = Drop_fraction 0.4; duration = 25.0; seed = 7; flows = 6;
              trace_out = Some path });
      let text = read_file path in
      (* MD5 of the whole document, recorded before the probe, the span
         collector and the trace reader shared one verdict record, and
         re-pinned when segments came to be numbered in family order:
         a verdict's flight window (the newest entries naming its
         routers) then took a different summary dispatch of the same
         instant; and re-pinned when each hop's processing jitter came
         to be drawn at transmit-start, which moved the random draw
         order. *)
      Alcotest.(check string) "trace document matches the recorded digest"
        "e930923fca85810da8b9b77339f33b61" (Digest.to_hex (Digest.string text));
      match Export.of_string (String.trim text) with
      | Error e -> Alcotest.failf "trace file is not valid JSON: %s" e
      | Ok doc ->
          (match Trace_export.validate doc with
          | Ok () -> ()
          | Error e -> Alcotest.failf "trace file fails validation: %s" e);
          let is_span name ev =
            event_str "ph" ev = Some "X" && event_str "name" ev = Some name
          in
          Alcotest.(check bool) "per-hop queue spans present" true
            (count_events (is_span "queue") doc > 0);
          Alcotest.(check bool) "per-hop transmit spans present" true
            (count_events (is_span "transmit") doc > 0);
          Alcotest.(check bool) "detector round spans present" true
            (count_events
               (fun ev ->
                 event_str "ph" ev = Some "X" && event_str "cat" ev = Some "round")
               doc
             > 0);
          (match Trace_export.verdicts doc with
          | [] -> Alcotest.fail "no verdict provenance in trace"
          | vs ->
              Alcotest.(check bool) "an alarm names the attacker" true
                (List.exists
                   (fun v ->
                     v.Span.alarm
                     && (v.Span.subject = Some 2
                        || List.mem 2 v.Span.suspects))
                   vs);
              Alcotest.(check bool) "a verdict carries evidence" true
                (List.exists (fun v -> v.Span.evidence <> []) vs));
          (* validate already proved every evidence id resolves; explain
             must therefore render a non-empty report. *)
          (match Trace_export.explain doc with
          | Ok report ->
              Alcotest.(check bool) "explain renders a chain" true
                (String.length report > 0);
              (* Re-pinned with the document: the evidence entries'
                 ids moved down by one, and again with the jitter
                 fold. *)
              Alcotest.(check string) "explain text matches the recorded digest"
                "accfb007525374a7b9b1e5b6e95e3e5d" (Digest.to_hex (Digest.string report))
          | Error e -> Alcotest.failf "explain failed: %s" e))

let () =
  Alcotest.run "trace"
    [ ( "span",
        [ Alcotest.test_case "ids and ordering" `Quick test_span_ids_monotone;
          Alcotest.test_case "negative duration clamped" `Quick
            test_span_negative_duration_clamped ] );
      ( "sampling",
        [ Alcotest.test_case "extremes" `Quick test_sampling_extremes;
          Alcotest.test_case "deterministic" `Quick test_sampling_deterministic;
          Alcotest.test_case "bad rate rejected" `Quick
            test_sampling_rejects_bad_rate ] );
      ( "flight",
        [ Alcotest.test_case "verdict pins evidence" `Quick
            test_flight_recorder_pins_evidence;
          Alcotest.test_case "pin_recent" `Quick test_pin_recent_without_verdict ] );
      ( "export",
        [ Alcotest.test_case "round-trip and validate" `Quick
            test_document_roundtrip_and_validate;
          Alcotest.test_case "verdict extraction" `Quick test_verdict_extraction;
          Alcotest.test_case "explain" `Quick test_explain_renders_chain;
          Alcotest.test_case "malformed rejected" `Quick
            test_validate_rejects_malformed ] );
      ( "golden",
        [ Alcotest.test_case "simulate --trace-out round-trips" `Quick
            test_simulate_trace_golden ] ) ]
