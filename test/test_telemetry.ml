(* Tests for the telemetry subsystem: metrics registry (counters,
   gauges, log-bucketed histograms), bounded journal, JSON
   emitter/parser round-trips, and an end-to-end golden check that
   `mrdetect simulate --metrics` output parses back and conserves
   packets. *)

open Telemetry

(* --- histograms: bucketing edge cases --- *)

let test_histogram_zero_and_negative () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:8 "h" in
  Alcotest.(check int) "zero lands in bin 0" 0 (Hist.bucket_index h 0.0);
  Alcotest.(check int) "negative lands in bin 0" 0 (Hist.bucket_index h (-3.5));
  Hist.record h 0.0;
  Hist.record h (-1.0);
  Alcotest.(check int) "count tracks records" 2 (Hist.count h)

let test_histogram_boundaries () =
  (* With min_exp = 0: bin 1 is (0, 1], bin 2 is (1, 2], bin 3 is (2, 4]. *)
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:8 "h" in
  Alcotest.(check int) "1.0 in bin 1" 1 (Hist.bucket_index h 1.0);
  Alcotest.(check int) "just above 1 in bin 2" 2 (Hist.bucket_index h 1.0001);
  Alcotest.(check int) "2.0 in bin 2" 2 (Hist.bucket_index h 2.0);
  Alcotest.(check int) "3.0 in bin 3" 3 (Hist.bucket_index h 3.0);
  Alcotest.(check int) "4.0 in bin 3" 3 (Hist.bucket_index h 4.0);
  Alcotest.(check (float 1e-9)) "bin 3 upper edge" 4.0 (Hist.bucket_upper h 3)

let test_histogram_overflow () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:4 "h" in
  (* buckets = 4: bin 0 (<= 0), bin 1 (0,1], bin 2 (1,2], bin 3 overflow. *)
  Alcotest.(check int) "huge value in overflow bin" 3
    (Hist.bucket_index h 1e30);
  Alcotest.(check int) "infinity in overflow bin" 3
    (Hist.bucket_index h infinity);
  Alcotest.(check bool) "overflow upper edge is +inf" true
    (Hist.bucket_upper h 3 = infinity);
  Hist.record h 1e30;
  Hist.record h 0.5;
  Alcotest.(check int) "count" 2 (Hist.count h);
  (* 1e30 is past the fixed-point range: counted, but not summed. *)
  Alcotest.(check (float 0.0)) "sum" 0.5 (Hist.sum h)

let test_histogram_unrepresentable_sum () =
  (* At |v| >= 2^36 the count of 2^-26 quanta overflows an OCaml int, so
     quantizing such a value wraps the sum (1e11 would add about
     -3.7e10).  It must land in its bucket and leave the sum alone. *)
  let h = Hist.create ~buckets:8 () in
  List.iter (Hist.record h) [ 0.5; 1e11; -3e11; 1e30; infinity; neg_infinity; nan ];
  Alcotest.(check int) "every value counted" 7 (Hist.count h);
  Alcotest.(check int) "overflow bin" 4 (Hist.bucket_count h 7);
  Alcotest.(check int) "non-positive bin" 2 (Hist.bucket_count h 0);
  Alcotest.(check (float 0.0)) "sum holds only the representable value" 0.5
    (Hist.sum h);
  (* Just inside the range still sums exactly. *)
  Hist.record h 0x1.fffffp35;
  Alcotest.(check (float 0.0)) "largest representable magnitudes sum"
    (0.5 +. 0x1.fffffp35) (Hist.sum h)

let test_histogram_min_exp () =
  (* min_exp shifts the whole ladder: with min_exp = -14, bin 1 is
     (0, 2^-14] — sub-millisecond latencies stay distinguishable. *)
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:24 ~min_exp:(-14) "lat" in
  Alcotest.(check int) "2^-14 in bin 1" 1 (Hist.bucket_index h (Float.pow 2.0 (-14.0)));
  Alcotest.(check int) "2^-13 in bin 2" 2 (Hist.bucket_index h (Float.pow 2.0 (-13.0)));
  Alcotest.(check bool) "tiny value above zero not in bin 0" true
    (Hist.bucket_index h 1e-9 >= 1)

(* --- counters: label cardinality --- *)

let test_counter_label_identity () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "drops" ~labels:[ ("cause", "congestion") ] in
  (* Same name + same labels (any order) resolves to the same series. *)
  let a' = Metrics.counter reg "drops" ~labels:[ ("cause", "congestion") ] in
  let b = Metrics.counter reg "drops" ~labels:[ ("cause", "malicious") ] in
  Metrics.inc a;
  Metrics.add a' 2;
  Metrics.inc b;
  Alcotest.(check int) "same labels share the cell" 3 (Metrics.counter_value a);
  Alcotest.(check int) "distinct labels are distinct series" 1
    (Metrics.counter_value b);
  let series =
    List.filter (fun (name, _, _, _) -> name = "drops") (Metrics.snapshot reg)
  in
  Alcotest.(check int) "two series in the family" 2 (List.length series)

let test_counter_label_order_insensitive () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "x" ~labels:[ ("a", "1"); ("b", "2") ] in
  let b = Metrics.counter reg "x" ~labels:[ ("b", "2"); ("a", "1") ] in
  Metrics.inc a;
  Alcotest.(check int) "label order does not split the series" 1
    (Metrics.counter_value b)

let test_type_conflict_rejected () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "n");
  Alcotest.check_raises "re-registering as a gauge fails"
    (Invalid_argument "Metrics.gauge: n is not a gauge") (fun () ->
      ignore (Metrics.gauge reg "n"))

(* --- journal: bounded memory under sustained load --- *)

let test_journal_bounded_1m () =
  let j = Journal.create ~capacity:4096 () in
  let n = 1_000_000 in
  for i = 1 to n do
    Journal.record j i
  done;
  Alcotest.(check int) "total counts every offer" n (Journal.total j);
  Alcotest.(check int) "retained is capped at capacity" 4096 (Journal.retained j);
  Alcotest.(check int) "dropped is the excess" (n - 4096) (Journal.dropped j);
  (* The ring keeps exactly the newest 4096, oldest first. *)
  let contents = Journal.to_list j in
  Alcotest.(check int) "list length" 4096 (List.length contents);
  Alcotest.(check int) "oldest retained" (n - 4096 + 1) (List.hd contents);
  Alcotest.(check int) "newest retained" n (List.nth contents 4095)

let test_journal_under_capacity () =
  let j = Journal.create ~capacity:16 () in
  List.iter (Journal.record j) [ "a"; "b"; "c" ];
  Alcotest.(check int) "retained = total when under capacity" 3 (Journal.retained j);
  Alcotest.(check int) "nothing dropped" 0 (Journal.dropped j);
  Alcotest.(check (list string)) "order preserved" [ "a"; "b"; "c" ]
    (Journal.to_list j);
  Journal.clear j;
  Alcotest.(check int) "clear resets" 0 (Journal.total j)

(* --- JSON: emitter/parser round-trip --- *)

let test_json_roundtrip () =
  let open Export in
  let doc =
    Assoc
      [ ("s", String "a \"quoted\"\n\tstring");
        ("i", Int (-42));
        ("f", Float 3.25);
        ("big", Float 1.5e300);
        ("null", Null);
        ("flags", List [ Bool true; Bool false ]);
        ("nested", Assoc [ ("xs", List [ Int 1; Int 2; Int 3 ]) ]) ]
  in
  match of_string (to_string doc) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
      Alcotest.(check string) "round-trip is stable" (to_string doc)
        (to_string parsed)

let test_json_special_floats () =
  let open Export in
  (match of_string (to_string (Float nan)) with
  | Ok Null -> ()
  | _ -> Alcotest.fail "NaN must render as null");
  match of_string (to_string (Float infinity)) with
  | Ok (Float f) -> Alcotest.(check bool) "inf survives" true (f = infinity)
  | _ -> Alcotest.fail "infinity must parse back"

let test_json_accessors () =
  let open Export in
  match of_string {|{"a": {"b": [10, 2.5, "x"]}}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc ->
      let b = Option.get (member "a" doc) |> member "b" |> Option.get in
      let xs = Option.get (to_list_opt b) in
      Alcotest.(check (option int)) "int" (Some 10) (to_int (List.nth xs 0));
      Alcotest.(check (option (float 1e-9))) "float widens int" (Some 10.0)
        (to_float (List.nth xs 0));
      Alcotest.(check (option int)) "int truncates float" (Some 2)
        (to_int (List.nth xs 1));
      Alcotest.(check (option string)) "string" (Some "x")
        (to_string_opt (List.nth xs 2))

(* --- \u escape decoding --- *)

let parse_string_exn s =
  match Export.of_string s with
  | Ok (Export.String v) -> v
  | Ok _ -> Alcotest.failf "%s did not parse to a string" s
  | Error e -> Alcotest.failf "%s failed to parse: %s" s e

let test_unicode_escapes () =
  Alcotest.(check string) "ASCII escape" "A" (parse_string_exn {|"A"|});
  (* 2-byte UTF-8: U+00E9 LATIN SMALL LETTER E WITH ACUTE. *)
  Alcotest.(check string) "latin-1 supplement" "\xc3\xa9"
    (parse_string_exn {|"\u00e9"|});
  (* 3-byte UTF-8: U+20AC EURO SIGN. *)
  Alcotest.(check string) "BMP three-byte" "\xe2\x82\xac"
    (parse_string_exn {|"\u20ac"|});
  (* Surrogate halves (here U+1F600 as a pair) are not reassembled:
     each folds to '?'. *)
  Alcotest.(check string) "surrogate pair folds" "??"
    (parse_string_exn {|"\ud83d\ude00"|});
  (* Control characters round-trip through the emitter's \u form. *)
  let s = "ctl\x01\x1f" in
  Alcotest.(check string) "control chars round-trip" s
    (parse_string_exn (Export.to_string (Export.String s)));
  match Export.of_string {|"\uZZZZ"|} with
  | Ok _ -> Alcotest.fail "malformed \\u escape accepted"
  | Error _ -> ()

(* --- Prometheus text exposition: escaping and le edges --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_contains text needle =
  if not (contains text needle) then
    Alcotest.failf "missing %S in:\n%s" needle text

let test_prom_label_escaping () =
  let reg = Metrics.create () in
  (* backslash, double quote and newline — the three characters the
     exposition format requires escaping in label values. *)
  Metrics.inc (Metrics.counter reg "esc" ~labels:[ ("path", "a\\b\"c\nd") ]);
  let text = Export.prometheus_of_registry reg in
  check_contains text "esc{path=\"a\\\\b\\\"c\\nd\"} 1";
  (* No double escaping: the rendered line has exactly one backslash
     pair for the input backslash. *)
  if contains text "\\\\\\\\" then
    Alcotest.failf "label value double-escaped:\n%s" text

let test_prom_histogram_le_edges () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:4 "lat" ~labels:[ ("queue", "q0") ] in
  Hist.record h 0.5;
  Hist.record h 1.5;
  Hist.record h 1e30;
  let text = Export.prometheus_of_registry reg in
  (* Finite bucket edges render as plain numbers, the overflow bin as
     +Inf, and the counts are cumulative. *)
  check_contains text "lat_bucket{queue=\"q0\",le=\"0\"} 0";
  check_contains text "lat_bucket{queue=\"q0\",le=\"1\"} 1";
  check_contains text "lat_bucket{queue=\"q0\",le=\"2\"} 2";
  check_contains text "lat_bucket{queue=\"q0\",le=\"+Inf\"} 3";
  check_contains text "lat_count{queue=\"q0\"} 3";
  check_contains text "# TYPE lat histogram"

(* --- journal: single-writer guard under domains --- *)

let test_journal_cross_domain_rejected () =
  let j = Journal.create ~capacity:16 () in
  Journal.record j 1;
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           match Journal.record j 2 with
           | () -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "cross-domain record raises" true raised;
  Alcotest.(check int) "owner's records intact" 1 (Journal.total j);
  (* clear releases ownership: another domain may claim the journal. *)
  Journal.clear j;
  let claimed =
    Domain.join
      (Domain.spawn (fun () ->
           match Journal.record j 3 with
           | () -> true
           | exception Invalid_argument _ -> false))
  in
  Alcotest.(check bool) "clear releases ownership" true claimed

let test_journal_per_domain_merge () =
  (* The supported multi-domain pattern: one journal per domain, merged
     at collection time.  Two domains hammer their own journals. *)
  let js = Array.init 2 (fun _ -> Journal.create ~capacity:4096 ()) in
  let doms =
    Array.mapi
      (fun i j ->
        Domain.spawn (fun () ->
            for k = 0 to 9_999 do
              Journal.record j ((i * 10_000) + k)
            done))
      js
  in
  Array.iter Domain.join doms;
  let merged = List.concat_map Journal.to_list (Array.to_list js) in
  Alcotest.(check int) "both rings full after the merge"
    (2 * 4096) (List.length merged);
  Array.iteri
    (fun i j ->
      Alcotest.(check int) "nothing lost beyond ring eviction" 10_000
        (Journal.total j);
      match Journal.to_list j with
      | newest_surviving :: _ ->
          Alcotest.(check int) "oldest survivor is total - capacity"
            ((i * 10_000) + 10_000 - 4096) newest_surviving
      | [] -> Alcotest.fail "empty journal after stress")
    js

(* --- golden: a simulate run's metrics export parses and conserves --- *)

let field path doc =
  List.fold_left
    (fun acc k -> Option.bind acc (Export.member k))
    (Some doc) path

let req_int path doc =
  match Option.bind (field path doc) Export.to_int with
  | Some v -> v
  | None -> Alcotest.failf "missing integer field %s" (String.concat "." path)

let simulate_metrics_conserve ~shards =
  let path = Filename.temp_file "mrdetect_metrics" ".json" in
  let check_int name = Alcotest.(check int) (Printf.sprintf "K=%d: %s" shards name) in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Quiet scenario output; the export file is what we check. *)
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
            (Experiments.Simulate.Config.make_exn ~protocol:"chi"
               ~attack:(Experiments.Simulate.Drop_fraction 0.3) ~attacker:2
               ~duration:12.0 ~seed:7 ~flows:6 ~metrics:path ~shards
               Experiments.Simulate.Ring));
      let contents =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Export.of_string contents with
      | Error e -> Alcotest.failf "metrics file is not valid JSON: %s" e
      | Ok doc ->
          Alcotest.(check (option string)) "schema" (Some "mrdetect-metrics-v1")
            (Option.bind (field [ "schema" ] doc) Export.to_string_opt);
          let injected = req_int [ "conservation"; "injected" ] doc in
          let delivered = req_int [ "conservation"; "delivered" ] doc in
          let dropped = req_int [ "conservation"; "dropped" ] doc in
          let fragmented = req_int [ "conservation"; "fragmented" ] doc in
          let in_flight = req_int [ "conservation"; "in_flight" ] doc in
          Alcotest.(check bool) "some traffic ran" true (injected > 0);
          check_int "packets conserve" injected
            (delivered + dropped + fragmented + in_flight);
          Alcotest.(check bool) "engine processed events" true
            (req_int [ "engine"; "events_processed" ] doc > 0);
          (* The registry view agrees with the conservation block. *)
          let metrics = Option.get (field [ "metrics" ] doc) in
          let series = Option.get (Export.to_list_opt metrics) in
          let str key s = Option.bind (Export.member key s) Export.to_string_opt in
          let sum_counter name =
            List.fold_left
              (fun acc s ->
                match str "name" s with
                | Some n when n = name ->
                    acc + Option.value ~default:0
                            (Option.bind (Export.member "value" s) Export.to_int)
                | _ -> acc)
              0 series
          in
          check_int "dropped counter family sums to the block"
            dropped (sum_counter "pkt_dropped_total");
          (* One latency record per delivered packet: the stats block keeps
             it, the registry carries no second copy. *)
          let stats_hists =
            Option.get (Option.bind (field [ "stats"; "hists" ] doc) Export.to_list_opt)
          in
          let latency =
            List.find (fun h -> str "name" h = Some "delivery_latency") stats_hists
          in
          check_int "stats latency counts every delivery" delivered
            (req_int [ "count" ] latency);
          Alcotest.(check (list string)) "registry has no latency histogram" []
            (List.filter_map
               (fun s ->
                 match (str "name" s, str "type" s) with
                 | Some n, Some "histogram" when contains n "latency" -> Some n
                 | _ -> None)
               series);
          (* The size histogram keeps its 16-bucket, 2^4-based geometry. *)
          let pkt_size = List.find (fun s -> str "name" s = Some "pkt_size_bytes") series in
          let edges =
            List.map
              (fun b -> Export.to_string (Option.get (Export.member "le" b)))
              (Option.get (Option.bind (Export.member "buckets" pkt_size) Export.to_list_opt))
          in
          Alcotest.(check (list string)) "pkt_size_bytes le edges"
            (("0" :: List.init 14 (fun i -> string_of_int (1 lsl (i + 4)))) @ [ "1e999" ])
            edges)

let test_simulate_metrics_conserve () =
  List.iter (fun shards -> simulate_metrics_conserve ~shards) [ 0; 2 ]

let () =
  Alcotest.run "telemetry"
    [ ("histogram",
       [ Alcotest.test_case "zero and negative" `Quick test_histogram_zero_and_negative;
         Alcotest.test_case "bucket boundaries" `Quick test_histogram_boundaries;
         Alcotest.test_case "overflow bin" `Quick test_histogram_overflow;
         Alcotest.test_case "unrepresentable values skip the sum" `Quick
           test_histogram_unrepresentable_sum;
         Alcotest.test_case "min_exp shift" `Quick test_histogram_min_exp ]);
      ("counters",
       [ Alcotest.test_case "label identity" `Quick test_counter_label_identity;
         Alcotest.test_case "label order" `Quick test_counter_label_order_insensitive;
         Alcotest.test_case "type conflict" `Quick test_type_conflict_rejected ]);
      ("journal",
       [ Alcotest.test_case "bounded under 1M events" `Quick test_journal_bounded_1m;
         Alcotest.test_case "under capacity" `Quick test_journal_under_capacity;
         Alcotest.test_case "cross-domain write rejected" `Quick
           test_journal_cross_domain_rejected;
         Alcotest.test_case "per-domain journals merge" `Quick
           test_journal_per_domain_merge ]);
      ("json",
       [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
         Alcotest.test_case "special floats" `Quick test_json_special_floats;
         Alcotest.test_case "accessors" `Quick test_json_accessors;
         Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes ]);
      ("prometheus",
       [ Alcotest.test_case "label escaping" `Quick test_prom_label_escaping;
         Alcotest.test_case "histogram le edges" `Quick
           test_prom_histogram_le_edges ]);
      ("golden",
       [ Alcotest.test_case "simulate --metrics conserves" `Quick
           test_simulate_metrics_conserve ]) ]
