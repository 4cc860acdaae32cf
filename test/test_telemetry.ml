(* Tests for the telemetry subsystem: log-bucketed histograms, bounded
   journal, JSON emitter/parser round-trips, Prometheus exposition, and
   an end-to-end golden check that `mrdetect simulate --metrics` output
   parses back and conserves packets. *)

open Telemetry

(* --- histograms: bucketing edge cases --- *)

let test_histogram_zero_and_negative () =
  let h = Hist.create ~buckets:8 () in
  Alcotest.(check int) "zero lands in bin 0" 0 (Hist.bucket_index h 0.0);
  Alcotest.(check int) "negative lands in bin 0" 0 (Hist.bucket_index h (-3.5));
  Hist.record h 0.0;
  Hist.record h (-1.0);
  Alcotest.(check int) "count tracks records" 2 (Hist.count h)

let test_histogram_boundaries () =
  (* With min_exp = 0: bin 1 is (0, 1], bin 2 is (1, 2], bin 3 is (2, 4]. *)
  let h = Hist.create ~buckets:8 () in
  Alcotest.(check int) "1.0 in bin 1" 1 (Hist.bucket_index h 1.0);
  Alcotest.(check int) "just above 1 in bin 2" 2 (Hist.bucket_index h 1.0001);
  Alcotest.(check int) "2.0 in bin 2" 2 (Hist.bucket_index h 2.0);
  Alcotest.(check int) "3.0 in bin 3" 3 (Hist.bucket_index h 3.0);
  Alcotest.(check int) "4.0 in bin 3" 3 (Hist.bucket_index h 4.0);
  Alcotest.(check (float 1e-9)) "bin 3 upper edge" 4.0 (Hist.bucket_upper h 3)

let test_histogram_overflow () =
  let h = Hist.create ~buckets:4 () in
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
  let h = Hist.create ~buckets:24 ~min_exp:(-14) () in
  Alcotest.(check int) "2^-14 in bin 1" 1 (Hist.bucket_index h (Float.pow 2.0 (-14.0)));
  Alcotest.(check int) "2^-13 in bin 2" 2 (Hist.bucket_index h (Float.pow 2.0 (-13.0)));
  Alcotest.(check bool) "tiny value above zero not in bin 0" true
    (Hist.bucket_index h 1e-9 >= 1)

(* [Hist.record] finds [ceil (log2 v)] from the float's bits wherever
   log2's rounding cannot matter and rounds the fixed-point sum without
   [Float.round]; both must agree with those C calls bit for bit,
   including within a few ulps of a power of two and at half-quantum
   ties, where a shortcut would differ. *)
let hist_value =
  let open QCheck.Gen in
  let near_pow2 =
    map2
      (fun k d -> Int64.float_of_bits (Int64.add (Int64.bits_of_float (Float.ldexp 1.0 k)) (Int64.of_int d)))
      (-20 -- 12) (frequency [ (3, -8 -- 8); (1, -3000 -- 3000) ])
  in
  let tie = map (fun q -> (float_of_int q +. 0.5) /. 0x1p26) (-100_000 -- 100_000) in
  oneof
    [ map Int64.float_of_bits ui64; near_pow2; tie; float_bound_inclusive 10.0;
      oneofl [ 0.0; -0.0; 1.0; 0.5; 2.0; infinity; neg_infinity; nan; 0x1p-1074; 0x1p36 ] ]

let prop_hist_matches_libm =
  QCheck.Test.make ~name:"Hist bucket and sum = ceil (log2 v) and Float.round" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") hist_value)
    (fun v ->
      let h = Hist.create ~buckets:24 ~min_exp:(-14) () in
      let n = Hist.buckets h in
      let bucket =
        if v <= 0.0 then 0
        else if not (v < infinity) then n - 1
        else
          let i = int_of_float (Float.ceil (Float.log2 v)) - -14 + 1 in
          if i < 1 then 1 else if i >= n then n - 1 else i
      in
      let quanta =
        if Float.abs v < 0x1p36 then int_of_float (Float.round (v *. 0x1p26)) else 0
      in
      Hist.record h v;
      Hist.bucket_index h v = bucket
      && Hist.bucket_count h bucket = 1
      && Hist.sum h = float_of_int quanta *. 0x1p-26)

(* [Timeseries.record] skips its division for a time inside the window
   of the last bucket; the buckets must be exactly those of the plain
   division, clamping and coarsening included, on times that sit a few
   ulps either side of bucket edges. *)
let timeseries_case =
  let open QCheck.Gen in
  let res = oneofl [ 0.05; 0.1; 0.3; 1.0 ] in
  let time res =
    frequency
      [ (3, float_bound_inclusive 40.0);
        ( 3,
          map2
            (fun k d ->
              Int64.float_of_bits
                (Int64.add (Int64.bits_of_float (float_of_int k *. res)) (Int64.of_int d)))
            (0 -- 60) (-4 -- 4) );
        (1, map (fun x -> -.x) (float_bound_inclusive 1.0)) ]
  in
  (* Sorted, as a run's samples mostly are, so the window is in use. *)
  res >>= fun res ->
  pair (return res)
    (map2
       (fun sorted ts -> if sorted then List.sort compare ts else ts)
       (frequencyl [ (4, true); (1, false) ])
       (list_size (0 -- 400) (time res)))

let prop_timeseries_matches_division =
  QCheck.Test.make ~name:"Timeseries.record = bucket by division" ~count:500
    (QCheck.make timeseries_case)
    (fun (res, times) ->
      let capacity = 64 in
      let ts = Timeseries.create ~capacity ~resolution:res () in
      let counts = Array.make capacity 0 and r = ref res and used = ref 0 in
      let coarsen () =
        let half = (!used + 1) / 2 in
        for i = 0 to half - 1 do
          counts.(i) <- counts.(2 * i) + if (2 * i) + 1 < !used then counts.((2 * i) + 1) else 0
        done;
        Array.fill counts half (capacity - half) 0;
        used := half;
        r := !r *. 2.0
      in
      (* Checked after every sample: a later coarsening can fold a
         misplaced sample into the right bucket. *)
      List.for_all
        (fun time ->
          Timeseries.record ts ~at:{ Prioq.Event.f = time } 1;
          let idx () = max 0 (int_of_float (time /. !r)) in
          while idx () >= capacity do
            coarsen ()
          done;
          let i = idx () in
          counts.(i) <- counts.(i) + 1;
          if i >= !used then used := i + 1;
          Timeseries.resolution ts = !r
          && Timeseries.used ts = !used
          && Timeseries.bucket_count ts i = counts.(i))
        times)

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

let prom_hist ~name ~labels h =
  let buf = Buffer.create 512 in
  Export.prometheus_append_hist buf ~name ~labels h;
  Buffer.contents buf

let test_prom_label_escaping () =
  let h = Hist.create ~buckets:4 () in
  Hist.record h 0.5;
  (* backslash, double quote and newline — the three characters the
     exposition format requires escaping in label values. *)
  let text = prom_hist ~name:"esc" ~labels:[ ("path", "a\\b\"c\nd") ] h in
  check_contains text "esc_count{path=\"a\\\\b\\\"c\\nd\"} 1";
  (* No double escaping: the rendered line has exactly one backslash
     pair for the input backslash. *)
  if contains text "\\\\\\\\" then
    Alcotest.failf "label value double-escaped:\n%s" text

let test_prom_histogram_le_edges () =
  let h = Hist.create ~buckets:4 () in
  Hist.record h 0.5;
  Hist.record h 1.5;
  Hist.record h 1e30;
  let text = prom_hist ~name:"lat" ~labels:[ ("queue", "q0") ] h in
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

let test_simulate_metrics_conserve () =
  let path = Filename.temp_file "mrdetect_metrics" ".json" in
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
            { Experiments.Simulate.Config.default with
              protocol = "chi"; attack = Drop_fraction 0.3; duration = 12.0; seed = 7;
              flows = 6; metrics = Some path });
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
          Alcotest.(check int) "packets conserve" injected
            (delivered + dropped + fragmented + in_flight);
          Alcotest.(check bool) "engine processed events" true
            (req_int [ "engine"; "events_processed" ] doc > 0);
          (* The drops-by-cause object sums to the conservation block. *)
          let drops =
            match field [ "drops" ] doc with
            | Some (Export.Assoc kvs) -> kvs
            | _ -> Alcotest.fail "missing drops object"
          in
          Alcotest.(check (list string)) "every drop cause"
            [ "congestion"; "red_early"; "link_down"; "corrupted"; "malicious";
              "no_route"; "ttl_expired" ]
            (List.map fst drops);
          Alcotest.(check int) "drops by cause sum to the block" dropped
            (List.fold_left
               (fun acc (_, n) -> acc + Option.value ~default:0 (Export.to_int n))
               0 drops);
          (* The attacker is the only router with malicious actions. *)
          (match field [ "malice" ] doc with
          | Some (Export.Assoc [ ("2", n) ]) ->
              Alcotest.(check bool) "attacker acted" true
                (Option.value ~default:0 (Export.to_int n) > 0)
          | _ -> Alcotest.fail "malice should name router 2 alone");
          (* One latency record per delivered packet, in the stats block. *)
          let str key s = Option.bind (Export.member key s) Export.to_string_opt in
          let stats_hists =
            Option.get (Option.bind (field [ "stats"; "hists" ] doc) Export.to_list_opt)
          in
          let latency =
            List.find (fun h -> str "name" h = Some "delivery_latency") stats_hists
          in
          Alcotest.(check int) "stats latency counts every delivery" delivered
            (req_int [ "count" ] latency))

let () =
  Alcotest.run "telemetry"
    [ ("histogram",
       [ Alcotest.test_case "zero and negative" `Quick test_histogram_zero_and_negative;
         Alcotest.test_case "bucket boundaries" `Quick test_histogram_boundaries;
         Alcotest.test_case "overflow bin" `Quick test_histogram_overflow;
         Alcotest.test_case "unrepresentable values skip the sum" `Quick
           test_histogram_unrepresentable_sum;
         Alcotest.test_case "min_exp shift" `Quick test_histogram_min_exp;
         QCheck_alcotest.to_alcotest prop_hist_matches_libm ]);
      ("timeseries", [ QCheck_alcotest.to_alcotest prop_timeseries_matches_division ]);
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
