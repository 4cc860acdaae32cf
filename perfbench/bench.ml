(* perfbench: the detector-deployed performance benchmark.

     bench.exe run WORKLOAD SEED             one untraced pass, one JSON line
     bench.exe trace WORKLOAD SEED OUT.json  the traced pass: per-layer metrics
     bench.exe smoke DIR                     short-horizon self-check, all rows
     bench.exe compare BENCHMARK.json A B    judge set B against set A

   perfbench/run.py builds this executable and drives it; see README.md.
   Everything here is single-threaded on the default engine. *)

module W = Workload
module Net = Netsim.Net
module J = Telemetry.Export
module Span = Telemetry.Span

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [on] sees the absolute start and finish times. *)
let timed ?(on = fun _ _ -> ()) f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  on t0 t1;
  (r, t1 -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Seconds per call, as the minimum over short (~0.3 ms) batches: the
   estimator of bench/main.ml's [measure_min].  On a shared vCPU
   neighbour load only inflates a reading. *)
let measure_min ?(batches = 200) f =
  let t0 = now () in
  for _ = 1 to 8 do f () done;
  let per_call = (now () -. t0) /. 8.0 in
  let per_batch = max 1 (int_of_float (0.0003 /. Float.max per_call 1e-9)) in
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = now () in
    for _ = 1 to per_batch do f () done;
    best := Float.min !best ((now () -. t0) /. float_of_int per_batch)
  done;
  !best

(* --- one pass: setup, run, scoring ----------------------------------- *)

type pass = {
  setup_s : float;
  run_s : float;
  score_s : float;
  alloc_words : float;  (** minor words allocated during the run *)
  promoted_words : float;
  major_collections : int;
  hops : int;
  counts : (string * float) list;
  checks : W.check list;
  digest : string;
}

let wall p = p.setup_s +. p.run_s +. p.score_s

(* [drive] runs the simulation (single-shot by default); [on_phase]
   sees each phase's name and start/finish times; [keep] extracts what
   the caller needs from the finished scenario, which is then dropped
   (a fatih scenario on sprintlink holds ~400 MB).  The heap is settled
   before the run so every timed run starts alike. *)
let run_pass ?layers ?step ?(drive = fun (w : W.t) -> Net.run ~until:w.W.spec.W.horizon w.W.net)
    ?(on_phase = fun _ _ _ -> ()) ~keep spec ~seed =
  let phase name f = timed ~on:(on_phase name) f in
  let w, setup_s = phase "setup" (fun () -> W.build ?layers ?step spec ~seed) in
  Gc.full_major ();
  let s0 = Gc.quick_stat () and mw0 = Gc.minor_words () in
  let (), run_s = phase "run" (fun () -> drive w) in
  let mw1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  let (checks, digest), score_s = phase "score" (fun () -> (W.checks w, W.digest w)) in
  ( { setup_s; run_s; score_s; alloc_words = mw1 -. mw0;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
      hops = W.hops w; counts = W.counts w; checks; digest },
    keep w )

let checks_json checks =
  J.List
    (List.map
       (fun c ->
         J.Assoc
           [ ("check", J.String c.W.check); ("ok", J.Bool c.W.ok);
             ("detail", J.String c.W.detail) ])
       checks)

(* The untraced pass behind every end-to-end metric.  Set-up is then
   repeated (up to 20 builds or 0.25 s in all) and reported as the
   median; the heap peak is read before the extra builds.  Each repeat
   starts on an empty minor heap: otherwise whether a minor collection
   lands inside a set-up of tens of microseconds depends on what the
   seed's run allocated, which moved chi's set-up 1.8x between seeds. *)
let run_mode spec ~seed =
  let p, () = run_pass ~keep:ignore spec ~seed in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  let rec more acc spent =
    if List.length acc >= 20 || spent >= 0.25 then acc
    else begin
      Gc.minor ();
      let _, s = timed (fun () -> W.build spec ~seed) in
      more (s :: acc) (spent +. s)
    end
  in
  J.Assoc
    [ ("setup_s", J.Float (median (more [ p.setup_s ] p.setup_s)));
      ("run_s", J.Float p.run_s);
      ("wall_s", J.Float (wall p));
      ("hops", J.Int p.hops);
      ("events", J.Int (int_of_float (List.assoc "sim.events" p.counts)));
      ("alloc_words", J.Float p.alloc_words);
      ("peak_heap_mb", J.Float (float_of_int (top * (Sys.word_size / 8)) /. 1e6));
      ("verdicts", J.Int (int_of_float (List.assoc "verdicts" p.counts)));
      ("digest", J.String p.digest);
      ("checks", checks_json p.checks) ]

(* --- the traced pass --------------------------------------------------- *)

(* Spans are recorded by this file only, around each call into a layer,
   on the benchmark's own track group; times are wall-clock seconds
   since the pass began. *)
let bench_pid = 3

type tracer = { sp : Span.t; origin : float }

let record tr ~track name t0 t1 =
  let tid = Span.thread tr.sp ~pid:bench_pid track in
  ignore
    (Span.span tr.sp ~name ~cat:"perfbench" ~pid:bench_pid ~tid ~start:(t0 -. tr.origin)
       ~finish:(t1 -. tr.origin) ())

let span tr ~track name f = timed ~on:(record tr ~track name) f

type slice = { until : float; slice_wall : float; slice_hops : int }

(* What the traced pass needs from its scenario once the run is over. *)
type scene = {
  spec : W.spec;
  graph : Topology.Graph.t;
  rt : Topology.Routing.t;
  pairs : (int * int) list;
  forbidden : int list list;  (** segments excised by the end of the run *)
  reroutes : float list;  (** routing installation times *)
  pool : Netsim.Pool.stats;
}

let scene_of (w : W.t) =
  { spec = w.W.spec; graph = w.W.graph; rt = w.W.rt; pairs = w.W.pairs;
    forbidden = W.forbidden w; reroutes = W.reroute_times w;
    pool = Net.pool_stats w.W.net }

(* The full workload with a span per setup step and per 1-s simulated
   slice of [Net.run ~until]; slicing pops the same heap in the same
   order, so outputs match the single-shot run. *)
let traced_run tr spec ~seed =
  let setup = Hashtbl.create 8 in
  let step =
    { W.step =
        (fun name f ->
          let r, d = span tr ~track:"setup" name f in
          Hashtbl.replace setup name d;
          r) }
  in
  let slices = ref [] and depths = ref [] in
  let drive (w : W.t) =
    let horizon = w.W.spec.W.horizon in
    let prev = ref 0 in
    for k = 1 to int_of_float (Float.ceil horizon) do
      let until = Float.min horizon (float_of_int k) in
      let (), d =
        span tr ~track:"run" (Printf.sprintf "Net.run ~until:%g" until) (fun () ->
            Net.run ~until w.W.net)
      in
      let h = W.hops w in
      slices := { until; slice_wall = d; slice_hops = h - !prev } :: !slices;
      prev := h;
      depths := float_of_int (Netsim.Sim.pending (Net.sim w.W.net)) :: !depths
    done
  in
  let p, scene =
    run_pass ~step ~drive ~on_phase:(record tr ~track:"phase") ~keep:scene_of spec ~seed
  in
  (p, scene, (fun name -> Option.value (Hashtbl.find_opt setup name) ~default:0.0),
   List.rev !slices, median !depths)

(* Slice attribution.  A slice holding a tau boundary is a round slice.
   A slice holding a routing installation is a reroute slice, and so is
   the one after it: each destination's policy state is computed on its
   first packet under the new tables.  Reroute wins over round; the
   other slices give the baseline median.  Returns the round and reroute
   excess in seconds and the per-hop slowdown of ordinary slices after
   the first installation (1 without one). *)
let slice_attribution ~tau ~reroutes slices =
  let a = Array.of_list slices in
  let n = Array.length a in
  let lo i = if i = 0 then 0.0 else a.(i - 1).until in
  let holds i t = t > lo i && t <= a.(i).until in
  let installs i = List.exists (holds i) reroutes in
  let kind i =
    let m = Float.floor (a.(i).until /. tau) in
    if installs i || (i > 0 && installs (i - 1)) then `Reroute
    else if m >= 1.0 && holds i (m *. tau) then `Round
    else `Other
  in
  let kinds = Array.init n kind in
  let walls pick =
    List.filter_map (fun i -> if pick kinds.(i) then Some a.(i).slice_wall else None)
      (List.init n Fun.id)
  in
  let base =
    match walls (( = ) `Other) with [] -> median (walls (fun _ -> true)) | xs -> median xs
  in
  let excess k = List.fold_left (fun acc w -> acc +. (w -. base)) 0.0 (walls (( = ) k)) in
  let slowdown =
    match reroutes with
    | [] -> 1.0
    | first :: _ ->
        let per_hop after =
          median
            (List.filter_map
               (fun i ->
                 let s = a.(i) in
                 if kinds.(i) = `Other && s.slice_hops > 0 && (s.until > first) = after then
                   Some (s.slice_wall /. float_of_int s.slice_hops)
                 else None)
               (List.init n Fun.id))
        in
        per_hop true /. per_hop false
  in
  (excess `Round, excess `Reroute, slowdown)

(* Packets per segment-round at the median monitored 3-segment of the
   workload's routed flows: the size the summary and TV kernels run at. *)
let packets_per_segment_round sc =
  let per_seg = Hashtbl.create 256 in
  List.iter
    (fun (src, dst) ->
      match Topology.Routing.path sc.rt ~src ~dst with
      | Some p ->
          List.iter
            (fun seg ->
              Hashtbl.replace per_seg seg
                (1 + Option.value (Hashtbl.find_opt per_seg seg) ~default:0))
            (Topology.Segments.windows p 3)
      | None -> ())
    sc.pairs;
  let flows = median (Hashtbl.fold (fun _ c acc -> float_of_int c :: acc) per_seg []) in
  let flows = if Float.is_nan flows then 1.0 else flows in
  max 1 (int_of_float (flows *. W.rate_pps *. W.tau sc.spec))

(* Kernels at the workload's own parameters, seconds per call. *)
let kernels sc ~depth =
  let rng = Random.State.make [| 7 |] in
  let pkt =
    Netsim.Packet.make ~sim:(Netsim.Sim.create ()) ~src:0 ~dst:1 ~flow:1
      ~size:W.packet_size Netsim.Packet.Udp
  in
  let key = Crypto_sim.Siphash.key_of_string "fatih" in
  let fingerprint = measure_min (fun () -> ignore (Netsim.Packet.fingerprint key pkt)) in
  let m = packets_per_segment_round sc in
  let fps = Array.init m (fun _ -> Random.State.int64 rng Int64.max_int) in
  let summary n =
    let s = Core.Summary.create Core.Summary.Content in
    for i = 0 to n - 1 do
      Core.Summary.observe s ~fp:fps.(i) ~size:W.packet_size ~time:0.0
    done;
    s
  in
  let observe = measure_min ~batches:50 (fun () -> ignore (summary m)) /. float_of_int m in
  let sent = summary m and received = summary (m - (m / 50)) in
  let tv =
    measure_min ~batches:50 (fun () ->
        ignore
          (Core.Validation.tv ~thresholds:(Core.Validation.lenient ()) ~sent ~received ()))
  in
  (* A routing installation computes each destination's policy state on
     its first query: time cold queries on the run's forbidden set. *)
  let policy_path =
    List.filteri (fun i _ -> i < 3) sc.pairs
    |> List.map (fun (src, dst) ->
           let pol = Topology.Policy.compute sc.graph ~forbidden:sc.forbidden in
           snd (timed (fun () -> ignore (Topology.Policy.path pol ~src ~dst))))
    |> List.fold_left Float.min infinity
  in
  let module E = Prioq.Event in
  let heap = E.create () and cur = E.cursor () in
  for _ = 1 to max 1 (int_of_float depth) do
    E.push heap ~time:(Random.State.float rng 1.0) ~tag:0 ~iarg:0 E.nil E.nil
  done;
  let push_pop =
    measure_min (fun () ->
        ignore (E.pop heap ~until:infinity ~strict:false cur);
        E.push heap ~time:(cur.E.time.E.f +. Random.State.float rng 1.0) ~tag:0 ~iarg:0
          E.nil E.nil)
  in
  (fingerprint, observe, tv, policy_path, push_pop)

(* Fatih with the same 64 pairs for 10 s (no attacker, so no reroute)
   over topologies of growing size. *)
let sweep =
  [ ("ring8", "ring,8"); ("grid8x8", "grid,8,8"); ("ebone", "ebone");
    ("sprintlink", "sprintlink") ]

let sweep_spec topo =
  { W.name = "sweep"; topo; pairs = 64; horizon = 10.0; detector = W.Fatih;
    byzantine = false; attack = false; smoke = 10.0 }

type traced = {
  metrics : (string * float * string) list;
  checks : W.check list;
}

let trace_pass spec ~seed ~out =
  let tr = { sp = Span.create ~capacity:65536 (); origin = now () } in
  Span.set_process tr.sp ~pid:bench_pid "perfbench";
  let (full, sc, setup, slices, depth), _ =
    span tr ~track:"pass" "traced run" (fun () -> traced_run tr spec ~seed)
  in
  let again name ?layers spec =
    Gc.compact ();
    fst (fst (span tr ~track:"pass" name (fun () -> run_pass ?layers ~keep:ignore spec ~seed)))
  in
  let untraced = again "untraced run" spec in
  let v0 = again "dataplane run" ~layers:W.dataplane spec in
  let v1 = again "observe+faults run" ~layers:W.observed spec in
  let (fp_s, observe_s, tv_s, policy_s, push_pop_s), _ =
    span tr ~track:"pass" "kernels" (fun () -> kernels sc ~depth)
  in
  let sweep_ns =
    List.map
      (fun (label, topo) ->
        let p = again ("sweep " ^ label) (sweep_spec topo) in
        (label, p.run_s /. float_of_int (max 1 p.hops) *. 1e9))
      sweep
  in
  Telemetry.Trace_export.write out tr.sp;
  let valid =
    match J.of_string (In_channel.with_open_text out In_channel.input_all) with
    | Ok doc -> Telemetry.Trace_export.validate doc
    | Error e -> Error e
  in
  let sliced_run = List.fold_left (fun acc s -> acc +. s.slice_wall) 0.0 slices in
  let round_x, reroute_x, slowdown =
    slice_attribution ~tau:(W.tau spec) ~reroutes:sc.reroutes slices
  in
  let detector_s = untraced.run_s -. v1.run_s in
  let fingerprints = List.assoc "core.fingerprints" full.counts in
  let explained =
    if fingerprints = 0.0 then 0.0
    else fingerprints *. (fp_s +. observe_s) /. (detector_s -. round_x -. reroute_x)
  in
  let slice_ms = List.map (fun s -> s.slice_wall *. 1e3) slices in
  let metrics =
    List.map
      (fun name -> (name ^ "_s", setup name, "s"))
      [ "topology.generate"; "topology.routing"; "netsim.build"; "netsim.traffic";
        "faults.plan"; "core.deploy" ]
    @ [ ("run.dataplane_s", v0.run_s, "s");
        ("run.observe_faults_s", v1.run_s -. v0.run_s, "s");
        ("run.detector_s", detector_s, "s");
        ("run.slice_p50_ms", median slice_ms, "ms");
        ("run.slice_max_ms", List.fold_left Float.max 0.0 slice_ms, "ms");
        ("run.round_excess_s", round_x, "s");
        ("run.reroute_excess_share", reroute_x /. sliced_run, "ratio");
        ("run.post_reroute_slowdown", slowdown, "ratio") ]
    @ List.map
        (fun (name, v) ->
          (name, v, if String.ends_with ~suffix:"_ratio" name then "ratio" else "count"))
        full.counts
    @ [ ( "pool.recycle_ratio",
          float_of_int sc.pool.Netsim.Pool.recycled
          /. float_of_int (max 1 (sc.pool.Netsim.Pool.recycled + sc.pool.Netsim.Pool.fresh)),
          "ratio" );
        ("gc.promoted_words_per_hop", full.promoted_words /. float_of_int (max 1 full.hops), "words");
        ("gc.major_collections", float_of_int full.major_collections, "count");
        ("crypto.fingerprint_ns", fp_s *. 1e9, "ns");
        ("core.summary_observe_ns", observe_s *. 1e9, "ns");
        ("core.tv_us", tv_s *. 1e6, "us");
        ("topology.policy_path_ms", policy_s *. 1e3, "ms");
        ("prioq.push_pop_ns", push_pop_s *. 1e9, "ns");
        ("attribution.observe_explained", explained, "ratio");
        ("trace.overhead_share", (wall full -. wall untraced) /. wall untraced, "ratio") ]
    @ List.map (fun (label, ns) -> ("sweep." ^ label ^ ".ns_per_hop", ns, "ns")) sweep_ns
  in
  Printf.printf
    "%s seed %d: run %.3f s = dataplane %.3f + observe/faults %.3f + detector %.3f; \
     detector = reroute excess %.3f + round excess %.3f + per-hop %.3f\n"
    spec.W.name seed untraced.run_s v0.run_s (v1.run_s -. v0.run_s) detector_s reroute_x
    round_x (detector_s -. reroute_x -. round_x);
  let checks =
    full.checks
    @ [ { W.check = "unperturbed";
          ok = full.digest = untraced.digest && full.counts = untraced.counts;
          detail = Printf.sprintf "traced %s untraced %s" full.digest untraced.digest };
        { W.check = "trace_valid"; ok = valid = Ok ();
          detail = (match valid with Ok () -> out | Error e -> e) } ]
  in
  { metrics; checks }

let result_json ~checks ~metrics =
  let failed = List.length (List.filter (fun c -> not c.W.ok) checks) in
  J.Assoc
    [ ("correct", J.Bool (failed = 0));
      ("attempted", J.Int (List.length checks));
      ("failed", J.Int failed);
      ( "metrics",
        J.Assoc
          (List.map
             (fun (name, value, unit) ->
               (name, J.Assoc [ ("value", J.Float value); ("unit", J.String unit) ]))
             metrics) );
      ("checks", checks_json checks) ]

(* --- smoke --------------------------------------------------------------- *)

(* Every row at its smoke horizon: all checks pass, two in-process runs
   agree on counts, allocation and verdict digest, and the traced pass
   is unperturbed and writes a valid trace. *)
let smoke ~dir =
  let failures = ref 0 in
  List.iter
    (fun row ->
      let spec = { row with W.horizon = row.W.smoke } in
      let a, () = run_pass ~keep:ignore spec ~seed:1 in
      let b, () = run_pass ~keep:ignore spec ~seed:1 in
      let t =
        trace_pass spec ~seed:1 ~out:(Filename.concat dir ("smoke-trace-" ^ row.W.name ^ ".json"))
      in
      let checks =
        a.checks @ t.checks
        @ [ { W.check = "repeatable";
              ok =
                a.digest = b.digest && a.counts = b.counts
                && a.alloc_words = b.alloc_words;
              detail = a.digest } ]
      in
      List.iter
        (fun c ->
          if not c.W.ok then begin
            incr failures;
            Printf.printf "  FAIL %s %s: %s\n" row.W.name c.W.check c.W.detail
          end)
        checks;
      Printf.printf "smoke %s (%.0f s): %d checks, digest %s\n%!" row.W.name spec.W.horizon
        (List.length checks) a.digest)
    W.table;
  if !failures > 0 then exit 1

(* --- compare two recorded sets ------------------------------------------- *)

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0))
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)
  end

let load path =
  match Experiments.Benchgate.load_json path with
  | Ok doc -> doc
  | Error e -> prerr_endline ("perfbench: " ^ path ^ ": " ^ e); exit 2

let list_of doc field = Option.value (Option.bind (J.member field doc) J.to_list_opt) ~default:[]
let string_of doc field = Option.value (Option.bind (J.member field doc) J.to_string_opt) ~default:""

(* Values of one metric for one workload across a set's runs. *)
let values set ~workload ~metric =
  List.filter_map
    (fun run ->
      if string_of run "workload" <> workload then None
      else
        Option.bind (J.member "result" run) (fun r ->
            Option.bind (J.member "metrics" r) (fun m ->
                Option.bind (J.member metric m) (fun v ->
                    Option.bind (J.member "value" v) J.to_float))))
    (list_of set "runs")

(* Per (metric, workload): worse when B's median is beyond A's by more
   than the bound (the Benchgate band), better when A's is beyond B's.
   When either side's quartile spread exceeds the bound the row is
   unresolved, unless every run of B beats every run of A (or, for a
   worse verdict, loses to it). *)
let compare_sets ~benchmark a b =
  let module G = Experiments.Benchgate in
  let workloads = List.sort_uniq compare (List.map (fun r -> string_of r "workload") (list_of b "runs")) in
  Printf.printf "%-16s %-20s %12s %12s %8s %7s  %s\n" "workload" "metric" "A median" "B median"
    "change" "spread" "verdict";
  List.iter
    (fun m ->
      let metric = string_of m "name" in
      let bound = Option.value (Option.bind (J.member "bound" m) J.to_float) ~default:0.0 in
      let direction =
        if string_of m "better" = "higher" then G.Higher_better else G.Lower_better
      in
      let limit = if direction = G.Higher_better then 1.0 /. (1.0 -. bound) else 1.0 +. bound in
      List.iter
        (fun workload ->
          match (values a ~workload ~metric, values b ~workload ~metric) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let ma = median va and mb = median vb in
              let spread xs m = let q1, q3 = quartiles xs in (q3 -. q1) /. m in
              let sp = Float.max (spread va ma) (spread vb mb) in
              let band = G.band ~direction ~limit metric in
              let worse = not (G.judge band ~baseline:ma ~measured:mb).G.ok in
              let better = not (G.judge band ~baseline:mb ~measured:ma).G.ok in
              let beats x y = if direction = G.Higher_better then x > y else x < y in
              let all_b_beat = List.for_all (fun y -> List.for_all (fun x -> beats y x) va) vb in
              let all_a_beat = List.for_all (fun x -> List.for_all (fun y -> beats x y) vb) va in
              let resolved = sp <= bound in
              let verdict =
                if worse && (resolved || all_a_beat) then "worse"
                else if better && (resolved || all_b_beat) then "better"
                else if resolved || all_b_beat then "unchanged"
                else "unresolved"
              in
              Printf.printf "%-16s %-20s %12.6g %12.6g %+7.1f%% %6.1f%%  %s\n" workload metric ma mb
                ((mb -. ma) /. ma *. 100.0) (sp *. 100.0) verdict)
        workloads)
    (list_of benchmark "end_to_end")

let usage () =
  prerr_endline
    "usage: bench.exe run WORKLOAD SEED | trace WORKLOAD SEED OUT.json | smoke DIR \
     | compare BENCHMARK.json A.json B.json";
  exit 2

let spec_of name =
  match W.find name with
  | Some spec -> spec
  | None ->
      Printf.eprintf "unknown workload %S (%s)\n" name
        (String.concat ", " (List.map (fun s -> s.W.name) W.table));
      exit 2

let seed_of s = match int_of_string_opt s with Some n -> n | None -> usage ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "run"; name; seed ] ->
      print_endline (J.to_string (run_mode (spec_of name) ~seed:(seed_of seed)))
  | [ _; "trace"; name; seed; out ] ->
      let t = trace_pass (spec_of name) ~seed:(seed_of seed) ~out in
      print_endline (J.to_string (result_json ~checks:t.checks ~metrics:t.metrics))
  | [ _; "smoke"; dir ] -> smoke ~dir
  | [ _; "compare"; benchmark; a; b ] -> compare_sets ~benchmark:(load benchmark) (load a) (load b)
  | _ -> usage ()
