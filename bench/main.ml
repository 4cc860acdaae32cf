(* The benchmark / reproduction harness.

   Running this executable regenerates every table and figure of the
   dissertation's evaluation (see DESIGN.md's per-experiment index),
   reports Bechamel microbenchmarks for the per-packet costs of
   Chapter 7 (fingerprint computation, traffic validation, set
   reconciliation), and writes the JSON artifacts:

   - BENCH_telemetry.json — every gauge the stdout tables show;
   - BENCH_parallel.json  — serial vs parallel experiment-suite wall
     clock (honestly marked "skipped" on a 1-domain host), with
     Gc.quick_stat deltas for both passes;
   - BENCH_hotpath.json   — before/after ns-per-op for the lib/crypto
     and event-loop hot-path kernels, measured against the in-process
     reference implementation and against the numbers recorded by the
     previous PR;
   - BENCH_alloc.json     — words allocated per simulation event on the
     reference scenario, pooling off/on, against the seed's numbers;
   - BENCH_faults.json / BENCH_shard.json — fault-injection overhead
     and sharded-engine scaling (the latter with per-mode GC deltas and
     the 2-domain mailbox micro-benchmark).

   [main.exe --smoke] runs every microbenchmark with a tiny quota and
   skips the reproduction and the JSON writes — except BENCH_alloc.json,
   which smoke writes too so the writer itself stays covered; the
   @bench-smoke dune alias uses it to keep the harness compiling and
   running under `dune runtest`. *)

module Exp = Experiments.Exp
module Registry = Experiments.Registry
module Pool = Experiments.Pool

(* Gc.quick_stat delta across a thunk: the BENCH artifacts record these
   counters alongside wall clock so an allocation regression shows up
   in a file diff exactly the way a throughput regression does. *)
type gc_delta = {
  gd_minor_words : float;
  gd_promoted_words : float;
  gd_major_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
}

let with_gc_delta f =
  let s0 = Gc.quick_stat () in
  (* [quick_stat] counters settle at collection boundaries; the minor
     allocation pointer is read exactly so short runs measure true. *)
  let mw0 = Gc.minor_words () in
  let r = f () in
  let mw1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  ( r,
    { gd_minor_words = mw1 -. mw0;
      gd_promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      gd_major_words = s1.Gc.major_words -. s0.Gc.major_words;
      gd_minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
      gd_major_collections = s1.Gc.major_collections - s0.Gc.major_collections
    } )

let gc_json d =
  let open Telemetry.Export in
  Assoc
    [ ("minor_words", Float d.gd_minor_words);
      ("promoted_words", Float d.gd_promoted_words);
      ("major_words", Float d.gd_major_words);
      ("minor_collections", Int d.gd_minor_collections);
      ("major_collections", Int d.gd_major_collections) ]

(* Evaluate the whole registry serially (timed), then render — the same
   list mrdetect and the odoc index use, not a private copy. *)
let reproduction () =
  print_endline "Detecting Malicious Routers - evaluation reproduction";
  print_endline "======================================================";
  let t0 = Unix.gettimeofday () in
  let results, gc = with_gc_delta (fun () -> Registry.eval_all ~jobs:1 ()) in
  let serial = Unix.gettimeofday () -. t0 in
  List.iter Exp.render results;
  (results, serial, gc)

(* Serial vs parallel wall clock for the experiment suite.  The
   parallel pass uses the machine's recommended domain count and checks
   that its merged JSON document is byte-identical to the serial one.
   On a host where the recommended count is 1 a "parallel" rerun would
   only measure run-to-run noise and report a meaningless ~1.0x, so the
   comparison is recorded as skipped instead. *)
let parallel_comparison ~serial ~serial_gc serial_results =
  print_endline "";
  print_endline "Experiment suite: serial vs parallel (Domain pool)";
  print_endline "==================================================";
  let recommended = Domain.recommended_domain_count () in
  let jobs = Pool.default_jobs () in
  let registry = Telemetry.Metrics.create () in
  let set name help v =
    Telemetry.Metrics.set
      (Telemetry.Metrics.gauge registry name ~help ~labels:[ ("suite", "registry") ])
      v
  in
  set "experiments_serial_seconds" "wall clock, jobs=1" serial;
  set "experiments_domains_recommended" "Domain.recommended_domain_count"
    (float_of_int recommended);
  let parallel_gc = ref None in
  let status =
    if jobs <= 1 then begin
      Printf.printf "  serial (1 domain)      %8.2f s\n" serial;
      Printf.printf
        "  parallel pass          skipped (recommended domain count is %d;\n\
        \                         a rerun would measure noise, not parallelism)\n"
        recommended;
      "skipped-single-domain"
    end
    else begin
      let t0 = Unix.gettimeofday () in
      let parallel_results, pgc =
        with_gc_delta (fun () -> Registry.eval_all ~jobs ())
      in
      parallel_gc := Some pgc;
      let parallel = Unix.gettimeofday () -. t0 in
      let doc results =
        Telemetry.Export.to_string (Registry.json_document results)
      in
      if doc parallel_results <> doc serial_results then
        failwith "parallel evaluation diverged from the serial results";
      let speedup = serial /. parallel in
      Printf.printf "  serial (1 domain)      %8.2f s\n" serial;
      Printf.printf "  parallel (%d domains)  %8.2f s\n" jobs parallel;
      Printf.printf "  speedup                %8.2fx  (results byte-identical)\n"
        speedup;
      set "experiments_parallel_seconds" "wall clock, jobs=recommended" parallel;
      set "experiments_parallel_jobs" "domains used by the parallel pass"
        (float_of_int jobs);
      set "experiments_parallel_speedup" "serial / parallel wall clock" speedup;
      "measured"
    end
  in
  Telemetry.Export.write_file "BENCH_parallel.json"
    (Telemetry.Export.Assoc
       [ ("schema", Telemetry.Export.String "mrdetect-bench-parallel-v3");
         ("status", Telemetry.Export.String status);
         ("domains_recommended", Telemetry.Export.Int recommended);
         ( "gc",
           Telemetry.Export.Assoc
             [ ("serial", gc_json serial_gc);
               ( "parallel",
                 match !parallel_gc with
                 | Some d -> gc_json d
                 | None -> Telemetry.Export.Null ) ] );
         ("metrics", Telemetry.Export.json_of_registry registry) ]);
  print_endline "\nparallel benchmark metrics written to BENCH_parallel.json"

(* --- microbenchmarks (§7.1 computing fingerprints, Appendix A) --- *)

open Bechamel
open Toolkit

(* Tiny quota for --smoke so the whole harness runs in about a second
   under `dune runtest`; the numbers are meaningless, the point is that
   every benchmark thunk executes. *)
let bench_cfg ~smoke =
  if smoke then Benchmark.cfg ~limit:50 ~quota:(Time.millisecond 5.0) ()
  else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()

let packet_bytes n = String.init n (fun i -> Char.chr ((i * 7) land 0xff))

let bench_fingerprints =
  let key = Crypto_sim.Siphash.key_of_string "bench" in
  let small = packet_bytes 40 and full = packet_bytes 1500 in
  [ Test.make ~name:"siphash-40B" (Staged.stage (fun () -> Crypto_sim.Siphash.hash key small));
    Test.make ~name:"siphash-1500B" (Staged.stage (fun () -> Crypto_sim.Siphash.hash key full));
    Test.make ~name:"fnv-1500B" (Staged.stage (fun () -> Crypto_sim.Fnv.hash_string full)) ]

let bench_tv =
  let mk n offset =
    let s = Core.Summary.create Core.Summary.Content in
    for i = 0 to n - 1 do
      Core.Summary.observe s ~fp:(Int64.of_int (i + offset)) ~size:1000 ~time:0.0
    done;
    s
  in
  let sent = mk 1000 0 and received = mk 995 0 in
  [ Test.make ~name:"tv-content-1000pkts"
      (Staged.stage (fun () ->
           ignore
             (Core.Validation.tv
                ~thresholds:(Core.Validation.lenient ())
                ~sent ~received ()))) ]

let bench_reconcile =
  let shared = Array.init 512 (fun i -> (i * 211) + 5) in
  let mk_pair diff =
    let a = Array.append shared (Array.init diff (fun i -> 900_000 + i)) in
    let b = Array.append shared (Array.init diff (fun i -> 800_000 + i)) in
    (a, b)
  in
  let a8, b8 = mk_pair 8 in
  let a32, b32 = mk_pair 32 in
  let rng = Random.State.make [| 3 |] in
  [ Test.make ~name:"reconcile-diff16"
      (Staged.stage (fun () -> ignore (Setrecon.Reconcile.diff ~rng ~a:a8 ~b:b8 ())));
    Test.make ~name:"reconcile-diff64"
      (Staged.stage (fun () -> ignore (Setrecon.Reconcile.diff ~rng ~a:a32 ~b:b32 ())));
    Test.make ~name:"bloom-add+query"
      (Staged.stage
         (let f = Setrecon.Bloom.create ~bits:8192 () in
          fun () ->
            Setrecon.Bloom.add f 123456789L;
            ignore (Setrecon.Bloom.mem f 987654321L))) ]

let bench_routing =
  let g = Topology.Generate.ebone_like () in
  let rt = Topology.Routing.compute g in
  [ Test.make ~name:"link-state-tables-ebone"
      (Staged.stage (fun () -> ignore (Topology.Routing.compute g)));
    Test.make ~name:"pik2-family-ebone-k1"
      (Staged.stage (fun () -> ignore (Topology.Segments.pik2_family rt ~k:1)));
    Test.make ~name:"policy-tables-1-exclusion"
      (Staged.stage
         (let seg =
            match Topology.Routing.all_routed_paths rt with
            | p :: _ when List.length p >= 3 -> List.filteri (fun i _ -> i < 3) p
            | _ -> [ 0; 1 ]
          in
          fun () -> ignore (Topology.Policy.compute g ~forbidden:[ seg ]))) ]

let bench_crypto_heavy =
  let msg = packet_bytes 1500 in
  let keyring = Crypto_sim.Keyring.create ~n:5 () in
  let hk = Crypto_sim.Sha256.hmac_key ~key:"k" in
  [ Test.make ~name:"sha256-1500B"
      (Staged.stage (fun () -> ignore (Crypto_sim.Sha256.digest msg)));
    (* The per-packet HMAC path: midstates precomputed once per key
       (as Keyring caches them), one pass over the payload per call. *)
    Test.make ~name:"hmac-sha256-1500B"
      (Staged.stage (fun () -> ignore (Crypto_sim.Sha256.hmac_with hk msg)));
    (* Key expansion on every call, for comparison with the row above. *)
    Test.make ~name:"hmac-sha256-keyexp-1500B"
      (Staged.stage (fun () -> ignore (Crypto_sim.Sha256.hmac ~key:"k" msg)));
    Test.make ~name:"keyring-mac64-1500B"
      (Staged.stage (fun () -> ignore (Crypto_sim.Keyring.mac64 keyring 0 1 msg)));
    Test.make ~name:"dolev-strong-5-parties"
      (Staged.stage (fun () ->
           ignore
             (Core.Consensus.broadcast ~keyring ~parties:5 ~f:1 ~sender:0 ~value:7L
                ~behavior:(fun _ -> Core.Consensus.Correct)))) ]

let all_tests =
  Test.make_grouped ~name:"costs"
    (bench_fingerprints @ bench_tv @ bench_reconcile @ bench_routing
    @ bench_crypto_heavy)

let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]

let run_benchmarks ~smoke registry =
  print_endline "";
  print_endline "Microbenchmarks (Ch. 7 per-packet and per-round costs)";
  print_endline "======================================================";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = bench_cfg ~smoke in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          Printf.printf "  %-32s %12.1f ns/op\n" name ns;
          Telemetry.Metrics.set
            (Telemetry.Metrics.gauge registry "bench_ns_per_op"
               ~help:"microbenchmark cost" ~labels:[ ("name", name) ])
            ns
      | _ -> Printf.printf "  %-32s (no estimate)\n" name)
    (List.sort compare rows)

(* The ring8 reference scenario every throughput section runs: six
   crossing CBR flows and one TCP connection for [horizon] seconds.  Set-up
   order is fixed (probe, routing, schedule, flows, TCP) because it
   decides event order, so each section measures the same event set. *)
let ring8_reference ~horizon ?probe ?schedule ?pooling () =
  let g = Topology.Generate.ring ~n:8 in
  let net = Netsim.Net.create ~seed:1 ~jitter_bound:100e-6 ?pooling g in
  Netsim.Net.set_probe net probe;
  Netsim.Net.use_routing net (Topology.Routing.compute g);
  Option.iter (fun s -> ignore (Faults.Injector.apply ?probe ~net s)) schedule;
  List.iter
    (fun (s, d) ->
      ignore
        (Netsim.Flow.cbr net ~src:s ~dst:d ~rate_pps:200.0 ~size:500 ~start:0.0
           ~stop:horizon))
    [ (0, 4); (4, 0); (1, 5); (5, 1); (2, 6); (6, 2) ];
  ignore (Netsim.Tcp.connect net ~src:0 ~dst:3 ());
  net

let simulator_performance ~smoke registry =
  (* A reference scenario to gauge engine throughput. *)
  print_endline "";
  print_endline "Simulator performance (reference scenario)";
  print_endline "==========================================";
  let horizon = if smoke then 0.5 else 30.0 in
  let net = ring8_reference ~horizon () in
  let t0 = Unix.gettimeofday () in
  Netsim.Net.run ~until:horizon net;
  let wall = Unix.gettimeofday () -. t0 in
  let events = Netsim.Sim.events_processed (Netsim.Net.sim net) in
  Printf.printf "  %d events in %.2f s wall = %.1fk events/s (%.1f s simulated)\n"
    events wall
    (float_of_int events /. wall /. 1000.0)
    horizon;
  let set name help v =
    Telemetry.Metrics.set
      (Telemetry.Metrics.gauge registry name ~help
         ~labels:[ ("scenario", "ring8-reference") ])
      v
  in
  set "sim_events_processed" "events in the reference scenario" (float_of_int events);
  set "sim_wall_seconds" "wall clock for the reference scenario" wall;
  set "sim_events_per_second" "engine throughput" (float_of_int events /. wall);
  float_of_int events /. wall

(* Throughput cost of observability on the same reference scenario:
   no probe at all, a probe without a tracer (counters + journal), and a
   probe bridging into a span collector at two sample rates.  The
   honest-overhead rule: if full-rate tracing costs more than 5% of
   simulator throughput, say so here and in BENCH_telemetry.json rather
   than hiding it in an average. *)
let tracing_overhead ~smoke registry =
  print_endline "";
  print_endline "Tracing overhead (ring8 reference scenario)";
  print_endline "===========================================";
  let horizon = if smoke then 0.5 else 20.0 in
  let run_mode probe =
    let net = ring8_reference ~horizon ?probe () in
    let t0 = Unix.gettimeofday () in
    Netsim.Net.run ~until:horizon net;
    let wall = Unix.gettimeofday () -. t0 in
    float_of_int (Netsim.Sim.events_processed (Netsim.Net.sim net)) /. wall
  in
  let mode name mk =
    (* Best of a few runs per mode: on a shared vCPU neighbor load only
       ever deflates a throughput reading. *)
    let reps = if smoke then 1 else 3 in
    let best = ref 0.0 in
    for _ = 1 to reps do
      let eps = run_mode (mk ()) in
      if eps > !best then best := eps
    done;
    (name, !best)
  in
  let rows =
    [ mode "off" (fun () -> None);
      mode "probe" (fun () -> Some (Netsim.Probe.create ~journal_capacity:4096 ()));
      mode "trace-0.1" (fun () ->
          Some
            (Netsim.Probe.create ~journal_capacity:4096
               ~tracer:(Telemetry.Span.create ~sample:0.1 ())
               ()));
      mode "trace-1.0" (fun () ->
          Some
            (Netsim.Probe.create ~journal_capacity:4096
               ~tracer:(Telemetry.Span.create ~sample:1.0 ())
               ())) ]
  in
  let baseline = List.assoc "off" rows in
  let overhead eps =
    if baseline > 0.0 then (1.0 -. (eps /. baseline)) *. 100.0 else 0.0
  in
  List.iter
    (fun (name, eps) ->
      Printf.printf "  %-12s %10.0f events/s  %+6.1f%% vs off\n" name eps
        (overhead eps);
      let set g help v =
        Telemetry.Metrics.set
          (Telemetry.Metrics.gauge registry g ~help
             ~labels:[ ("scenario", "ring8-reference"); ("mode", name) ])
          v
      in
      set "tracing_events_per_second" "engine throughput by tracing mode" eps;
      set "tracing_overhead_percent" "throughput cost vs tracing off" (overhead eps))
    rows;
  let full_overhead = overhead (List.assoc "trace-1.0" rows) in
  if full_overhead > 5.0 then
    Printf.printf
      "  note: full-rate tracing costs %.1f%% of simulator throughput (>5%%); \
       prefer --trace-sample below 1.0 for long runs\n"
      full_overhead

(* Throughput cost of fault injection on the same reference scenario:
   the probe alone, the probe plus a small fixed schedule (one flap, one
   crash/restart), and the probe plus a default-budget chaos plan.  The
   injector's per-event cost is zero — faults are ordinary scheduled
   events — so what this measures is the simulation actually getting
   harder: rerouting around downed links, retransmits, journal traffic.
   Writes BENCH_faults.json (skipped on --smoke). *)
(* One timed run of the fault-overhead reference scenario: events/s on
   ring8 with an optional schedule applied.  Top-level because the
   regression gate ({!check_gate}) re-measures the exact workload the
   recording pass committed to BENCH_faults.json. *)
let faults_reference_run ~horizon schedule =
  let probe = Netsim.Probe.create ~journal_capacity:4096 () in
  let net = ring8_reference ~horizon ~probe ?schedule () in
  let t0 = Unix.gettimeofday () in
  Netsim.Net.run ~until:horizon net;
  let wall = Unix.gettimeofday () -. t0 in
  float_of_int (Netsim.Sim.events_processed (Netsim.Net.sim net)) /. wall

let faults_reference_chaos ~horizon budget =
  Faults.Chaos.generate ~seed:11 ~graph:(Topology.Generate.ring ~n:8)
    ~duration:horizon ~budget ()

let fault_overhead ~smoke registry =
  print_endline "";
  print_endline "Fault-injection overhead (ring8 reference scenario)";
  print_endline "===================================================";
  let horizon = if smoke then 0.5 else 20.0 in
  let run_mode schedule = faults_reference_run ~horizon schedule in
  let fixed =
    let open Faults.Schedule in
    { seed = 1;
      actions =
        [ Link_down { src = 1; dst = 2; at = 0.2 *. horizon };
          Link_up { src = 1; dst = 2; at = 0.5 *. horizon };
          Crash { router = 6; at = 0.4 *. horizon };
          Restart { router = 6; at = 0.7 *. horizon } ] }
  in
  let chaos = faults_reference_chaos ~horizon Faults.Chaos.default_budget in
  let byz = faults_reference_chaos ~horizon Faults.Chaos.byzantine_budget in
  let mode name schedule =
    let reps = if smoke then 1 else 3 in
    let best = ref 0.0 in
    for _ = 1 to reps do
      let eps = run_mode schedule in
      if eps > !best then best := eps
    done;
    (name, !best)
  in
  let rows =
    [ mode "off" None; mode "schedule" (Some fixed); mode "chaos" (Some chaos);
      mode "byz" (Some byz) ]
  in
  let baseline = List.assoc "off" rows in
  let overhead eps =
    if baseline > 0.0 then (1.0 -. (eps /. baseline)) *. 100.0 else 0.0
  in
  List.iter
    (fun (name, eps) ->
      Printf.printf "  %-12s %10.0f events/s  %+6.1f%% vs off\n" name eps
        (overhead eps);
      let set g help v =
        Telemetry.Metrics.set
          (Telemetry.Metrics.gauge registry g ~help
             ~labels:[ ("scenario", "ring8-reference"); ("mode", name) ])
          v
      in
      set "fault_events_per_second" "engine throughput by fault mode" eps;
      set "fault_overhead_percent" "throughput cost vs faults off" (overhead eps))
    rows;
  if not smoke then begin
    let open Telemetry.Export in
    write_file "BENCH_faults.json"
      (Assoc
         [ ("schema", String "mrdetect-bench-faults-v1");
           ( "method",
             String
               "best events/s of 3 runs per mode on the ring8 reference \
                scenario; 'schedule' is one link flap plus one crash/restart, \
                'chaos' a default-budget generated plan, 'byz' a \
                byzantine-budget one (protocol-faulty roles armed)" );
           ( "modes",
             List
               (List.map
                  (fun (name, eps) ->
                    Assoc
                      [ ("mode", String name);
                        ("events_per_second", Float eps);
                        ("overhead_percent", Float (overhead eps)) ])
                  rows) ) ]);
    print_endline "\nfault-injection overhead written to BENCH_faults.json"
  end

(* --- allocation regression (BENCH_alloc.json) ----------------------- *)

(* Per-event allocation recorded by the seed's bench run on the same
   ring8 reference scenario, before the zero-allocation work (flat
   event heap, ring queues, packet pooling, slim telemetry path).
   Kept as literals so the reduction column survives later rewrites. *)
let recorded_seed_minor_words_per_event = 62.97
let recorded_seed_promoted_words_per_event = 1.1772
let recorded_seed_events_per_second = 3984214.25394

(* Words allocated per simulation event, pooling off and on, against
   the numbers the seed recorded.  Allocation counters come from a
   single pass (they are a deterministic count, not a timing); the
   wall clock takes the minimum over a few repeat runs — the same
   estimator as the hot-path harness, since on a shared vCPU neighbor
   load only ever inflates a reading.  Unlike the other artifacts this
   one is written on --smoke too (with the [smoke] flag set and
   meaningless numbers) so the @bench-smoke alias exercises the writer
   end to end. *)
let reference_alloc_run ~horizon ~pooling () =
  let net = ring8_reference ~horizon ~pooling () in
  (* Settle setup garbage so the delta measures the event loop. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let (), gc = with_gc_delta (fun () -> Netsim.Net.run ~until:horizon net) in
  let wall = Unix.gettimeofday () -. t0 in
  (Netsim.Net.events_processed net, wall, gc, Netsim.Net.pool_stats net)

let allocation ~smoke registry =
  print_endline "";
  print_endline "Allocation (ring8 reference scenario, words per event)";
  print_endline "======================================================";
  let horizon = if smoke then 0.5 else 30.0 in
  let reps = if smoke then 1 else 3 in
  let one_run ~pooling = reference_alloc_run ~horizon ~pooling () in
  let run_mode ~pooling =
    let events, wall, gc, pool = one_run ~pooling in
    let best = ref wall in
    for _ = 2 to reps do
      let _, w, _, _ = one_run ~pooling in
      if w < !best then best := w
    done;
    (events, !best, gc, pool)
  in
  let rows =
    [ ("unpooled", false, run_mode ~pooling:false);
      ("pooled", true, run_mode ~pooling:true) ]
  in
  let per events w = w /. float_of_int (max 1 events) in
  let row_json = ref [] in
  List.iter
    (fun (name, pooling, (events, wall, gc, pool)) ->
      let minor = per events gc.gd_minor_words in
      let promoted = per events gc.gd_promoted_words in
      let eps = float_of_int events /. wall in
      Printf.printf
        "  %-9s %8.2f minor w/ev  %7.4f promoted w/ev  %9.0f events/s%s\n"
        name minor promoted eps
        (if pooling then
           Printf.sprintf "  (recycled %d of %d packets)"
             pool.Netsim.Pool.recycled
             (pool.Netsim.Pool.recycled + pool.Netsim.Pool.fresh)
         else "");
      let set g help v =
        Telemetry.Metrics.set
          (Telemetry.Metrics.gauge registry g ~help
             ~labels:[ ("scenario", "ring8-reference"); ("mode", name) ])
          v
      in
      set "alloc_minor_words_per_event" "minor-heap words per event" minor;
      set "alloc_promoted_words_per_event" "promoted words per event" promoted;
      set "alloc_events_per_second" "throughput, best of repeat runs" eps;
      let open Telemetry.Export in
      row_json :=
        Assoc
          [ ("mode", String name);
            ("pooling", Bool pooling);
            ("events", Int events);
            ("wall_seconds", Float wall);
            ("events_per_second", Float eps);
            ("minor_words_per_event", Float minor);
            ("promoted_words_per_event", Float promoted);
            ( "reduction_vs_seed_percent",
              Float
                ((1.0 -. (minor /. recorded_seed_minor_words_per_event))
                *. 100.0) );
            ( "pool",
              Assoc
                [ ("fresh", Int pool.Netsim.Pool.fresh);
                  ("recycled", Int pool.Netsim.Pool.recycled);
                  ("released", Int pool.Netsim.Pool.released);
                  ("available", Int pool.Netsim.Pool.available) ] );
            ("gc", gc_json gc) ]
        :: !row_json)
    rows;
  Printf.printf
    "  %-9s %8.2f minor w/ev  %7.4f promoted w/ev  %9.0f events/s  \
     (recorded at seed)\n"
    "seed" recorded_seed_minor_words_per_event
    recorded_seed_promoted_words_per_event recorded_seed_events_per_second;
  (let _, _, (events, _, gc, _) = List.nth rows 1 in
   Printf.printf "  pooled minor-allocation reduction vs seed: %.1f%%\n"
     ((1.0 -. (per events gc.gd_minor_words /. recorded_seed_minor_words_per_event))
     *. 100.0));
  let open Telemetry.Export in
  write_file "BENCH_alloc.json"
    (Assoc
       [ ("schema", String "mrdetect-bench-alloc-v1");
         ( "method",
           String
             "Gc.quick_stat delta over the 30 s ring8 reference scenario \
              (6 crossing CBR flows + 1 TCP connection) after a full major \
              collection; words-per-event divides by Sim events processed; \
              wall clock is the minimum over 3 runs" );
         ("smoke", Bool smoke);
         ("scenario", String "ring8-reference");
         ( "recorded_seed",
           Assoc
             [ ( "minor_words_per_event",
                 Float recorded_seed_minor_words_per_event );
               ( "promoted_words_per_event",
                 Float recorded_seed_promoted_words_per_event );
               ("events_per_second", Float recorded_seed_events_per_second)
             ] );
         ("modes", List (List.rev !row_json)) ]);
  print_endline "\nallocation regression written to BENCH_alloc.json"

(* --- hot-path before/after regression harness (BENCH_hotpath.json) --- *)

(* ns-per-op recorded by the previous PR's bench run (the values in
   BENCH_telemetry.json at the time this harness was written); kept as
   literals so the speedup-versus-recorded column survives later
   telemetry rewrites. *)
let recorded_pr2 =
  [ ("sha256-1500B", 24261.8062269);
    ("hmac-sha256-1500B", 27758.7809007);
    ("siphash-1500B", 18023.3601006);
    ("siphash-40B", 763.922337726);
    ("fnv-1500B", 5611.93684059) ]

let recorded_pr2_events_per_second = 3369518.42992

(* Minimum ns/op over many short timed batches.  On a shared vCPU the
   measurement error is dominated by neighbor load, which only ever
   inflates a reading, so the minimum over short batches estimates the
   uncontended cost — a long averaging window (OLS over half a second)
   instead bakes the noise in.  The same estimator is applied to the
   reference kernels and the optimized ones, so the ratios are fair. *)
let measure_min ~batches f =
  (* Calibrate the batch size to roughly 0.3 ms per batch. *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 8 do f () done;
  let per_call = (Unix.gettimeofday () -. t0) /. 8.0 in
  let per_batch = max 1 (int_of_float (0.0003 /. Float.max per_call 1e-9)) in
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to per_batch do f () done;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int per_batch in
    if ns < !best then best := ns
  done;
  !best

(* (name, before thunk or None, after thunk); the before thunk is the
   in-process reference implementation where one exists.  Shared by the
   recording pass ({!hotpath}) and the regression gate ({!check_gate}). *)
let hotpath_kernels () =
  let msg = packet_bytes 1500 in
  let small = packet_bytes 40 in
  let sip_key = Crypto_sim.Siphash.key_of_string "bench" in
  let hk = Crypto_sim.Sha256.hmac_key ~key:"k" in
  [ ( "sha256-1500B",
      Some (fun () -> ignore (Crypto_sim.Sha256_ref.digest msg)),
      fun () -> ignore (Crypto_sim.Sha256.digest msg) );
    ( "hmac-sha256-1500B",
      Some (fun () -> ignore (Crypto_sim.Sha256_ref.hmac ~key:"k" msg)),
      fun () -> ignore (Crypto_sim.Sha256.hmac_with hk msg) );
    ( "siphash-1500B",
      None,
      fun () -> ignore (Crypto_sim.Siphash.hash sip_key msg) );
    ( "siphash-40B",
      None,
      fun () -> ignore (Crypto_sim.Siphash.hash sip_key small) );
    ("fnv-1500B", None, fun () -> ignore (Crypto_sim.Fnv.hash_string msg)) ]

let hotpath ~smoke ~sim_events_per_second =
  print_endline "";
  print_endline "Hot-path kernels: before/after (BENCH_hotpath.json)";
  print_endline "===================================================";
  let batches = if smoke then 5 else 400 in
  let kernels = hotpath_kernels () in
  let rows =
    List.map
      (fun (name, before, after) ->
        let after_ns = measure_min ~batches after in
        let before_ns = Option.map (fun f -> measure_min ~batches f) before in
        let recorded = List.assoc_opt name recorded_pr2 in
        (name, before_ns, after_ns, recorded))
      kernels
  in
  let open Telemetry.Export in
  let kernel_json (name, before_ns, after_ns, recorded) =
    let ratio b = if after_ns > 0.0 then b /. after_ns else 0.0 in
    Assoc
      ([ ("name", String name); ("measured_ns_per_op", Float after_ns) ]
      @ (match before_ns with
        | Some b ->
            [ ("baseline_ns_per_op", Float b);
              ("baseline_source", String "in-process-reference");
              ("speedup_vs_baseline", Float (ratio b)) ]
        | None -> [])
      @
      match recorded with
      | Some r ->
          [ ("recorded_pr2_ns_per_op", Float r);
            ("speedup_vs_recorded", Float (ratio r)) ]
      | None -> [])
  in
  List.iter
    (fun (name, before_ns, after_ns, recorded) ->
      let show tag = function
        | Some b when after_ns > 0.0 ->
            Printf.sprintf "  %s %9.1f ns (%.2fx)" tag b (b /. after_ns)
        | _ -> ""
      in
      Printf.printf "  %-24s %9.1f ns/op%s%s\n" name after_ns
        (show "ref" before_ns)
        (show "pr2" recorded))
    rows;
  let sim_speedup =
    if sim_events_per_second > 0.0 then
      sim_events_per_second /. recorded_pr2_events_per_second
    else 0.0
  in
  Printf.printf "  %-24s %9.0f events/s (%.2fx vs recorded)\n"
    "sim-ring8-reference" sim_events_per_second sim_speedup;
  if not smoke then begin
    write_file "BENCH_hotpath.json"
      (Assoc
         [ ("schema", String "mrdetect-bench-hotpath-v1");
           ( "method",
             String
               "min ns/op over 400 short timed batches (~0.3ms each); the \
                minimum estimates the uncontended cost on a shared vCPU; \
                the same estimator is applied to reference and optimized \
                kernels" );
           ("kernels", List (List.map kernel_json rows));
           ( "simulator",
             Assoc
               [ ("scenario", String "ring8-reference");
                 ("events_per_second", Float sim_events_per_second);
                 ( "recorded_pr2_events_per_second",
                   Float recorded_pr2_events_per_second );
                 ("speedup_vs_recorded", Float sim_speedup) ] ) ]);
    print_endline "\nhot-path before/after written to BENCH_hotpath.json"
  end

(* --- sharded-engine scaling (BENCH_shard.json) ---------------------- *)

(* Sustained push/drain throughput of the cross-shard mailbox with a
   real producer domain: the producer pushes [n] messages while this
   domain live-drains the ring, then the spill is settled once the
   producer has quiesced.  The padding between [head] and [tail] in
   {!Netsim.Mailbox} keeps the two atomics off one cache line; this row
   is the regression guard for that layout. *)
let mailbox_throughput ~smoke =
  let n = if smoke then 10_000 else 500_000 in
  let run () =
    let mb = Netsim.Mailbox.create ~capacity:4096 in
    let finished = Atomic.make false in
    let received = ref 0 in
    let t0 = Unix.gettimeofday () in
    let producer =
      Domain.spawn (fun () ->
          for i = 1 to n do
            Netsim.Mailbox.push mb i
          done;
          Atomic.set finished true)
    in
    while not (Atomic.get finished) do
      Netsim.Mailbox.drain_ring mb (fun _ -> incr received)
    done;
    Domain.join producer;
    Netsim.Mailbox.drain mb (fun _ -> incr received);
    let wall = Unix.gettimeofday () -. t0 in
    if !received <> n then failwith "mailbox micro-bench lost messages";
    float_of_int n /. wall
  in
  let reps = if smoke then 1 else 3 in
  let best = ref 0.0 in
  for _ = 1 to reps do
    let v = run () in
    if v > !best then best := v
  done;
  (n, !best)

(* Wall clock of the same 64-router grid scenario under the classic
   single-heap engine and the sharded engine at K = 1, 2, 4.  Speedups
   are quoted against the sharded K = 1 run (same engine family, same
   event set — the classic engine runs a different event decomposition,
   so its row is context, not a baseline).  The K = 1 row against the
   classic row is the engine's synchronization overhead — the
   zero-allocation work holds it under 1.3x on this host.  The scenario
   is heavy enough (32 crossing CBR flows) that shard heaps stay busy
   between barriers. *)
let shard_scaling ~smoke registry =
  print_endline "";
  print_endline "Sharded-engine scaling (grid8x8, 32 flows)";
  print_endline "==========================================";
  let horizon = if smoke then 0.3 else 10.0 in
  let g = Topology.Generate.grid ~rows:8 ~cols:8 in
  let n = Topology.Graph.size g in
  let run_shards k =
    let net =
      Netsim.Net.create ~seed:1 ~jitter_bound:100e-6
        ?shards:(if k = 0 then None else Some k)
        g
    in
    Netsim.Net.use_routing net (Topology.Routing.compute g);
    for i = 0 to 31 do
      ignore
        (Netsim.Flow.cbr net ~src:i ~dst:(n - 1 - i) ~rate_pps:120.0 ~size:500
           ~start:0.0 ~stop:horizon)
    done;
    let t0 = Unix.gettimeofday () in
    Netsim.Net.run ~until:horizon net;
    let wall = Unix.gettimeofday () -. t0 in
    (wall, Netsim.Net.events_processed net)
  in
  let reps = if smoke then 1 else 3 in
  let best k =
    let wall = ref infinity and events = ref 0 in
    let (), gc =
      (* The delta spans all reps of the mode — per-rep allocation is
         identical, so dividing by [reps] recovers one run. *)
      with_gc_delta (fun () ->
          for _ = 1 to reps do
            let w, e = run_shards k in
            if w < !wall then begin wall := w; events := e end
          done)
    in
    (k, !wall, !events, gc)
  in
  let rows = List.map best [ 0; 1; 2; 4 ] in
  let wall_of p =
    match List.find_opt (fun (k, _, _, _) -> k = p) rows with
    | Some (_, w, _, _) -> w
    | None -> 0.0
  in
  let wall_k1 = wall_of 1 and wall_classic = wall_of 0 in
  List.iter
    (fun (k, wall, events, _gc) ->
      let name = if k = 0 then "classic" else Printf.sprintf "shards=%d" k in
      let speedup = if k > 0 && wall > 0.0 then wall_k1 /. wall else 0.0 in
      Printf.printf "  %-10s %7.3f s wall  %9.0f events/s%s\n" name wall
        (float_of_int events /. wall)
        (if k > 0 then Printf.sprintf "  %.2fx vs shards=1" speedup else "");
      let set gname help v =
        Telemetry.Metrics.set
          (Telemetry.Metrics.gauge registry gname ~help
             ~labels:[ ("scenario", "grid8x8"); ("mode", name) ])
          v
      in
      set "shard_wall_seconds" "wall clock of the grid8x8 scaling scenario" wall;
      set "shard_events_per_second" "engine throughput by shard count"
        (float_of_int events /. wall))
    rows;
  if wall_classic > 0.0 then
    Printf.printf "  shards=1 overhead vs classic: %.2fx\n"
      (wall_k1 /. wall_classic);
  let mb_n, mb_eps = mailbox_throughput ~smoke in
  Printf.printf "  mailbox SPSC (2 domains) %9.0f msgs/s  (%d messages)\n"
    mb_eps mb_n;
  Telemetry.Metrics.set
    (Telemetry.Metrics.gauge registry "mailbox_msgs_per_second"
       ~help:"2-domain SPSC mailbox push/drain throughput"
       ~labels:[ ("bench", "mailbox-spsc") ])
    mb_eps;
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  (host offers %d recommended domain(s))\n" cores;
  if not smoke then begin
    let open Telemetry.Export in
    write_file "BENCH_shard.json"
      (Assoc
         [ ("schema", String "mrdetect-bench-shard-v2");
           ( "method",
             String
               "best wall clock of 3 runs of a 10 s grid8x8 scenario (64 \
                routers, 32 crossing CBR flows); speedup is against the \
                sharded K=1 run, which executes the identical event set; \
                gc counters are the Gc.quick_stat delta across all 3 runs \
                of the mode" );
           ("recommended_domain_count", Int cores);
           ( "mailbox_spsc",
             Assoc
               [ ("messages", Int mb_n);
                 ("msgs_per_second", Float mb_eps) ] );
           ( "note",
             String
               (if cores <= 1 then
                  "measured on a single-core host: every shard domain \
                   timeshares one CPU, so parallel speedup is not \
                   attainable here and the numbers below record the \
                   engine's synchronization overhead honestly rather than \
                   a simulated gain; on a multi-core host the same harness \
                   measures real scaling"
                else "measured with real domain parallelism") );
           ( "modes",
             List
               (List.map
                  (fun (k, wall, events, gc) ->
                    Assoc
                      [ ("shards", Int k);
                        ( "engine",
                          String (if k = 0 then "classic" else "sharded") );
                        ("wall_seconds", Float wall);
                        ( "events_per_second",
                          Float (float_of_int events /. wall) );
                        ( "speedup_vs_shards1",
                          if k > 0 && wall > 0.0 then Float (wall_k1 /. wall)
                          else Null );
                        ( "overhead_vs_classic",
                          if k > 0 && wall_classic > 0.0 then
                            Float (wall /. wall_classic)
                          else Null );
                        ("gc", gc_json gc) ])
                  rows) ) ]);
    print_endline "\nsharded-engine scaling written to BENCH_shard.json"
  end

(* Machine-readable trajectory: every run rewrites BENCH_telemetry.json
   with the same numbers the stdout table shows, so per-PR performance
   diffs are a file diff, not a transcript scrape. *)
let write_json registry path =
  Telemetry.Export.write_file path
    (Telemetry.Export.Assoc
       [ ("schema", Telemetry.Export.String "mrdetect-bench-v1");
         ("metrics", Telemetry.Export.json_of_registry registry) ]);
  Printf.printf "\nbenchmark metrics written to %s\n" path

(* --- regression gate (`bench --check`) ------------------------------- *)

(* Re-measure the cheap reference numbers and compare them against the
   committed BENCH_*.json baselines through one-sided tolerance bands
   (Experiments.Benchgate).  The ring8 reference scenario simulates its
   full 30 s horizon even under --smoke — that is ~0.2 s of wall clock,
   so the gate always measures the same workload the baselines recorded;
   --smoke only trims the kernel batch count.

   [handicap] degrades every fresh measurement by a factor (latency and
   allocation multiplied, throughput divided) so the failure path of the
   gate itself is testable without a real regression. *)
let check_gate ~smoke ~handicap ~baseline_dir =
  let module G = Experiments.Benchgate in
  print_endline "Bench regression gate (--check)";
  print_endline "===============================";
  if handicap <> 1.0 then
    Printf.printf "  synthetic handicap: %.2fx applied to fresh measurements\n"
      handicap;
  let load name =
    match G.load_json (Filename.concat baseline_dir name) with
    | Ok doc -> doc
    | Error msg ->
        Printf.eprintf "bench --check: cannot load baseline %s: %s\n" name msg;
        exit 2
  in
  let alloc_doc = load "BENCH_alloc.json" in
  let hotpath_doc = load "BENCH_hotpath.json" in
  let faults_doc = load "BENCH_faults.json" in
  let baseline doc path =
    match G.float_at doc path with
    | Some v -> v
    | None ->
        Printf.eprintf "bench --check: baseline missing %s\n"
          (String.concat "." path);
        exit 2
  in
  let verdicts = ref [] in
  let push v = verdicts := v :: !verdicts in
  (* Allocation + throughput: min over a few repetitions of the exact
     recording scenario.  Words-per-event is near-deterministic, so its
     band is tight; wall clock gets the wide shared-vCPU band. *)
  let reps = if smoke then 2 else 3 in
  List.iter
    (fun mode ->
      let pooling = mode = "pooled" in
      let words = ref infinity and eps = ref 0.0 in
      for _ = 1 to reps do
        let events, wall, gc, _ = reference_alloc_run ~horizon:30.0 ~pooling () in
        let w = gc.gd_minor_words /. float_of_int (max 1 events) in
        if w < !words then words := w;
        let e = float_of_int events /. wall in
        if e > !eps then eps := e
      done;
      let row =
        match G.find_by alloc_doc ~field:"modes" ~key:"mode" ~value:mode with
        | Some row -> row
        | None ->
            Printf.eprintf "bench --check: BENCH_alloc.json has no mode %S\n"
              mode;
            exit 2
      in
      push
        (G.judge
           (G.band ~slack:1.0 ~direction:G.Lower_better ~limit:1.25
              (Printf.sprintf "alloc.%s.minor_words_per_event" mode))
           ~baseline:(baseline row [ "minor_words_per_event" ])
           ~measured:(!words *. handicap));
      push
        (G.judge
           (G.band ~direction:G.Higher_better ~limit:1.6
              (Printf.sprintf "alloc.%s.events_per_second" mode))
           ~baseline:(baseline row [ "events_per_second" ])
           ~measured:(!eps /. handicap)))
    [ "unpooled"; "pooled" ];
  (* Hot-path kernels: the same min-estimator the recording pass uses. *)
  let batches = if smoke then 60 else 400 in
  List.iter
    (fun (name, _before, after) ->
      let row =
        match G.find_by hotpath_doc ~field:"kernels" ~key:"name" ~value:name with
        | Some row -> row
        | None ->
            Printf.eprintf "bench --check: BENCH_hotpath.json has no kernel %S\n"
              name;
            exit 2
      in
      push
        (G.judge
           (G.band ~slack:50.0 ~direction:G.Lower_better ~limit:1.8
              (Printf.sprintf "hotpath.%s.ns_per_op" name))
           ~baseline:(baseline row [ "measured_ns_per_op" ])
           ~measured:(measure_min ~batches after *. handicap)))
    (hotpath_kernels ());
  (* Fault-injection throughput: re-run the exact 20 s reference
     scenario the recording pass measured, faults off and under the
     default-budget chaos plan.  Wall-clock throughput on a shared vCPU
     gets the same wide band as the allocation scenario's events/s. *)
  List.iter
    (fun (mode, schedule) ->
      let row =
        match G.find_by faults_doc ~field:"modes" ~key:"mode" ~value:mode with
        | Some row -> row
        | None ->
            Printf.eprintf "bench --check: BENCH_faults.json has no mode %S\n"
              mode;
            exit 2
      in
      let eps = ref 0.0 in
      for _ = 1 to reps do
        let e = faults_reference_run ~horizon:20.0 schedule in
        if e > !eps then eps := e
      done;
      push
        (G.judge
           (G.band ~direction:G.Higher_better ~limit:1.6
              (Printf.sprintf "faults.%s.events_per_second" mode))
           ~baseline:(baseline row [ "events_per_second" ])
           ~measured:(!eps /. handicap)))
    [ ("off", None);
      ("chaos",
       Some (faults_reference_chaos ~horizon:20.0 Faults.Chaos.default_budget))
    ];
  let verdicts = List.rev !verdicts in
  List.iter (fun v -> print_endline (G.render v)) verdicts;
  let ok = G.all_ok verdicts in
  print_endline (if ok then "\nbench --check: ok" else "\nbench --check: REGRESSION");
  ok

let () =
  let argv = Sys.argv in
  let smoke = Array.exists (( = ) "--smoke") argv in
  let flag_value name default parse =
    let v = ref default in
    Array.iteri
      (fun i a -> if a = name && i + 1 < Array.length argv then v := parse argv.(i + 1))
      argv;
    !v
  in
  if Array.exists (( = ) "--check") argv then begin
    let handicap = flag_value "--check-handicap" 1.0 float_of_string in
    let baseline_dir = flag_value "--baseline" "." Fun.id in
    exit (if check_gate ~smoke ~handicap ~baseline_dir then 0 else 1)
  end;
  let registry = Telemetry.Metrics.create () in
  if smoke then begin
    (* Compile-and-run check for the whole harness: tiny quotas, a short
       simulation horizon, no reproduction pass and no JSON rewrites. *)
    let eps = simulator_performance ~smoke registry in
    tracing_overhead ~smoke registry;
    fault_overhead ~smoke registry;
    allocation ~smoke registry;
    shard_scaling ~smoke registry;
    run_benchmarks ~smoke registry;
    hotpath ~smoke ~sim_events_per_second:eps
  end
  else begin
    let results, serial, serial_gc = reproduction () in
    parallel_comparison ~serial ~serial_gc results;
    let eps = simulator_performance ~smoke registry in
    tracing_overhead ~smoke registry;
    fault_overhead ~smoke registry;
    allocation ~smoke registry;
    shard_scaling ~smoke registry;
    run_benchmarks ~smoke registry;
    hotpath ~smoke ~sim_events_per_second:eps;
    write_json registry "BENCH_telemetry.json"
  end
