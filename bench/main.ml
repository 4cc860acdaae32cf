(* The kernel and allocation bench.

   perfbench/ owns every end-to-end number (wall time, hops/s and words
   per hop with a detector deployed) and `mrdetect all` reproduces the
   evaluation.  This harness keeps the two measurements perfbench does
   not take, one artifact each, both recorded by one run into the
   working directory:

   - BENCH_hotpath.json — ns/op of the per-packet and per-round kernels
     behind Chapter 7 and Appendix A (fingerprints, traffic validation,
     set reconciliation, routing, SHA-256/HMAC, Dolev-Strong), plus the
     2-domain Mailbox SPSC rate as context;
   - BENCH_alloc.json — words allocated per simulation event on the
     ring8 reference scenario, pooling off and on, against the seed's
     numbers.

   main.exe records both; --smoke runs every measurement with tiny
   quotas and writes no file; --check [--check-handicap F] [--baseline
   DIR] re-measures and gates against DIR's artifacts (default .):
   exit 0 ok, 1 regression, 2 usage error or unusable baseline. *)

module G = Experiments.Benchgate
module J = Telemetry.Export

let usage () =
  prerr_endline
    "usage: main.exe [--smoke | --check [--check-handicap F] [--baseline DIR]]\n\
    \  F is a finite slowdown factor >= 1 applied to fresh measurements";
  exit 2

(* --- allocation (BENCH_alloc.json) ------------------------------------ *)

(* Per-event allocation recorded by the seed's bench run on the same
   ring8 reference scenario, before the zero-allocation work (flat
   event heap, ring queues, packet pooling, slim telemetry path).
   Kept as literals so the reduction column survives later rewrites. *)
let recorded_seed_minor_words_per_event = 62.97
let recorded_seed_promoted_words_per_event = 1.1772
let recorded_seed_events_per_second = 3984214.25394

(* The ring8 reference scenario: six crossing CBR flows and one TCP
   connection for [horizon] seconds. *)
let ring8_reference ~horizon ~pooling =
  let g = Topology.Generate.ring ~n:8 in
  let net = Netsim.Net.create ~seed:1 ~jitter_bound:100e-6 ~pooling g in
  Netsim.Net.use_routing net (Topology.Routing.compute g);
  List.iter
    (fun (s, d) ->
      ignore
        (Netsim.Flow.cbr net ~src:s ~dst:d ~rate_pps:200.0 ~size:500 ~start:0.0
           ~stop:horizon))
    [ (0, 4); (4, 0); (1, 5); (5, 1); (2, 6); (6, 2) ];
  ignore (Netsim.Tcp.connect net ~src:0 ~dst:3 ());
  net

(* One run of the reference scenario, as (minor words per event, row).
   Words per event are a deterministic count, so one run measures them;
   events/s is context.  [quick_stat] counters settle at collection
   boundaries, so the minor allocation pointer is read exactly. *)
let alloc_row ~smoke mode =
  let pooling = mode = "pooled" in
  let horizon = if smoke then 0.5 else 30.0 in
  let net = ring8_reference ~horizon ~pooling in
  (* Settle setup garbage so the delta measures the event loop. *)
  Gc.full_major ();
  let s0 = Gc.quick_stat () and mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Netsim.Net.run ~until:horizon net;
  let wall = Unix.gettimeofday () -. t0 in
  let mw1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  let minor = mw1 -. mw0 in
  let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  let events = Netsim.Net.events_processed net in
  let per w = w /. float_of_int (max 1 events) in
  let pool = Netsim.Net.pool_stats net in
  let eps = float_of_int events /. wall in
  Printf.printf "  %-9s %8.2f minor w/ev  %7.4f promoted w/ev  %9.0f events/s\n"
    mode (per minor) (per promoted) eps;
  ( per minor,
    J.Assoc
      [ ("mode", String mode);
        ("pooling", Bool pooling);
        ("events", Int events);
        ("wall_seconds", Float wall);
        ("events_per_second", Float eps);
        ("minor_words_per_event", Float (per minor));
        ("promoted_words_per_event", Float (per promoted));
        ( "reduction_vs_seed_percent",
          Float ((1.0 -. (per minor /. recorded_seed_minor_words_per_event)) *. 100.0) );
        ( "pool",
          Assoc
            [ ("fresh", Int pool.Netsim.Pool.fresh);
              ("recycled", Int pool.Netsim.Pool.recycled);
              ("released", Int pool.Netsim.Pool.released);
              ("available", Int pool.Netsim.Pool.available) ] );
        ( "gc",
          Assoc
            [ ("minor_words", Float minor);
              ("promoted_words", Float promoted);
              ("major_words", Float (s1.Gc.major_words -. s0.Gc.major_words));
              ( "minor_collections",
                Int (s1.Gc.minor_collections - s0.Gc.minor_collections) );
              ( "major_collections",
                Int (s1.Gc.major_collections - s0.Gc.major_collections) ) ] ) ] )

let alloc_file = "BENCH_alloc.json"
let alloc_modes = [ "unpooled"; "pooled" ]

(* --- kernels (BENCH_hotpath.json) ------------------------------------- *)

let hotpath_file = "BENCH_hotpath.json"

let packet_bytes n = String.init n (fun i -> Char.chr ((i * 7) land 0xff))

(* The one kernel table, recorded and gated alike. *)
let kernels () =
  let small = packet_bytes 40 and msg = packet_bytes 1500 in
  let sip_key = Crypto_sim.Siphash.key_of_string "bench" in
  let hk = Crypto_sim.Sha256.hmac_key ~key:"k" in
  let keyring = Crypto_sim.Keyring.create ~n:5 () in
  let summary n =
    let s = Core.Summary.create Core.Summary.Content in
    for i = 0 to n - 1 do
      Core.Summary.observe s ~fp:(Int64.of_int i) ~size:1000 ~time:0.0
    done;
    s
  in
  let sent = summary 1000 and received = summary 995 in
  let shared = Array.init 512 (fun i -> (i * 211) + 5) in
  let diff_pair d =
    ( Array.append shared (Array.init d (fun i -> 900_000 + i)),
      Array.append shared (Array.init d (fun i -> 800_000 + i)) )
  in
  let a8, b8 = diff_pair 8 and a32, b32 = diff_pair 32 in
  let rng = Random.State.make [| 3 |] in
  let bloom = Setrecon.Bloom.create ~bits:8192 () in
  let g = Topology.Generate.ebone_like () in
  let rt = Topology.Routing.compute g in
  let seg =
    match Topology.Routing.all_routed_paths rt with
    | p :: _ when List.length p >= 3 -> List.filteri (fun i _ -> i < 3) p
    | _ -> [ 0; 1 ]
  in
  [ ("siphash-40B", fun () -> ignore (Crypto_sim.Siphash.hash sip_key small));
    ("siphash-1500B", fun () -> ignore (Crypto_sim.Siphash.hash sip_key msg));
    ("fnv-1500B", fun () -> ignore (Crypto_sim.Fnv.hash_string msg));
    ( "tv-content-1000pkts",
      fun () ->
        ignore
          (Core.Validation.tv ~thresholds:(Core.Validation.lenient ()) ~sent
             ~received ()) );
    ( "reconcile-diff16",
      fun () -> ignore (Setrecon.Reconcile.diff ~rng ~a:a8 ~b:b8 ()) );
    ( "reconcile-diff64",
      fun () -> ignore (Setrecon.Reconcile.diff ~rng ~a:a32 ~b:b32 ()) );
    ( "bloom-add+query",
      fun () ->
        Setrecon.Bloom.add bloom 123456789L;
        ignore (Setrecon.Bloom.mem bloom 987654321L) );
    ("link-state-tables-ebone", fun () -> ignore (Topology.Routing.compute g));
    ( "pik2-family-ebone-k1",
      fun () -> ignore (Topology.Segments.pik2_family rt ~k:1) );
    ( "policy-tables-1-exclusion",
      fun () -> ignore (Topology.Policy.compute g ~forbidden:[ seg ]) );
    ("sha256-1500B", fun () -> ignore (Crypto_sim.Sha256.digest msg));
    (* The per-packet HMAC path: midstates precomputed once per key, as
       Keyring caches them; the keyexp row expands the key every call. *)
    ("hmac-sha256-1500B", fun () -> ignore (Crypto_sim.Sha256.hmac_with hk msg));
    ( "hmac-sha256-keyexp-1500B",
      fun () -> ignore (Crypto_sim.Sha256.hmac ~key:"k" msg) );
    ( "keyring-mac64-1500B",
      fun () -> ignore (Crypto_sim.Keyring.mac64 keyring 0 1 msg) );
    ( "dolev-strong-5-parties",
      fun () ->
        ignore
          (Core.Consensus.broadcast ~keyring ~parties:5 ~f:1 ~sender:0 ~value:7L
             ~behavior:(fun _ -> Core.Consensus.Correct)) ) ]

(* One reading: the minimum ns/op over ~0.3 ms batches (one call of a
   slow kernel) for [budget] s of process CPU time.  CPU time leaves
   preemption out, and other load only ever inflates a batch, so the
   minimum estimates the uncontended cost. *)
let measure_min ~budget ~per_batch f =
  let best = ref infinity and batches = ref 0 in
  let stop = Sys.time () +. budget in
  while !batches = 0 || Sys.time () < stop do
    let t0 = Sys.time () in
    for _ = 1 to per_batch do f () done;
    let ns = (Sys.time () -. t0) *. 1e9 /. float_of_int per_batch in
    if ns < !best then best := ns;
    incr batches
  done;
  !best

(* Calls per ~0.3 ms batch, from the calls that fit in 1 ms. *)
let batch_size f =
  f ();
  let t0 = Sys.time () and calls = ref 0 in
  while Sys.time () -. t0 < 0.001 do f (); incr calls done;
  max 1 (int_of_float (0.0003 *. float_of_int !calls /. (Sys.time () -. t0)))

(* Readings come in [rounds] passes over the whole table, [pause] s
   apart.  A shared host has slow phases lasting seconds, so the
   recording spreads its passes over ~20 s: its median is the host's
   typical speed and its spread covers the phases.  The gate takes five
   quick passes. *)
type schedule = { rounds : int; budget : float; pause : float }

let recording = { rounds = 9; budget = 0.01; pause = 2.0 }
let gating = { rounds = 5; budget = 0.01; pause = 0.0 }
let smoke_run = { rounds = 1; budget = 0.001; pause = 0.0 }

type kernel_stat = {
  name : string;
  median : float;
  spread : float; (* (max - min) / median *)
  readings : float array;
}

let measure_kernels { rounds; budget; pause } =
  let table =
    Array.of_list (List.map (fun (n, f) -> (n, f, batch_size f)) (kernels ()))
  in
  (* Start from a compacted heap, whatever ran before. *)
  Gc.compact ();
  let readings = Array.map (fun _ -> Array.make rounds 0.0) table in
  for r = 0 to rounds - 1 do
    if r > 0 then Unix.sleepf pause;
    Array.iteri
      (fun i (_, f, per_batch) ->
        readings.(i).(r) <- measure_min ~budget ~per_batch f)
      table
  done;
  Array.to_list
    (Array.mapi
       (fun i (name, _, _) ->
         let s = Array.copy readings.(i) in
         Array.sort compare s;
         let n = Array.length s in
         let median = s.(n / 2) in
         let spread = (s.(n - 1) -. s.(0)) /. median in
         { name; median; spread; readings = readings.(i) })
       table)

(* 2-domain push/drain throughput of the cross-shard mailbox: the
   producer pushes [n] messages while this domain live-drains the ring,
   then the spill is settled once the producer has quiesced.  Context
   only: it needs two cores to mean anything, so it is not gated. *)
let mailbox_spsc ~smoke =
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
  let best = List.fold_left (fun b _ -> Float.max b (run ())) 0.0 [ 1; 2; 3 ] in
  Printf.printf "  %-26s %9.0f msgs/s  (%d messages, best of 3)\n" "mailbox-spsc" best n;
  J.Assoc [ ("messages", Int n); ("msgs_per_second", Float best) ]

(* --- recording -------------------------------------------------------- *)

let first_line cmd =
  let ic = Unix.open_process_in cmd in
  let line = In_channel.input_line ic in
  ignore (Unix.close_process_in ic);
  line

(* Which code and machine a recording came from.  [dirty] marks a
   working tree with uncommitted changes on top of [commit]. *)
let stamp () =
  let commit = first_line "git rev-parse HEAD 2>/dev/null" in
  let dirty =
    first_line "git status --porcelain --untracked-files=no 2>/dev/null" <> None
  in
  let cpu = first_line "sed -n 's/^model name[^:]*: //p' /proc/cpuinfo 2>/dev/null" in
  [ ("commit", J.String (Option.value commit ~default:"unknown"));
    ("dirty", Bool dirty);
    ("host", String (Option.value cpu ~default:"unknown"));
    ("recommended_domain_count", Int (Domain.recommended_domain_count ())) ]

let record ~smoke =
  let stamp = stamp () in
  let artifact schema method_ fields =
    J.Assoc
      ([ ("schema", J.String schema); ("method", String method_); ("smoke", Bool smoke) ]
      @ stamp @ fields)
  in
  print_endline "Allocation (ring8 reference scenario, words per event)";
  let modes = List.map (fun m -> snd (alloc_row ~smoke m)) alloc_modes in
  Printf.printf
    "  %-9s %8.2f minor w/ev  %7.4f promoted w/ev  %9.0f events/s  (recorded at seed)\n"
    "seed" recorded_seed_minor_words_per_event
    recorded_seed_promoted_words_per_event recorded_seed_events_per_second;
  let alloc =
    artifact "mrdetect-bench-alloc-v2"
      "Gc counter deltas over one run of the 30 s ring8 reference scenario \
       (6 crossing CBR flows + 1 TCP connection) after a full major \
       collection; words per event divide by Sim events processed; \
       events/s is that run's, context only"
      [ ("scenario", String "ring8-reference");
        ( "recorded_seed",
          Assoc
            [ ("minor_words_per_event", Float recorded_seed_minor_words_per_event);
              ( "promoted_words_per_event",
                Float recorded_seed_promoted_words_per_event );
              ("events_per_second", Float recorded_seed_events_per_second) ] );
        ("modes", List modes) ]
  in
  print_endline "\nKernels (ns/op, median of the readings)";
  let schedule = if smoke then smoke_run else recording in
  let stats = measure_kernels schedule in
  List.iter
    (fun k ->
      Printf.printf "  %-26s %11.1f ns/op  spread %5.1f%%\n" k.name k.median
        (k.spread *. 100.0))
    stats;
  let mailbox = mailbox_spsc ~smoke in
  let hotpath =
    artifact "mrdetect-bench-hotpath-v2"
      (Printf.sprintf
         "%d readings per kernel, taken in passes over the whole table %.0f s \
          apart; a reading is the min ns/op over ~0.3 ms batches timed in \
          process CPU time for %.0f ms; ns_per_op is their median, spread \
          is (max - min) / median"
         schedule.rounds schedule.pause (schedule.budget *. 1000.0))
      [ ( "kernels",
          List
            (List.map
               (fun k ->
                 J.Assoc
                   [ ("name", String k.name);
                     ("ns_per_op", Float k.median);
                     ("spread", Float k.spread);
                     ( "readings",
                       List (List.map (fun x -> J.Float x) (Array.to_list k.readings)) )
                   ])
               stats) );
        ("mailbox_spsc", mailbox) ]
  in
  [ (alloc_file, alloc); (hotpath_file, hotpath) ]

(* --- the gate (`--check`) ----------------------------------------------- *)

(* One band rule per kind of measurement.  Words per event are a
   deterministic count: a tight band, with one word of slack for the
   near-zero pooled baseline.  A kernel may be 1 + spread times slower
   than its recorded median (roughly the slowest reading the recording
   saw), but no less than 1.5x and no more than 1.7x, so a 2x slowdown
   of any kernel fails. *)
let words_band metric = G.band ~slack:1.0 ~direction:G.Lower_better ~limit:1.25 metric

let kernel_band metric ~spread =
  let limit = Float.min 1.7 (Float.max 1.5 (1.0 +. spread)) in
  G.band ~direction:G.Lower_better ~limit metric

let fail_baseline fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench --check: " ^ s);
      exit 2)
    fmt

(* A baseline must come from a full, stamped recording. *)
let check_recorded (file, doc) =
  (match J.member "smoke" doc with
  | Some (Bool false) -> ()
  | _ -> fail_baseline "%s is not from a full run (smoke flag set or missing)" file);
  match Option.bind (J.member "commit" doc) J.to_string_opt with
  | Some _ -> ()
  | None -> fail_baseline "%s has no commit stamp" file

(* The gated rows of a pair of artifacts as (band, baseline), in the
   order {!fresh} measures them. *)
let gated_rows docs =
  let row file ~field ~key ~value =
    match G.find_by (List.assoc file docs) ~field ~key ~value with
    | Some r -> r
    | None -> fail_baseline "%s has no %s %S" file key value
  in
  let num file r field =
    match G.float_at r [ field ] with
    | Some v -> v
    | None -> fail_baseline "%s row lacks %s" file field
  in
  List.map
    (fun mode ->
      let r = row alloc_file ~field:"modes" ~key:"mode" ~value:mode in
      ( words_band (Printf.sprintf "alloc.%s.minor_words_per_event" mode),
        num alloc_file r "minor_words_per_event" ))
    alloc_modes
  @ List.map
      (fun (name, _) ->
        let r = row hotpath_file ~field:"kernels" ~key:"name" ~value:name in
        ( kernel_band (Printf.sprintf "hotpath.%s.ns_per_op" name)
            ~spread:(num hotpath_file r "spread"),
          num hotpath_file r "ns_per_op" ))
      (kernels ())

(* A kernel is judged on the best of its readings: a regression slows
   every reading, a slow phase of the host only some. *)
let fresh () =
  List.map (fun mode -> fst (alloc_row ~smoke:false mode)) alloc_modes
  @ List.map
      (fun k -> Array.fold_left Float.min infinity k.readings)
      (measure_kernels gating)

(* Re-measure every gated row the way the recording did and judge it.
   [handicap] multiplies every fresh measurement, so the gate's failure
   path is testable without a real regression. *)
let check ~handicap ~baseline_dir =
  print_endline "Bench regression gate (--check)";
  if handicap <> 1.0 then
    Printf.printf "  synthetic handicap: %.2fx applied to fresh measurements\n"
      handicap;
  let docs =
    List.map
      (fun file ->
        match G.load_json (Filename.concat baseline_dir file) with
        | Ok doc -> (file, doc)
        | Error msg -> fail_baseline "cannot load baseline %s: %s" file msg)
      [ alloc_file; hotpath_file ]
  in
  List.iter check_recorded docs;
  let rows = gated_rows docs in
  let verdicts =
    List.map2
      (fun (band, baseline) measured ->
        G.judge band ~baseline ~measured:(measured *. handicap))
      rows (fresh ())
  in
  List.iter (fun v -> print_endline (G.render v)) verdicts;
  let ok = G.all_ok verdicts in
  print_endline (if ok then "\nbench --check: ok" else "\nbench --check: REGRESSION");
  ok

(* --- command line ------------------------------------------------------- *)

let () =
  let smoke = ref false and gate = ref false in
  let handicap = ref None and baseline_dir = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--check" :: rest -> gate := true; parse rest
    | "--check-handicap" :: f :: rest -> (
        match float_of_string_opt f with
        | Some f when Float.is_finite f && f >= 1.0 ->
            handicap := Some f;
            parse rest
        | _ -> usage ())
    | "--baseline" :: dir :: rest -> baseline_dir := Some dir; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!gate, !smoke, !handicap, !baseline_dir) with
  | true, false, handicap, dir ->
      let handicap = Option.value handicap ~default:1.0 in
      let baseline_dir = Option.value dir ~default:"." in
      exit (if check ~handicap ~baseline_dir then 0 else 1)
  | false, true, None, None ->
      (* Cover the writer and the gate's reader without touching the
         committed baselines: render, parse back, extract every row. *)
      let docs =
        List.map
          (fun (file, doc) ->
            let text = J.to_string doc in
            match J.of_string text with
            | Ok back when J.to_string back = text -> (file, back)
            | _ -> failwith (file ^ " does not round-trip"))
          (record ~smoke:true)
      in
      Printf.printf "\nsmoke: %d gated rows read back, no file written\n"
        (List.length (gated_rows docs))
  | false, false, None, None ->
      List.iter
        (fun (file, doc) ->
          J.write_file file doc;
          Printf.printf "wrote %s\n" file)
        (record ~smoke:false)
  | _ -> usage ()
