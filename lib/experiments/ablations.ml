(* Ablations over the design choices DESIGN.md calls out:

   1. processing-jitter magnitude vs χ's calibrated sigma and detection
      quality (how much forwarding-plane noise the statistics absorb);
   2. validation round length τ vs detection latency (state vs latency);
   3. Πk+2 hash-range sampling fraction vs per-round detection
      probability and summary size (the §5.2.1 overhead knob);
   4. clock skew vs χ sensitivity (§7.3);
   5. link corruption vs χ false alarms (§4.2.1).

   Each ablation is an independent simulation sweep, so [eval ?jobs]
   fans the five parts out over a {!Pool} of domains. *)

open Core

let alarms_of run =
  List.filter (fun (r : Chi.report) -> r.Chi.alarm) run.Scenario.reports

let false_alarms_of run =
  List.filter
    (fun (r : Chi.report) -> r.Chi.end_time <= run.Scenario.attack_start)
    (alarms_of run)

(* Detection latency: from the attack's start to the end of the first
   round that alarmed after it.  An alarm raised before the attack is a
   false one and detects nothing. *)
let latency_of run =
  List.find_map
    (fun (r : Chi.report) ->
      if r.Chi.end_time > run.Scenario.attack_start then
        Some (r.Chi.end_time -. run.Scenario.attack_start)
      else None)
    (alarms_of run)

let latency_cell = function
  | Some l -> Exp.float ~decimals:1 l
  | None -> Exp.text "-"

let jitter_ablation () =
  let rows =
    List.map
      (fun jitter_bound ->
        let run =
          Scenario.run_droptail ~jitter_bound
            ~attack:(fun victims ->
              Some (Adversary.on_flows victims (Adversary.drop_when_queue_above 0.90)))
            ()
        in
        [ Exp.float ~decimals:0 (jitter_bound *. 1e6);
          Exp.int (List.length (alarms_of run));
          Exp.int (List.length (false_alarms_of run));
          latency_cell (latency_of run) ])
      [ 0.0; 100e-6; 300e-6; 1e-3; 3e-3 ]
  in
  Exp.section "Ablation 1: processing jitter vs chi calibration"
    [ Exp.table ~header:[ "jitter (us)"; "alarms"; "false"; "latency (s)" ] rows;
      Exp.Note
        ( "finding",
          "once per-packet jitter approaches the packet serialization time (~800 us here)      the error distribution grows tails the normal fit underestimates and false      alarms appear — chi depends on the paper's small-forwarding-jitter assumption"
        ) ]

(* Ablation 2's finding, read off its rows: (tau, alarms, false alarms,
   latency). *)
let tau_finding rows =
  let secs xs = String.concat ", " (List.map (Printf.sprintf "%g") xs) in
  let soundness =
    match List.filter (fun (_, _, false_alarms, _) -> false_alarms > 0) rows with
    | [] -> "no round length raised a false alarm"
    | noisy ->
        Printf.sprintf
          "rounds of %s s raised false alarms (%s): too few samples per round for \
           the combined test"
          (secs (List.map (fun (tau, _, _, _) -> tau) noisy))
          (String.concat ", " (List.map (fun (_, _, f, _) -> string_of_int f) noisy))
  in
  let detected = List.filter_map (fun (tau, _, _, l) -> Option.map (fun l -> (tau, l)) l) rows in
  let latency =
    match detected with
    | [] -> "no round length detected the attack"
    | _ ->
        Printf.sprintf "detection waited %s s at tau = %s s"
          (secs (List.map snd detected)) (secs (List.map fst detected))
  in
  Printf.sprintf
    "%s, and %s: a longer round gathers more samples per round and pays for them \
     in latency, since detection waits for the next round boundary"
    soundness latency

let tau_ablation () =
  let runs =
    List.map
      (fun tau ->
        let run =
          Scenario.run_droptail ~tau
            ~attack:(fun victims ->
              Some (Adversary.on_flows victims (Adversary.drop_fraction ~seed:5 0.2)))
            ()
        in
        ( tau,
          List.length (alarms_of run),
          List.length (false_alarms_of run),
          latency_of run ))
      [ 0.5; 1.0; 2.0; 5.0 ]
  in
  let rows =
    List.map
      (fun (tau, alarms, false_alarms, latency) ->
        [ Exp.float ~decimals:1 tau; Exp.int alarms; Exp.int false_alarms;
          latency_cell latency ])
      runs
  in
  Exp.section "Ablation 2: validation round length tau vs detection latency"
    [ Exp.table ~header:[ "tau (s)"; "alarms"; "false"; "latency (s)" ] rows;
      Exp.Note ("finding", tau_finding runs) ]

let sampling_ablation () =
  let rt = Topology.Routing.compute (Topology.Generate.line ~n:6) in
  let rounds = 20 in
  let rows =
    List.map
      (fun fraction ->
        let sampling =
          if fraction >= 1.0 then None
          else
            Some
              (Crypto_sim.Sampling.create
                 ~key:(Crypto_sim.Siphash.key_of_string "ablation") ~fraction)
        in
        let detected = ref 0 in
        for round = 0 to rounds - 1 do
          let adversary = Rounds.dropper ~fraction:0.05 ~seed:round [ 2 ] in
          let segs =
            Pik2.detect_round ~rt ~k:1 ~adversary ?sampling ~packets_per_path:200 ~round ()
          in
          if List.exists (List.mem 2) segs then incr detected
        done;
        [ Exp.float ~decimals:2 fraction;
          Exp.int !detected;
          Exp.int rounds;
          Exp.floatf "%.0f fps/seg" (fraction *. 200.0) ])
      [ 1.0; 0.5; 0.2; 0.05 ]
  in
  Exp.section "Ablation 3: Pik+2 sampling fraction vs detection probability"
    [ Exp.table ~header:[ "fraction"; "det. rounds"; "of"; "summary state" ] rows;
      Exp.Note
        ( "finding",
          "a 5% secret hash-range sample still catches a 5% dropper in almost every      round at 1/20th the summary state — the 5.2.1 overhead knob is cheap"
        ) ]

(* The skews, in ms, at which a sweep's rows raised false alarms. *)
let alarming_skews rows =
  List.filter_map
    (fun (skew_s, _, _, false_alarms) ->
      if false_alarms > 0 then Some (Printf.sprintf "%g" (skew_s *. 1000.0)) else None)
    rows

let skew_ablation () =
  (* §7.3: clock desynchronization gets folded into the calibrated error,
     so it costs sensitivity; whether it also costs soundness is read off
     the false-alarm column.  One upstream neighbour's clock runs fast by
     the offset; the attacker drops the victims whenever the queue is
     90% full. *)
  let runs =
    List.map
      (fun skew_s ->
        let g = Scenario.topology () in
        let net = Netsim.Net.create ~seed:21 ~queue:(Netsim.Net.Droptail 64000)
            ~jitter_bound:200e-6 g in
        let rt = Topology.Routing.compute g in
        Netsim.Net.use_routing net rt;
        let config = { Chi.default_config with Chi.tau = 2.0; learning_rounds = 4 } in
        let chi =
          Chi.deploy ~net ~rt ~router:3 ~next:4 ~config
            ~skew:(fun ~reporter -> if reporter = 0 then skew_s else 0.0)
            ()
        in
        ignore (Netsim.Tcp.connect net ~src:0 ~dst:4 ());
        ignore (Netsim.Tcp.connect net ~src:1 ~dst:4 ());
        let victim = Netsim.Tcp.connect net ~src:2 ~dst:4 () in
        Netsim.Router.set_behavior (Netsim.Net.router net 3)
          (Adversary.after 20.0
             (Adversary.on_flows [ Netsim.Tcp.flow_id victim ]
                (Adversary.drop_when_queue_above 0.90)));
        Netsim.Net.run ~until:60.0 net;
        let alarms = Chi.alarms chi in
        let false_alarms =
          List.filter (fun (r : Chi.report) -> r.Chi.end_time <= 20.0) alarms
        in
        let _, sigma = Chi.mu_sigma chi in
        (skew_s, sigma, List.length alarms, List.length false_alarms))
      [ 0.0; 0.001; 0.005; 0.020; 0.100 ]
  in
  let rows =
    List.map
      (fun (skew_s, sigma, alarms, false_alarms) ->
        [ Exp.float ~decimals:1 (skew_s *. 1000.0);
          Exp.float ~decimals:0 sigma;
          Exp.int alarms;
          Exp.int false_alarms ])
      runs
  in
  let _, sigma0, alarms0, _ = List.hd runs in
  let skew_n, sigma_n, alarms_n, _ = List.nth runs (List.length runs - 1) in
  let soundness =
    match alarming_skews runs with
    | [] -> "which keeps chi sound (no false alarm at any skew)"
    | skews ->
        Printf.sprintf "which does not keep chi sound here (%d false alarms, at %s ms)"
          (List.fold_left (fun acc (_, _, _, f) -> acc + f) 0 runs)
          (String.concat ", " skews)
  in
  Exp.section "Ablation 4: clock skew vs chi sensitivity (queue-conditioned attack)"
    [ Exp.table ~header:[ "skew (ms)"; "sigma (B)"; "alarms"; "false" ] rows;
      Exp.Note
        ( "finding",
          Printf.sprintf
            "skew inflates the calibrated sigma (%.0f B clean, %.0f B at %g ms), %s, \
             and erodes its power (%d alarming rounds clean, %d at %g ms): the \
             near-full-queue attack needs headroom resolution finer than sigma, so \
             detection degrades as skew approaches the queue drain time — NTP-grade \
             synchronization (7.3) keeps the protocol sharp"
            sigma0 sigma_n (skew_n *. 1000.0) soundness alarms0 alarms_n (skew_n *. 1000.0) ) ]

let corruption_ablation () =
  (* §4.2.1: benign interface errors lose packets on the wire; to chi
     they could look like drops with headroom.  Sweep the bit-error
     floor and the min_suspicious dial on an attack-free run, and read
     whether corruption raised false alarms off the rows. *)
  let runs =
    List.concat_map
      (fun ber ->
        List.map
          (fun min_suspicious ->
            let g = Scenario.topology () in
            let net = Netsim.Net.create ~seed:21 ~queue:(Netsim.Net.Droptail 64000)
                ~jitter_bound:200e-6 g in
            let rt = Topology.Routing.compute g in
            Netsim.Net.use_routing net rt;
            Netsim.Net.set_link_corruption net ~src:0 ~dst:3 ber;
            let corrupted = ref 0 in
            Netsim.Net.subscribe_iface net
              ~kinds:Netsim.Iface.(kinds [ Drop_corrupted ])
              (fun _ -> incr corrupted);
            let config =
              { Chi.default_config with Chi.tau = 2.0; min_suspicious } in
            let chi = Chi.deploy ~net ~rt ~router:3 ~next:4 ~config () in
            List.iter (fun src -> ignore (Netsim.Tcp.connect net ~src ~dst:4 ()))
              [ 0; 1; 2 ];
            Netsim.Net.run ~until:60.0 net;
            (ber, min_suspicious, List.length (Chi.alarms chi), !corrupted))
          [ 1; 3 ])
      [ 0.0; 1e-4; 1e-3 ]
  in
  let rows =
    List.map
      (fun (ber, min_suspicious, alarms, corrupted) ->
        [ Exp.floatf "%.0e" ber; Exp.int min_suspicious; Exp.int alarms; Exp.int corrupted ])
      runs
  in
  let alarms_where keep =
    List.fold_left (fun acc (ber, _, a, _) -> if keep ber then acc + a else acc) 0 runs
  in
  let clean = alarms_where (fun ber -> ber = 0.0)
  and dirty = alarms_where (fun ber -> ber > 0.0)
  and corrupted = List.fold_left (fun acc (_, _, _, c) -> max acc c) 0 runs in
  let finding =
    if dirty > clean then
      Printf.sprintf
        "a corrupting upstream link makes honest losses look malicious (%d false \
         alarms on corrupting links against %d on clean ones): they vanish before \
         the queue with headroom; raising min_suspicious buys tolerance at the \
         price of letting a one-packet-per-round attacker hide — the paper's \
         clean-link assumption is load-bearing"
        dirty clean
    else
      Printf.sprintf
        "corruption raised no false alarm beyond the clean link's (%d on corrupting \
         links, %d on clean ones, up to %d packets corrupted a run): a corrupted \
         packet is dropped at the receiving interface (Drop_corrupted) and never \
         enters chi's queue replay, so this sweep cannot show the cost of the \
         paper's clean-link assumption"
        dirty clean corrupted
  in
  Exp.section "Ablation 5: link corruption vs chi false alarms (no attack)"
    [ Exp.table ~header:[ "corrupt p"; "min_susp"; "false alarms"; "corrupted" ] rows;
      Exp.Note ("finding", finding) ]

let parts =
  [ jitter_ablation; tau_ablation; sampling_ablation; skew_ablation;
    corruption_ablation ]

let eval ?(jobs = 1) () =
  { Exp.id = "ablations"; sections = Pool.map ~jobs (fun part -> part ()) parts }
