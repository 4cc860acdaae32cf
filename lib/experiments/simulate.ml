open Netsim

type topo = Line | Ring | Grid | Abilene

let topo_of_string = function
  | "line" -> Ok Line
  | "ring" -> Ok Ring
  | "grid" -> Ok Grid
  | "abilene" -> Ok Abilene
  | s -> Error (Printf.sprintf "unknown topology %S (line|ring|grid|abilene)" s)

type attack =
  | No_attack
  | Drop_all
  | Drop_fraction of float
  | Drop_syn
  | Queue_conditioned of float

let attack_of_string s ~fraction =
  match s with
  | "none" -> Ok No_attack
  | "drop-all" -> Ok Drop_all
  | "drop-fraction" -> Ok (Drop_fraction fraction)
  | "syn" -> Ok Drop_syn
  | "queue" -> Ok (Queue_conditioned fraction)
  | s -> Error (Printf.sprintf "unknown attack %S (none|drop-all|drop-fraction|syn|queue)" s)

let graph_of = function
  | Line -> Topology.Generate.line ~n:6
  | Ring -> Topology.Generate.ring ~n:8
  | Grid -> Topology.Generate.grid ~rows:3 ~cols:4
  | Abilene -> Topology.Abilene.graph ()

(* --- configuration ----------------------------------------------------- *)

module Config = struct
  type t = {
    topo : topo;
    protocol : string;
    attack : attack;
    attacker : int;
    duration : float;
    seed : int;
    flows : int;
    trace : int;
    metrics : string option;
    journal : string option;
    trace_out : string option;
    trace_sample : float;
    faults : string option;
    shards : int;
  }

  let default =
    { topo = Ring; protocol = "fatih"; attack = Drop_fraction 0.2; attacker = 2;
      duration = 60.0; seed = 1; flows = 8; trace = 0; metrics = None;
      journal = None; trace_out = None; trace_sample = 1.0; faults = None;
      shards = 0 }

  let validate c =
    Core.Detectors.register_all ();
    let fraction_of = function
      | Drop_fraction f | Queue_conditioned f -> Some f
      | No_attack | Drop_all | Drop_syn -> None
    in
    if not (Float.is_finite c.duration) || c.duration <= 0.0 then
      Error (Printf.sprintf "duration must be positive (got %g s)" c.duration)
    else if c.flows < 1 then
      Error (Printf.sprintf "need at least one flow (got %d)" c.flows)
    else if c.trace < 0 then
      Error (Printf.sprintf "trace length cannot be negative (got %d)" c.trace)
    else if not (Float.is_finite c.trace_sample)
            || c.trace_sample < 0.0 || c.trace_sample > 1.0 then
      Error
        (Printf.sprintf "trace sample rate must lie in [0,1] (got %g)"
           c.trace_sample)
    else if Core.Detector.find c.protocol = None then
      Error
        (Printf.sprintf "unknown protocol %S (%s)" c.protocol
           (String.concat "|" (Core.Detector.names ())))
    else begin
      let n = Topology.Graph.size (graph_of c.topo) in
      if c.attacker < 0 || c.attacker >= n then
        Error
          (Printf.sprintf "attacker %d outside this topology's routers [0,%d)"
             c.attacker n)
      else if c.shards < 0 || c.shards > n then
        Error
          (Printf.sprintf
             "shards must lie in [0,%d] for this topology's %d routers (got %d)"
             n n c.shards)
      else begin
        match fraction_of c.attack with
        | Some f when not (Float.is_finite f) || f < 0.0 || f > 1.0 ->
            Error (Printf.sprintf "fraction must lie in [0,1] (got %g)" f)
        | _ -> Ok c
      end
    end

  let make ?(protocol = default.protocol) ?(attack = default.attack)
      ?(attacker = default.attacker) ?(duration = default.duration)
      ?(seed = default.seed) ?(flows = default.flows) ?(trace = default.trace)
      ?metrics ?journal ?trace_out ?(trace_sample = default.trace_sample) ?faults
      ?(shards = default.shards) topo =
    validate
      { topo; protocol; attack; attacker; duration; seed; flows; trace; metrics;
        journal; trace_out; trace_sample; faults; shards }

  let make_exn ?protocol ?attack ?attacker ?duration ?seed ?flows ?trace ?metrics
      ?journal ?trace_out ?trace_sample ?faults ?shards topo =
    match
      make ?protocol ?attack ?attacker ?duration ?seed ?flows ?trace ?metrics
        ?journal ?trace_out ?trace_sample ?faults ?shards topo
    with
    | Ok c -> c
    | Error msg -> invalid_arg ("Simulate.Config.make: " ^ msg)

  let of_cmdline ~topology ~protocol ~attack ~fraction ~attacker ~duration ~seed
      ~flows ~trace ~metrics ~journal ~trace_out ~trace_sample ~faults ~shards =
    let ( let* ) = Result.bind in
    let* topo = topo_of_string topology in
    let* attack = attack_of_string attack ~fraction in
    validate
      { topo; protocol; attack; attacker; duration; seed; flows; trace; metrics;
        journal; trace_out; trace_sample; faults; shards }
end

let behavior_of = function
  | No_attack -> None
  | Drop_all -> Some Core.Adversary.drop_all
  | Drop_fraction f -> Some (Core.Adversary.drop_fraction ~seed:9 f)
  | Drop_syn -> Some Core.Adversary.drop_syn
  | Queue_conditioned f -> Some (Core.Adversary.drop_when_queue_above f)

(* --- telemetry export ------------------------------------------------- *)

let scrape_per_router net probe =
  let reg = Probe.registry probe in
  let g = Net.graph net in
  for r = 0 to Topology.Graph.size g - 1 do
    let router = Net.router net r in
    let labels = [ ("router", string_of_int r) ] in
    let set name help v =
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge reg name ~help ~labels)
        (float_of_int v)
    in
    set "router_received_packets" "packets handed to the router"
      (Router.received_packets router);
    set "router_forwarded_packets" "packets the router forwarded"
      (Router.forwarded_packets router);
    set "router_delivered_packets" "packets delivered locally"
      (Router.delivered_packets router);
    let tx_p, tx_b, drops =
      List.fold_left
        (fun (p, b, d) i ->
          (p + Iface.tx_packets i, b + Iface.tx_bytes i, d + Iface.dropped_packets i))
        (0, 0, 0) (Router.ifaces router)
    in
    set "router_tx_packets" "packets serialized onto outgoing links" tx_p;
    set "router_tx_bytes" "bytes serialized onto outgoing links" tx_b;
    set "router_iface_dropped_packets" "packets its interfaces discarded" drops
  done

let summary_json ~scenario ~attack_start net probe profile =
  let open Telemetry.Export in
  let sim = Net.sim net in
  let cons = Probe.conservation probe in
  let cpu = Net.cpu_time_in_run net in
  let events = Net.events_processed net in
  let detection =
    [ ("first_alarm_time",
       match Probe.first_alarm_time probe with Some t -> Float t | None -> Null);
      ("attack_start", Float attack_start);
      ("latency_seconds",
       match Probe.first_alarm_time probe with
       | Some t when t >= attack_start -> Float (t -. attack_start)
       | Some _ | None -> Null) ]
  in
  let engine =
    [ ("events_processed", Int events);
      ("cpu_seconds_in_run", Float cpu);
      ("events_per_cpu_second",
       if cpu > 0.0 then Float (float_of_int events /. cpu) else Null);
      ("sim_seconds", Float (Sim.now sim));
      ("journal_total", Int (Telemetry.Journal.total (Probe.journal probe)));
      ("journal_dropped", Int (Telemetry.Journal.dropped (Probe.journal probe))) ]
  in
  let engine =
    match Net.shard_engine net with
    | None -> engine
    | Some sh ->
        engine
        @ [ ("shards", Int (Shard.k sh));
            ("epochs_run", Int (Shard.epochs_run sh));
            ("windows_run", Int (Shard.windows_run sh));
            ("cross_shard_messages", Int (Shard.cross_messages sh)) ]
  in
  Assoc
    [ ("schema", String "mrdetect-metrics-v1");
      ("scenario", Assoc scenario);
      ("conservation",
       Assoc
         [ ("injected", Int cons.Probe.total_injected);
           ("delivered", Int cons.Probe.total_delivered);
           ("dropped", Int cons.Probe.total_dropped);
           ("fragmented", Int cons.Probe.total_fragmented);
           ("in_flight", Int cons.Probe.in_flight) ]);
      ("detection", Assoc detection);
      ("engine", Assoc engine);
      ("phases", Telemetry.Profile.json profile);
      ("metrics", json_of_registry (Probe.registry probe));
      ("stats",
       match Net.stats net with Some st -> Stats.to_json st | None -> Null) ]

let write_metrics path doc net probe =
  (* A .prom / .txt suffix selects the Prometheus text exposition format;
     anything else gets the JSON document. *)
  if Filename.check_suffix path ".prom" || Filename.check_suffix path ".txt" then begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Telemetry.Export.prometheus_of_registry
                            (Probe.registry probe));
        match Net.stats net with
        | Some st -> output_string oc (Stats.prometheus st)
        | None -> ())
  end
  else Telemetry.Export.write_file path doc

let write_journal path probe =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Probe.write_journal probe oc)

(* --- the scenario ----------------------------------------------------- *)

let run ?on_progress ?(progress_interval = 0.5) (config : Config.t) =
  let { Config.topo; protocol; attack; attacker; duration; seed; flows; trace;
        metrics; journal; trace_out; trace_sample; faults; shards } =
    match Config.validate config with
    | Ok c -> c
    | Error msg -> invalid_arg ("Simulate.run: " ^ msg)
  in
  let detector =
    match Core.Detector.find protocol with
    | Some d -> d
    | None -> assert false (* validate checked the registry *)
  in
  let g = graph_of topo in
  let n = Topology.Graph.size g in
  (* Load and check the benign fault plan before simulating anything. *)
  let fault_schedule =
    Option.map
      (fun path ->
        let s = Faults.Schedule.load path in
        Faults.Schedule.validate_exn ~graph:g s;
        s)
      faults
  in
  (* Fail on an unwritable export path now, not after simulating. *)
  let check_writable = function
    | None -> ()
    | Some path -> close_out (open_out path)
  in
  check_writable metrics;
  check_writable journal;
  check_writable trace_out;
  let profile = Telemetry.Profile.create () in
  let span_tracer =
    match trace_out with
    | None -> None
    | Some _ -> Some (Telemetry.Span.create ~sample:trace_sample ~seed ())
  in
  let probe =
    (* Fault injection always carries a probe: the oracle needs the
       journaled fault records and verdicts to score the run. *)
    if metrics <> None || journal <> None || Option.is_some span_tracer
       || fault_schedule <> None || on_progress <> None
    then
      Some
        (Probe.create
           ~journal_capacity:(if journal = None then 4096 else 262144)
           ?tracer:span_tracer ())
    else None
  in
  let write_trace () =
    match (trace_out, span_tracer) with
    | Some path, Some sp -> Telemetry.Trace_export.write path sp
    | _ -> ()
  in
  let attack_start = duration /. 3.0 in
  let net, rt, pairs, malicious, congestion, tracer =
    Telemetry.Profile.time profile "setup" (fun () ->
        let net = Net.create ~seed ~jitter_bound:200e-6 ~shards g in
        Net.set_probe net probe;
        (* Arm the detection-latency histograms before any traffic runs. *)
        (match Net.stats net with
        | Some st -> Stats.set_attack_start st attack_start
        | None -> ());
        let rt = Topology.Routing.compute g in
        Net.use_routing net rt;
        (* Ground truth. *)
        let malicious = ref 0 and congestion = ref 0 in
        Net.subscribe_router net (fun ev ->
            match ev.Net.kind with Router.Malicious_drop _ -> incr malicious | _ -> ());
        Net.subscribe_iface net (fun ev ->
            match ev.Net.kind with Iface.Drop_congestion _ -> incr congestion | _ -> ());
        (* Traffic: CBR between pseudo-random distinct pairs that transit
           the attacker where possible. *)
        let rng = Random.State.make [| seed; 0xf10 |] in
        let pairs = ref [] in
        let guard = ref 0 in
        while List.length !pairs < flows && !guard < 1000 do
          incr guard;
          let s = Random.State.int rng n and d = Random.State.int rng n in
          if s <> d && not (List.mem (s, d) !pairs) then pairs := (s, d) :: !pairs
        done;
        List.iter
          (fun (s, d) ->
            ignore
              (Flow.cbr net ~src:s ~dst:d ~rate_pps:80.0 ~size:500 ~start:0.0
                 ~stop:duration))
          !pairs;
        (match behavior_of attack with
        | Some b ->
            Router.set_behavior (Net.router net attacker)
              (Core.Adversary.after attack_start b)
        | None -> ());
        let tracer =
          if trace > 0 then
            Some (Tracer.attach ~net ~capacity:trace ~routers:[ attacker ] ())
          else None
        in
        (net, rt, !pairs, malicious, congestion, tracer))
  in
  let injector =
    Option.map
      (fun s ->
        Telemetry.Profile.time profile "setup" (fun () ->
            Faults.Injector.apply ?probe ~net s))
      fault_schedule
  in
  let fault_ctrl = Option.map Faults.Injector.ctrl fault_schedule in
  let fault_byz = Option.bind fault_schedule (Faults.Injector.byz ~n) in
  (* Retry telemetry: every control-plane send feeds the stats histogram. *)
  (match (fault_ctrl, Net.stats net) with
  | Some c, Some st ->
      Core.Ctrl.set_observer c
        (Some (fun ~attempts ~ok -> Stats.on_ctrl_send st ~attempts ~ok))
  | _ -> ());
  let fault_skew =
    Option.map
      (fun s ->
        let f = Faults.Injector.skew_fn s in
        fun ~reporter -> f reporter)
      fault_schedule
  in
  Printf.printf "topology: %d routers, %d links; %d flows; attack at %.0f s\n"
    n (Topology.Graph.link_count g) (List.length pairs) attack_start;
  let dump_trace () =
    match tracer with
    | Some tr ->
        Printf.printf "last %d events at router %d:\n" trace attacker;
        List.iter (fun line -> Printf.printf "  %s\n" line) (Tracer.events tr)
    | None -> ()
  in
  (* Deploy the detector through the registry: same setup profiling the
     per-protocol branches used to do inline. *)
  let env =
    { Core.Detector.net; rt; graph = g; probe; ctrl = fault_ctrl; retry = None;
      byz = fault_byz; skew = fault_skew; attacker = Some attacker; duration;
      seed }
  in
  let inst =
    Telemetry.Profile.time profile "setup" (fun () -> Core.Detector.init detector env)
  in
  (* Sharded engine: the epoch barrier doubles as the live-view tick. *)
  let on_epoch ~now =
    match on_progress with
    | Some f when shards > 0 -> f ~now net
    | _ -> ()
  in
  let drive () =
    match on_progress with
    | Some f when shards = 0 ->
        (* Classic engine: slice the run.  [Sim.run ~until] pops the
           same heap in the same order whatever the slicing, so output
           is byte-identical to a single-shot run. *)
        let rec go t =
          let t' = Float.min duration (t +. progress_interval) in
          Net.run ~until:t' ~on_epoch net;
          f ~now:t' net;
          if t' < duration then go t'
        in
        go 0.0
    | _ -> Net.run ~until:duration ~on_epoch net
  in
  (try Telemetry.Profile.time profile "run" drive
   with e ->
     (* Flight recorder: a crash mid-run still leaves the pinned spans
        and recent window on disk before the exception propagates. *)
     write_trace ();
     raise e);
  Telemetry.Profile.time profile "report" (fun () ->
      Printf.printf "ground truth: %d malicious drops, %d congestion drops\n"
        !malicious !congestion;
      Core.Detector.report inst;
      (match (injector, probe) with
      | Some inj, Some probe ->
          Printf.printf "faults: %d injected from plan\n"
            (Faults.Injector.injected inj);
          let malicious = if attack <> No_attack then [ attacker ] else [] in
          let byzantine =
            match fault_byz with Some bz -> Core.Byz.routers bz | None -> []
          in
          let o =
            Faults.Oracle.of_probe ~malicious ~byzantine
              ?byz_stats:(Option.map Core.Byz.stats fault_byz) ~attack_start
              probe
          in
          Printf.printf
            "oracle: %d verdicts, %d false alarms, FAR %.3f, precision %.3f, \
             recall %.3f%s\n"
            o.Faults.Oracle.verdicts o.Faults.Oracle.false_alarms
            o.Faults.Oracle.false_accusation_rate o.Faults.Oracle.precision
            o.Faults.Oracle.recall
            (match o.Faults.Oracle.detection_latency with
            | Some l -> Printf.sprintf ", latency %.1f s" l
            | None -> "");
          if byzantine <> [] then
            Printf.printf
              "byzantine: %d framing attempts, %d forgeries rejected, %d \
               framed honest, %d alpha violations\n"
              o.Faults.Oracle.framing_attempts o.Faults.Oracle.forgeries_rejected
              o.Faults.Oracle.framed_honest o.Faults.Oracle.alpha_violations
      | _ -> ());
      dump_trace ());
  match probe with
  | None -> ()
  | Some probe ->
      scrape_per_router net probe;
      let scenario =
        let open Telemetry.Export in
        [ ("topology",
           String
             (match topo with
             | Line -> "line" | Ring -> "ring" | Grid -> "grid"
             | Abilene -> "abilene"));
          ("protocol", String protocol);
          ("attack",
           String
             (match attack with
             | No_attack -> "none" | Drop_all -> "drop-all"
             | Drop_fraction _ -> "drop-fraction" | Drop_syn -> "syn"
             | Queue_conditioned _ -> "queue"));
          ("attacker", Int attacker);
          ("duration", Float duration);
          ("seed", Int seed);
          ("flows", Int flows);
          ("shards", Int shards);
          ("faults",
           match faults with Some path -> String path | None -> Null) ]
      in
      let doc = summary_json ~scenario ~attack_start net probe profile in
      (match metrics with Some path -> write_metrics path doc net probe | None -> ());
      (match journal with Some path -> write_journal path probe | None -> ());
      (match (trace_out, span_tracer) with
      | Some path, Some sp ->
          write_trace ();
          Printf.printf
            "trace: %s (%d/%d packets sampled, %d events recorded, %d pinned)\n"
            path
            (Telemetry.Span.traces_sampled sp)
            (Telemetry.Span.traces_started sp)
            (Telemetry.Span.recorded sp)
            (Telemetry.Span.pinned sp)
      | _ -> ())
