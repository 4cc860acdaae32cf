(* The shared Chapter 6 experiment scaffold: the Fig 6.4 simple topology
   (three sources feeding the validated bottleneck r -> rd), long-lived
   TCP through the bottleneck, an optional victim workload, and a
   compromised-router behaviour switched on mid-run. *)

open Netsim
module G = Topology.Graph
module Ts = Telemetry.Timeseries

let bottleneck_router = 3
let sink = 4
let default_duration = 60.0
let default_attack_start = 20.0

let topology () =
  let g = G.create ~n:5 in
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 bottleneck_router;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 1 bottleneck_router;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 2 bottleneck_router;
  G.add_duplex g ~bw:1.25e6 ~delay:0.005 bottleneck_router sink;
  g

type ground_truth = {
  mutable malicious_drops : int;
  mutable congestion_drops : int;
  mutable red_drops : int;
}

let watch_ground_truth net =
  let gt = { malicious_drops = 0; congestion_drops = 0; red_drops = 0 } in
  Net.subscribe_router net ~kinds:Router.(kinds [ Malicious_drop ]) (fun _ ->
      gt.malicious_drops <- gt.malicious_drops + 1);
  Net.subscribe_link net
    ~kinds:Iface.(kinds [ Drop_congestion; Drop_red_early ])
    ~src:bottleneck_router ~dst:sink (fun ev ->
      match ev.Net.kind with
      | Iface.Drop_congestion -> gt.congestion_drops <- gt.congestion_drops + 1
      | Iface.Drop_red_early -> gt.red_drops <- gt.red_drops + 1
      | _ -> ());
  gt

(* Background plus victim traffic; returns the victim flow ids. *)
let offer_traffic ?(victim_connections = false) net =
  (* For the SYN-targeting scenarios the background transfers complete
     after ~30 s, leaving the lull during which the victim's retries meet
     an uncongested queue — the regime in which a SYN drop is
     inexplicable. *)
  let background_bytes = if victim_connections then Some 16_000_000 else None in
  let background =
    List.map (fun src -> Tcp.connect net ~src ~dst:sink ?total_bytes:background_bytes ())
      [ 0; 1 ]
  in
  let victim = Tcp.connect net ~src:2 ~dst:sink () in
  let victims =
    if victim_connections then begin
      (* Attack 4/5 target: fresh short connections trying to open. *)
      let extras =
        List.map
          (fun start -> Tcp.connect net ~src:2 ~dst:sink ~total_bytes:8000 ~start ())
          [ 25.0; 30.0; 35.0; 40.0; 45.0 ]
      in
      Tcp.flow_id victim :: List.map Tcp.flow_id extras
    end
    else [ Tcp.flow_id victim ]
  in
  ignore background;
  victims

type droptail_run = {
  reports : Core.Chi.report list;
  truth : ground_truth;
  attack_start : float;
  victim_flows : int list;
  victim_meters : Ts.t list;
      (* per-victim delivered bytes at the sink, in tau-second buckets *)
}

(* A victim flow's delivered bytes at the sink.  Bucket i covers
   [i*tau, (i+1)*tau), and the capacity covers the whole run, so the
   series never coarsens. *)
let victim_meter net ~duration ~tau flow =
  let ts = Ts.create ~capacity:(int_of_float (duration /. tau) + 2) ~resolution:tau () in
  let sim = Net.sim net in
  Net.attach_app net ~node:sink (fun pkt ->
      if pkt.Packet.flow = flow then
        Ts.record ts ~at:(Sim.clock sim) pkt.Packet.size);
  ts

let run_droptail ?(seed = 21) ?(duration = default_duration)
    ?(attack_start = default_attack_start) ?(victim_connections = false)
    ?(jitter_bound = 200e-6) ?(tau = 2.0) ?probe ~attack () =
  let g = topology () in
  let net = Net.create ~seed ~queue:(Net.Droptail 64000) ~jitter_bound g in
  Net.set_probe net probe;
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let config = { Core.Chi.default_config with Core.Chi.tau = tau; learning_rounds = 4 } in
  let chi = Core.Chi.deploy ~net ~rt ~router:bottleneck_router ~next:sink ~config () in
  let truth = watch_ground_truth net in
  let victim_flows = offer_traffic ~victim_connections net in
  let victim_meters = List.map (victim_meter net ~duration ~tau) victim_flows in
  (match attack victim_flows with
  | Some behavior ->
      Router.set_behavior (Net.router net bottleneck_router)
        (Core.Adversary.after attack_start behavior)
  | None -> ());
  Net.run ~until:duration net;
  { reports = Core.Chi.reports chi; truth; attack_start; victim_flows; victim_meters }

type red_run = {
  red_reports : Core.Chi_red.report list;
  red_truth : ground_truth;
  red_attack_start : float;
}

let red_params = Red.default_params

let red_duration = 100.0

let run_red ?(seed = 21) ?(duration = red_duration)
    ?(attack_start = default_attack_start) ?(victim_connections = false) ~attack () =
  let g = topology () in
  let net = Net.create ~seed ~queue:(Net.Red red_params) ~jitter_bound:200e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let chi =
    Core.Chi_red.deploy ~net ~rt ~router:bottleneck_router ~next:sink
      ~params:red_params ()
  in
  let truth = watch_ground_truth net in
  let victim_flows = offer_traffic ~victim_connections net in
  (* Unresponsive background load keeps the EWMA visiting the upper RED
     region, where the §6.5.3 conditioned attacks trigger. *)
  if not victim_connections then
    ignore
      (Flow.cbr net ~src:0 ~dst:sink ~rate_pps:300.0 ~size:1000 ~start:5.0
         ~stop:duration);
  (match attack victim_flows with
  | Some behavior ->
      Router.set_behavior (Net.router net bottleneck_router)
        (Core.Adversary.after attack_start behavior)
  | None -> ());
  Net.run ~until:duration net;
  { red_reports = Core.Chi_red.reports chi; red_truth = truth;
    red_attack_start = attack_start }

(* Typed figure sections (rendered by Exp.render). *)

let droptail_section ~title (run : droptail_run) =
  (* Victim goodput per round bin — what the paper's Figs 6.6-6.9 plot
     next to the detector's confidence. *)
  let victim_rate at =
    let bytes_per_s =
      List.fold_left
        (fun acc ts ->
          let acc = ref acc in
          for i = 0 to Ts.used ts - 1 do
            (* Bucket i ends at the start of bucket i + 1. *)
            if Float.abs (Ts.bucket_start ts (i + 1) -. at) < 0.5 then
              acc := !acc +. (float_of_int (Ts.bucket_sum ts i) /. Ts.resolution ts)
          done;
          !acc)
        0.0 run.victim_meters
    in
    bytes_per_s /. 1000.0
  in
  let rows =
    List.filter_map
      (fun (r : Core.Chi.report) ->
        if (not r.Core.Chi.learning) && (r.Core.Chi.losses <> [] || r.Core.Chi.alarm)
        then
          Some
            [ Exp.float ~decimals:0 r.Core.Chi.end_time;
              Exp.int r.Core.Chi.arrivals;
              Exp.int (List.length r.Core.Chi.losses);
              Exp.int r.Core.Chi.predicted_congestive;
              Exp.float ~decimals:3 r.Core.Chi.c_single_max;
              (match r.Core.Chi.c_combined with
              | Some c -> Exp.float ~decimals:3 c
              | None -> Exp.text "-");
              Exp.float ~decimals:1 (victim_rate r.Core.Chi.end_time);
              Exp.text (if r.Core.Chi.alarm then "ALARM" else "") ]
        else None)
      run.reports
  in
  let alarms = List.filter (fun r -> r.Core.Chi.alarm) run.reports in
  let false_alarms =
    List.filter (fun (r : Core.Chi.report) -> r.Core.Chi.end_time <= run.attack_start) alarms
  in
  Exp.section title
    ([ Exp.Note
         ( "ground truth",
           Printf.sprintf "%d congestion drops, %d malicious drops"
             run.truth.congestion_drops run.truth.malicious_drops );
       Exp.table
         ~header:
           [ "t (s)"; "arrivals"; "losses"; "congestive"; "c_single"; "c_comb";
             "vict kB/s"; "alarm" ]
         rows;
       Exp.Note ("alarming rounds", string_of_int (List.length alarms));
       Exp.Note ("false alarms (pre-attack)", string_of_int (List.length false_alarms))
     ]
    @
    match alarms with
    | first :: _ when run.truth.malicious_drops > 0 ->
        [ Exp.Note
            ( "detection latency",
              Printf.sprintf "%.1f s after attack start"
                (first.Core.Chi.end_time -. run.attack_start) ) ]
    | _ -> [])

let red_section ~title (run : red_run) =
  let rows =
    List.filter_map
      (fun (r : Core.Chi_red.report) ->
        if (not r.Core.Chi_red.learning)
           && (r.Core.Chi_red.losses <> [] || r.Core.Chi_red.alarm)
        then
          Some
            [ Exp.float ~decimals:0 r.Core.Chi_red.end_time;
              Exp.int r.Core.Chi_red.arrivals;
              Exp.int (List.length r.Core.Chi_red.losses);
              Exp.float ~decimals:1 r.Core.Chi_red.expected_red_drops;
              Exp.text
                (Printf.sprintf "%.1e" r.Core.Chi_red.tail_probability
                ^ "/"
                ^ Printf.sprintf "%.1e" r.Core.Chi_red.cumulative_tail);
              Exp.text (if r.Core.Chi_red.alarm then "ALARM" else "") ]
        else None)
      run.red_reports
  in
  let alarms = List.filter (fun r -> r.Core.Chi_red.alarm) run.red_reports in
  let false_alarms =
    List.filter
      (fun (r : Core.Chi_red.report) -> r.Core.Chi_red.end_time <= run.red_attack_start)
      alarms
  in
  Exp.section title
    [ Exp.Note
        ( "ground truth",
          Printf.sprintf "%d red drops, %d forced drops, %d malicious drops"
            run.red_truth.red_drops run.red_truth.congestion_drops
            run.red_truth.malicious_drops );
      Exp.table
        ~header:[ "t (s)"; "arrivals"; "losses"; "E[red]"; "tail/cum"; "alarm" ]
        rows;
      Exp.Note ("alarming rounds", string_of_int (List.length alarms));
      Exp.Note ("false alarms (pre-attack)", string_of_int (List.length false_alarms))
    ]
