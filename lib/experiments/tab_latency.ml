(* Detection latency vs attack intensity: where each detector's
   sensitivity floor lies.

   Sweeps the drop fraction of a flow-targeted attack and reports how
   long after the attack each mechanism first fires: Protocol χ
   (per-loss headroom), the best static threshold, and Fatih/Πk+2
   (2%-loss content validation).  The crossover the dissertation argues
   for is visible: thresholds need the attack to beat the congestion
   floor, χ only needs a handful of headroom drops. *)

open Core

let chi_latency ~fraction =
  let run =
    Scenario.run_droptail ~duration:80.0
      ~attack:(fun victims ->
        Some (Adversary.on_flows victims (Adversary.drop_fraction ~seed:5 fraction)))
      ()
  in
  let truth = run.Scenario.truth in
  let first_alarm =
    List.find_opt (fun (r : Chi.report) -> r.Chi.alarm) run.Scenario.reports
  in
  let threshold_fires rate =
    let t = Threshold.create ~loss_rate:rate in
    let fires (r : Chi.report) =
      (not r.Chi.learning)
      && (Threshold.judge t ~sent:r.Chi.arrivals ~lost:(List.length r.Chi.losses))
           .Threshold.alarm
    in
    let pre =
      List.length
        (List.filter
           (fun (r : Chi.report) -> fires r && r.Chi.end_time <= run.Scenario.attack_start)
           run.Scenario.reports)
    in
    let post =
      List.find_opt
        (fun (r : Chi.report) -> fires r && r.Chi.end_time > run.Scenario.attack_start)
        run.Scenario.reports
    in
    (pre, post)
  in
  (run.Scenario.attack_start, truth.Scenario.malicious_drops, first_alarm,
   threshold_fires 0.02)

let fatih_latency ~fraction =
  let g = Topology.Generate.ring ~n:6 in
  let net = Netsim.Net.create ~seed:3 ~jitter_bound:100e-6 g in
  let rt = Topology.Routing.compute g in
  Netsim.Net.use_routing net rt;
  let fatih = Fatih.deploy ~net ~rt () in
  List.iter
    (fun (src, dst) ->
      ignore (Netsim.Flow.cbr net ~src ~dst ~rate_pps:60.0 ~size:400 ~start:0.0 ~stop:80.0))
    [ (0, 3); (3, 0); (1, 4); (4, 1) ];
  Netsim.Router.set_behavior (Netsim.Net.router net 2)
    (Adversary.after 20.0 (Adversary.drop_fraction ~seed:7 fraction));
  Netsim.Net.run ~until:80.0 net;
  match Fatih.detections fatih with
  | d :: _ -> Some (d.Fatih.time -. 20.0)
  | [] -> None

let eval () =
  let rows =
    List.map
      (fun fraction ->
        let attack_start, mal, chi_first, (thr_pre, thr_first) = chi_latency ~fraction in
        let fmt = function
          | Some (r : Chi.report) ->
              Exp.float ~decimals:0 (r.Chi.end_time -. attack_start)
          | None -> Exp.text "miss"
        in
        let fatih =
          match fatih_latency ~fraction with
          | Some l -> Exp.float ~decimals:0 l
          | None -> Exp.text "miss"
        in
        [ Exp.float ~decimals:2 fraction; Exp.int mal; fmt chi_first;
          fmt thr_first; Exp.int thr_pre; fatih ])
      [ 0.01; 0.02; 0.05; 0.10; 0.20; 0.50 ]
  in
  { Exp.id = "latency";
    sections =
      [ Exp.section "Detection latency vs attack intensity (s after attack start)"
          [ Exp.table
              ~header:[ "drop frac"; "mal drops"; "chi"; "thr 2%"; "thr FP(pre)"; "fatih" ]
              rows;
            Exp.Note
              ( "reading",
                "chi fires on the first round containing headroom drops at every intensity; \
                 the 2% threshold looks fast only because congestion alone already trips it \
                 (the FP(pre) column counts its pre-attack false alarms on clean rounds); \
                 Fatih needs the per-segment loss to clear its 2% budget within a 5 s round"
              ) ] ] }
