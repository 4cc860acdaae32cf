(* Figure 5.7: Fatih in progress on the Abilene topology.

   The timeline of the dissertation's experiment: a stable network,
   round-trip measurements between New York and Sunnyvale (~50 ms over
   the Kansas City path), the Kansas City router compromised at ~117 s to
   drop 20% of its transit traffic, detection by the terminal routers of
   the monitored 3-segments within one 5 s validation round, and
   rerouting through the southern path (~56 ms) after the OSPF delay/hold
   timers. *)

open Netsim
module Ab = Topology.Abilene

type outcome = {
  detections : Core.Fatih.detection list;
  updates : Core.Response.event list;
  fingerprints : int;
  words : int;
  rtt_before : float;        (* mean RTT in [60, attack) *)
  rtt_after : float;         (* mean RTT after the last routing update *)
  pings_lost : int;
  attack_time : float;
}

let attack_time = 117.0
let duration = 200.0

let simulate ?(exchange = Core.Fatih.Full_sets) () =
  let g = Ab.graph () in
  let net = Net.create ~seed:42 ~jitter_bound:100e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let config = { Core.Fatih.default_config with Core.Fatih.exchange } in
  let fatih = Core.Fatih.deploy ~net ~rt ~config () in
  (* Inter-PoP background traffic crossing the backbone. *)
  let pairs =
    [ (Ab.New_york, Ab.Sunnyvale); (Ab.Sunnyvale, Ab.New_york);
      (Ab.Chicago, Ab.Los_angeles); (Ab.Los_angeles, Ab.Chicago);
      (Ab.Washington_dc, Ab.Seattle); (Ab.Seattle, Ab.Washington_dc);
      (Ab.Atlanta, Ab.Denver); (Ab.Denver, Ab.Atlanta);
      (Ab.Indianapolis, Ab.Houston); (Ab.Houston, Ab.Indianapolis) ]
  in
  List.iter
    (fun (a, b) ->
      ignore
        (Flow.cbr net ~src:(Ab.id a) ~dst:(Ab.id b) ~rate_pps:100.0 ~size:600
           ~start:0.0 ~stop:duration))
    pairs;
  let ping =
    Ping.start net ~src:(Ab.id Ab.New_york) ~dst:(Ab.id Ab.Sunnyvale) ~interval:1.0
      ~start:1.0 ~stop:(duration -. 2.0) ()
  in
  (* The compromise: Kansas City drops 20% of transit packets. *)
  Router.set_behavior
    (Net.router net (Ab.id Ab.Kansas_city))
    (Core.Adversary.after attack_time (Core.Adversary.drop_fraction ~seed:13 0.2));
  Net.run ~until:duration net;
  let updates = Core.Response.updates (Core.Fatih.response fatih) in
  let last_update =
    List.fold_left (fun acc (u : Core.Response.event) -> Float.max acc u.Core.Response.time)
      0.0 updates
  in
  let mean_rtt lo hi =
    let xs =
      List.filter_map
        (fun (t, rtt) -> if t >= lo && t < hi then Some rtt else None)
        (Ping.samples ping)
    in
    if xs = [] then nan
    else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  { detections = Core.Fatih.detections fatih;
    updates;
    fingerprints = Core.Fatih.fingerprints_observed fatih;
    words = Core.Fatih.words_exchanged fatih;
    rtt_before = mean_rtt 60.0 attack_time;
    rtt_after = mean_rtt (last_update +. 2.0) duration;
    pings_lost = Ping.lost ping;
    attack_time }

let seg_names seg = String.concat "-" (List.map Ab.name seg)

let eval () =
  let o = simulate () in
  let reconciled = simulate ~exchange:Core.Fatih.Reconcile () in
  let items =
    (Exp.Note
       ( "attack (drop 20% of transit)",
         Printf.sprintf "t = %.0f s at %s" o.attack_time
           (Ab.name (Ab.id Ab.Kansas_city)) )
     :: List.map
          (fun (d : Core.Fatih.detection) ->
            let a, b = d.Core.Fatih.detected_by in
            Exp.Note
              ( Printf.sprintf "detection t = %.1f s" d.Core.Fatih.time,
                Printf.sprintf "segment %s by %s/%s (%d/%d packets missing)"
                  (seg_names d.Core.Fatih.segment) (Ab.name a) (Ab.name b)
                  d.Core.Fatih.missing d.Core.Fatih.sent ))
          o.detections)
    @ List.map
        (fun (u : Core.Response.event) ->
          Exp.Note
            ( Printf.sprintf "routing update t = %.1f s" u.Core.Response.time,
              Printf.sprintf "%d path-segments excised"
                (List.length u.Core.Response.forbidden) ))
        o.updates
    @ [ Exp.Note
          ( "NY-Sunnyvale RTT before attack",
            Printf.sprintf "%.1f ms" (o.rtt_before *. 1000.0) );
        Exp.Note
          ( "NY-Sunnyvale RTT after reroute",
            Printf.sprintf "%.1f ms" (o.rtt_after *. 1000.0) );
        Exp.Note ("probe packets lost to the attack", string_of_int o.pings_lost);
        Exp.Note
          ( "monitoring overhead",
            Printf.sprintf
              "%d fingerprints computed; %d words of summaries exchanged (%.1f kB/s)"
              o.fingerprints o.words
              (float_of_int o.words *. 8.0 /. duration /. 1000.0) );
        Exp.Note
          ( "with Appendix A reconciliation",
            Printf.sprintf
              "%d words exchanged (%.1f kB/s) for the same detections (%d vs %d)"
              reconciled.words
              (float_of_int reconciled.words *. 8.0 /. duration /. 1000.0)
              (List.length reconciled.detections) (List.length o.detections) );
        Exp.Note ("paper reference", "RTT 50 ms -> 56 ms; detection within tau = 5 s")
      ]
  in
  { Exp.id = "fatih";
    sections =
      [ Exp.section
          "Figure 5.7: Fatih in progress (Abilene, Kansas City compromised)" items ]
  }
