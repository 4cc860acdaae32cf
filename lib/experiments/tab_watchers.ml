(* WATCHERS-live vs Protocol χ at packet level.

   Three runs on the same ring: benign with a congested bottleneck,
   a blatant 50% dropper, and a 2% trickle dropper.  WATCHERS'
   conservation-of-flow threshold (25 packets/round) false-positives on
   congestion and misses the trickle; χ on the compromised queue does
   neither. *)

open Netsim
module Rt = Topology.Routing

type run_result = {
  watchers_suspects : int list;
  chi_alarms : int;
  malicious : int;
  congestion : int;
}

let run_one ~attack ~congested =
  let g = Topology.Generate.ring ~n:5 in
  let net = Net.create ~seed:4 ~jitter_bound:100e-6 g in
  let rt = Rt.compute g in
  Net.use_routing net rt;
  let w = Core.Watchers_live.deploy ~net ~tau:2.0 () in
  let chi_config = { Core.Chi.default_config with Core.Chi.tau = 2.0 } in
  (* χ watches the queue the attacker (router 1) feeds toward 2. *)
  let chi = Core.Chi.deploy ~net ~rt ~router:1 ~next:2 ~config:chi_config () in
  let malicious = ref 0 and congestion = ref 0 in
  Net.subscribe_router net ~kinds:Router.(kinds [ Malicious_drop ]) (fun _ ->
      incr malicious);
  Net.subscribe_iface net ~kinds:Iface.(kinds [ Drop_congestion ]) (fun _ ->
      incr congestion);
  List.iter
    (fun (s, d) ->
      ignore (Flow.cbr net ~src:s ~dst:d ~rate_pps:60.0 ~size:400 ~start:0.0 ~stop:40.0))
    [ (0, 2); (2, 0); (1, 3); (3, 1) ];
  if congested then
    ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:4000.0 ~size:1000 ~start:10.0 ~stop:40.0);
  (match attack with
  | Some fraction ->
      Router.set_behavior (Net.router net 1)
        (Core.Adversary.after 10.0 (Core.Adversary.drop_fraction ~seed:5 fraction))
  | None -> ());
  Net.run ~until:40.0 net;
  { watchers_suspects = Core.Watchers_live.suspected_routers w;
    chi_alarms = List.length (Core.Chi.alarms chi);
    malicious = !malicious;
    congestion = !congestion }

let row_of label r =
  [ Exp.text label;
    Exp.text (Printf.sprintf "%d/%d" r.malicious r.congestion);
    Exp.text ("[" ^ String.concat ";" (List.map string_of_int r.watchers_suspects) ^ "]");
    Exp.int r.chi_alarms ]

let eval () =
  { Exp.id = "watchers";
    sections =
      [ Exp.section "WATCHERS-live vs chi (packet level)"
          [ Exp.table
              ~header:[ "scenario"; "mal/cong"; "watchers"; "chi alarms" ]
              [ row_of "benign+congested" (run_one ~attack:None ~congested:true);
                row_of "50% dropper" (run_one ~attack:(Some 0.5) ~congested:false);
                row_of "2% trickle" (run_one ~attack:(Some 0.02) ~congested:false) ];
            Exp.Note
              ( "reading",
                "WATCHERS' flow threshold accuses an honest router under congestion and stays \
                 blind to the trickle; chi's queue replay separates both cases" ) ] ] }
