(* Packet-level baselines: NetFlow counters, WATCHERS-live (threshold
   weakness included), Perlman multipath robustness, and the §7.2 state
   accounting. *)

open Core
open Netsim
module G = Topology.Graph
module Rt = Topology.Routing

(* --- Netflow --- *)

let test_netflow_counts () =
  let g = Topology.Generate.line ~n:4 in
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let flow = Netflow.attach ~net () in
  let f = Flow.cbr net ~src:0 ~dst:3 ~rate_pps:50.0 ~size:400 ~start:0.0 ~stop:2.0 in
  Net.run net;
  let n = Flow.sent f in
  Alcotest.(check int) "router 1 received from 0" n
    (Netflow.received flow ~router:1 ~from_:0 ~dst:3);
  Alcotest.(check int) "router 1 sent to 2" n (Netflow.sent flow ~router:1 ~to_:2 ~dst:3);
  Alcotest.(check int) "originated at 0" n (Netflow.originated flow ~router:0 ~dst:3);
  Alcotest.(check int) "consumed at 3" n (Netflow.consumed flow ~router:3);
  Alcotest.(check int) "no deficit at 1" 0 (Netflow.conservation_deficit flow ~router:1);
  Alcotest.(check int) "no deficit at 2" 0 (Netflow.conservation_deficit flow ~router:2)

let test_netflow_deficit_counts_drops () =
  let g = Topology.Generate.line ~n:4 in
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let flow = Netflow.attach ~net () in
  let malicious = ref 0 in
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with Router.Malicious_drop -> incr malicious | _ -> ());
  Router.set_behavior (Net.router net 1) (Adversary.drop_fraction ~seed:3 0.3);
  ignore (Flow.cbr net ~src:0 ~dst:3 ~rate_pps:50.0 ~size:400 ~start:0.0 ~stop:2.0);
  Net.run net;
  Alcotest.(check int) "deficit equals the drops" !malicious
    (Netflow.conservation_deficit flow ~router:1)

(* --- Watchers live --- *)

let watchers_net ?(attack = None) ?(congested = false) () =
  let g = Topology.Generate.ring ~n:5 in
  let net = Net.create ~seed:4 ~jitter_bound:100e-6 g in
  Net.use_routing net (Rt.compute g);
  let w = Watchers_live.deploy ~net ~tau:2.0 () in
  List.iter
    (fun (s, d) ->
      ignore (Flow.cbr net ~src:s ~dst:d ~rate_pps:60.0 ~size:400 ~start:0.0 ~stop:40.0))
    [ (0, 2); (2, 0); (1, 3); (3, 1) ];
  if congested then
    (* Overload one link so congestion drops pollute the deficit. *)
    ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:4000.0 ~size:1000 ~start:10.0 ~stop:40.0);
  (match attack with
  | Some (router, fraction) ->
      Router.set_behavior (Net.router net router)
        (Adversary.after 10.0 (Adversary.drop_fraction ~seed:5 fraction))
  | None -> ());
  Net.run ~until:40.0 net;
  w

let test_watchers_live_quiet () =
  let w = watchers_net () in
  Alcotest.(check (list int)) "no suspects" [] (Watchers_live.suspected_routers w)

let test_watchers_live_detects () =
  let w = watchers_net ~attack:(Some (1, 0.5)) () in
  Alcotest.(check (list int)) "attacker suspected" [ 1 ]
    (Watchers_live.suspected_routers w)

let test_watchers_live_congestion_false_positive () =
  (* The §6.1.1 weakness, live: congestion drops at the bottleneck push
     an honest router's deficit over the threshold. *)
  let w = watchers_net ~congested:true () in
  Alcotest.(check bool) "honest router accused under congestion" true
    (Watchers_live.suspected_routers w <> [])

let test_watchers_live_subthreshold_attack_hides () =
  (* An attacker dropping a trickle stays under the 25-packet round
     budget. *)
  let w = watchers_net ~attack:(Some (1, 0.02)) () in
  Alcotest.(check (list int)) "hidden" [] (Watchers_live.suspected_routers w)

(* --- Perlman live --- *)

let ring_net () =
  let g = Topology.Generate.ring ~n:6 in
  let net = Net.create ~seed:2 ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  net

let test_perlman_live_paths_disjoint () =
  let net = ring_net () in
  let p = Perlman_live.create ~net ~src:0 ~dst:3 ~f:1 in
  match Perlman_live.paths p with
  | [ a; b ] ->
      let interior l = List.filter (fun v -> v <> 0 && v <> 3) l in
      let shared =
        List.filter (fun v -> List.mem v (interior b)) (interior a)
      in
      Alcotest.(check (list int)) "disjoint" [] shared
  | ps -> Alcotest.failf "expected 2 paths, got %d" (List.length ps)

let test_perlman_live_survives_one_fault () =
  let net = ring_net () in
  let p = Perlman_live.create ~net ~src:0 ~dst:3 ~f:1 in
  (* Router 1 annihilates everything it forwards. *)
  Router.set_behavior (Net.router net 1) Adversary.drop_all;
  let sim = Net.sim net in
  for i = 0 to 19 do
    Sim.schedule sim ~delay:(0.1 *. float_of_int i) (fun () ->
        Perlman_live.send p ~size:500)
  done;
  Net.run net;
  Alcotest.(check int) "every message delivered" (Perlman_live.sent p)
    (Perlman_live.delivered p);
  (* Half the copies died with router 1. *)
  Alcotest.(check int) "only one copy per message" (Perlman_live.sent p)
    (Perlman_live.copies_received p)

let test_perlman_live_overwhelmed () =
  (* Faults on both disjoint paths beat f = 1 (robustness is not
     detection: nothing is even suspected). *)
  let net = ring_net () in
  let p = Perlman_live.create ~net ~src:0 ~dst:3 ~f:1 in
  Router.set_behavior (Net.router net 1) Adversary.drop_all;
  Router.set_behavior (Net.router net 5) Adversary.drop_all;
  Perlman_live.send p ~size:500;
  Net.run net;
  Alcotest.(check int) "nothing delivered" 0 (Perlman_live.delivered p)

let test_perlman_live_needs_diversity () =
  let g = Topology.Generate.line ~n:4 in
  let net = Net.create g in
  Net.use_routing net (Rt.compute g);
  Alcotest.(check bool) "raises without diversity" true
    (try
       ignore (Perlman_live.create ~net ~src:0 ~dst:3 ~f:1);
       false
     with Invalid_argument _ -> true)

(* The perlman table entry keeps one send pending at a time, however
   long the run: deploying it for 1000 s schedules one event, not one
   per 0.25 s period. *)
let test_perlman_deploy_pending () =
  let g = Topology.Generate.ring ~n:8 in
  let net = Net.create ~seed:1 ~jitter_bound:0.0 g in
  let rt = Rt.compute g in
  Net.use_routing net rt;
  let sim = Net.sim net in
  let before = Sim.pending sim in
  let perlman = Option.get (Detectors.find "perlman") in
  let (_report : unit -> unit) =
    perlman.Detectors.deploy
      { Detectors.net; rt; probe = None; ctrl = None; byz = None; skew = None;
        attacker = 2; duration = 1000.0 }
  in
  Alcotest.(check bool) "at most one more pending event" true
    (Sim.pending sim - before <= 1)

let test_pin_flow_path () =
  let net = ring_net () in
  (* Pin a flow the long way round and check the hops taken. *)
  Net.pin_flow_path net ~flow:4242 ~path:[ 0; 5; 4; 3 ];
  let hops = ref [] in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with
      | Iface.Transmit_start when ev.Net.pkt.Packet.flow = 4242 ->
          hops := ev.Net.router :: !hops
      | _ -> ());
  Net.originate net
    (Packet.make ~sim:(Net.sim net) ~src:0 ~dst:3 ~flow:4242 ~size:100 Packet.Udp);
  Net.run net;
  Alcotest.(check (list int)) "pinned route" [ 0; 5; 4 ] (List.rev !hops)

(* --- State size accounting --- *)

let test_summary_bytes_ranking () =
  let b p = State_size.summary_bytes ~policy:p ~packets_per_round:1000 in
  Alcotest.(check int) "flow constant" 16 (b Summary.Flow);
  Alcotest.(check int) "content" (8 * 1002) (b Summary.Content);
  Alcotest.(check int) "timed doubles" (8 * 2002) (b Summary.Timeliness);
  Alcotest.(check bool) "ordering" true
    (b Summary.Flow < b Summary.Content && b Summary.Content < b Summary.Timeliness)

let test_protocol_bytes_consistency () =
  let rt = Rt.compute (Topology.Generate.ebone_like ()) in
  let pi2 =
    State_size.pi2_router_bytes ~rt ~k:2 ~policy:Summary.Flow ~pps_per_segment:100.0
      ~tau:5.0
  in
  let watchers = State_size.watchers_router_bytes (Rt.graph rt) in
  let mean a = Array.fold_left ( + ) 0 a / Array.length a in
  (* Under conservation of flow, both are counter-sized; WATCHERS is per
     destination and dwarfs Π2. *)
  Alcotest.(check bool) "watchers heavier" true (mean watchers > mean pi2);
  (* Under conservation of content the summaries dominate. *)
  let pi2_content =
    State_size.pi2_router_bytes ~rt ~k:2 ~policy:Summary.Content ~pps_per_segment:100.0
      ~tau:5.0
  in
  Alcotest.(check bool) "content >> flow" true (mean pi2_content > 100 * mean pi2)

let () =
  Alcotest.run "live-baselines"
    [ ( "netflow",
        [ Alcotest.test_case "counts" `Quick test_netflow_counts;
          Alcotest.test_case "deficit" `Quick test_netflow_deficit_counts_drops ] );
      ( "watchers-live",
        [ Alcotest.test_case "quiet" `Quick test_watchers_live_quiet;
          Alcotest.test_case "detects" `Quick test_watchers_live_detects;
          Alcotest.test_case "congestion FP" `Quick test_watchers_live_congestion_false_positive;
          Alcotest.test_case "subthreshold hides" `Quick
            test_watchers_live_subthreshold_attack_hides ] );
      ( "perlman-live",
        [ Alcotest.test_case "disjoint" `Quick test_perlman_live_paths_disjoint;
          Alcotest.test_case "survives f" `Quick test_perlman_live_survives_one_fault;
          Alcotest.test_case "overwhelmed" `Quick test_perlman_live_overwhelmed;
          Alcotest.test_case "needs diversity" `Quick test_perlman_live_needs_diversity;
          Alcotest.test_case "pin path" `Quick test_pin_flow_path;
          Alcotest.test_case "one send pending" `Quick test_perlman_deploy_pending ] );
      ( "state-size",
        [ Alcotest.test_case "summary bytes" `Quick test_summary_bytes_ranking;
          Alcotest.test_case "protocol bytes" `Quick test_protocol_bytes_consistency ] ) ]
