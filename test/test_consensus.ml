(* Tests for the Dolev-Strong signed Byzantine broadcast (the consensus
   primitive Protocol Π2's summary exchange rests on, §5.1) and the
   network-wide χ fleet (the per-interface architecture of Fig 2.3). *)

open Core
open Netsim

let keyring n = Crypto_sim.Keyring.create ~n ()

(* --- Dolev-Strong --- *)

let all_correct _ = Consensus.Correct

let check_agreement outcome =
  match outcome.Consensus.decisions with
  | [] -> Alcotest.fail "no correct party decided"
  | (_, v) :: rest ->
      List.iter
        (fun (p, v') ->
          Alcotest.(check int64) (Printf.sprintf "party %d agrees" p) v v')
        rest;
      v

let test_consensus_all_correct () =
  let outcome =
    Consensus.broadcast ~keyring:(keyring 5) ~parties:5 ~f:1 ~sender:0 ~value:42L
      ~behavior:all_correct
  in
  Alcotest.(check int64) "validity" 42L (check_agreement outcome);
  Alcotest.(check int) "all decided" 5 (List.length outcome.Consensus.decisions);
  Alcotest.(check int) "f+1 rounds" 2 outcome.Consensus.rounds_used

let test_consensus_silent_sender () =
  let behavior p = if p = 0 then Consensus.Silent else Consensus.Correct in
  let outcome =
    Consensus.broadcast ~keyring:(keyring 5) ~parties:5 ~f:1 ~sender:0 ~value:42L ~behavior
  in
  Alcotest.(check int64) "default decided" Consensus.default_value (check_agreement outcome);
  Alcotest.(check int) "correct parties decided" 4 (List.length outcome.Consensus.decisions)

let test_consensus_equivocating_sender () =
  (* The sender signs two values; with f = 1 and 2 rounds, relaying
     exposes both to everyone: all correct parties extract both values
     and agree on the default. *)
  let behavior p = if p = 0 then Consensus.Equivocate (1L, 2L) else Consensus.Correct in
  let outcome =
    Consensus.broadcast ~keyring:(keyring 6) ~parties:6 ~f:1 ~sender:0 ~value:0L ~behavior
  in
  Alcotest.(check int64) "agreement on default" Consensus.default_value
    (check_agreement outcome)

let test_consensus_silent_relay () =
  (* A silent relay cannot prevent delivery: the correct sender reached
     everyone directly. *)
  let behavior p = if p = 3 then Consensus.Silent else Consensus.Correct in
  let outcome =
    Consensus.broadcast ~keyring:(keyring 5) ~parties:5 ~f:1 ~sender:0 ~value:7L ~behavior
  in
  Alcotest.(check int64) "validity" 7L (check_agreement outcome)

let test_consensus_validation () =
  Alcotest.(check bool) "bad f" true
    (try
       ignore
         (Consensus.broadcast ~keyring:(keyring 3) ~parties:3 ~f:3 ~sender:0 ~value:1L
            ~behavior:all_correct);
       false
     with Invalid_argument _ -> true)

let prop_consensus_agreement =
  (* Random Byzantine subsets of size <= f: agreement always holds, and
     validity when the sender is correct. *)
  QCheck.Test.make ~name:"dolev-strong agreement+validity" ~count:60
    QCheck.(
      quad (int_range 3 7) (int_range 1 3) (int_bound 6) (int_bound 1000))
    (fun (parties, f, sender_raw, seed) ->
      QCheck.assume (f < parties);
      let sender = sender_raw mod parties in
      let rng = Random.State.make [| seed |] in
      (* Pick up to f Byzantine parties with random behaviours. *)
      let byz = Hashtbl.create 4 in
      let count = Random.State.int rng (f + 1) in
      while Hashtbl.length byz < count do
        let p = Random.State.int rng parties in
        let b =
          if Random.State.bool rng then Consensus.Silent
          else Consensus.Equivocate (11L, 22L)
        in
        Hashtbl.replace byz p b
      done;
      let behavior p =
        Option.value ~default:Consensus.Correct (Hashtbl.find_opt byz p)
      in
      let outcome =
        Consensus.broadcast ~keyring:(keyring parties) ~parties ~f ~sender ~value:99L
          ~behavior
      in
      match outcome.Consensus.decisions with
      | [] -> Hashtbl.length byz = parties (* no correct party at all *)
      | (_, v) :: rest ->
          List.for_all (fun (_, v') -> Int64.equal v v') rest
          && (Hashtbl.mem byz sender || Int64.equal v 99L))

(* --- χ fleet --- *)

let fleet_scenario ~attack () =
  let g = Topology.Generate.ring ~n:5 in
  let net = Net.create ~seed:9 ~jitter_bound:150e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let config = { Chi.default_config with Chi.tau = 1.0; learning_rounds = 3 } in
  let fleet = Chi_fleet.deploy ~net ~rt ~config () in
  List.iter
    (fun (src, dst) ->
      ignore (Flow.cbr net ~src ~dst ~rate_pps:80.0 ~size:500 ~start:0.0 ~stop:40.0))
    [ (0, 2); (2, 0); (1, 3); (3, 1); (4, 2); (0, 3) ];
  if attack then
    Router.set_behavior (Net.router net 1)
      (Adversary.after 15.0 (Adversary.drop_fraction ~seed:4 0.4));
  Net.run ~until:40.0 net;
  fleet

let test_fleet_monitors_every_link () =
  let fleet = fleet_scenario ~attack:false () in
  Alcotest.(check int) "all 10 directed links" 10 (List.length (Chi_fleet.monitors fleet))

let test_fleet_quiet () =
  let fleet = fleet_scenario ~attack:false () in
  Alcotest.(check (list int)) "nobody suspected" [] (Chi_fleet.suspected_routers fleet)

let test_fleet_localizes_attacker () =
  let fleet = fleet_scenario ~attack:true () in
  Alcotest.(check (list int)) "exactly the attacker" [ 1 ]
    (Chi_fleet.suspected_routers fleet);
  List.iter
    (fun s ->
      Alcotest.(check int) "owner" 1 s.Chi_fleet.router;
      Alcotest.(check bool) "post-attack" true (s.Chi_fleet.first_alarm > 15.0))
    (Chi_fleet.suspects fleet)

let test_fleet_reports_accessible () =
  let fleet = fleet_scenario ~attack:false () in
  let reports = Chi_fleet.reports_for fleet ~router:0 ~next:1 in
  Alcotest.(check bool) "rounds recorded" true (List.length reports > 10)

let test_fleet_response_recovers_victim () =
  (* The full loop: chi detects the compromised interfaces, the response
     engine excises them, traffic routes around, and the victim's
     delivery recovers. *)
  let g = Topology.Generate.ring ~n:5 in
  let net = Net.create ~seed:9 ~jitter_bound:150e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let resp = Core.Response.create ~net () in
  let config = { Chi.default_config with Chi.tau = 1.0; learning_rounds = 3 } in
  let fleet = Chi_fleet.deploy ~net ~rt ~config ~response:resp () in
  (* Victim flow 0 -> 2 whose shortest path crosses the attacker 1. *)
  let victim = Flow.cbr net ~src:0 ~dst:2 ~rate_pps:80.0 ~size:500 ~start:0.0 ~stop:80.0 in
  (* Victim bytes delivered at r2, in 5 s buckets. *)
  let meter = Telemetry.Timeseries.create ~capacity:32 ~resolution:5.0 () in
  Net.attach_app net ~node:2 (fun pkt ->
      if pkt.Packet.flow = Flow.flow_id victim then
        Telemetry.Timeseries.record meter ~at:(Sim.clock (Net.sim net)) pkt.Packet.size);
  List.iter
    (fun (s, d) ->
      ignore (Flow.cbr net ~src:s ~dst:d ~rate_pps:60.0 ~size:500 ~start:0.0 ~stop:80.0))
    [ (2, 0); (1, 3); (3, 1); (4, 2) ];
  Router.set_behavior (Net.router net 1)
    (Core.Adversary.after 20.0 (Core.Adversary.drop_fraction ~seed:4 0.6));
  Net.run ~until:80.0 net;
  Alcotest.(check (list int)) "attacker localized" [ 1 ]
    (Chi_fleet.suspected_routers fleet);
  Alcotest.(check bool) "routing updated" true (Core.Response.updates resp <> []);
  (* Victim delivery: healthy before, collapsed under attack, healthy
     again after the excision. *)
  let rate at =
    let module Ts = Telemetry.Timeseries in
    let r = ref 0.0 in
    for i = 0 to Ts.used meter - 1 do
      (* bucket i ends at the start of bucket i + 1 *)
      if Float.abs (Ts.bucket_start meter (i + 1) -. at) < 2.6 then
        r := float_of_int (Ts.bucket_sum meter i) /. Ts.resolution meter
    done;
    !r
  in
  let before = rate 15.0 and during = rate 25.0 and after = rate 70.0 in
  Alcotest.(check bool)
    (Printf.sprintf "collapse then recovery (%.0f / %.0f / %.0f B/s)" before during after)
    true
    (during < 0.7 *. before && after > 0.9 *. before)

let () =
  Alcotest.run "consensus"
    [ ( "dolev-strong",
        [ Alcotest.test_case "all correct" `Quick test_consensus_all_correct;
          Alcotest.test_case "silent sender" `Quick test_consensus_silent_sender;
          Alcotest.test_case "equivocation" `Quick test_consensus_equivocating_sender;
          Alcotest.test_case "silent relay" `Quick test_consensus_silent_relay;
          Alcotest.test_case "validation" `Quick test_consensus_validation;
          QCheck_alcotest.to_alcotest prop_consensus_agreement ] );
      ( "chi-fleet",
        [ Alcotest.test_case "covers links" `Slow test_fleet_monitors_every_link;
          Alcotest.test_case "quiet" `Slow test_fleet_quiet;
          Alcotest.test_case "localizes" `Slow test_fleet_localizes_attacker;
          Alcotest.test_case "reports" `Slow test_fleet_reports_accessible;
          Alcotest.test_case "response recovers victim" `Slow
            test_fleet_response_recovers_victim ] ) ]
