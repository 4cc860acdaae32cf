(* Tests for the §7.4 issues made executable (ECMP multipath,
   TTL-invariant fingerprints, fragmentation) and stealth probing
   (§3.8). *)

open Core
open Netsim
module G = Topology.Graph
module Rt = Topology.Routing
module Ecmp = Topology.Ecmp

(* A diamond with two equal-cost branches between 1 and 4:
   0 -> 1 -> {2 | 3} -> 4 -> 5. *)
let diamond () =
  let g = G.create ~n:6 in
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 1;
  G.add_duplex g ~bw:1.25e6 ~delay:0.002 1 2;
  G.add_duplex g ~bw:1.25e6 ~delay:0.002 1 3;
  G.add_duplex g ~bw:1.25e6 ~delay:0.002 2 4;
  G.add_duplex g ~bw:1.25e6 ~delay:0.002 3 4;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 4 5;
  g

(* --- ECMP --- *)

let test_ecmp_candidates () =
  let e = Ecmp.compute (diamond ()) in
  Alcotest.(check (list int)) "two candidates" [ 2; 3 ] (Ecmp.candidates e 1 ~dst:5);
  Alcotest.(check (list int)) "single candidate" [ 1 ] (Ecmp.candidates e 0 ~dst:5);
  Alcotest.(check (list int)) "at destination" [] (Ecmp.candidates e 5 ~dst:5);
  Alcotest.(check int) "fanout" 2 (Ecmp.max_fanout e)

let test_ecmp_deterministic_and_splitting () =
  let e = Ecmp.compute (diamond ()) in
  let via flow = Option.get (Ecmp.next_hop e 1 ~dst:5 ~flow) in
  (* Deterministic per flow... *)
  for flow = 0 to 50 do
    Alcotest.(check int) "stable" (via flow) (via flow)
  done;
  (* ...and both branches are used across flows. *)
  let twos = List.length (List.filter (fun f -> via f = 2) (List.init 200 Fun.id)) in
  Alcotest.(check bool) (Printf.sprintf "split (%d/200 via 2)" twos) true
    (twos > 40 && twos < 160)

let test_ecmp_paths_valid () =
  let g = diamond () in
  let e = Ecmp.compute g in
  for flow = 0 to 20 do
    match Ecmp.path e ~src:0 ~dst:5 ~flow with
    | None -> Alcotest.fail "reachable"
    | Some p ->
        let rec adjacent = function
          | a :: (b :: _ as rest) ->
              if G.link g a b = None then Alcotest.fail "non-link hop";
              adjacent rest
          | _ -> ()
        in
        adjacent p;
        Alcotest.(check int) "length" 5 (List.length p)
  done

let test_ecmp_forwarding_matches_prediction () =
  (* Packets of each flow must traverse exactly the predicted branch. *)
  let g = diamond () in
  let e = Ecmp.compute g in
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_ecmp net e;
  let seen = Hashtbl.create 16 in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with
      | Iface.Transmit_start when ev.Net.router = 1 ->
          Hashtbl.replace seen ev.Net.pkt.Packet.flow ev.Net.next
      | _ -> ());
  let flows =
    List.map
      (fun _ -> Flow.cbr net ~src:0 ~dst:5 ~rate_pps:20.0 ~size:400 ~start:0.0 ~stop:1.0)
      (List.init 8 Fun.id)
  in
  Net.run net;
  List.iter
    (fun f ->
      let flow = Flow.flow_id f in
      let predicted = Option.get (Ecmp.next_hop e 1 ~dst:5 ~flow) in
      Alcotest.(check int)
        (Printf.sprintf "flow %d branch" flow)
        predicted
        (Option.value ~default:(-1) (Hashtbl.find_opt seen flow)))
    flows

let run_chi_on_ecmp ~predict_kind =
  let g = diamond () in
  let e = Ecmp.compute g in
  let rt = Rt.compute g in
  let net = Net.create ~seed:5 ~jitter_bound:100e-6 g in
  Net.use_ecmp net e;
  let predict =
    match predict_kind with
    | `Ecmp_aware -> Qmon.predict_of_ecmp e ~router:1
    | `Naive -> Qmon.predict_of_routing rt ~router:1
  in
  let config = { Chi.default_config with Chi.tau = 1.0; learning_rounds = 3 } in
  (* Monitor the queue on branch 1 -> 2. *)
  let chi = Chi.deploy ~net ~rt ~router:1 ~next:2 ~config ~predict () in
  List.iter
    (fun _ -> ignore (Flow.cbr net ~src:0 ~dst:5 ~rate_pps:120.0 ~size:400 ~start:0.0 ~stop:20.0))
    (List.init 10 Fun.id);
  Net.run ~until:20.0 net;
  Chi.alarms chi

let test_chi_under_ecmp_aware () =
  Alcotest.(check int) "ecmp-aware prediction: clean" 0
    (List.length (run_chi_on_ecmp ~predict_kind:`Ecmp_aware))

let test_chi_under_ecmp_naive () =
  (* §7.4.1's warning: predicting a single shortest path in an ECMP
     network misclassifies every flow hashed to the other branch. *)
  Alcotest.(check bool) "naive prediction: false alarms" true
    (run_chi_on_ecmp ~predict_kind:`Naive <> [])

(* --- TTL (§7.4.2) --- *)

let test_fingerprint_ttl_invariant () =
  let sim = Sim.create () in
  let key = Crypto_sim.Siphash.key_of_string "ttl" in
  let pkt = Packet.make ~sim ~src:0 ~dst:1 ~flow:0 ~size:100 Packet.Udp in
  let before = Packet.fingerprint key pkt in
  Packet.set_ttl pkt (pkt.Packet.ttl - 3);
  Alcotest.(check int64) "hop-invariant" before (Packet.fingerprint key pkt);
  Packet.set_payload pkt 42L;
  Alcotest.(check bool) "payload-sensitive" true
    (not (Int64.equal before (Packet.fingerprint key pkt)))

(* --- Fragmentation (§7.4.4) --- *)

let test_fragmentation_mechanics () =
  let g = Topology.Generate.line ~n:3 in
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  Router.set_mtu (Net.router net 1) (Some 500);
  let delivered = ref [] in
  Net.attach_app net ~node:2 (fun pkt -> delivered := pkt.Packet.size :: !delivered);
  Net.originate net (Packet.make ~sim:(Net.sim net) ~src:0 ~dst:2 ~flow:7 ~size:1400 Packet.Udp);
  Net.run net;
  Alcotest.(check int) "three fragments" 3 (List.length !delivered);
  Alcotest.(check int) "bytes conserved" 1400 (List.fold_left ( + ) 0 !delivered)

let test_fragmentation_breaks_validation () =
  (* The §7.4.4 caveat, executable: a fragmenting router makes honest
     traffic fail conservation of content — every original fingerprint
     disappears and unknown fragment fingerprints appear. *)
  let g = Topology.Generate.line ~n:4 in
  let rt = Rt.compute g in
  let net = Net.create ~seed:3 ~jitter_bound:100e-6 g in
  Net.use_routing net rt;
  Router.set_mtu (Net.router net 1) (Some 500);
  let config = { Chi.default_config with Chi.tau = 1.0; learning_rounds = 2 } in
  let chi = Chi.deploy ~net ~rt ~router:1 ~next:2 ~config () in
  ignore (Flow.cbr net ~src:0 ~dst:3 ~rate_pps:50.0 ~size:1400 ~start:0.0 ~stop:10.0);
  Net.run ~until:10.0 net;
  let alarms = Chi.alarms chi in
  Alcotest.(check bool) "false alarms from fragmentation" true (alarms <> []);
  Alcotest.(check bool) "fabrication observed" true
    (List.exists (fun r -> r.Chi.fabricated > 0) alarms)

(* --- Stealth probing (§3.8) --- *)

let stealth_net () =
  let g = Topology.Generate.line ~n:4 in
  let net = Net.create ~seed:7 ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  net

let test_stealth_clean_path () =
  let net = stealth_net () in
  let key = Crypto_sim.Siphash.key_of_string "tunnel" in
  let p = Stealth.start ~net ~src:0 ~dst:3 ~flow:99 ~key ~start:0.0 ~stop:10.0 () in
  Net.run net;
  Alcotest.(check int) "all answered" (Stealth.sent p) (Stealth.answered p);
  Alcotest.(check bool) "available" true (Stealth.available p ~threshold:0.01)

let test_stealth_sees_flow_attack () =
  (* The attacker drops the tunnelled flow's packets; it cannot spare the
     probes because nothing distinguishes them. *)
  let net = stealth_net () in
  let key = Crypto_sim.Siphash.key_of_string "tunnel" in
  ignore (Flow.cbr net ~src:0 ~dst:3 ~rate_pps:50.0 ~size:1000 ~start:0.0 ~stop:10.0);
  Router.set_behavior (Net.router net 1)
    (Adversary.on_flows [ 99 ] (Adversary.drop_fraction ~seed:3 0.5));
  let p =
    Stealth.start ~net ~src:0 ~dst:3 ~flow:99 ~key ~interval:0.1 ~start:0.0 ~stop:10.0 ()
  in
  Net.run net;
  let rate = Stealth.loss_rate p in
  Alcotest.(check bool)
    (Printf.sprintf "probe loss %.2f tracks the 50%% data loss" rate)
    true
    (rate > 0.3 && rate < 0.9);
  Alcotest.(check bool) "unavailable" false (Stealth.available p ~threshold:0.05)

(* A zero interval would reschedule at one instant forever, and a
   negative one would raise only after the first probe went out. *)
let test_stealth_rejects_interval () =
  let net = stealth_net () in
  let key = Crypto_sim.Siphash.key_of_string "tunnel" in
  List.iter
    (fun interval ->
      Alcotest.check_raises (Printf.sprintf "interval %g" interval)
        (Invalid_argument "Stealth.start: interval must be positive and finite") (fun () ->
          ignore
            (Stealth.start ~net ~src:0 ~dst:3 ~flow:99 ~key ~interval ~start:0.0 ~stop:1.0 ())))
    [ 0.0; -0.5; Float.nan; Float.infinity ];
  Net.run net;
  Alcotest.(check int) "nothing scheduled" 0 (Net.events_processed net)

let test_naive_probing_evaded () =
  (* Contrast: recognizable Ping probes are spared by a discriminating
     attacker while the data dies — naive active probing reports a
     healthy path. *)
  let net = stealth_net () in
  let data = Flow.cbr net ~src:0 ~dst:3 ~rate_pps:50.0 ~size:1000 ~start:0.0 ~stop:10.0 in
  let delivered = Flow.delivered_counter net ~node:3 ~flow:(Flow.flow_id data) in
  Router.set_behavior (Net.router net 1) (fun ctx pkt ->
      if ctx.Router.prev >= 0 && pkt.Packet.proto = Packet.Udp then Router.Drop
      else Router.Forward);
  let ping = Ping.start net ~src:0 ~dst:3 ~interval:0.1 ~start:0.0 ~stop:10.0 () in
  Net.run net;
  Alcotest.(check int) "pings unharmed" 0 (Ping.lost ping);
  Alcotest.(check int) "data annihilated" 0 (delivered ())

let setup_ext () =
  let g = G.create ~n:5 in
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 3;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 1 3;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 2 3;
  G.add_duplex g ~bw:1.25e6 ~delay:0.005 3 4;
  let net = Net.create ~seed:11 ~queue:(Net.Droptail 64000) ~jitter_bound:200e-6 g in
  let rt = Rt.compute g in
  Net.use_routing net rt;
  (net, rt)

(* --- Multicast (§7.4.3) --- *)

let multicast_net () =
  (* Star: source 0 -> hub 1 -> leaves 2,3,4. *)
  let g = G.create ~n:5 in
  G.add_duplex g 0 1;
  G.add_duplex g 1 2;
  G.add_duplex g 1 3;
  G.add_duplex g 1 4;
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let group = 77 in
  Net.add_multicast_route net ~router:0 ~group ~next_hops:[ 1 ] ~local:false;
  Net.add_multicast_route net ~router:1 ~group ~next_hops:[ 2; 3; 4 ] ~local:false;
  List.iter
    (fun leaf -> Net.add_multicast_route net ~router:leaf ~group ~next_hops:[] ~local:true)
    [ 2; 3; 4 ];
  (net, group)

let test_multicast_delivery () =
  let net, group = multicast_net () in
  let key = Crypto_sim.Siphash.key_of_string "mc" in
  let got = Array.make 5 [] in
  List.iter
    (fun leaf ->
      Net.attach_app net ~node:leaf (fun pkt ->
          got.(leaf) <- Packet.fingerprint key pkt :: got.(leaf)))
    [ 2; 3; 4 ];
  let pkt = Packet.make ~sim:(Net.sim net) ~src:0 ~dst:group ~flow:1 ~size:300 Packet.Udp in
  let fp = Packet.fingerprint key pkt in
  Net.originate net pkt;
  Net.run net;
  List.iter
    (fun leaf ->
      match got.(leaf) with
      | [ leaf_fp ] ->
          Alcotest.(check int64) (Printf.sprintf "leaf %d same fingerprint" leaf) fp leaf_fp
      | l -> Alcotest.failf "leaf %d got %d copies" leaf (List.length l))
    [ 2; 3; 4 ]

let test_multicast_breaks_naive_cof () =
  (* One packet in, three out: naive per-router conservation of flow
     reports a negative deficit at the duplicating hub — the §7.4.3
     accounting caveat. *)
  let net, group = multicast_net () in
  let flow = Core.Netflow.attach ~net () in
  for _ = 1 to 10 do
    Net.originate net
      (Packet.make ~sim:(Net.sim net) ~src:0 ~dst:group ~flow:1 ~size:300 Packet.Udp)
  done;
  Net.run net;
  Alcotest.(check int) "hub deficit = in - 3x out" (10 - 30)
    (Core.Netflow.conservation_deficit flow ~router:1)

let test_multicast_branch_pruning_attack () =
  (* A compromised hub silently prunes one branch; the other leaves keep
     receiving, so end-to-end checks at them see nothing. *)
  let net, group = multicast_net () in
  let got = Array.make 5 0 in
  List.iter
    (fun leaf -> Net.attach_app net ~node:leaf (fun _ -> got.(leaf) <- got.(leaf) + 1))
    [ 2; 3; 4 ];
  Router.set_behavior (Net.router net 1) (fun ctx _ ->
      if ctx.Router.next_hop = 3 then Router.Drop else Router.Forward);
  for _ = 1 to 10 do
    Net.originate net
      (Packet.make ~sim:(Net.sim net) ~src:0 ~dst:group ~flow:1 ~size:300 Packet.Udp)
  done;
  Net.run net;
  Alcotest.(check int) "leaf 2 fine" 10 got.(2);
  Alcotest.(check int) "leaf 3 starved" 0 got.(3);
  Alcotest.(check int) "leaf 4 fine" 10 got.(4)

(* Each branch of a traced multicast is its own packet on its own edge:
   the hub's three clones each get one queue span and one transmit span,
   the latter from the hub's transmit start to the leaf's delivery.  A
   clone sharing its original's span windows would have the first
   branch's delivery close the window of the others, losing their
   transmit spans. *)
let test_multicast_span_windows () =
  let net, group = multicast_net () in
  let tracer = Telemetry.Span.create ~seed:1 () in
  Net.set_probe net (Some (Probe.create ~tracer ()));
  Net.originate net
    (Packet.make ~sim:(Net.sim net) ~src:0 ~dst:group ~flow:1 ~size:300 Packet.Udp);
  Net.run net;
  let spans name leaf =
    List.filter_map
      (fun (e : Telemetry.Span.entry) ->
        match e.Telemetry.Span.kind with
        | Telemetry.Span.Complete { duration }
          when e.Telemetry.Span.name = name && Telemetry.Span.entry_routers e = [ 1; leaf ] ->
            Some (e.Telemetry.Span.time, duration)
        | _ -> None)
      (Telemetry.Span.entries tracer)
  in
  let transmits =
    List.map
      (fun leaf ->
        Alcotest.(check int) (Printf.sprintf "branch to %d: one queue span" leaf) 1
          (List.length (spans "queue" leaf));
        match spans "transmit" leaf with
        | [ (start, duration) ] ->
            Alcotest.(check bool)
              (Printf.sprintf "branch to %d: transmit span has a length" leaf)
              true (duration > 0.0);
            (start, duration)
        | l -> Alcotest.failf "branch to %d: %d transmit spans" leaf (List.length l))
      [ 2; 3; 4 ]
  in
  Alcotest.(check bool) "identical links, identical transmit windows" true
    (List.for_all (fun w -> w = List.hd transmits) transmits)

(* --- Corruption (§4.2.1) --- *)

let test_corruption_drops_in_flight () =
  let g = Topology.Generate.line ~n:2 in
  let net = Net.create ~seed:8 ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  Net.set_link_corruption net ~src:0 ~dst:1 0.2;
  let corrupted = ref 0 and delivered = ref 0 in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with Iface.Drop_corrupted -> incr corrupted | _ -> ());
  Net.attach_app net ~node:1 (fun _ -> incr delivered);
  let f = Flow.cbr net ~src:0 ~dst:1 ~rate_pps:100.0 ~size:400 ~start:0.0 ~stop:10.0 in
  Net.run net;
  Alcotest.(check int) "conservation" (Flow.sent f) (!corrupted + !delivered);
  let rate = float_of_int !corrupted /. float_of_int (Flow.sent f) in
  Alcotest.(check bool) (Printf.sprintf "rate %.2f near 0.2" rate) true
    (rate > 0.12 && rate < 0.28)

let test_min_suspicious_tolerates_corruption () =
  (* The ablation-5 dial as a unit test: one corrupted upstream link,
     min_suspicious 3, no attack: chi stays quiet. *)
  let net, rt = setup_ext () in
  Net.set_link_corruption net ~src:0 ~dst:3 1e-3;
  let config =
    { Chi.default_config with Chi.tau = 1.0; learning_rounds = 4; min_suspicious = 3 }
  in
  let chi = Chi.deploy ~net ~rt ~router:3 ~next:4 ~config () in
  List.iter (fun src -> ignore (Tcp.connect net ~src ~dst:4 ())) [ 0; 1; 2 ];
  Net.run ~until:30.0 net;
  Alcotest.(check int) "quiet despite corruption" 0 (List.length (Chi.alarms chi))

(* --- Conservation of order at packet level --- *)

let test_order_policy_sees_delay_attack () =
  (* A delaying router reorders packets without losing any: conservation
     of content passes, conservation of order fails (§2.4.1). *)
  let g = Topology.Generate.line ~n:3 in
  let net = Net.create ~seed:2 ~jitter_bound:0.0 g in
  let rt = Rt.compute g in
  Net.use_routing net rt;
  let key = Crypto_sim.Siphash.key_of_string "order" in
  let sent = Core.Summary.create Core.Summary.Order in
  let received = Core.Summary.create Core.Summary.Order in
  Net.subscribe_iface net (fun ev ->
      let pkt = ev.Net.pkt in
      match ev.Net.kind with
      | Iface.Delivered when ev.Net.router = 0 && ev.Net.next = 1 ->
          Core.Summary.observe sent ~fp:(Packet.fingerprint key pkt)
            ~size:pkt.Packet.size ~time:ev.Net.clock.Sim.f
      | Iface.Delivered when ev.Net.router = 1 && ev.Net.next = 2 ->
          Core.Summary.observe received ~fp:(Packet.fingerprint key pkt)
            ~size:pkt.Packet.size ~time:ev.Net.clock.Sim.f
      | _ -> ());
  Router.set_behavior (Net.router net 1)
    (Adversary.delay_fraction ~seed:3 ~delay:0.5 0.3);
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:40.0 ~size:300 ~start:0.0 ~stop:5.0);
  Net.run net;
  let v = Core.Validation.tv ~sent ~received () in
  Alcotest.(check (list int64)) "nothing lost" [] v.Core.Validation.missing;
  Alcotest.(check bool) "reordering detected" true (v.Core.Validation.reordered > 0)

let () =
  Alcotest.run "extensions"
    [ ( "ecmp",
        [ Alcotest.test_case "candidates" `Quick test_ecmp_candidates;
          Alcotest.test_case "deterministic split" `Quick test_ecmp_deterministic_and_splitting;
          Alcotest.test_case "paths valid" `Quick test_ecmp_paths_valid;
          Alcotest.test_case "forwarding matches prediction" `Quick
            test_ecmp_forwarding_matches_prediction;
          Alcotest.test_case "chi ecmp-aware" `Slow test_chi_under_ecmp_aware;
          Alcotest.test_case "chi naive prediction" `Slow test_chi_under_ecmp_naive ] );
      ( "ttl",
        [ Alcotest.test_case "fingerprint invariance" `Quick test_fingerprint_ttl_invariant ]
      );
      ( "fragmentation",
        [ Alcotest.test_case "mechanics" `Quick test_fragmentation_mechanics;
          Alcotest.test_case "breaks validation" `Quick test_fragmentation_breaks_validation
        ] );
      ( "multicast",
        [ Alcotest.test_case "delivery" `Quick test_multicast_delivery;
          Alcotest.test_case "naive CoF breaks" `Quick test_multicast_breaks_naive_cof;
          Alcotest.test_case "branch pruning" `Quick test_multicast_branch_pruning_attack;
          Alcotest.test_case "multicast clones keep separate span windows" `Quick
            test_multicast_span_windows ]
      );
      ( "corruption",
        [ Alcotest.test_case "in-flight drops" `Quick test_corruption_drops_in_flight;
          Alcotest.test_case "min_suspicious" `Slow test_min_suspicious_tolerates_corruption
        ] );
      ( "order",
        [ Alcotest.test_case "delay attack" `Quick test_order_policy_sees_delay_attack ] );
      ( "stealth",
        [ Alcotest.test_case "clean path" `Quick test_stealth_clean_path;
          Alcotest.test_case "flow attack seen" `Quick test_stealth_sees_flow_attack;
          Alcotest.test_case "bad interval rejected" `Quick test_stealth_rejects_interval;
          Alcotest.test_case "naive probing evaded" `Quick test_naive_probing_evaded ] ) ]
