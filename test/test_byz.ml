(* Byzantine control-plane adversary suite: Core.Byz units (role
   validation, claim determinism, origin-MAC screening, equivocation
   digests) and the golden α-accuracy property — under protocol-faulty
   chaos, hardened fatih/chi/pi2 never convict an honest router. *)

module Byz = Core.Byz
module Summary = Core.Summary
module Ctrl = Core.Ctrl
module Chaos = Faults.Chaos
module Injector = Faults.Injector
module Oracle = Faults.Oracle
module Net = Netsim.Net
module Probe = Netsim.Probe
module Flow = Netsim.Flow
module Rob = Experiments.Fig_robustness

let mk ?hardened roles = Byz.create ?hardened ~seed:7 ~n:8 ~roles ()

let summary_of fps =
  let s = Summary.create Summary.Content in
  List.iteri
    (fun i fp -> Summary.observe s ~fp ~size:100 ~time:(0.1 *. float_of_int i))
    fps;
  s

(* --- role validation ------------------------------------------------- *)

let test_create_validation () =
  let rejected name roles =
    match mk roles with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" name
  in
  rejected "negative router" [ (-1, Byz.Equivocator) ];
  rejected "router out of range" [ (8, Byz.Equivocator) ];
  rejected "victim out of range" [ (1, Byz.Framer { victim = 9; extras = 3 }) ];
  rejected "self-framing" [ (1, Byz.Framer { victim = 1; extras = 3 }) ];
  rejected "zero extras" [ (1, Byz.Framer { victim = 2; extras = 0 }) ];
  rejected "margin at 1" [ (1, Byz.Staller { margin = 1.0 }) ];
  rejected "negative margin" [ (1, Byz.Staller { margin = -0.1 }) ];
  rejected "negative mute start" [ (1, Byz.Mute { from = -1.0 }) ];
  let t =
    mk [ (5, Byz.Framer { victim = 4; extras = 3 }); (7, Byz.Equivocator);
         (2, Byz.Mute { from = 10.0 }); (6, Byz.Staller { margin = 0.8 }) ]
  in
  Alcotest.(check (list int)) "routers ascending" [ 2; 5; 6; 7 ] (Byz.routers t);
  Alcotest.(check bool) "hardened by default" true (Byz.hardened t);
  Alcotest.(check bool) "role lookup" true (Byz.role t 7 = Some Byz.Equivocator);
  Alcotest.(check bool) "honest router has no role" true (Byz.role t 0 = None);
  Alcotest.(check bool) "mute quiet before from" false
    (Byz.mute_active t ~router:2 ~now:5.0);
  Alcotest.(check bool) "mute active after from" true
    (Byz.mute_active t ~router:2 ~now:15.0);
  Alcotest.(check bool) "stall margin exposed" true
    (Byz.stall_margin t ~router:6 = Some 0.8);
  Alcotest.(check bool) "honest router never stalls" true
    (Byz.stall_margin t ~router:0 = None)

(* --- claims ----------------------------------------------------------- *)

let fps8 = List.init 8 (fun i -> Int64.of_int (1000 + (i * 37)))

let test_claim_honest_and_deterministic () =
  let t = mk [ (5, Byz.Framer { victim = 4; extras = 3 }) ] in
  let truth = summary_of fps8 in
  (* An honest claimant — even inside a byzantine plan — reports the
     truth unchanged with no extras. *)
  let s, extras =
    Byz.summary_claim t ~claimant:0 ~peer:1 ~segment:[ 0; 1; 2 ] ~round:3 truth
  in
  Alcotest.(check bool) "honest claim is the truth" true (s == truth);
  Alcotest.(check int) "honest claim has no extras" 0 (List.length extras);
  (* Claims are a pure function of (seed, claimant, peer, round): two
     same-seed instances fabricate identical entries. *)
  let t' = mk [ (5, Byz.Framer { victim = 4; extras = 3 }) ] in
  let claim u =
    let s, extras =
      Byz.summary_claim u ~claimant:5 ~peer:4 ~segment:[ 5; 4; 3 ] ~round:9
        (summary_of fps8)
    in
    (Byz.digest s, List.map (fun e -> (e.Byz.fp, e.Byz.origin)) extras)
  in
  Alcotest.(check bool) "same seed, same claim" true (claim t = claim t')

let test_framer_arms () =
  let t = mk [ (5, Byz.Framer { victim = 4; extras = 3 }) ] in
  let truth = summary_of fps8 in
  (* Entry terminal reporting traffic *into* the victim: the truth plus
     fabricated extras whose origin tags the framer cannot sign. *)
  let s, extras =
    Byz.summary_claim t ~claimant:5 ~peer:4 ~segment:[ 5; 4; 3 ] ~round:1 truth
  in
  Alcotest.(check bool) "inflation keeps the truth intact" true (s == truth);
  Alcotest.(check int) "three fabricated entries" 3 (List.length extras);
  List.iter
    (fun e ->
      Alcotest.(check bool) "fabricated fp is novel" false
        (Summary.mem truth e.Byz.fp))
    extras;
  (* The framer as exit terminal reporting traffic *out of* the victim:
     real fingerprints pruned so the victim appears to have swallowed
     them. *)
  let s', extras' =
    Byz.summary_claim t ~claimant:5 ~peer:4 ~segment:[ 3; 4; 5 ] ~round:1 truth
  in
  Alcotest.(check int) "no extras on the under-report arm" 0 (List.length extras');
  Alcotest.(check int) "three fingerprints pruned" (List.length fps8 - 3)
    (Summary.packets s');
  Alcotest.(check int) "the truth is never mutated" (List.length fps8)
    (Summary.packets truth);
  (* A segment the victim is not interior of draws no attack at all. *)
  let s'', extras'' =
    Byz.summary_claim t ~claimant:5 ~peer:6 ~segment:[ 5; 6; 7 ] ~round:1 truth
  in
  Alcotest.(check bool) "off-victim segments get the truth" true (s'' == truth);
  Alcotest.(check int) "and no extras" 0 (List.length extras'');
  Alcotest.(check int) "both on-victim arms counted" 2
    (Byz.stats t).Byz.framing_attempts

let test_equivocator_digests () =
  let t = mk [ (7, Byz.Equivocator) ] in
  let truth = summary_of fps8 in
  let claim peer =
    fst (Byz.summary_claim t ~claimant:7 ~peer ~segment:[ 0; 7; 6 ] ~round:4 truth)
  in
  let to_a = claim 0 and to_b = claim 6 in
  Alcotest.(check bool) "digests to different peers disagree" false
    (Byz.digest to_a = Byz.digest to_b);
  Alcotest.(check int) "each claim prunes exactly one" (Summary.packets truth - 1)
    (Summary.packets to_a);
  Alcotest.(check int) "truth keeps its packets" (List.length fps8)
    (Summary.packets truth);
  (* Same peer, same round: the lie itself is replay-deterministic. *)
  Alcotest.(check bool) "stable per peer" true
    (Byz.digest (claim 0) = Byz.digest to_a)

(* --- origin-MAC screening --------------------------------------------- *)

let test_screening_hardened () =
  let t = mk [ (5, Byz.Framer { victim = 4; extras = 3 }) ] in
  let probe = Probe.create () in
  let summary = summary_of fps8 in
  let genuine = Byz.sign_extra t ~origin:3 ~fp:42L in
  let forged =
    { Byz.fp = 43L; origin = 3; tag = Crypto_sim.Keyring.forge_attempt }
  in
  let rejected =
    Byz.screen t ~probe ~time:12.0 ~claimant:5 ~summary
      ~extras:[ genuine; forged ] ()
  in
  Alcotest.(check int) "one forgery rejected" 1 rejected;
  Alcotest.(check bool) "genuine extra folded in" true (Summary.mem summary 42L);
  Alcotest.(check bool) "forged extra dropped" false (Summary.mem summary 43L);
  let st = Byz.stats t in
  Alcotest.(check int) "rejection counted" 1 st.Byz.forgeries_rejected;
  Alcotest.(check int) "nothing accepted" 0 st.Byz.forgeries_accepted;
  (* The rejection is journaled as a typed fault record. *)
  let o = Oracle.of_probe ~malicious:[] probe in
  Alcotest.(check int) "forgery_rejected journaled" 1 o.Oracle.faults_injected

let test_screening_unhardened () =
  let t = mk ~hardened:false [ (5, Byz.Framer { victim = 4; extras = 3 }) ] in
  let summary = summary_of fps8 in
  let genuine = Byz.sign_extra t ~origin:3 ~fp:42L in
  let forged =
    { Byz.fp = 43L; origin = 3; tag = Crypto_sim.Keyring.forge_attempt }
  in
  let rejected =
    Byz.screen t ~claimant:5 ~summary ~extras:[ genuine; forged ] ()
  in
  Alcotest.(check int) "nothing rejected" 0 rejected;
  Alcotest.(check bool) "forged extra folded in" true (Summary.mem summary 43L);
  let st = Byz.stats t in
  Alcotest.(check int) "acceptance counted" 1 st.Byz.forgeries_accepted;
  Alcotest.(check int) "no rejections" 0 st.Byz.forgeries_rejected

(* --- the golden α-accuracy property ----------------------------------- *)

(* Hardened fatih under the scripted byzantine plan: every forgery dies
   at the origin MAC, nobody honest is convicted — and arming a real
   traffic-dropping attacker on top still yields full recall. *)
let test_golden_fatih_byz_plan () =
  List.iter
    (fun attacked ->
      let t =
        Rob.ring_trial ~seed:31 ~duration:30.0 ~schedule:Rob.byz_plan ~attacked ()
      in
      let o = t.Rob.outcome in
      Alcotest.(check bool) "the framer really fired" true
        (o.Oracle.framing_attempts > 0);
      Alcotest.(check bool) "forgeries were rejected" true
        (o.Oracle.forgeries_rejected > 0);
      Alcotest.(check int) "hardened runs accept no forgery" 0
        o.Oracle.forgeries_accepted;
      Alcotest.(check int)
        (Printf.sprintf "attacked=%b: zero framed honest" attacked)
        0 o.Oracle.framed_honest;
      Alcotest.(check int)
        (Printf.sprintf "attacked=%b: zero alpha violations" attacked)
        0 o.Oracle.alpha_violations;
      if attacked then
        Alcotest.(check (float 1e-9)) "real attacker still detected" 1.0
          o.Oracle.recall)
    [ false; true ]

(* Generated byzantine chaos: whatever roles the budget draws, a
   hardened run never violates α-accuracy. *)
let test_golden_fatih_byz_chaos () =
  let g = Topology.Generate.ring ~n:8 in
  List.iter
    (fun seed ->
      let schedule =
        Chaos.generate ~seed ~graph:g ~duration:20.0
          ~budget:Chaos.byzantine_budget ()
      in
      let t =
        Rob.ring_trial ~seed:(300 + seed) ~duration:20.0 ~schedule
          ~attacked:false ()
      in
      let o = t.Rob.outcome in
      Alcotest.(check bool)
        (Printf.sprintf "chaos seed %d drew byzantine roles" seed)
        true (o.Oracle.byzantine <> []);
      Alcotest.(check int)
        (Printf.sprintf "fatih, byz chaos seed %d: zero framed honest" seed)
        0 o.Oracle.framed_honest;
      Alcotest.(check int)
        (Printf.sprintf "fatih, byz chaos seed %d: zero alpha violations" seed)
        0 o.Oracle.alpha_violations)
    [ 1; 2; 3 ]

(* χ with the byzantine control channel (mute + stall peers riding the
   Ctrl budget): degraded rounds, never a false accusation. *)
let test_golden_chi_byz_chaos () =
  let g = Topology.Generate.ring ~n:8 in
  List.iter
    (fun seed ->
      let duration = 20.0 in
      let schedule =
        Chaos.generate ~seed ~graph:g ~duration ~budget:Chaos.byzantine_budget ()
      in
      let probe = Probe.create () in
      let net = Net.create ~seed:(400 + seed) ~jitter_bound:200e-6 g in
      Net.set_probe net (Some probe);
      let rt = Topology.Routing.compute g in
      Net.use_routing net rt;
      ignore (Injector.apply ~probe ~net schedule);
      let ctrl = Injector.ctrl schedule in
      List.iter
        (fun (s, d) ->
          ignore
            (Flow.cbr net ~src:s ~dst:d ~rate_pps:80.0 ~size:500 ~start:0.0
               ~stop:duration))
        [ (0, 4); (4, 0); (1, 5); (5, 1); (3, 7); (7, 3) ];
      let config = { Core.Chi.default_config with Core.Chi.tau = 2.0 } in
      let skew = Injector.skew_fn schedule in
      ignore
        (Core.Chi.deploy ~net ~rt ~router:2 ~next:1 ~config ~probe ~ctrl
           ~skew:(fun ~reporter -> skew reporter)
           ());
      Net.run ~until:duration net;
      let byzantine =
        match Injector.byz ~n:8 schedule with
        | Some bz -> Byz.routers bz
        | None -> []
      in
      let o = Oracle.of_probe ~malicious:[] ~byzantine probe in
      Alcotest.(check int)
        (Printf.sprintf "chi, byz chaos seed %d: zero alpha violations" seed)
        0 o.Oracle.alpha_violations;
      Alcotest.(check int)
        (Printf.sprintf "chi, byz chaos seed %d: zero framed honest" seed)
        0 o.Oracle.framed_honest)
    [ 1; 2; 3 ]

(* π/2 with claims + screening armed: consensus summaries are signed,
   so forged entries die and no honest pair is ever suspected. *)
let test_golden_pi2_byz_chaos () =
  let g = Topology.Generate.ring ~n:8 in
  List.iter
    (fun seed ->
      let duration = 20.0 in
      let schedule =
        Chaos.generate ~seed ~graph:g ~duration ~budget:Chaos.byzantine_budget ()
      in
      let probe = Probe.create () in
      let net = Net.create ~seed:(500 + seed) ~jitter_bound:200e-6 g in
      Net.set_probe net (Some probe);
      let rt = Topology.Routing.compute g in
      Net.use_routing net rt;
      ignore (Injector.apply ~probe ~net schedule);
      let ctrl = Injector.ctrl schedule in
      let byz = Injector.byz ~n:8 schedule in
      List.iter
        (fun (s, d) ->
          ignore
            (Flow.cbr net ~src:s ~dst:d ~rate_pps:80.0 ~size:500 ~start:0.0
               ~stop:duration))
        [ (0, 4); (4, 0); (1, 5); (5, 1); (3, 7); (7, 3) ];
      ignore (Core.Pi2_live.deploy ~net ~rt ~probe ~ctrl ?byz ());
      Net.run ~until:duration net;
      let byzantine =
        match byz with Some bz -> Byz.routers bz | None -> []
      in
      let o =
        Oracle.of_probe ~malicious:[] ~byzantine
          ?byz_stats:(Option.map Byz.stats byz) probe
      in
      Alcotest.(check int)
        (Printf.sprintf "pi2, byz chaos seed %d: zero alpha violations" seed)
        0 o.Oracle.alpha_violations;
      Alcotest.(check int)
        (Printf.sprintf "pi2, byz chaos seed %d: zero framed honest" seed)
        0 o.Oracle.framed_honest)
    [ 1; 2; 3 ]

let () =
  Alcotest.run "byz"
    [ ( "units",
        [ Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "honest + deterministic claims" `Quick
            test_claim_honest_and_deterministic;
          Alcotest.test_case "framer inflation and pruning" `Quick
            test_framer_arms;
          Alcotest.test_case "equivocator digests" `Quick
            test_equivocator_digests;
          Alcotest.test_case "screening rejects forgeries" `Quick
            test_screening_hardened;
          Alcotest.test_case "unhardened folds forgeries" `Quick
            test_screening_unhardened ] );
      ( "golden",
        [ Alcotest.test_case "fatih: scripted byz plan" `Slow
            test_golden_fatih_byz_plan;
          Alcotest.test_case "fatih: byzantine chaos" `Slow
            test_golden_fatih_byz_chaos;
          Alcotest.test_case "chi: byzantine chaos" `Slow
            test_golden_chi_byz_chaos;
          Alcotest.test_case "pi2: byzantine chaos" `Slow
            test_golden_pi2_byz_chaos ] ) ]
