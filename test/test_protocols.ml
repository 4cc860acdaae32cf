(* Tests for Protocol Π2 and Protocol Πk+2 over the abstract round
   engine, including the Appendix B accuracy/completeness properties as
   randomized property tests. *)

open Core
module Gen = Topology.Generate
module Rt = Topology.Routing


(* --- Rounds engine --- *)

let test_observe_clean () =
  let rt = Rt.compute (Gen.line ~n:4) in
  let segments = Pi2.family rt ~k:1 in
  let obs =
    Rounds.observe ~rt ~segments ~adversary:(Rounds.passive []) ~packets_per_path:5
      ~round:0 ()
  in
  Alcotest.(check int) "no drops" 0 (List.length obs.Rounds.dropped_by);
  List.iter
    (fun (_, summaries) ->
      let first = Summary.packets summaries.(0) in
      Array.iter
        (fun s -> Alcotest.(check int) "conserved" first (Summary.packets s))
        summaries)
    obs.Rounds.truth

let test_observe_dropper () =
  let rt = Rt.compute (Gen.line ~n:4) in
  let segments = Pi2.family rt ~k:1 in
  let adversary = Rounds.dropper [ 1 ] in
  let obs = Rounds.observe ~rt ~segments ~adversary ~packets_per_path:5 ~round:0 () in
  (match obs.Rounds.dropped_by with
  | [ (1, n) ] -> Alcotest.(check bool) "router 1 dropped" true (n > 0)
  | _ -> Alcotest.fail "expected drops only at router 1");
  (* The 0-1-2 segment must show the loss between positions 0 and 1. *)
  let _, summaries = List.find (fun (s, _) -> s = [ 0; 1; 2 ]) obs.Rounds.truth in
  Alcotest.(check bool) "loss visible" true
    (Summary.packets summaries.(1) < Summary.packets summaries.(0))

let test_observe_partial_dropper () =
  let rt = Rt.compute (Gen.line ~n:4) in
  let segments = Pi2.family rt ~k:1 in
  let adversary = Rounds.dropper ~fraction:0.5 ~seed:3 [ 1 ] in
  let obs = Rounds.observe ~rt ~segments ~adversary ~packets_per_path:200 ~round:0 () in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 obs.Rounds.dropped_by in
  (* Router 1 transits 4 directed paths with 200 packets each. *)
  Alcotest.(check bool) (Printf.sprintf "about half dropped (%d)" total) true
    (total > 250 && total < 550)

let test_adjacent_fault_bound () =
  let rt = Rt.compute (Gen.line ~n:6) in
  Alcotest.(check int) "no faults" 0 (Rounds.adjacent_fault_bound ~rt ~faulty:[]);
  Alcotest.(check int) "single" 1 (Rounds.adjacent_fault_bound ~rt ~faulty:[ 2 ]);
  Alcotest.(check int) "adjacent pair" 2 (Rounds.adjacent_fault_bound ~rt ~faulty:[ 2; 3 ]);
  Alcotest.(check int) "separated" 1 (Rounds.adjacent_fault_bound ~rt ~faulty:[ 1; 4 ])

(* --- Π2 --- *)

let test_pi2_clean_no_suspicion () =
  let rt = Rt.compute (Gen.ring ~n:6) in
  let segs = Pi2.detect_round ~rt ~k:1 ~adversary:(Rounds.passive []) ~round:0 () in
  Alcotest.(check int) "silent" 0 (List.length segs)

let test_pi2_detects_dropper_with_precision_2 () =
  let rt = Rt.compute (Gen.line ~n:5) in
  let segs = Pi2.detect_round ~rt ~k:1 ~adversary:(Rounds.dropper [ 2 ]) ~round:0 () in
  Alcotest.(check bool) "something suspected" true (segs <> []);
  List.iter
    (fun s ->
      Alcotest.(check int) "precision 2" 2 (List.length s);
      Alcotest.(check bool) "contains the dropper" true (List.mem 2 s))
    segs

let test_pi2_detects_modifier () =
  let rt = Rt.compute (Gen.line ~n:5) in
  let segs = Pi2.detect_round ~rt ~k:1 ~adversary:(Rounds.modifier [ 3 ]) ~round:0 () in
  Alcotest.(check bool) "detected" true (List.exists (List.mem 3) segs)

let test_pi2_hider_still_caught () =
  (* A dropper that misreports (echoes upstream) shifts the blame pair
     downstream but is still inside every suspected segment. *)
  let rt = Rt.compute (Gen.line ~n:5) in
  let adversary = Rounds.hider (Rounds.dropper [ 2 ]) in
  let segs = Pi2.detect_round ~rt ~k:1 ~adversary ~round:0 () in
  Alcotest.(check bool) "still detected" true (segs <> []);
  List.iter
    (fun s -> Alcotest.(check bool) "accurate" true (List.mem 2 s))
    segs

let test_pi2_hider_shifts_blame () =
  (* The smallest case that tells a hider from an honest dropper: on the
     line 0-1-2 the dropper 1 is the middle router of both 3-segments.
     Reporting its own summary, it fails the pair with its upstream
     neighbour; echoing that neighbour's, the pair downstream. *)
  let rt = Rt.compute (Gen.line ~n:3) in
  let suspected adversary = Pi2.detect_round ~rt ~k:1 ~adversary ~round:0 () in
  Alcotest.(check (list (list int))) "dropper" [ [ 0; 1 ]; [ 2; 1 ] ]
    (suspected (Rounds.dropper [ 1 ]));
  Alcotest.(check (list (list int))) "hider" [ [ 1; 0 ]; [ 1; 2 ] ]
    (suspected (Rounds.hider (Rounds.dropper [ 1 ])))

let test_pi2_adjacent_pair_k2 () =
  let rt = Rt.compute (Gen.line ~n:6) in
  let adversary = Rounds.hider (Rounds.dropper [ 2; 3 ]) in
  let segs = Pi2.detect_round ~rt ~k:2 ~adversary ~round:0 () in
  Alcotest.(check bool) "detected" true (segs <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "accurate (contains 2 or 3)" true
        (List.mem 2 s || List.mem 3 s))
    segs

let test_pi2_full_detect_properties () =
  let g = Gen.line ~n:5 in
  let rt = Rt.compute g in
  let adversary = Rounds.dropper [ 2 ] in
  let suspicions = Pi2.detect ~rt ~k:1 ~adversary ~rounds:2 () in
  let faulty r = r = 2 in
  Alcotest.(check bool) "2-accurate" true
    (Spec.accurate ~faulty ~a:2 suspicions = Ok ());
  Alcotest.(check bool) "complete" true
    (Spec.complete ~graph:g ~faulty ~traffic_faulty:[ 2 ]
       ~correct_routers:(Rounds.correct_routers g ~faulty:[ 2 ])
       suspicions
    = Ok ());
  Alcotest.(check int) "precision" 2 (Spec.precision suspicions)

let test_pi2_state_counters () =
  let rt = Rt.compute (Gen.line ~n:5) in
  let counters = Pi2.state_counters rt ~k:1 in
  Alcotest.(check int) "middle router" 6 counters.(2);
  Alcotest.(check int) "edge router" 2 counters.(0)

(* --- Πk+2 --- *)

let test_pik2_clean_no_suspicion () =
  let rt = Rt.compute (Gen.ring ~n:6) in
  let segs = Pik2.detect_round ~rt ~k:1 ~adversary:(Rounds.passive []) ~round:0 () in
  Alcotest.(check int) "silent" 0 (List.length segs)

let test_pik2_detects_dropper () =
  let rt = Rt.compute (Gen.line ~n:5) in
  let segs = Pik2.detect_round ~rt ~k:1 ~adversary:(Rounds.dropper [ 2 ]) ~round:0 () in
  Alcotest.(check bool) "detected" true (segs <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "length <= 3" true (List.length s <= 3);
      Alcotest.(check bool) "contains dropper" true (List.mem 2 s))
    segs

(* A segment's closing terminal reports what it received from the
   segment, not what it forwarded on.  Reading the latter put router 5's
   own drops between ⟨a, m, 5⟩'s terminals, so the abstract round raised
   the three segments that close at the dropper, which the live Fatih
   collector ([Seg_index]) never raises. *)
let test_pik2_closing_terminal_reads_received () =
  let rt = Rt.compute (Gen.waxman ~seed:30 ~n:7 ()) in
  let segs = Pik2.detect_round ~rt ~k:1 ~adversary:(Rounds.dropper [ 5 ]) ~round:1 () in
  Alcotest.(check bool) "the dropper is caught" true (List.exists (List.mem 5) segs);
  List.iter
    (fun seg ->
      Alcotest.(check bool)
        (Printf.sprintf "<%s> not raised" (String.concat "," (List.map string_of_int seg)))
        false (List.mem seg segs))
    [ [ 0; 3; 5 ]; [ 2; 1; 5 ]; [ 6; 3; 5 ] ]

let test_pik2_blocked_exchange_is_suspected () =
  let rt = Rt.compute (Gen.line ~n:5) in
  let adversary =
    { (Rounds.passive [ 2 ]) with Rounds.blocks_exchange = (fun r -> r = 2) }
  in
  let segs = Pik2.detect_round ~rt ~k:1 ~adversary ~round:0 () in
  Alcotest.(check bool) "timeout detected" true (List.exists (List.mem 2) segs)

let test_pik2_faulty_end_cannot_hide_globally () =
  (* k = 2, faulty pair {2,3}, both dropping and hiding: whatever the
     faulty ends of ⟨2,3,4⟩ or ⟨1,2,3⟩ report, ⟨1,2,3,4⟩ has correct
     ends 1,4 and exposes the drops. *)
  let g = Gen.line ~n:6 in
  let rt = Rt.compute g in
  let adversary = Rounds.hider (Rounds.dropper [ 2; 3 ]) in
  let suspicions = Pik2.detect ~rt ~k:2 ~adversary ~rounds:1 () in
  let faulty r = r = 2 || r = 3 in
  Alcotest.(check bool) "caught" true (suspicions <> []);
  Alcotest.(check bool) "(k+2)-accurate" true
    (Spec.accurate ~faulty ~a:4 suspicions = Ok ());
  Alcotest.(check bool) "complete" true
    (Spec.complete ~graph:g ~faulty ~traffic_faulty:[ 2; 3 ]
       ~correct_routers:(Rounds.correct_routers g ~faulty:[ 2; 3 ])
       suspicions
    = Ok ())

let test_pik2_sampling_still_detects_full_drop () =
  let rt = Rt.compute (Gen.line ~n:5) in
  let sampling =
    Crypto_sim.Sampling.create
      ~key:(Crypto_sim.Siphash.key_of_string "pik2-test") ~fraction:0.5
  in
  let segs =
    Pik2.detect_round ~rt ~k:1 ~adversary:(Rounds.dropper [ 2 ]) ~sampling
      ~packets_per_path:100 ~round:0 ()
  in
  Alcotest.(check bool) "detected from samples" true (List.exists (List.mem 2) segs)

let test_pik2_state_cheaper_than_pi2 () =
  (* §5.1.1/§5.2.1: both protocols keep far less state than WATCHERS, and
     Πk+2's worst-case per-router segment count stays near N while Π2's
     explodes with k (Figs 5.2 vs 5.4). *)
  let rt = Rt.compute (Gen.ebone_like ()) in
  let mean a =
    float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)
  in
  let maxi a = Array.fold_left max 0 a in
  let pi2_max = maxi (Pi2.state_counters rt ~k:6) in
  let pik2_max = maxi (Pik2.state_counters rt ~k:6) in
  Alcotest.(check bool)
    (Printf.sprintf "pi2 max %d explodes vs pik2 max %d" pi2_max pik2_max)
    true
    (pi2_max > 2 * pik2_max);
  let pi2 = mean (Pi2.state_counters rt ~k:2) in
  let pik2 = mean (Pik2.state_counters rt ~k:2) in
  let watchers = mean (Watchers.counters_per_router (Rt.graph rt)) in
  Alcotest.(check bool)
    (Printf.sprintf "pik2 %.0f and pi2 %.0f << watchers %.0f" pik2 pi2 watchers)
    true
    (pik2 < watchers /. 4.0 && pi2 < watchers /. 4.0)

(* --- Appendix B property tests --- *)

(* Random scenario: an ISP-like topology, a faulty set respecting
   AdjacentFault(k), a dropper (optionally hiding). *)
let scenario_gen =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 8 16 in
      let* seed = int_bound 10_000 in
      let* f1 = int_range 1 (n - 2) in
      let* hide = bool in
      return (n, seed, f1, hide))

let run_protocol ~detect (n, seed, f1, hide) =
  let g = Gen.ispish ~seed ~n ~duplex_links:(2 * n) ~max_degree:n () in
  let rt = Rt.compute g in
  let base = Rounds.dropper ~seed [ f1 ] in
  let adversary = if hide then Rounds.hider base else base in
  let k = max 1 (Rounds.adjacent_fault_bound ~rt ~faulty:[ f1 ]) in
  let suspicions = detect ~rt ~k ~adversary in
  (g, rt, k, suspicions)

let prop_pi2_accuracy =
  QCheck.Test.make ~name:"pi2 accuracy (B.2)" ~count:25 scenario_gen (fun sc ->
      let _, _, _, suspicions =
        run_protocol sc ~detect:(fun ~rt ~k ~adversary ->
            Pi2.detect ~rt ~k ~adversary ~rounds:1 ())
      in
      let _, _, f1, _ = sc in
      Spec.accurate ~faulty:(fun r -> r = f1) ~a:2 suspicions = Ok ())

let prop_pi2_completeness =
  QCheck.Test.make ~name:"pi2 completeness (B.2)" ~count:25 scenario_gen (fun sc ->
      let g, rt, _, suspicions =
        run_protocol sc ~detect:(fun ~rt ~k ~adversary ->
            Pi2.detect ~rt ~k ~adversary ~rounds:1 ())
      in
      let _, _, f1, _ = sc in
      (* Only meaningful when the faulty router actually transits traffic. *)
      let transits =
        List.exists
          (fun p -> match p with _ :: rest -> List.mem f1 (List.filteri (fun i _ -> i < List.length rest - 1) rest) | [] -> false)
          (Rt.all_routed_paths rt)
      in
      (not transits)
      || Spec.complete ~graph:g ~faulty:(fun r -> r = f1) ~traffic_faulty:[ f1 ]
           ~correct_routers:(Rounds.correct_routers g ~faulty:[ f1 ])
           suspicions
         = Ok ())

let prop_pik2_accuracy =
  QCheck.Test.make ~name:"pik2 accuracy (B.3)" ~count:25 scenario_gen (fun sc ->
      let _, _, k, suspicions =
        run_protocol sc ~detect:(fun ~rt ~k ~adversary ->
            Pik2.detect ~rt ~k ~adversary ~rounds:1 ())
      in
      let _, _, f1, _ = sc in
      Spec.accurate ~faulty:(fun r -> r = f1) ~a:(k + 2) suspicions = Ok ())

let prop_pik2_completeness =
  QCheck.Test.make ~name:"pik2 completeness (B.3)" ~count:25 scenario_gen (fun sc ->
      let g, rt, _, suspicions =
        run_protocol sc ~detect:(fun ~rt ~k ~adversary ->
            Pik2.detect ~rt ~k ~adversary ~rounds:1 ())
      in
      let _, _, f1, _ = sc in
      let transits =
        List.exists
          (fun p ->
            match p with
            | _ :: rest ->
                List.mem f1 (List.filteri (fun i _ -> i < List.length rest - 1) rest)
            | [] -> false)
          (Rt.all_routed_paths rt)
      in
      (not transits)
      || Spec.complete ~graph:g ~faulty:(fun r -> r = f1) ~traffic_faulty:[ f1 ]
           ~correct_routers:(Rounds.correct_routers g ~faulty:[ f1 ])
           suspicions
         = Ok ())

let prop_pik2_adjacent_pair =
  (* Adjacent faulty pairs with hiding + exchange blocking: Πk+2 with
     k = 2 stays accurate and complete (B.3's harder case). *)
  QCheck.Test.make ~name:"pik2 adjacent colluders (B.3)" ~count:15
    QCheck.(pair (int_range 10 16) (int_bound 10_000))
    (fun (n, seed) ->
      let g = Gen.ispish ~seed ~n ~duplex_links:(2 * n) ~max_degree:n () in
      let rt = Rt.compute g in
      (* Pick an adjacent pair that transits traffic. *)
      let pair =
        List.find_map
          (fun p ->
            match p with
            | _ :: a :: b :: _ :: _ -> Some (a, b)
            | _ -> None)
          (Rt.all_routed_paths rt)
      in
      match pair with
      | None -> true
      | Some (a, b) ->
          let faulty = [ a; b ] in
          let k = max 2 (Rounds.adjacent_fault_bound ~rt ~faulty) in
          if k > 3 then true (* exotic clustering; out of scope for this property *)
          else begin
            let adversary =
              { (Rounds.hider (Rounds.dropper ~seed faulty)) with
                Rounds.blocks_exchange = (fun r -> r = a) }
            in
            let suspicions = Pik2.detect ~rt ~k ~adversary ~rounds:1 () in
            let is_faulty r = List.mem r faulty in
            Spec.accurate ~faulty:is_faulty ~a:(k + 2) suspicions = Ok ()
            && Spec.complete ~graph:g ~faulty:is_faulty ~traffic_faulty:faulty
                 ~correct_routers:(Rounds.correct_routers g ~faulty)
                 suspicions
               = Ok ()
          end)

let prop_pi2_protocol_faulty_only =
  (* A router that lies about its summaries without touching traffic:
     Π2's suspicions still contain it (accuracy), and no correct pair is
     ever framed. *)
  QCheck.Test.make ~name:"pi2 liar-only accuracy" ~count:20
    QCheck.(pair (int_range 8 14) (int_bound 10_000))
    (fun (n, seed) ->
      let g = Gen.ispish ~seed ~n ~duplex_links:(2 * n) ~max_degree:n () in
      let rt = Rt.compute g in
      let liar = 1 + (seed mod (n - 2)) in
      let adversary =
        { (Rounds.passive [ liar ]) with
          Rounds.misreport =
            (fun ~router ~pos ~truth ->
              if router = liar then begin
                (* Under-report: erase half the fingerprints. *)
                let s = Summary.copy truth.(pos) in
                List.iteri
                  (fun i fp -> if i mod 2 = 0 then Summary.remove s fp)
                  (Summary.fingerprints s);
                s
              end
              else truth.(pos)) }
      in
      let segs = Pi2.detect_round ~rt ~k:1 ~adversary ~round:0 () in
      List.for_all (List.mem liar) segs)

let prop_no_false_positives =
  (* Accuracy in the absence of any fault: neither protocol ever suspects
     anything. *)
  QCheck.Test.make ~name:"no faults, no suspicions" ~count:20
    QCheck.(pair (int_range 8 14) (int_bound 10_000))
    (fun (n, seed) ->
      let g = Gen.ispish ~seed ~n ~duplex_links:(2 * n) ~max_degree:n () in
      let rt = Rt.compute g in
      Pi2.detect_round ~rt ~k:1 ~adversary:(Rounds.passive []) ~round:0 () = []
      && Pik2.detect_round ~rt ~k:1 ~adversary:(Rounds.passive []) ~round:0 () = [])

(* --- Bounded-exhaustive Appendix B check --- *)

(* Every labelled connected duplex graph on n routers with unit costs:
   each subset of the n (n - 1) / 2 router pairs, kept when connected
   (4 graphs on 3 routers, 38 on 4). *)
let connected_graphs n =
  let pairs =
    List.concat_map (fun a -> List.init (n - a - 1) (fun i -> (a, a + i + 1))) (List.init n Fun.id)
  in
  List.filter_map
    (fun mask ->
      let g = Topology.Graph.create ~n in
      List.iteri
        (fun i (a, b) -> if mask land (1 lsl i) <> 0 then Topology.Graph.add_duplex g a b)
        pairs;
      if Topology.Graph.is_connected g then Some g else None)
    (List.init (1 lsl List.length pairs) Fun.id)

let describe g =
  String.concat " "
    (List.filter_map
       (fun (l : Topology.Graph.link) ->
         if l.Topology.Graph.src < l.Topology.Graph.dst then
           Some (Printf.sprintf "%d-%d" l.Topology.Graph.src l.Topology.Graph.dst)
         else None)
       (List.sort compare (Topology.Graph.links g)))

(* The small scope covered completely, after the bounded model checking
   of Sosnovich et al.: every connected unit-cost graph on 3 and 4
   routers, every faulty set of 1 or 2 routers, k in {1, 2} wherever
   AdjacentFault(k) holds, four adversaries and both protocols over 2
   rounds: 5,240 cases.  Each must be a-accurate (a = 2 for Pi2, k + 2
   for Pik2) and complete for every faulty router that carries transit.
   Each graph's routing is also checked against Floyd-Warshall, and its
   families at k = 1..4 against the list-windows reference. *)
let test_exhaustive_small_scope () =
  let cases = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun g ->
          let rt = Rt.compute g in
          let fw = Refs.floyd_warshall g in
          for d = 0 to n - 1 do
            for v = 0 to n - 1 do
              if Rt.cost rt v d <> Some fw.(v).(d) then
                Alcotest.failf "[%s]: cost %d -> %d differs from Floyd-Warshall" (describe g) v d
            done
          done;
          List.iter
            (fun k ->
              if not (Refs.families_match rt k) then
                Alcotest.failf "[%s]: families at k = %d differ from the reference" (describe g) k)
            [ 1; 2; 3; 4 ];
          let transit r =
            List.exists
              (fun p ->
                match p with
                | _ :: rest -> List.mem r (List.filteri (fun i _ -> i < List.length rest - 1) rest)
                | [] -> false)
              (Rt.all_routed_paths rt)
          in
          let sets =
            List.init n (fun a -> [ a ])
            @ List.concat_map (fun a -> List.init (n - a - 1) (fun i -> [ a; a + i + 1 ]))
                (List.init n Fun.id)
          in
          List.iter
            (fun faulty ->
              let is_faulty r = List.mem r faulty in
              let bound = Rounds.adjacent_fault_bound ~rt ~faulty in
              let correct_routers = Rounds.correct_routers g ~faulty in
              let traffic_faulty = List.filter transit faulty in
              List.iter
                (fun k ->
                  if bound <= k then
                    List.iter
                      (fun (aname, adversary) ->
                        List.iter
                          (fun (pname, a, detect) ->
                            incr cases;
                            let suspicions = detect ~rt ~k ~adversary ~rounds:2 () in
                            let fail what msg =
                              Alcotest.failf "%s, [%s], faulty [%s], k = %d, %s: %s: %s" pname
                                (describe g)
                                (String.concat "," (List.map string_of_int faulty))
                                k aname what msg
                            in
                            (match Spec.accurate ~faulty:is_faulty ~a suspicions with
                            | Ok () -> ()
                            | Error msg -> fail "not accurate" msg);
                            match
                              Spec.complete ~graph:g ~faulty:is_faulty ~traffic_faulty
                                ~correct_routers suspicions
                            with
                            | Ok () -> ()
                            | Error msg -> fail "not complete" msg)
                          [ ("pi2", 2, Pi2.detect); ("pik2", k + 2, Pik2.detect) ])
                      [ ("dropper", Rounds.dropper faulty);
                        ("modifier", Rounds.modifier faulty);
                        ("hider . dropper", Rounds.hider (Rounds.dropper faulty));
                        ("hider . modifier", Rounds.hider (Rounds.modifier faulty)) ])
                [ 1; 2 ])
            sets)
        (connected_graphs n))
    [ 3; 4 ];
  Alcotest.(check int) "cases" 5_240 !cases

(* The live half of the small scope: every connected unit-cost graph on
   4 routers, each router in turn faulty under a total dropper and a
   total modifier, Fatih (k = 1) at 20 pps CBR on every routed pair with
   no jitter, detections up to t = 10 s: 304 runs.  Each detection's
   segment contains the faulty router, and the detected segment set is
   exactly what one abstract Πk+2 round raises under the matching
   adversary on the same routing; 104 runs detect anything. *)
let test_live_small_scope () =
  let module Net = Netsim.Net in
  let seg s = "<" ^ String.concat "," (List.map string_of_int s) ^ ">" in
  let segs l = String.concat " " (List.map seg l) in
  let cases = ref 0 and detected = ref 0 in
  List.iter
    (fun g ->
      let rt = Rt.compute g in
      for faulty = 0 to 3 do
        List.iter
          (fun (aname, live, abstract) ->
            incr cases;
            let net = Net.create ~seed:1 ~jitter_bound:0.0 g in
            Net.use_routing net rt;
            let fatih = Fatih.deploy ~net ~rt () in
            for src = 0 to 3 do
              for dst = 0 to 3 do
                if src <> dst then
                  ignore
                    (Netsim.Flow.cbr net ~src ~dst ~rate_pps:20.0 ~size:500 ~start:0.0
                       ~stop:10.0)
              done
            done;
            Netsim.Router.set_behavior (Net.router net faulty) live;
            Net.run ~until:10.0 net;
            let detections = Fatih.detections fatih in
            let fail what =
              Alcotest.failf "[%s], router %d faulty, %s: %s" (describe g) faulty aname what
            in
            List.iter
              (fun d ->
                if not (List.mem faulty d.Fatih.segment) then
                  fail ("fatih raised " ^ seg d.Fatih.segment))
              detections;
            let live = List.sort_uniq compare (List.map (fun d -> d.Fatih.segment) detections) in
            let abstract =
              List.sort_uniq compare
                (Pik2.detect_round ~rt ~k:1 ~adversary:(abstract [ faulty ]) ~round:1 ())
            in
            if live <> [] then incr detected;
            if live <> abstract then
              fail (Printf.sprintf "fatih raised [%s], pik2 [%s]" (segs live) (segs abstract)))
          [ ("drop all", Adversary.drop_all, fun f -> Rounds.dropper f);
            ("modify all", Adversary.modify_fraction 1.0, Rounds.modifier) ]
      done)
    (connected_graphs 4);
  Alcotest.(check int) "runs" 304 !cases;
  (* The other runs' faulty router carries no transit on its graph. *)
  Alcotest.(check int) "runs with detections" 104 !detected

let () =
  Alcotest.run "protocols"
    [ ( "rounds",
        [ Alcotest.test_case "clean observation" `Quick test_observe_clean;
          Alcotest.test_case "dropper" `Quick test_observe_dropper;
          Alcotest.test_case "partial dropper" `Quick test_observe_partial_dropper;
          Alcotest.test_case "adjacent fault bound" `Quick test_adjacent_fault_bound ] );
      ( "pi2",
        [ Alcotest.test_case "clean" `Quick test_pi2_clean_no_suspicion;
          Alcotest.test_case "dropper precision 2" `Quick test_pi2_detects_dropper_with_precision_2;
          Alcotest.test_case "modifier" `Quick test_pi2_detects_modifier;
          Alcotest.test_case "hider" `Quick test_pi2_hider_still_caught;
          Alcotest.test_case "hider shifts blame" `Quick test_pi2_hider_shifts_blame;
          Alcotest.test_case "adjacent pair" `Quick test_pi2_adjacent_pair_k2;
          Alcotest.test_case "spec properties" `Quick test_pi2_full_detect_properties;
          Alcotest.test_case "state counters" `Quick test_pi2_state_counters ] );
      ( "pik2",
        [ Alcotest.test_case "clean" `Quick test_pik2_clean_no_suspicion;
          Alcotest.test_case "dropper" `Quick test_pik2_detects_dropper;
          Alcotest.test_case "closing terminal reads received" `Quick
            test_pik2_closing_terminal_reads_received;
          Alcotest.test_case "blocked exchange" `Quick test_pik2_blocked_exchange_is_suspected;
          Alcotest.test_case "faulty end" `Quick test_pik2_faulty_end_cannot_hide_globally;
          Alcotest.test_case "sampling" `Quick test_pik2_sampling_still_detects_full_drop;
          Alcotest.test_case "state comparison" `Quick test_pik2_state_cheaper_than_pi2 ] );
      ( "appendix-b",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pi2_accuracy; prop_pi2_completeness; prop_pik2_accuracy;
            prop_pik2_completeness; prop_pik2_adjacent_pair;
            prop_pi2_protocol_faulty_only; prop_no_false_positives ] );
      ( "small-scope",
        [ Alcotest.test_case "every graph on 3-4 routers, every 1-2 faulty" `Quick
            test_exhaustive_small_scope;
          Alcotest.test_case "live: every 4-router graph, fatih = one pik2 round" `Quick
            test_live_small_scope ] ) ]
