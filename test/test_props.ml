(* Cross-cutting property-based tests: invariants of the priority queue,
   event engine, queues, summaries/TV, reconciliation-over-fingerprints,
   ECMP, and TCP under random loss. *)

open Netsim
module G = Topology.Graph

let to_alco = QCheck_alcotest.to_alcotest

(* --- Prioq --- *)

let prop_prioq_sorted =
  QCheck.Test.make ~name:"pop order is non-decreasing" ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun priorities ->
      let q = Prioq.create () in
      List.iteri (fun i p -> Prioq.push q ~priority:p i) priorities;
      let rec drain last =
        match Prioq.pop q with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let prop_prioq_fifo_ties =
  QCheck.Test.make ~name:"equal priorities pop in insertion order" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let q = Prioq.create () in
      for i = 0 to n - 1 do
        Prioq.push q ~priority:1.0 i
      done;
      let rec drain expect =
        match Prioq.pop q with
        | None -> expect = n
        | Some (_, v) -> v = expect && drain (expect + 1)
      in
      drain 0)

let prop_prioq_matches_sorted_reference =
  (* The drained (priority, value) sequence must equal a stable sort of
     the input by priority — full order, not just local monotonicity. *)
  QCheck.Test.make ~name:"pop sequence = stable sort of input" ~count:200
    QCheck.(list (float_range 0.0 100.0))
    (fun priorities ->
      let q = Prioq.create () in
      List.iteri (fun i p -> Prioq.push q ~priority:p i) priorities;
      let rec drain acc =
        match Prioq.pop q with None -> List.rev acc | Some pv -> drain (pv :: acc)
      in
      let expected =
        List.stable_sort
          (fun (p1, _) (p2, _) -> Float.compare p1 p2)
          (List.mapi (fun i p -> (p, i)) priorities)
      in
      drain [] = expected)

let prop_prioq_fifo_ties_interleaved =
  (* FIFO stability must survive interleaving with other priorities, not
     just an all-ties heap. *)
  QCheck.Test.make ~name:"ties stay FIFO when interleaved" ~count:200
    QCheck.(list (int_bound 3))
    (fun buckets ->
      let q = Prioq.create () in
      List.iteri (fun i b -> Prioq.push q ~priority:(float_of_int b) i) buckets;
      let rec drain acc =
        match Prioq.pop q with None -> List.rev acc | Some pv -> drain (pv :: acc)
      in
      let drained = drain [] in
      List.for_all
        (fun bucket ->
          let ids =
            List.filter_map
              (fun (p, i) -> if p = float_of_int bucket then Some i else None)
              drained
          in
          List.sort compare ids = ids)
        [ 0; 1; 2; 3 ])

let prop_prioq_length =
  QCheck.Test.make ~name:"length tracks pushes and pops" ~count:100
    QCheck.(list (float_range 0.0 10.0))
    (fun ps ->
      let q = Prioq.create () in
      List.iteri (fun i p -> Prioq.push q ~priority:p i) ps;
      let n = List.length ps in
      Prioq.length q = n
      && begin
           ignore (Prioq.pop q);
           Prioq.length q = max 0 (n - 1)
         end)

(* --- Keyring MACs --- *)

let prop_keyring_mac_roundtrip =
  (* mac is order-independent in the router pair, verifies, rejects
     tampering, and mac64 is the big-endian 8-byte prefix of mac. *)
  QCheck.Test.make ~name:"keyring mac/mac64/verify_mac" ~count:100
    QCheck.(triple (int_bound 5) (int_bound 5) string)
    (fun (a, b, msg) ->
      let ring = Crypto_sim.Keyring.create ~n:6 () in
      let tag = Crypto_sim.Keyring.mac ring a b msg in
      let prefix = ref 0L in
      for i = 0 to 7 do
        prefix :=
          Int64.logor (Int64.shift_left !prefix 8) (Int64.of_int (Char.code tag.[i]))
      done;
      String.length tag = 32
      && tag = Crypto_sim.Keyring.mac ring b a msg
      && Crypto_sim.Keyring.verify_mac ring a b msg tag
      && Crypto_sim.Keyring.mac64 ring a b msg = !prefix
      && (not (Crypto_sim.Keyring.verify_mac ring a b (msg ^ "!") tag))
      && (a = b || not (Crypto_sim.Keyring.verify_mac ring a ((b + 1) mod 6) msg tag)))

(* --- Sim --- *)

let prop_sim_time_monotone =
  QCheck.Test.make ~name:"events fire in time order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0.0 100.0))
    (fun delays ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter
        (fun d -> Sim.schedule sim ~delay:d (fun () -> fired := Sim.now sim :: !fired))
        delays;
      Sim.run sim;
      let order = List.rev !fired in
      List.sort compare order = order
      && List.length order = List.length delays)

(* --- Queue_fifo --- *)

let prop_fifo_occupancy_invariant =
  QCheck.Test.make ~name:"occupancy = sum of queued sizes <= limit" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 2000))
    (fun sizes ->
      let sim = Sim.create () in
      let q = Queue_fifo.create ~limit_bytes:8000 () in
      let accepted = ref 0 in
      List.iter
        (fun size ->
          let p = Packet.make ~sim ~src:0 ~dst:1 ~flow:0 ~size Packet.Udp in
          if Queue_fifo.try_enqueue q p then accepted := !accepted + size)
        sizes;
      Queue_fifo.occupancy q = !accepted && Queue_fifo.occupancy q <= 8000)

(* --- Red --- *)

let prop_red_physical_limit =
  QCheck.Test.make ~name:"red never exceeds the physical limit" ~count:50
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(int_range 1 300) (int_range 40 2000)))
    (fun (seed, sizes) ->
      let sim = Sim.create () in
      let rng = Random.State.make [| seed |] in
      let q = Red.create ~rng () in
      let now = ref 0.0 in
      List.iter
        (fun size ->
          now := !now +. 0.0005;
          ignore (Red.enqueue q ~now:!now ~link_bw:1.25e6
                    (Packet.make ~sim ~src:0 ~dst:1 ~flow:0 ~size Packet.Udp)))
        sizes;
      Red.occupancy q <= Red.default_params.Red.limit_bytes && Red.avg q >= 0.0)

(* --- Summary / TV --- *)

let summary_of fps =
  let s = Core.Summary.create Core.Summary.Content in
  List.iter (fun fp -> Core.Summary.observe s ~fp ~size:100 ~time:0.0) fps;
  s

let prop_tv_reflexive =
  QCheck.Test.make ~name:"tv(s, s) holds" ~count:200
    QCheck.(list (map Int64.of_int small_int))
    (fun fps ->
      let v = Core.Validation.tv ~sent:(summary_of fps) ~received:(summary_of fps) () in
      v.Core.Validation.ok)

let prop_tv_missing_fabricated_swap =
  QCheck.Test.make ~name:"swapping roles swaps missing/fabricated" ~count:200
    QCheck.(pair (list (map Int64.of_int small_int)) (list (map Int64.of_int small_int)))
    (fun (a, b) ->
      let sa = summary_of a and sb = summary_of b in
      let v1 = Core.Validation.tv ~sent:sa ~received:sb () in
      let v2 = Core.Validation.tv ~sent:sb ~received:sa () in
      List.sort compare v1.Core.Validation.missing
      = List.sort compare v2.Core.Validation.fabricated
      && List.sort compare v1.Core.Validation.fabricated
         = List.sort compare v2.Core.Validation.missing)

(* --- Reconciliation over packet fingerprints --- *)

let prop_reconcile_fingerprints =
  QCheck.Test.make ~name:"reconcile recovers dropped fingerprints" ~count:20
    QCheck.(pair (int_range 50 300) (int_range 0 10))
    (fun (n, dropped) ->
      QCheck.assume (dropped <= n);
      let elements =
        Array.init n (fun i ->
            Setrecon.Reconcile.element_of_fingerprint
              (Crypto_sim.Fnv.hash_int64 (Int64.of_int (i * 7 + 1))))
      in
      let received = Array.sub elements dropped (n - dropped) in
      match Setrecon.Reconcile.diff ~a:elements ~b:received () with
      | None -> false
      | Some r ->
          List.length r.Setrecon.Reconcile.a_minus_b = dropped
          && r.Setrecon.Reconcile.b_minus_a = [])

(* --- ECMP --- *)

let prop_ecmp_paths_shortest =
  QCheck.Test.make ~name:"ecmp path cost equals the shortest-path cost" ~count:20
    QCheck.(pair (int_range 8 14) (int_bound 1000))
    (fun (n, seed) ->
      let g = Topology.Generate.ispish ~seed ~n ~duplex_links:(2 * n) ~max_degree:n () in
      let e = Topology.Ecmp.compute g in
      let rt = Topology.Routing.compute g in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              src = dst
              ||
              match (Topology.Ecmp.path e ~src ~dst ~flow:(src * 31 + dst), Topology.Routing.cost rt src dst) with
              | Some p, Some c ->
                  let rec cost = function
                    | a :: (b :: _ as rest) ->
                        (G.link_exn g a b).G.cost + cost rest
                    | _ -> 0
                  in
                  cost p = c
              | None, None -> true
              | _ -> false)
            (List.init n Fun.id))
        (List.init n Fun.id))

(* --- TCP under random loss --- *)

let prop_tcp_progress_under_loss =
  QCheck.Test.make ~name:"tcp completes under random loss" ~count:8
    QCheck.(pair (int_bound 1000) (int_range 0 25))
    (fun (seed, loss_pct) ->
      let g = Topology.Generate.line ~n:3 in
      let net = Net.create ~seed:(seed + 1) ~jitter_bound:0.0 g in
      Net.use_routing net (Topology.Routing.compute g);
      let fraction = float_of_int loss_pct /. 100.0 in
      if fraction > 0.0 then
        Router.set_behavior (Net.router net 1)
          (Core.Adversary.drop_fraction ~seed fraction);
      let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:50_000 () in
      Net.run ~until:300.0 net;
      (* Reno with go-back-N recovery must eventually push everything
         through any constant loss rate <= 25%. *)
      Tcp.finished conn && Tcp.bytes_acked conn = 50_000)

let prop_tcp_never_overclaims =
  QCheck.Test.make ~name:"bytes_acked never exceeds the offered bytes" ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      let g = Topology.Generate.line ~n:3 in
      let net = Net.create ~seed:(seed + 1) ~jitter_bound:100e-6 g in
      Net.use_routing net (Topology.Routing.compute g);
      Router.set_behavior (Net.router net 1) (Core.Adversary.drop_fraction ~seed 0.1);
      let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:30_000 () in
      Net.run ~until:120.0 net;
      Tcp.bytes_acked conn <= 30_000)

(* --- Protocol chi soundness at packet level (Appendix C flavour) --- *)

let prop_chi_sound_and_complete =
  (* Random seeds, random attack intensity (possibly none): chi never
     alarms without malicious drops; blatant attacks are caught. *)
  QCheck.Test.make ~name:"chi: no malice, no alarm; heavy malice, alarm" ~count:8
    QCheck.(pair (int_bound 1000) (int_bound 2))
    (fun (seed, mode) ->
      let g = G.create ~n:5 in
      G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 3;
      G.add_duplex g ~bw:12.5e6 ~delay:0.001 1 3;
      G.add_duplex g ~bw:12.5e6 ~delay:0.001 2 3;
      G.add_duplex g ~bw:1.25e6 ~delay:0.005 3 4;
      let net = Net.create ~seed:(seed + 1) ~jitter_bound:200e-6 g in
      let rt = Topology.Routing.compute g in
      Net.use_routing net rt;
      (* min_suspicious = 2: one borderline congestion drop in an unlucky
         jitter realization must not fail soundness (see ablation 5). *)
      let config =
        { Core.Chi.default_config with
          Core.Chi.tau = 1.0; learning_rounds = 4; min_suspicious = 2 }
      in
      let chi = Core.Chi.deploy ~net ~rt ~router:3 ~next:4 ~config () in
      let malicious = ref 0 in
      Net.subscribe_router net (fun ev ->
          match ev.Net.kind with Router.Malicious_drop _ -> incr malicious | _ -> ());
      List.iter (fun src -> ignore (Tcp.connect net ~src ~dst:4 ())) [ 0; 1; 2 ];
      (match mode with
      | 0 -> () (* benign *)
      | 1 ->
          Router.set_behavior (Net.router net 3)
            (Core.Adversary.after 8.0 (Core.Adversary.drop_fraction ~seed 0.3))
      | _ ->
          Router.set_behavior (Net.router net 3)
            (Core.Adversary.after 8.0 (Core.Adversary.drop_when_queue_above 0.9)));
      Net.run ~until:25.0 net;
      let alarms = List.length (Core.Chi.alarms chi) in
      if !malicious = 0 then alarms = 0
      else if !malicious > 30 then alarms > 0
      else true (* a handful of drops may legitimately take longer *))

(* --- Telemetry merge laws --- *)

(* The sharded engine's epoch-barrier aggregation depends on Hist and
   Timeseries merges being exact integer arithmetic: commutative and
   associative, so any grouping of per-shard collectors produces the
   same bytes.  Compare full observable state, not just totals. *)

module Hist = Telemetry.Hist
module Ts = Telemetry.Timeseries

(* Mostly ordinary values, plus ones the fixed-point sum cannot hold:
   they land in a bucket but stay out of the sum, on every merge order. *)
let sample_gen =
  QCheck.(
    list_of_size
      Gen.(0 -- 60)
      (frequency
         [ (8, float_range (-2.0) 900.0);
           (1, oneofl [ 1e11; -3e11; 1e30; infinity; neg_infinity; nan ]) ]))

let hist_of_values vs =
  let h = Hist.create ~buckets:20 ~min_exp:(-10) () in
  List.iter (Hist.record h) vs;
  h

let hist_state h =
  ( Array.init (Hist.buckets h) (Hist.bucket_count h),
    Hist.count h,
    Hist.sum h )

let prop_hist_merge_commutative =
  QCheck.Test.make ~name:"hist merge is commutative" ~count:300
    QCheck.(pair sample_gen sample_gen)
    (fun (a, b) ->
      let ha = hist_of_values a and hb = hist_of_values b in
      hist_state (Hist.merge ha hb) = hist_state (Hist.merge hb ha))

let prop_hist_merge_associative =
  QCheck.Test.make ~name:"hist merge is associative" ~count:300
    QCheck.(triple sample_gen sample_gen sample_gen)
    (fun (a, b, c) ->
      let ha = hist_of_values a
      and hb = hist_of_values b
      and hc = hist_of_values c in
      hist_state (Hist.merge (Hist.merge ha hb) hc)
      = hist_state (Hist.merge ha (Hist.merge hb hc)))

(* Timed samples spread far enough to force coarsening on some inputs,
   so the law is exercised across mismatched levels too. *)
let timed_gen =
  QCheck.(
    list_of_size
      Gen.(0 -- 60)
      (pair (float_range 0.0 40.0) (float_range (-1.0) 50.0)))

let ts_of_samples samples =
  let ts = Ts.create ~capacity:8 ~resolution:1.0 () in
  List.iter (fun (time, v) -> Ts.record ts ~time v) samples;
  ts

let ts_state ts =
  ( Ts.level ts,
    Ts.used ts,
    Array.init (Ts.used ts) (Ts.bucket_count ts),
    Array.init (Ts.used ts) (Ts.bucket_sum ts) )

let prop_ts_merge_commutative =
  QCheck.Test.make ~name:"timeseries merge is commutative" ~count:300
    QCheck.(pair timed_gen timed_gen)
    (fun (a, b) ->
      let ta = ts_of_samples a and tb = ts_of_samples b in
      ts_state (Ts.merge ta tb) = ts_state (Ts.merge tb ta))

let prop_ts_merge_associative =
  QCheck.Test.make ~name:"timeseries merge is associative" ~count:300
    QCheck.(triple timed_gen timed_gen timed_gen)
    (fun (a, b, c) ->
      let ta = ts_of_samples a
      and tb = ts_of_samples b
      and tc = ts_of_samples c in
      ts_state (Ts.merge (Ts.merge ta tb) tc)
      = ts_state (Ts.merge ta (Ts.merge tb tc)))

(* --- Meter --- *)

let prop_meter_totals =
  QCheck.Test.make ~name:"meter total equals delivered bytes" ~count:10
    QCheck.(pair (int_range 1 50) (int_range 100 1000))
    (fun (pps, size) ->
      let g = Topology.Generate.line ~n:2 in
      let net = Net.create ~jitter_bound:0.0 g in
      Net.use_routing net (Topology.Routing.compute g);
      let f =
        Flow.cbr net ~src:0 ~dst:1 ~rate_pps:(float_of_int pps) ~size ~start:0.0 ~stop:2.0
      in
      let meter = Meter.flow_throughput net ~node:1 ~flow:(Flow.flow_id f) ~bucket:0.5 in
      Net.run net;
      Meter.total_bytes meter = Flow.sent f * size)

let () =
  Alcotest.run "properties"
    [ ( "prioq",
        List.map to_alco
          [ prop_prioq_sorted; prop_prioq_fifo_ties; prop_prioq_length;
            prop_prioq_matches_sorted_reference; prop_prioq_fifo_ties_interleaved ] );
      ("keyring-mac", List.map to_alco [ prop_keyring_mac_roundtrip ]);
      ("sim", List.map to_alco [ prop_sim_time_monotone ]);
      ("queues", List.map to_alco [ prop_fifo_occupancy_invariant; prop_red_physical_limit ]);
      ("tv", List.map to_alco [ prop_tv_reflexive; prop_tv_missing_fabricated_swap ]);
      ("reconcile", List.map to_alco [ prop_reconcile_fingerprints ]);
      ("ecmp", List.map to_alco [ prop_ecmp_paths_shortest ]);
      ( "tcp",
        List.map to_alco [ prop_tcp_progress_under_loss; prop_tcp_never_overclaims ] );
      ("chi", List.map to_alco [ prop_chi_sound_and_complete ]);
      ( "telemetry-merge",
        List.map to_alco
          [ prop_hist_merge_commutative; prop_hist_merge_associative;
            prop_ts_merge_commutative; prop_ts_merge_associative ] );
      ("meter", List.map to_alco [ prop_meter_totals ]) ]
